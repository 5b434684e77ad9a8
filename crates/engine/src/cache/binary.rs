//! The binary on-disk record codec: length-prefixed, field-tagged, decoded
//! in one pass over a single borrowed byte buffer.
//!
//! This is the [`DirCache`](super::DirCache)'s one record encoding. The
//! design follows the packed-value idiom: a tagged byte layout that a reader
//! walks directly — no intermediate value tree, no string escaping, no
//! float formatting. Decode borrows from the one `Vec<u8>` the cache read
//! from disk: varint lengths are bounds-checked against the remaining
//! buffer, strings are UTF-8-validated in place on the borrowed slice, and
//! floats travel as raw `f64::to_bits` little-endian words (so `±INF`,
//! `-0.0` and even NaN payloads round-trip bit-exactly, with no
//! shortest-representation printing on the warm path).
//!
//! # Record layout
//!
//! ```text
//! record    := magic "CCR" | version u8 | flags u8
//!              | varint(total) | varint(n_tests)
//!              | footprint?                      -- iff flags bit1
//!              | outcome{n_tests}
//! flags     := bit0 = record ends in a planning error (Err outcome)
//!              bit1 = a footprint section follows the counts
//! footprint := string(salt)
//!              | varint(n) string{n}             -- signals
//!              | varint(n) string{n}             -- pins
//!              | varint(n) varint{n}             -- CAN frame ids
//!              | varint(n) string{n}             -- resources
//!              | varint(n) string{n}             -- ECUs
//!              | u64le(plan_hash) u64le(dut_slice_hash)
//! outcome   := varint(len) body        -- len = exact byte length of body
//! body      := 0x00 test_result | 0x01 string(reason)
//! ```
//!
//! The fixed-position header (everything before the first outcome) is
//! enough to answer the two admission questions — *does the record cover
//! test `i`?* (`i < n_tests`) and *does it determine the whole cell?*
//! (`n_tests == total` or the ends-in-error flag) — without touching any
//! per-test payload; [`probe`] decodes exactly that. The per-outcome
//! length prefix makes skipping an outcome O(1).
//!
//! ```text
//! test_result := string(test) string(stand) string(dut)
//!                varint(n_steps) step{n_steps}
//!                opt_string(error)
//!                varint(n_events) trace_event{n_events}
//! step        := varint(nr) varint(t_end µs) varint(n_checks) check{n_checks}
//! check       := varint(step) varint(at µs) string(signal) string(method)
//!                bound measured verdict string(message)
//! bound       := 0x00 opt_f64(nominal) f64(lo) f64(hi) | 0x01 bits
//! measured    := 0x00 f64 | 0x01 varint(raw) | 0x02 (none)
//! applied     := 0x00 f64 | 0x01 bits
//! bits        := varint(bits) u8(width)
//! verdict     := 0x00 pass | 0x01 fail | 0x02 error
//! trace_event := 0x00 varint(at µs) string(signal) string(resource) applied
//!              | 0x01 varint(at µs) string(signal) string(resource) measured
//!              | 0x02 varint(nr) varint(at µs)
//! string      := varint(len) utf8-bytes
//! opt_string  := 0x00 | 0x01 string        opt_f64 := 0x00 | 0x01 f64
//! f64         := 8 bytes, f64::to_bits little-endian
//! varint      := LEB128 u64 (7 value bits per byte, high bit = continue)
//! ```
//!
//! # Versioning rules
//!
//! * Any layout change bumps [`VERSION`]; every other version is a
//!   decode error, which the cache layer treats as a miss — stale files
//!   never produce wrong verdicts, they just re-execute. (Version 1
//!   records predate footprint keys, so nothing looks them up any more.)
//! * Every length and count is validated against the bytes actually
//!   remaining before it is trusted (an "oversized length" is an
//!   immediate error, never an allocation), every tag byte must match an
//!   arm, each outcome body must consume exactly its declared length, and
//!   the record must consume the whole buffer — so `encode(decode(b)) ==
//!   b` for every accepted input, and hostile input can only
//!   ever produce an error, not a panic or a giant allocation.

use comptest_core::campaign::TestJobOutcome;
use comptest_core::hash::Footprint;
use comptest_core::{CheckResult, Measured, StepResult, TestResult, Trace, TraceEvent, Verdict};
use comptest_model::{BitPattern, MethodName, SignalName, SimTime, StatusBound};
use comptest_stand::AppliedValue;

use super::CellRecord;

/// The three magic bytes opening every binary record file.
pub const MAGIC: [u8; 3] = *b"CCR";

/// Binary format version; bump on any layout change. Every other version
/// reads as a miss.
pub const VERSION: u8 = 2;

/// A failed decode: the input is truncated, tagged wrong, over-declared,
/// or otherwise not a record this version wrote. The cache layer maps
/// every such error to a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub(crate) String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary record decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(message.into()))
}

/// The fixed-position record header: everything admission needs to answer
/// hit/miss — coverage and determinedness — without decoding a single
/// per-test payload. Returned by [`probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Number of tests the suite had when the record was stored.
    pub total: usize,
    /// Number of outcomes the record carries (a prefix of the suite).
    pub tests: usize,
    /// True when the last outcome is a planning error.
    pub ends_err: bool,
    /// True when a footprint section follows the counts (every record the
    /// engine stores; remote result frames carry none).
    pub has_footprint: bool,
}

impl RecordHeader {
    /// True when the record determines the whole cell: it covers every
    /// test, or execution stopped at a planning error.
    pub fn determines_cell(&self) -> bool {
        self.tests == self.total || self.ends_err
    }

    /// True when the record covers test index `test`.
    pub fn covers(&self, test: usize) -> bool {
        test < self.tests
    }
}

// ---------------------------------------------------------------------------
// Reader: one bounds-checked cursor over the borrowed record buffer.
// ---------------------------------------------------------------------------

/// A zero-copy cursor: every accessor checks the remaining length before
/// touching the buffer, and string reads hand back `&'a str` slices
/// validated in place. The worker frame codec reads with it too.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole buffer was consumed.
    pub(crate) fn done(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => err(format!("{n} trailing bytes")),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return err(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A `0`/`1` byte.
    pub(crate) fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => err(format!("bad bool byte {other}")),
        }
    }

    /// LEB128 varint, at most 10 bytes, rejecting u64 overflow.
    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return err("varint overflows u64");
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return err("varint overflows u64");
            }
        }
    }

    /// A varint used as a byte length or element count: validated against
    /// the bytes actually remaining *before* it is trusted, so a hostile
    /// length can neither over-read nor size an allocation.
    pub(crate) fn length(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return err(format!(
                "declared length {n} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.length()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError("invalid UTF-8".into()))
    }

    /// A length-prefixed byte blob.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.length()?;
        self.take(n)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError("u32 out of range".into()))
    }

    fn u64_le(&mut self) -> Result<u64, DecodeError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    fn simtime(&mut self) -> Result<SimTime, DecodeError> {
        Ok(SimTime::from_micros(self.varint()?))
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
    }
}

fn put_simtime(out: &mut Vec<u8>, t: SimTime) {
    put_varint(out, t.as_micros());
}

fn put_bits(out: &mut Vec<u8>, b: BitPattern) {
    put_varint(out, b.bits());
    out.push(b.width());
}

fn put_bound(out: &mut Vec<u8>, b: &StatusBound) {
    match b {
        StatusBound::Numeric { nominal, lo, hi } => {
            out.push(0);
            put_opt_f64(out, *nominal);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        StatusBound::Bits(bits) => {
            out.push(1);
            put_bits(out, *bits);
        }
    }
}

fn put_measured(out: &mut Vec<u8>, m: &Measured) {
    match m {
        Measured::Num(n) => {
            out.push(0);
            put_f64(out, *n);
        }
        Measured::Bits(raw) => {
            out.push(1);
            put_varint(out, *raw);
        }
        Measured::None => out.push(2),
    }
}

fn put_applied(out: &mut Vec<u8>, v: &AppliedValue) {
    match v {
        AppliedValue::Num(n) => {
            out.push(0);
            put_f64(out, *n);
        }
        AppliedValue::Bits(bits) => {
            out.push(1);
            put_bits(out, *bits);
        }
    }
}

fn put_check(out: &mut Vec<u8>, c: &CheckResult) {
    put_varint(out, u64::from(c.step));
    put_simtime(out, c.at);
    put_str(out, c.signal.as_str());
    put_str(out, c.method.as_str());
    put_bound(out, &c.bound);
    put_measured(out, &c.measured);
    out.push(match c.verdict {
        Verdict::Pass => 0,
        Verdict::Fail => 1,
        Verdict::Error => 2,
    });
    put_str(out, &c.message);
}

fn put_trace_event(out: &mut Vec<u8>, e: &TraceEvent) {
    match e {
        TraceEvent::Applied {
            at,
            signal,
            resource,
            value,
        } => {
            out.push(0);
            put_simtime(out, *at);
            put_str(out, signal.as_str());
            put_str(out, resource);
            put_applied(out, value);
        }
        TraceEvent::Measured {
            at,
            signal,
            resource,
            value,
        } => {
            out.push(1);
            put_simtime(out, *at);
            put_str(out, signal.as_str());
            put_str(out, resource);
            put_measured(out, value);
        }
        TraceEvent::StepEnd { nr, at } => {
            out.push(2);
            put_varint(out, u64::from(*nr));
            put_simtime(out, *at);
        }
    }
}

fn put_test_result(out: &mut Vec<u8>, r: &TestResult) {
    put_str(out, &r.test);
    put_str(out, &r.stand);
    put_str(out, &r.dut);
    put_varint(out, r.steps.len() as u64);
    for step in &r.steps {
        put_varint(out, u64::from(step.nr));
        put_simtime(out, step.t_end);
        put_varint(out, step.checks.len() as u64);
        for check in &step.checks {
            put_check(out, check);
        }
    }
    match &r.error {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            put_str(out, e);
        }
    }
    let events: Vec<&TraceEvent> = r.trace.iter().collect();
    put_varint(out, events.len() as u64);
    for event in events {
        put_trace_event(out, event);
    }
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_varint(out, items.len() as u64);
    for item in items {
        put_str(out, item);
    }
}

fn put_footprint(out: &mut Vec<u8>, fp: &Footprint) {
    put_str(out, &fp.salt);
    put_str_list(out, &fp.signals);
    put_str_list(out, &fp.pins);
    put_varint(out, fp.frames.len() as u64);
    for frame in &fp.frames {
        put_varint(out, u64::from(*frame));
    }
    put_str_list(out, &fp.resources);
    put_str_list(out, &fp.ecus);
    out.extend_from_slice(&fp.plan_hash.to_le_bytes());
    out.extend_from_slice(&fp.dut_slice_hash.to_le_bytes());
}

/// The encoded size of a footprint section — what the `footprint_bytes`
/// counter accounts per cell.
pub(crate) fn footprint_bytes(fp: &Footprint) -> u64 {
    let mut buf = Vec::new();
    put_footprint(&mut buf, fp);
    buf.len() as u64
}

/// Serialises a cell record into the binary layout (see module docs).
pub fn encode(record: &CellRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    let ends_err = matches!(record.tests.last(), Some(Err(_)));
    let flags = u8::from(ends_err) | (u8::from(record.footprint.is_some()) << 1);
    out.push(flags);
    put_varint(&mut out, record.total as u64);
    put_varint(&mut out, record.tests.len() as u64);
    if let Some(fp) = &record.footprint {
        put_footprint(&mut out, fp);
    }
    let mut body = Vec::new();
    for outcome in &record.tests {
        body.clear();
        match outcome {
            Ok(result) => {
                body.push(0);
                put_test_result(&mut body, result);
            }
            Err(reason) => {
                body.push(1);
                put_str(&mut body, reason);
            }
        }
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
    }
    out
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn signal(r: &mut Reader<'_>) -> Result<SignalName, DecodeError> {
    SignalName::new(r.str()?).map_err(|e| DecodeError(e.to_string()))
}

fn bits(r: &mut Reader<'_>) -> Result<BitPattern, DecodeError> {
    let raw = r.varint()?;
    let width = r.u8()?;
    BitPattern::new(raw, width).map_err(|e| DecodeError(e.to_string()))
}

fn bound(r: &mut Reader<'_>) -> Result<StatusBound, DecodeError> {
    match r.u8()? {
        0 => Ok(StatusBound::Numeric {
            nominal: match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                tag => return err(format!("bad option tag {tag}")),
            },
            lo: r.f64()?,
            hi: r.f64()?,
        }),
        1 => Ok(StatusBound::Bits(bits(r)?)),
        tag => err(format!("bad bound tag {tag}")),
    }
}

fn measured(r: &mut Reader<'_>) -> Result<Measured, DecodeError> {
    match r.u8()? {
        0 => Ok(Measured::Num(r.f64()?)),
        1 => Ok(Measured::Bits(r.varint()?)),
        2 => Ok(Measured::None),
        tag => err(format!("bad measured tag {tag}")),
    }
}

fn applied(r: &mut Reader<'_>) -> Result<AppliedValue, DecodeError> {
    match r.u8()? {
        0 => Ok(AppliedValue::Num(r.f64()?)),
        1 => Ok(AppliedValue::Bits(bits(r)?)),
        tag => err(format!("bad applied tag {tag}")),
    }
}

fn check(r: &mut Reader<'_>) -> Result<CheckResult, DecodeError> {
    Ok(CheckResult {
        step: r.u32()?,
        at: r.simtime()?,
        signal: signal(r)?,
        method: MethodName::new(r.str()?).map_err(|e| DecodeError(e.to_string()))?,
        bound: bound(r)?,
        measured: measured(r)?,
        verdict: match r.u8()? {
            0 => Verdict::Pass,
            1 => Verdict::Fail,
            2 => Verdict::Error,
            tag => return err(format!("bad verdict tag {tag}")),
        },
        message: r.str()?.to_owned(),
    })
}

fn trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, DecodeError> {
    match r.u8()? {
        0 => Ok(TraceEvent::Applied {
            at: r.simtime()?,
            signal: signal(r)?,
            resource: r.str()?.to_owned(),
            value: applied(r)?,
        }),
        1 => Ok(TraceEvent::Measured {
            at: r.simtime()?,
            signal: signal(r)?,
            resource: r.str()?.to_owned(),
            value: measured(r)?,
        }),
        2 => Ok(TraceEvent::StepEnd {
            nr: r.u32()?,
            at: r.simtime()?,
        }),
        tag => err(format!("bad trace tag {tag}")),
    }
}

fn test_result(r: &mut Reader<'_>) -> Result<TestResult, DecodeError> {
    let test = r.str()?.to_owned();
    let stand = r.str()?.to_owned();
    let dut = r.str()?.to_owned();
    let n_steps = r.length()?;
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let nr = r.u32()?;
        let t_end = r.simtime()?;
        let n_checks = r.length()?;
        let mut checks = Vec::with_capacity(n_checks);
        for _ in 0..n_checks {
            checks.push(check(r)?);
        }
        steps.push(StepResult { nr, t_end, checks });
    }
    let error = match r.u8()? {
        0 => None,
        1 => Some(r.str()?.to_owned()),
        tag => return err(format!("bad option tag {tag}")),
    };
    let n_events = r.length()?;
    let mut trace = Trace::new();
    for _ in 0..n_events {
        trace.push(trace_event(r)?);
    }
    Ok(TestResult {
        test,
        stand,
        dut,
        steps,
        error,
        trace,
    })
}

/// Parses just the fixed-position header: magic, version, determinedness
/// flag and the total/covered test counts — the hit/miss answer without
/// any per-test payload work.
pub fn probe(bytes: &[u8]) -> Result<RecordHeader, DecodeError> {
    let mut r = Reader::new(bytes);
    header(&mut r)
}

fn header(r: &mut Reader<'_>) -> Result<RecordHeader, DecodeError> {
    if r.take(3)? != MAGIC {
        return err("bad magic");
    }
    let version = r.u8()?;
    if version != VERSION {
        return err(format!("unknown record version {version}"));
    }
    let flags = r.u8()?;
    if flags & !0b11 != 0 {
        return err(format!("bad flags {flags:#04x}"));
    }
    let total =
        usize::try_from(r.varint()?).map_err(|_| DecodeError("total out of range".into()))?;
    let tests = r.length()?;
    if tests > total {
        return err("more outcomes than tests");
    }
    Ok(RecordHeader {
        total,
        tests,
        ends_err: flags & 0b01 != 0,
        has_footprint: flags & 0b10 != 0,
    })
}

fn str_list(r: &mut Reader<'_>) -> Result<Vec<String>, DecodeError> {
    let n = r.length()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(r.str()?.to_owned());
    }
    Ok(items)
}

fn footprint(r: &mut Reader<'_>) -> Result<Footprint, DecodeError> {
    let salt = r.str()?.to_owned();
    let signals = str_list(r)?;
    let pins = str_list(r)?;
    let n_frames = r.length()?;
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        frames.push(r.u32()?);
    }
    Ok(Footprint {
        salt,
        signals,
        pins,
        frames,
        resources: str_list(r)?,
        ecus: str_list(r)?,
        plan_hash: r.u64_le()?,
        dut_slice_hash: r.u64_le()?,
    })
}

/// Parses a full cell record; any malformed, truncated, over-declared or
/// wrong-version input is an error (which the cache layer treats as a
/// miss). Accepted inputs re-encode byte-identically.
pub fn decode(bytes: &[u8]) -> Result<CellRecord, DecodeError> {
    let mut r = Reader::new(bytes);
    let head = header(&mut r)?;
    let footprint = if head.has_footprint {
        Some(footprint(&mut r)?)
    } else {
        None
    };
    let mut tests: Vec<TestJobOutcome> = Vec::with_capacity(head.tests);
    for _ in 0..head.tests {
        let len = r.length()?;
        let end = r.pos + len;
        let outcome = match r.u8()? {
            0 => Ok(test_result(&mut r)?),
            1 => Err(r.str()?.to_owned()),
            tag => return err(format!("bad outcome tag {tag}")),
        };
        if r.pos != end {
            return err("outcome body length mismatch");
        }
        tests.push(outcome);
    }
    r.done()?;
    if matches!(tests.last(), Some(Err(_))) != head.ends_err {
        return err("ends-in-error flag contradicts outcomes");
    }
    Ok(CellRecord {
        total: head.total,
        tests,
        footprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> CellRecord {
        let check = CheckResult {
            step: 1,
            at: SimTime::from_micros(1500),
            signal: SignalName::new("u_out").unwrap(),
            method: MethodName::new("get_u").unwrap(),
            bound: StatusBound::Numeric {
                nominal: Some(12.0),
                lo: f64::NEG_INFINITY,
                hi: 13.5,
            },
            verdict: Verdict::Pass,
            measured: Measured::Num(12.25),
            message: "u_out in [−INF, 13.5] ✓".into(),
        };
        let mut trace = Trace::new();
        trace.push(TraceEvent::Applied {
            at: SimTime::from_micros(0),
            signal: SignalName::new("u_in").unwrap(),
            resource: "psu0".into(),
            value: AppliedValue::Num(-0.0),
        });
        trace.push(TraceEvent::Measured {
            at: SimTime::from_micros(1500),
            signal: SignalName::new("u_out").unwrap(),
            resource: "dmm0".into(),
            value: Measured::Bits(u64::MAX),
        });
        trace.push(TraceEvent::StepEnd {
            nr: 1,
            at: SimTime::from_micros(2000),
        });
        CellRecord {
            total: 3,
            tests: vec![
                Ok(TestResult {
                    test: "t_power".into(),
                    stand: "HIL-A".into(),
                    dut: "interior_light".into(),
                    steps: vec![StepResult {
                        nr: 1,
                        t_end: SimTime::from_micros(2000),
                        checks: vec![check],
                    }],
                    error: Some("late check".into()),
                    trace,
                }),
                Err("no resource supports set_r".into()),
            ],
            footprint: None,
        }
    }

    fn sample_footprint() -> Footprint {
        Footprint {
            salt: "fw-2026.08".into(),
            signals: vec!["door_sw".into(), "lamp".into()],
            pins: vec!["pin:S3".into(), "pin:X9".into()],
            frames: vec![0x2A0, 0x7FF],
            resources: vec!["dec0".into(), "dvm1".into()],
            ecus: vec!["interior_light".into()],
            plan_hash: 0xDEAD_BEEF_CAFE_F00D,
            dut_slice_hash: 0x0123_4567_89AB_CDEF,
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let record = sample_record();
        let bytes = encode(&record);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(encode(&decoded), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn footprinted_records_roundtrip_and_probe() {
        let mut record = sample_record();
        record.footprint = Some(sample_footprint());
        let bytes = encode(&record);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(encode(&decoded), bytes, "re-encode is byte-identical");

        // The footprint flag is visible from the fixed-position header…
        let head = probe(&bytes).unwrap();
        assert!(head.has_footprint);
        assert!(!probe(&encode(&sample_record())).unwrap().has_footprint);

        // …and every truncation of a footprinted record is still an error.
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn header_probe_answers_admission_without_payload() {
        let bytes = encode(&sample_record());
        let head = probe(&bytes).unwrap();
        assert_eq!(head.total, 3);
        assert_eq!(head.tests, 2);
        assert!(head.ends_err);
        assert!(head.determines_cell(), "trailing Err determines the cell");
        assert!(head.covers(1) && !head.covers(2));

        let undetermined = CellRecord {
            total: 2,
            tests: vec![Ok(sample_record().tests[0].clone().unwrap())],
            footprint: None,
        };
        let head = probe(&encode(&undetermined)).unwrap();
        assert!(!head.determines_cell());
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = encode(&sample_record());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn hostile_inputs_are_errors() {
        // Wrong magic / version: a pre-footprint v1 record or a future
        // version reads as a miss.
        assert!(decode(b"XXX").is_err());
        for version in [1, VERSION + 1] {
            let mut bytes = encode(&sample_record());
            bytes[3] = version;
            assert!(
                decode(&bytes).is_err(),
                "version {version} must read as miss"
            );
        }

        // Flags contradicting the outcomes.
        let mut bytes = encode(&sample_record());
        bytes[4] ^= 1;
        assert!(decode(&bytes).is_err());

        // Unknown flag bits (only bits 0 and 1 are defined).
        let mut bytes = encode(&sample_record());
        bytes[4] |= 0b100;
        assert!(decode(&bytes).is_err());

        // A footprint flag with no footprint section: the outcome bytes
        // cannot parse as a footprint and the record must not decode.
        let mut bytes = encode(&sample_record());
        bytes[4] |= 0b10;
        assert!(decode(&bytes).is_err());

        // Oversized declared length: header says 2^60 outcomes.
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.push(VERSION);
        forged.push(0);
        put_varint(&mut forged, 1 << 60);
        put_varint(&mut forged, 1 << 60);
        assert!(decode(&forged).is_err());

        // Trailing garbage after a valid record.
        let mut bytes = encode(&sample_record());
        bytes.push(0);
        assert!(decode(&bytes).is_err());

        // Varint that never terminates / overflows.
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.push(VERSION);
        forged.push(0);
        forged.extend_from_slice(&[0xff; 11]);
        assert!(decode(&forged).is_err());
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(TestResult {
                test: "t".into(),
                stand: "s".into(),
                dut: "d".into(),
                steps: vec![StepResult {
                    nr: 0,
                    t_end: SimTime::from_micros(1),
                    checks: vec![CheckResult {
                        step: 0,
                        at: SimTime::from_micros(1),
                        signal: SignalName::new("x").unwrap(),
                        method: MethodName::new("get_u").unwrap(),
                        bound: StatusBound::Numeric {
                            nominal: None,
                            lo: f64::NEG_INFINITY,
                            hi: f64::INFINITY,
                        },
                        measured: Measured::Num(-0.0),
                        verdict: Verdict::Pass,
                        message: String::new(),
                    }],
                }],
                error: None,
                trace: Trace::new(),
            })],
            footprint: None,
        };
        let decoded = decode(&encode(&record)).unwrap();
        assert_eq!(decoded, record);
        let Ok(result) = &decoded.tests[0] else {
            panic!("ok outcome")
        };
        let Measured::Num(m) = result.steps[0].checks[0].measured else {
            panic!("num")
        };
        assert!(
            m == 0.0 && m.is_sign_negative(),
            "-0.0 survives bit-exactly"
        );
    }
}
