//! The worker wire protocol: length-prefixed frames over stdio.
//!
//! The parent and its `comptest worker` children speak a binary protocol
//! read and written with the cache record codec's own primitives
//! (`cache::binary`'s bounds-checked `Reader` and its writers): a fixed
//! magic + version in the handshake, LEB128 varints for every integer,
//! length-validated strings and byte blobs.
//! Each frame travels as `[u32 LE payload length][payload]`; the payload
//! is one tag byte followed by the variant's fields.
//!
//! Like the cache codec, the decoder is hardened for **hostile input** — a
//! worker is an external process whose stdout could contain anything (a
//! stray `println!`, a crashed allocator, an impostor binary). Every
//! length is validated against the remaining bytes, varints are
//! overflow-checked, strings are UTF-8 validated, unknown tags are
//! errors, and frames are capped at [`MAX_FRAME`] bytes. A malformed
//! frame must surface as a [`FrameError`] (the parent treats it as a
//! worker death, the worker as a fatal protocol error) — never a panic or
//! an unbounded allocation.

use std::io::{self, Read, Write};

use comptest_core::exec::{ExecOptions, SampleMode};
use comptest_dut::DeviceSpec;
use comptest_dut::ElectricalConfig;
use comptest_model::{CanFrameId, SimTime};

use crate::cache::binary::{put_f64, put_str, put_varint, DecodeError, Reader};
use crate::campaign::Granularity;

/// Protocol magic carried by the `Hello` handshake frame.
pub(crate) const MAGIC: [u8; 3] = *b"CWP";

/// Protocol version; bumped on any wire-layout change. A worker that sees
/// a different version refuses the handshake with an `Error` frame, so a
/// mixed-version parent/worker pair fails loudly instead of corrupting.
pub(crate) const VERSION: u8 = 3;

/// Upper bound on one frame's payload, validated before allocating. Real
/// frames are a few KiB (a stand text, a script XML, a result record); a
/// length field beyond this is hostile or corrupt.
pub(crate) const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// A malformed frame: truncated, oversized, bad tag, bad UTF-8, varint
/// overflow. The parent maps this to a worker death; the worker replies
/// with an `Error` frame and exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub(crate) String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker frame decode: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FrameError> {
    Err(FrameError(msg.into()))
}

/// Writes one `[u32 LE length][payload]` frame and flushes, so a child
/// blocked on its next frame always sees complete bytes. The frame goes
/// out as one buffer in one `write_all`: on an unbuffered pipe a small
/// frame (below `PIPE_BUF`, as `Shutdown` is) is then one atomic write,
/// so a peer that exits mid-way cannot leave a header without its payload.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary** (the
/// peer closed the stream); EOF mid-frame, an oversized length or any I/O
/// problem is an error.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Primitives: the cache codec's cursor and writers, plus two frame-only
// writers.
// ---------------------------------------------------------------------------

impl From<DecodeError> for FrameError {
    fn from(error: DecodeError) -> Self {
        FrameError(error.0)
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize, FrameError> {
    usize::try_from(r.varint()?).map_err(|_| FrameError("index exceeds usize".into()))
}

// ---------------------------------------------------------------------------
// DeviceSpec
// ---------------------------------------------------------------------------

fn put_spec(out: &mut Vec<u8>, spec: &DeviceSpec) {
    put_str(out, &spec.behavior);
    put_f64(out, spec.cfg.ubatt);
    put_f64(out, spec.cfg.pull_up);
    put_f64(out, spec.cfg.low_threshold);
    put_f64(out, spec.cfg.high_threshold);
    put_f64(out, spec.cfg.drive_resistance);
    put_varint(out, spec.dropped_frames.len() as u64);
    for frame in &spec.dropped_frames {
        put_varint(out, u64::from(frame.0));
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<DeviceSpec, FrameError> {
    let behavior = r.str()?.to_owned();
    let cfg = ElectricalConfig {
        ubatt: r.f64()?,
        pull_up: r.f64()?,
        low_threshold: r.f64()?,
        high_threshold: r.f64()?,
        drive_resistance: r.f64()?,
    };
    let n = r.length()?;
    let mut dropped_frames = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let id = r.varint()?;
        let id = u32::try_from(id).map_err(|_| FrameError("CAN frame id exceeds u32".into()))?;
        dropped_frames.push(CanFrameId(id));
    }
    Ok(DeviceSpec {
        behavior,
        cfg,
        dropped_frames,
    })
}

// ---------------------------------------------------------------------------
// Parent → worker frames
// ---------------------------------------------------------------------------

/// One job for a worker: the scripts in suite order, each run against its
/// own fresh device realized from `spec`, stopping after the first
/// planning error. The worker rebuilds a real packaged job from it for the
/// shared job runner, so it carries the job's identity fields too.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunRequest {
    /// Job index, echoed back in `Done`.
    pub(crate) job: usize,
    /// Deterministic cell index.
    pub(crate) cell: usize,
    /// Suite index of the job's first test.
    pub(crate) first: usize,
    /// Suite name.
    pub(crate) suite: String,
    /// Interned script ids in suite order.
    pub(crate) scripts: Vec<u64>,
    /// Interned stand id.
    pub(crate) stand: u64,
    /// Registry device recipe, one fresh device per test.
    pub(crate) spec: DeviceSpec,
}

/// Frames the parent sends to a worker child over its stdin.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ToWorker {
    /// Handshake: protocol magic + version, the campaign's execution
    /// options and its granularity. Always the first frame on the pipe.
    Hello {
        /// The campaign's execution options, applied to every job.
        exec: ExecOptions,
        /// The campaign's granularity, so the worker's job context
        /// matches the parent's.
        granularity: Granularity,
    },
    /// Interns one test stand under `id`; later `Run` frames reference it
    /// by id. Sent at most once per (worker, stand).
    Stand {
        /// Parent-assigned intern id.
        id: u64,
        /// The stand's canonical text (`write_stand` round-trip).
        text: String,
    },
    /// Interns one generated test script under `id` (XML round-trip).
    Script {
        /// Parent-assigned intern id.
        id: u64,
        /// The script's XML.
        xml: String,
        /// Source-sheet spellings of the script's signal names. The XML
        /// writer canonicalises names to lowercase, so a worker re-parsing
        /// `xml` would plan — and word its diagnostics — with different
        /// bytes than the parent's in-process executors. Shipping the
        /// original spellings lets the worker restore them after parse,
        /// keeping remote results byte-identical to serial.
        names: Vec<String>,
    },
    /// Executes one job.
    Run(RunRequest),
    /// Cooperative cancel fan-out: finish nothing more, exit cleanly.
    Shutdown,
}

impl ToWorker {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ToWorker::Hello { exec, granularity } => {
                out.push(0);
                out.extend_from_slice(&MAGIC);
                out.push(VERSION);
                match exec.sample {
                    SampleMode::EndOfStep => out.push(0),
                    SampleMode::Continuous { interval } => {
                        out.push(1);
                        put_varint(&mut out, interval.as_micros());
                    }
                }
                put_bool(&mut out, exec.stop_on_failure);
                out.push(match granularity {
                    Granularity::Cell => 0,
                    Granularity::Test => 1,
                });
            }
            ToWorker::Stand { id, text } => {
                out.push(1);
                put_varint(&mut out, *id);
                put_str(&mut out, text);
            }
            ToWorker::Script { id, xml, names } => {
                out.push(2);
                put_varint(&mut out, *id);
                put_str(&mut out, xml);
                put_varint(&mut out, names.len() as u64);
                for name in names {
                    put_str(&mut out, name);
                }
            }
            ToWorker::Run(RunRequest {
                job,
                cell,
                first,
                suite,
                scripts,
                stand,
                spec,
            }) => {
                out.push(3);
                put_varint(&mut out, *job as u64);
                put_varint(&mut out, *cell as u64);
                put_varint(&mut out, *first as u64);
                put_str(&mut out, suite);
                put_varint(&mut out, scripts.len() as u64);
                for id in scripts {
                    put_varint(&mut out, *id);
                }
                put_varint(&mut out, *stand);
                put_spec(&mut out, spec);
            }
            ToWorker::Shutdown => out.push(4),
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8()? {
            0 => {
                if r.take(3)? != MAGIC {
                    return err("bad protocol magic");
                }
                let version = r.u8()?;
                if version != VERSION {
                    return err(format!("protocol version {version}, expected {VERSION}"));
                }
                let sample = match r.u8()? {
                    0 => SampleMode::EndOfStep,
                    1 => SampleMode::Continuous {
                        interval: SimTime::from_micros(r.varint()?),
                    },
                    other => return err(format!("bad sample mode tag {other}")),
                };
                let stop_on_failure = r.bool()?;
                let granularity = match r.u8()? {
                    0 => Granularity::Cell,
                    1 => Granularity::Test,
                    other => return err(format!("bad granularity tag {other}")),
                };
                ToWorker::Hello {
                    exec: ExecOptions {
                        sample,
                        stop_on_failure,
                    },
                    granularity,
                }
            }
            1 => ToWorker::Stand {
                id: r.varint()?,
                text: r.str()?.to_owned(),
            },
            2 => {
                let id = r.varint()?;
                let xml = r.str()?.to_owned();
                let n = r.length()?;
                let mut names = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    names.push(r.str()?.to_owned());
                }
                ToWorker::Script { id, xml, names }
            }
            3 => {
                let job = read_usize(&mut r)?;
                let cell = read_usize(&mut r)?;
                let first = read_usize(&mut r)?;
                let suite = r.str()?.to_owned();
                let n = r.length()?;
                let mut scripts = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    scripts.push(r.varint()?);
                }
                ToWorker::Run(RunRequest {
                    job,
                    cell,
                    first,
                    suite,
                    scripts,
                    stand: r.varint()?,
                    spec: read_spec(&mut r)?,
                })
            }
            4 => ToWorker::Shutdown,
            other => return err(format!("bad parent frame tag {other}")),
        };
        r.done()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Worker → parent frames
// ---------------------------------------------------------------------------

/// Frames a worker child sends to the parent over its stdout. A worker
/// reports no events: the parent emits every event of a remote job
/// itself, when it ships the job and when its `Done` frame arrives.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FromWorker {
    /// Handshake acknowledgement (version echoed for diagnostics).
    Ready {
        /// The worker's protocol version.
        version: u8,
    },
    /// Outcome of a `Run` frame: the job's per-test outcomes (possibly a
    /// prefix ending in a planning error, exactly like local execution)
    /// as an encoded cache record (`cache::binary` layout, so the result
    /// round-trips bit-exactly — the same property the cache's
    /// byte-identity conformance pins down).
    Done {
        /// Echoed job index.
        job: usize,
        /// `cache::binary`-encoded record with the job's outcomes.
        record: Vec<u8>,
    },
    /// Fatal worker-side problem (protocol violation, unrealizable device
    /// spec). The worker exits right after sending it.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// Tag 1 carried the version 2 event stream and is retired. `Error` keeps
/// tag 3 across versions, so a parent still decodes the refusal of a
/// worker that speaks another version and can print its message.
impl FromWorker {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            FromWorker::Ready { version } => {
                out.push(0);
                out.push(*version);
            }
            FromWorker::Done { job, record } => {
                out.push(2);
                put_varint(&mut out, *job as u64);
                put_bytes(&mut out, record);
            }
            FromWorker::Error { message } => {
                out.push(3);
                put_str(&mut out, message);
            }
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8()? {
            0 => FromWorker::Ready { version: r.u8()? },
            2 => FromWorker::Done {
                job: read_usize(&mut r)?,
                record: r.bytes()?.to_vec(),
            },
            3 => FromWorker::Error {
                message: r.str()?.to_owned(),
            },
            other => return err(format!("bad worker frame tag {other}")),
        };
        r.done()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            behavior: "interior_light".into(),
            cfg: ElectricalConfig::default(),
            dropped_frames: vec![CanFrameId(0x2A0), CanFrameId(0x123)],
        }
    }

    #[test]
    fn to_worker_frames_round_trip() {
        let frames = vec![
            ToWorker::Hello {
                exec: ExecOptions {
                    sample: SampleMode::Continuous {
                        interval: SimTime::from_micros(12_500),
                    },
                    stop_on_failure: true,
                },
                granularity: Granularity::Test,
            },
            ToWorker::Stand {
                id: 3,
                text: "[stand]\nname = HIL-A\n".into(),
            },
            ToWorker::Script {
                id: 9,
                xml: "<testscript name=\"t\"/>".into(),
                names: vec!["INT_ILL".into(), "Ds_Fl".into()],
            },
            ToWorker::Run(RunRequest {
                job: 7,
                cell: 2,
                first: 1,
                suite: "lamp".into(),
                scripts: vec![9],
                stand: 3,
                spec: spec(),
            }),
            ToWorker::Run(RunRequest {
                job: 4,
                cell: 4,
                first: 0,
                suite: "lamp".into(),
                scripts: vec![9, 10, 11],
                stand: 3,
                spec: spec(),
            }),
            ToWorker::Shutdown,
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(ToWorker::decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn from_worker_frames_round_trip() {
        let frames = vec![
            FromWorker::Ready { version: VERSION },
            FromWorker::Done {
                job: 5,
                record: vec![1, 2, 3],
            },
            FromWorker::Done {
                job: 2,
                record: vec![],
            },
            FromWorker::Error {
                message: "unrealizable spec".into(),
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(FromWorker::decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn hostile_bytes_never_panic() {
        // Truncations of a valid frame at every length.
        let valid = ToWorker::Run(RunRequest {
            job: 7,
            cell: 2,
            first: 1,
            suite: "lamp".into(),
            scripts: vec![9, 10],
            stand: 3,
            spec: spec(),
        })
        .encode();
        for n in 0..valid.len() {
            let _ = ToWorker::decode(&valid[..n]);
            let _ = FromWorker::decode(&valid[..n]);
        }
        // Bad tags, overlong varints, lying lengths, bad UTF-8.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![99],
            vec![
                1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            ],
            vec![1, 0, 0xff],
            vec![1, 0, 2, 0xff, 0xfe],
            vec![0, b'X', b'Y', b'Z', 1, 0, 0],
            vec![0, b'C', b'W', b'P', 99, 0, 0],
            vec![0, b'C', b'W', b'P', VERSION, 0, 0, 7],
            vec![2, 1, 0x85],
            vec![4, 0, 0xff, 0xff, 0x7f],
        ];
        for bytes in &cases {
            let _ = ToWorker::decode(bytes);
            let _ = FromWorker::decode(bytes);
        }
        // Trailing garbage after a valid frame is rejected, not ignored.
        let mut padded = ToWorker::Shutdown.encode();
        padded.push(0);
        assert!(ToWorker::decode(&padded).is_err());
    }

    /// A writer that accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_written_in_one_call() {
        for payload in [ToWorker::Shutdown.encode(), vec![7u8; 1000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "header and payload must go out together");
            let mut read: &[u8] = &w.bytes;
            assert_eq!(read_frame(&mut read).unwrap(), Some(payload));
        }
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_before_allocation() {
        let mut stream: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert!(read_frame(&mut stream).is_err());
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut torn: &[u8] = &[5, 0];
        assert!(read_frame(&mut torn).is_err());
        let mut short_payload: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(read_frame(&mut short_payload).is_err());
    }
}
