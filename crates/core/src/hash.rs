//! Stable structural hashing for campaign caching.
//!
//! A regression campaign re-runs the same workbook suites against the same
//! stands over and over; most cells are byte-identical re-executions. To
//! skip them safely, a cache must key each cell by *content*: the same
//! suite, stand and DUT configuration must hash to the same [`CellKey`]
//! on every run — and any structural change (a renamed test, a widened
//! check bound, a reordered step, a re-wired matrix crosspoint) must
//! change it. Compositional-testing theory backs exactly this notion:
//! re-verification of a component can be skipped as long as its interface
//! contract is unchanged.
//!
//! The hashes here are therefore **structural and deliberately stable**:
//!
//! * only the declarative content is hashed — wall-clock timestamps,
//!   event-arrival ordering, worker counts and scheduling granularity are
//!   all excluded, so a serial, pooled and async run of the same campaign
//!   key identically;
//! * the hash function is a fixed FNV-1a (no per-process randomisation, no
//!   dependence on `std`'s hasher internals), so keys survive process
//!   restarts and are usable as on-disk file names;
//! * every field is tagged and strings are length-prefixed, so adjacent
//!   fields cannot melt into each other (`("ab", "c")` ≠ `("a", "bc")`);
//! * identifier names in suites and stands hash through their canonical
//!   case-insensitive [`key()`](comptest_model::SignalName::key) form,
//!   matching how the rest of the toolchain compares them.
//!
//! Most digests are explicit walks over the hashed structure. Two hash a
//! rendering instead: [`hash_script`] its canonical XML, and
//! [`hash_device`] the device's `Debug` text (full keying, and the
//! footprint's whole-device fallback). The footprint digests
//! ([`Footprint::plan_hash`] and [`Footprint::dut_slice_hash`]) walk the
//! resolved plans and the touched DUT slice field by field and build no
//! strings on the way. Their walks destructure every struct and variant
//! without `..`, so a new plan or configuration field is a compile error
//! here until it is hashed.
//!
//! The plan side of a footprint does not depend on the device, so it can
//! be memoised under a [`plan_memo_key`] and turned back into the cell's
//! footprint for any device by [`footprint_from_memo`], which walks only
//! the DUT slice. [`PLAN_MEMO_VERSION`] guards such memos against codegen
//! or planner changes.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt;

use comptest_dut::{Device, ElectricalConfig, PinBinding};
use comptest_model::{
    BitPattern, CanFrameId, Env, PinId, SignalDef, SignalKind, SignalName, SimTime, StatusBound,
    StatusDef, TestSuite,
};
use comptest_script::TestScript;
use comptest_stand::{
    Action, AppliedValue, ExecutionPlan, GetCheck, PlannedStep, ResourceId, TestStand,
};

use crate::campaign::{CampaignEntry, DeviceFactory};
use crate::exec::{ExecOptions, SampleMode};

/// A stable streaming hasher: 64-bit FNV-1a with field tagging.
///
/// Unlike [`std::hash::Hasher`] implementations, the output is guaranteed
/// stable across processes, platforms and Rust versions — it is pure
/// arithmetic over the bytes written. Collisions are possible (64 bits),
/// but a collision only ever *reuses* a cached outcome; `--cache-verify`
/// exists to audit exactly that.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte (field tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Feeds a length-prefixed string as its ASCII-lowercase spelling —
    /// the same bytes as `write_str(&s.to_ascii_lowercase())`, without
    /// building the lowercase copy. Identifiers hash through this, so their
    /// digests are case-insensitive like their comparisons.
    pub fn write_str_lowercase(&mut self, s: &str) {
        self.write_usize(s.len());
        for b in s.bytes() {
            self.write_u8(b.to_ascii_lowercase());
        }
    }

    /// Feeds an `f64` through its IEEE-754 bit pattern (`-0.0` is
    /// normalised to `0.0` so the two structurally equal spellings agree).
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Feeds an `f64` through its raw IEEE-754 bit pattern, with no
    /// normalisation: `-0.0` and `0.0` (and distinct NaN payloads) hash
    /// apart, as their `Debug` spellings did.
    pub fn write_f64_bits(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds an optional `f64` with a presence tag.
    pub fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.write_u8(1);
                self.write_f64(v);
            }
            None => self.write_u8(0),
        }
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes one environment (sorted by canonical variable name, so insertion
/// order is irrelevant — it is not part of the stand's structure).
fn write_env(h: &mut StableHasher, env: &Env) {
    let mut vars: Vec<(String, f64)> = env
        .iter()
        .map(|(name, value)| (name.to_ascii_lowercase(), value))
        .collect();
    vars.sort_by(|a, b| a.0.cmp(&b.0));
    h.write_usize(vars.len());
    for (name, value) in vars {
        h.write_str(&name);
        h.write_f64(value);
    }
}

/// Hashes a signal's realisation; `write_pin` picks the pin spelling
/// (canonical for suites, as written for plans).
fn write_signal_kind(
    h: &mut StableHasher,
    kind: &SignalKind,
    write_pin: fn(&mut StableHasher, &PinId),
) {
    match kind {
        SignalKind::Pin { pins } => {
            h.write_u8(1);
            h.write_usize(pins.len());
            for pin in pins {
                write_pin(h, pin);
            }
        }
        SignalKind::Can {
            frame: CanFrameId(frame),
            start_bit,
            width,
        } => {
            h.write_u8(2);
            h.write_u32(*frame);
            h.write_u8(*start_bit);
            h.write_u8(*width);
        }
    }
}

fn write_signal_def(h: &mut StableHasher, sig: &SignalDef) {
    h.write_str_lowercase(sig.name.as_str());
    write_signal_kind(h, &sig.kind, |h, pin| h.write_str_lowercase(pin.as_str()));
    h.write_u8(match sig.direction {
        comptest_model::SignalDirection::Input => 0,
        comptest_model::SignalDirection::Output => 1,
    });
    match &sig.init {
        Some(init) => {
            h.write_u8(1);
            h.write_str_lowercase(init.as_str());
        }
        None => h.write_u8(0),
    }
    // The free-text description is documentation, not structure: two suites
    // differing only in prose verify the same contract.
}

fn write_status_def(h: &mut StableHasher, def: &StatusDef) {
    h.write_str_lowercase(def.name.as_str());
    h.write_str_lowercase(def.method.as_str());
    h.write_str_lowercase(&def.attribut);
    match &def.var {
        Some(var) => {
            h.write_u8(1);
            h.write_str_lowercase(var);
        }
        None => h.write_u8(0),
    }
    h.write_opt_f64(def.nom);
    h.write_opt_f64(def.min);
    h.write_opt_f64(def.max);
    match def.bits {
        Some(bits) => {
            h.write_u8(1);
            h.write_u64(bits.bits());
            h.write_u8(bits.width());
        }
        None => h.write_u8(0),
    }
    h.write_opt_f64(def.d1);
    h.write_opt_f64(def.d2);
    h.write_opt_f64(def.d3);
}

/// Stable structural hash of a test suite: name, signal sheet, status
/// table and every test's step sequence — everything that feeds script
/// generation. Step *order* is structure (reordering steps changes the
/// executed stimulus sequence) and is hashed; step remarks carry
/// requirement tags into reports but do not alter execution, yet they are
/// part of the exchanged sheet and are hashed too, conservatively.
pub fn hash_suite(suite: &TestSuite) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(b'S');
    h.write_str(&suite.name);
    h.write_usize(suite.signals.len());
    for sig in &suite.signals {
        write_signal_def(&mut h, sig);
    }
    h.write_usize(suite.statuses.len());
    for def in suite.statuses.iter() {
        write_status_def(&mut h, def);
    }
    h.write_usize(suite.tests.len());
    for test in &suite.tests {
        h.write_str(&test.name);
        h.write_usize(test.steps.len());
        for step in &test.steps {
            h.write_u32(step.nr);
            h.write_u64(step.dt.as_micros());
            h.write_usize(step.assignments.len());
            for a in &step.assignments {
                h.write_str_lowercase(a.signal.as_str());
                h.write_str_lowercase(a.status.as_str());
            }
            h.write_str(&step.remark);
        }
    }
    h.finish()
}

/// Stable structural hash of a test stand: name, environment (sorted),
/// resources with capabilities and capacities, and the full connection
/// matrix in declaration order.
pub fn hash_stand(stand: &TestStand) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(b'T');
    h.write_str(stand.name());
    write_env(&mut h, stand.env());
    h.write_usize(stand.resources().len());
    for resource in stand.resources() {
        h.write_str_lowercase(resource.id.as_str());
        h.write_usize(resource.capacity);
        h.write_usize(resource.capabilities.len());
        for cap in &resource.capabilities {
            h.write_str_lowercase(cap.method.as_str());
            h.write_str_lowercase(&cap.attribut);
            h.write_f64(cap.min);
            h.write_f64(cap.max);
            h.write_str(&cap.unit.to_string());
        }
    }
    let connections = stand.matrix().connections();
    h.write_usize(connections.len());
    for c in connections {
        h.write_str_lowercase(c.point.as_str());
        h.write_str_lowercase(c.resource.as_str());
        h.write_str_lowercase(c.pin.as_str());
    }
    h.finish()
}

/// Stable hash of a generated test script, over its canonical XML
/// serialisation — the exchange format *is* the script's identity.
pub fn hash_script(script: &TestScript) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(b'X');
    h.write_str(&script.to_xml());
    h.finish()
}

/// Stable hash of a freshly built DUT: its behaviour, electrical
/// configuration, pin/CAN bindings and power-on state, via the device's
/// structural [`Debug`] rendering at simulated time zero. Wall-clock never
/// enters a freshly built device, so the hash is reproducible across runs;
/// two factories building structurally identical devices key identically.
///
/// This is the one cache-key digest that still rests on `Debug`: it makes
/// the *exhaustive* `Debug` of [`Device`] and of every
/// [`Behavior`](comptest_dut::Behavior) implementation part of the
/// cache-key contract, for full keying and for the footprint's
/// whole-device fallback alike (the footprint digests themselves are
/// structural walks): a hand-written `Debug` that elides fields (e.g. via
/// `finish_non_exhaustive`) would let structurally different DUT configs
/// collide on this digest and serve each other's cached outcomes —
/// detectable only by `--cache-verify`. Keep device/behaviour `Debug`
/// derived (or field-complete), or extend this function with explicit
/// accessors instead.
///
/// `Device`'s `Debug` is hand-written. It keeps the field-complete rule
/// by destructuring `Self` exhaustively, so a new field does not compile
/// until it is rendered. It renders the per-pin output-slot table as the
/// `edges` and `last_levels` maps the derived impl printed, so keys (and
/// the `dut=` lines of `assets/golden/key_digests.txt`) did not move.
pub fn hash_device(device: &Device) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(b'D');
    h.write_str(&format!("{device:?}"));
    h.finish()
}

/// Stable hash of the per-test execution options. Sampling mode and
/// stop-on-failure change the *content* of a test result (which samples
/// were taken, whether later steps ran), so outcomes cached under one
/// option set must never serve a campaign running another.
pub fn hash_exec_options(options: &ExecOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(b'O');
    match options.sample {
        SampleMode::EndOfStep => h.write_u8(0),
        SampleMode::Continuous { interval } => {
            h.write_u8(1);
            h.write_u64(interval.as_micros());
        }
    }
    h.write_u8(u8::from(options.stop_on_failure));
    h.finish()
}

/// The content address of one campaign cell: what ran (`suite_hash`),
/// where (`stand_hash`), against which component (`dut_config_hash`) and
/// under which execution options (`exec_hash`).
///
/// Everything that can change a cell's outcome is folded into these four
/// digests; everything that cannot — executor choice, worker count,
/// scheduling granularity, event ordering, wall-clock — is deliberately
/// excluded, so a serial, pooled and async run of the same campaign hit
/// the same cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Structural hash of the test suite ([`hash_suite`]).
    pub suite_hash: u64,
    /// Structural hash of the test stand ([`hash_stand`]).
    pub stand_hash: u64,
    /// Hash of the freshly built DUT ([`hash_device`]).
    pub dut_config_hash: u64,
    /// Hash of the execution options ([`hash_exec_options`]).
    pub exec_hash: u64,
}

impl CellKey {
    /// Computes the key for one (entry, stand) cell under `options`. Builds
    /// one device from the entry's factory to fingerprint the DUT config.
    pub fn for_cell(entry: &CampaignEntry<'_>, stand: &TestStand, options: &ExecOptions) -> Self {
        Self {
            suite_hash: hash_suite(entry.suite),
            stand_hash: hash_stand(stand),
            dut_config_hash: hash_device(&entry.device_factory.build()),
            exec_hash: hash_exec_options(options),
        }
    }

    /// Computes the key from pre-computed suite/stand digests (so a
    /// campaign-wide key sweep hashes each suite and stand once, not once
    /// per cell).
    pub fn from_hashes(
        suite_hash: u64,
        stand_hash: u64,
        factory: &dyn DeviceFactory,
        options: &ExecOptions,
    ) -> Self {
        Self {
            suite_hash,
            stand_hash,
            dut_config_hash: hash_device(&factory.build()),
            exec_hash: hash_exec_options(options),
        }
    }
}

impl fmt::Display for CellKey {
    /// Renders the key as a fixed-width, filesystem-safe name:
    /// `<suite>-<stand>-<dut>-<exec>`, 16 lowercase hex digits each.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}-{:016x}-{:016x}-{:016x}",
            self.suite_hash, self.stand_hash, self.dut_config_hash, self.exec_hash
        )
    }
}

/// The exact dependency footprint of one campaign cell: which signals the
/// suite reads or drives, which DUT pins and CAN frames realise them,
/// which stand resources the planner allocated, and which behaviours
/// (ECUs) the cell exercises — plus an author-supplied cache salt.
///
/// A footprint is captured from the cell's *resolved* execution plans, so
/// it reflects what the cell will actually do on this stand, not what the
/// stand could do in general. Two digests summarise it:
///
/// * [`plan_hash`](Footprint::plan_hash) — the stand slice. Execution is a
///   pure function of the plan (plus the device and exec options), and the
///   plan is a pure function of (script, stand): any stand edit that could
///   change this cell's outcome changes its plans, while edits the planner
///   never routed through this cell (an unrelated resource, a crosspoint
///   to another ECU's pins) leave them — and the key — untouched.
/// * [`dut_slice_hash`](Footprint::dut_slice_hash) — the DUT slice: the
///   electrical configuration, the behaviour name, and only the pin/CAN
///   bindings the plans touch, each refined by the behaviour's
///   [`port_slice`](comptest_dut::Behavior::port_slice). A behaviour that
///   does not implement `port_slice` falls back to folding in the whole
///   device's [`hash_device`] digest, which makes the footprint exactly as
///   conservative as full keying on the DUT axis — never less safe.
///
/// Both digests are structural walks: no plan, configuration or binding
/// is rendered through `Debug` on the way; only the whole-device fallback
/// inherits [`hash_device`]'s `Debug` contract.
///
/// The salt is folded into both digests, so bumping it (e.g. on a firmware
/// release) invalidates every footprint-keyed record at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Author-supplied cache salt (empty by default).
    pub salt: String,
    /// Canonical names of the signals the plans apply or check (sorted).
    pub signals: Vec<String>,
    /// Canonical DUT pin names those signals route through (sorted).
    pub pins: Vec<String>,
    /// CAN frame ids those signals map onto (sorted).
    pub frames: Vec<u32>,
    /// Canonical ids of the stand resources the planner allocated (sorted).
    pub resources: Vec<String>,
    /// Behaviour (ECU) names the cell exercises.
    pub ecus: Vec<String>,
    /// Digest of the resolved execution plans (tag `b'P'`; salt included):
    /// a field-by-field walk of every plan, identifiers as written and
    /// floats by their raw bits.
    pub plan_hash: u64,
    /// Digest of the touched DUT slice (tag `b'F'`; salt included): the
    /// five electrical-configuration fields, the behaviour name, each
    /// touched pin's binding variant and port, the touched CAN bindings and
    /// their port slices — plus the whole-device digest when a slice is
    /// incomplete.
    pub dut_slice_hash: u64,
}

impl Footprint {
    /// The footprint-keyed content address for this cell, shaped exactly
    /// like a [`CellKey`] so every cache backend works unchanged: the
    /// suite and exec digests are identical to full keying, the stand axis
    /// carries [`plan_hash`](Self::plan_hash) and the DUT axis
    /// [`dut_slice_hash`](Self::dut_slice_hash).
    pub fn key(&self, suite_hash: u64, exec_hash: u64) -> FootprintKey {
        FootprintKey {
            suite_hash,
            plan_hash: self.plan_hash,
            dut_slice_hash: self.dut_slice_hash,
            exec_hash,
        }
    }

    /// Whether the footprint names this ECU (behaviour name).
    pub fn touches_ecu(&self, name: &str) -> bool {
        self.ecus.iter().any(|e| e == name)
    }
}

/// A footprint-keyed cell address: same four-digest shape as [`CellKey`],
/// but the stand and DUT axes hash only the slices the cell touches.
///
/// The plan digest is tagged `b'P'` (full stand hashing uses `b'T'`) and
/// the DUT-slice digest `b'F'` (full device hashing uses `b'D'`), so
/// footprint and full keys live in disjoint hash domains and can never
/// alias each other inside one cache directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FootprintKey {
    /// Structural hash of the test suite ([`hash_suite`]).
    pub suite_hash: u64,
    /// Digest of the cell's resolved execution plans.
    pub plan_hash: u64,
    /// Digest of the DUT slice the plans touch.
    pub dut_slice_hash: u64,
    /// Hash of the execution options ([`hash_exec_options`]).
    pub exec_hash: u64,
}

impl FootprintKey {
    /// The [`CellKey`]-shaped address used by every cache backend.
    pub fn cell_key(&self) -> CellKey {
        CellKey {
            suite_hash: self.suite_hash,
            stand_hash: self.plan_hash,
            dut_config_hash: self.dut_slice_hash,
            exec_hash: self.exec_hash,
        }
    }

    /// Computes the footprint key for one (entry, stand) cell under
    /// `options`: generates the suite's scripts, plans them on the stand,
    /// captures the footprint and keys it. Generation or planning failures
    /// fold into the footprint conservatively (see [`footprint_for_cell`]),
    /// so this never errors — it mirrors [`CellKey::for_cell`].
    pub fn for_cell(
        entry: &CampaignEntry<'_>,
        stand: &TestStand,
        options: &ExecOptions,
        salt: &str,
    ) -> Self {
        footprint_for_cell(entry, stand, salt)
            .key(hash_suite(entry.suite), hash_exec_options(options))
    }
}

impl fmt::Display for FootprintKey {
    /// Same fixed-width, filesystem-safe rendering as [`CellKey`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.cell_key().fmt(f)
    }
}

fn write_time(h: &mut StableHasher, t: SimTime) {
    h.write_u64(t.as_micros());
}

fn write_bit_pattern(h: &mut StableHasher, b: BitPattern) {
    h.write_u64(b.bits());
    h.write_u8(b.width());
}

/// Hashes an identifier by its spelling as written in the plan.
fn write_pin_as_written(h: &mut StableHasher, pin: &PinId) {
    h.write_str(pin.as_str());
}

fn write_action(h: &mut StableHasher, action: &Action) {
    match action {
        Action::Apply {
            signal,
            kind,
            resource,
            method,
            value,
            settle,
        } => {
            h.write_u8(1);
            h.write_str(signal.as_str());
            write_signal_kind(h, kind, write_pin_as_written);
            h.write_str(resource.as_str());
            h.write_str(method.as_str());
            match *value {
                AppliedValue::Num(v) => {
                    h.write_u8(1);
                    h.write_f64_bits(v);
                }
                AppliedValue::Bits(b) => {
                    h.write_u8(2);
                    write_bit_pattern(h, b);
                }
            }
            write_time(h, *settle);
        }
        Action::Check(GetCheck {
            signal,
            kind,
            resource,
            method,
            bound,
            settle,
            window,
        }) => {
            h.write_u8(2);
            h.write_str(signal.as_str());
            write_signal_kind(h, kind, write_pin_as_written);
            h.write_str(resource.as_str());
            h.write_str(method.as_str());
            match *bound {
                StatusBound::Numeric { nominal, lo, hi } => {
                    h.write_u8(1);
                    match nominal {
                        Some(n) => {
                            h.write_u8(1);
                            h.write_f64_bits(n);
                        }
                        None => h.write_u8(0),
                    }
                    h.write_f64_bits(lo);
                    h.write_f64_bits(hi);
                }
                StatusBound::Bits(b) => {
                    h.write_u8(2);
                    write_bit_pattern(h, b);
                }
            }
            write_time(h, *settle);
            write_time(h, *window);
        }
    }
}

/// Hashes a resolved plan field by field. Identifiers hash as written and
/// floats by their raw bits, so the digest separates everything the plan's
/// `Debug` text did.
fn write_plan(h: &mut StableHasher, plan: &ExecutionPlan) {
    let ExecutionPlan {
        script_name,
        stand_name,
        init,
        steps,
    } = plan;
    h.write_str(script_name);
    h.write_str(stand_name);
    h.write_usize(init.len());
    for action in init {
        write_action(h, action);
    }
    h.write_usize(steps.len());
    for PlannedStep { nr, dt, actions } in steps {
        h.write_u32(*nr);
        write_time(h, *dt);
        h.write_usize(actions.len());
        for action in actions {
            write_action(h, action);
        }
    }
}

fn write_electrical_config(h: &mut StableHasher, cfg: &ElectricalConfig) {
    let ElectricalConfig {
        ubatt,
        pull_up,
        low_threshold,
        high_threshold,
        drive_resistance,
    } = *cfg;
    for v in [
        ubatt,
        pull_up,
        low_threshold,
        high_threshold,
        drive_resistance,
    ] {
        h.write_f64_bits(v);
    }
}

/// Hashes a pin binding's variant and port; returns the port (`None` for
/// return rails, which carry no behaviour state of their own).
fn write_pin_binding(h: &mut StableHasher, binding: &PinBinding) -> Option<&'static str> {
    let (tag, port) = match *binding {
        PinBinding::InputActiveLow { port } => (1, Some(port)),
        PinBinding::InputActiveHigh { port } => (2, Some(port)),
        PinBinding::Output { port } => (3, Some(port)),
        PinBinding::Return => (4, None),
    };
    h.write_u8(tag);
    if let Some(port) = port {
        h.write_str(port);
    }
    port
}

/// The names one cell's plans touch, borrowed from the plans. The name
/// types order and compare case-insensitively, so each set holds exactly
/// the distinct canonical [`key()`](PinId::key)s, in their sorted order.
#[derive(Default)]
struct Touched<'p> {
    signals: BTreeSet<&'p SignalName>,
    pins: BTreeSet<&'p PinId>,
    frames: BTreeSet<u32>,
    resources: BTreeSet<&'p ResourceId>,
}

impl<'p> Touched<'p> {
    /// Folds one plan action's dependencies into the sets.
    fn collect(&mut self, action: &'p Action) {
        let (signal, kind, resource) = match action {
            Action::Apply {
                signal,
                kind,
                resource,
                ..
            } => (signal, kind, resource),
            Action::Check(check) => (&check.signal, &check.kind, &check.resource),
        };
        self.signals.insert(signal);
        self.resources.insert(resource);
        match kind {
            SignalKind::Pin { pins } => self.pins.extend(pins),
            SignalKind::Can { frame, .. } => {
                self.frames.insert(frame.0);
            }
        }
    }
}

/// A device built for footprint capture, shared read-only by every stand
/// of one campaign entry. Its whole-device digest ([`hash_device`]) is
/// computed at most once, for the first cell that needs the conservative
/// fallback.
#[derive(Debug)]
pub struct FootprintDevice {
    device: Device,
    whole: OnceCell<u64>,
}

impl FootprintDevice {
    /// Wraps a freshly built device.
    pub fn new(device: Device) -> Self {
        Self {
            device,
            whole: OnceCell::new(),
        }
    }

    fn whole_hash(&self) -> u64 {
        *self.whole.get_or_init(|| hash_device(&self.device))
    }
}

/// Captures the dependency footprint of one cell from its resolved
/// execution plans (one `Result` per test, in suite order; `Err` carries
/// the planner's error message) and a freshly built device.
///
/// Conservative fallbacks keep the footprint at least as safe as full
/// keying: an errored plan hashes its error string (so the not-runnable
/// verdict is keyed by *why*), and any errored plan or any touched port
/// without a [`port_slice`](comptest_dut::Behavior::port_slice) makes the
/// DUT digest fold the whole device's [`hash_device`] digest.
pub fn capture_footprint(
    plans: &[Result<&ExecutionPlan, &str>],
    device: &FootprintDevice,
    salt: &str,
) -> Footprint {
    let mut touched = Touched::default();
    let mut complete = true;

    let mut plan_hasher = StableHasher::new();
    plan_hasher.write_u8(b'P');
    plan_hasher.write_str(salt);
    plan_hasher.write_usize(plans.len());
    for plan in plans {
        match plan {
            Ok(plan) => {
                plan_hasher.write_u8(1);
                write_plan(&mut plan_hasher, plan);
                for action in plan
                    .init
                    .iter()
                    .chain(plan.steps.iter().flat_map(|s| s.actions.iter()))
                {
                    touched.collect(action);
                }
            }
            Err(message) => {
                // A cell that cannot be planned still caches its
                // not-runnable outcome; key it by the message and fall
                // back to whole-device hashing below.
                plan_hasher.write_u8(2);
                plan_hasher.write_str(message);
                complete = false;
            }
        }
    }

    let dut = &device.device;
    let pins: Vec<String> = touched.pins.iter().map(|pin| pin.key()).collect();
    let frames: Vec<u32> = touched.frames.into_iter().collect();
    let bindings = touched.pins.iter().map(|&pin| dut.pin_binding(pin));
    let dut_slice_hash =
        dut_slice_digest(pins.iter().zip(bindings), &frames, complete, device, salt);

    Footprint {
        salt: salt.to_owned(),
        signals: touched.signals.iter().map(|s| s.key()).collect(),
        pins,
        frames,
        resources: touched.resources.iter().map(|r| r.key()).collect(),
        ecus: vec![dut.behavior_name().to_owned()],
        plan_hash: plan_hasher.finish(),
        dut_slice_hash,
    }
}

/// Digest of the DUT slice a cell touches (tag `b'F'`; salt included):
/// the electrical configuration, the behaviour name, each touched pin's
/// canonical key with its binding (`None` for a pin the device does not
/// bind) and port slice, and the touched CAN frames with their bindings and
/// port slices. A slice that is not `complete` — after a planning error,
/// or with a touched port that has no
/// [`port_slice`](comptest_dut::Behavior::port_slice) — folds in the whole
/// device's [`hash_device`] digest.
fn dut_slice_digest<'k, 'd>(
    pins: impl ExactSizeIterator<Item = (&'k String, Option<&'d PinBinding>)>,
    frames: &[u32],
    mut complete: bool,
    device: &'d FootprintDevice,
    salt: &str,
) -> u64 {
    let dut = &device.device;
    let mut dut_hasher = StableHasher::new();
    dut_hasher.write_u8(b'F');
    dut_hasher.write_str(salt);
    write_electrical_config(&mut dut_hasher, dut.config());
    dut_hasher.write_str(dut.behavior_name());
    dut_hasher.write_usize(pins.len());
    for (key, binding) in pins {
        dut_hasher.write_str(key);
        match binding {
            Some(binding) => {
                dut_hasher.write_u8(1);
                match write_pin_binding(&mut dut_hasher, binding) {
                    Some(port) => match dut.port_slice(port) {
                        Some(slice) => {
                            dut_hasher.write_u8(1);
                            dut_hasher.write_str(&slice);
                        }
                        None => complete = false,
                    },
                    None => dut_hasher.write_u8(0),
                }
            }
            // A pin the device does not bind (stand-side stimulus only).
            None => dut_hasher.write_u8(0),
        }
    }
    dut_hasher.write_usize(frames.len());
    for &frame in frames {
        dut_hasher.write_u32(frame);
        let bindings = dut.can_frame_bindings(CanFrameId(frame));
        dut_hasher.write_usize(bindings.len());
        for (start_bit, width, port, input) in bindings {
            dut_hasher.write_u8(start_bit);
            dut_hasher.write_u8(width);
            dut_hasher.write_str(port);
            dut_hasher.write_u8(u8::from(input));
            match dut.port_slice(port) {
                Some(slice) => {
                    dut_hasher.write_u8(1);
                    dut_hasher.write_str(&slice);
                }
                None => complete = false,
            }
        }
    }
    if !complete {
        // Conservative fallback: fold the whole device, exactly what full
        // keying covers on the DUT axis.
        dut_hasher.write_u8(255);
        dut_hasher.write_u64(device.whole_hash());
    }
    dut_hasher.finish()
}

/// Re-derives a cell's footprint from a memoised one (see
/// [`plan_memo_key`]) and a freshly built device, without generating or
/// planning anything: the plan side — salt, touched signals, pins, frames
/// and resources, and [`plan_hash`](Footprint::plan_hash) — is kept as it
/// is, and the DUT slice is walked afresh, so the result equals what
/// [`capture_footprint`] returns for the same cell on this device.
///
/// A memo is only written for cells whose every test planned, so the walk
/// starts from a complete slice. Pins are rebuilt from their canonical
/// keys, which are valid names; a key that is not (a tampered record) reads
/// as a pin the device does not bind.
pub fn footprint_from_memo(memo: &Footprint, device: &FootprintDevice) -> Footprint {
    let dut = &device.device;
    let pins: Vec<Option<PinId>> = memo.pins.iter().map(|key| PinId::new(key).ok()).collect();
    let bindings = pins
        .iter()
        .map(|pin| pin.as_ref().and_then(|pin| dut.pin_binding(pin)));
    Footprint {
        salt: memo.salt.clone(),
        signals: memo.signals.clone(),
        pins: memo.pins.clone(),
        frames: memo.frames.clone(),
        resources: memo.resources.clone(),
        ecus: vec![dut.behavior_name().to_owned()],
        plan_hash: memo.plan_hash,
        dut_slice_hash: dut_slice_digest(
            memo.pins.iter().zip(bindings),
            &memo.frames,
            true,
            device,
            &memo.salt,
        ),
    }
}

/// The version of codegen and planning a plan memo trusts. A memo skips
/// both, so any change that moves a generated script or a resolved plan —
/// anything that re-blesses `assets/golden/plan_digests.txt` — must bump
/// this, which moves every [`plan_memo_key`] and turns every memo into a
/// miss.
pub const PLAN_MEMO_VERSION: u32 = 1;

/// The plan-memo key of one cell: the address under which a cache keeps
/// an alias of the cell's latest record, so a later launch can read the
/// record's [`Footprint`] back instead of generating and planning the
/// cell. It hashes only what a plan depends on — the suite, the whole
/// stand ([`hash_stand`]), the salt, the exec options (the aliased record
/// depends on them) and [`PLAN_MEMO_VERSION`] — and never the device. The
/// DUT axis carries a digest tagged `b'M'`, so memo keys share no hash
/// domain with full (`b'D'`) or footprint (`b'F'`) keys.
pub fn plan_memo_key(suite_hash: u64, stand_hash: u64, salt: &str, exec_hash: u64) -> CellKey {
    let mut h = StableHasher::new();
    h.write_u8(b'M');
    h.write_u32(PLAN_MEMO_VERSION);
    h.write_str(salt);
    CellKey {
        suite_hash,
        stand_hash,
        dut_config_hash: h.finish(),
        exec_hash,
    }
}

/// Captures the footprint for one (entry, stand) cell from scratch:
/// generates every test's script (validating the suite once), plans it on
/// the stand, builds one device from the entry's factory, and delegates to
/// [`capture_footprint`].
///
/// Infallible by design: script-generation and planning failures fold into
/// the plan digest as error strings and trigger the conservative
/// whole-device fallback, so a footprint always exists for every cell the
/// campaign will attempt. (The engine still surfaces codegen errors at
/// launch, before any job runs.)
pub fn footprint_for_cell(entry: &CampaignEntry<'_>, stand: &TestStand, salt: &str) -> Footprint {
    let device = FootprintDevice::new(entry.device_factory.build());
    let plans: Vec<Result<ExecutionPlan, String>> = comptest_script::generate_each(entry.suite)
        .into_iter()
        .map(|script| match script {
            Ok(script) => crate::campaign::plan_script(&script, stand),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    let plan_refs: Vec<Result<&ExecutionPlan, &str>> = plans
        .iter()
        .map(|r| match r {
            Ok(plan) => Ok(plan),
            Err(message) => Err(message.as_str()),
        })
        .collect();
    capture_footprint(&plan_refs, &device, salt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_model::SimTime;
    use comptest_sheets::Workbook;

    const WB: &str = "\
[suite]
name = lamp

[signals]
name,    kind,                     direction, init
DS_FL,   pin:DS_FL,                input,     Closed
NIGHT,   can:0x2A0:0:1,            input,     0
INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,

[status]
status, method,  attribut, var,   nom, min,  max
Open,   put_r,   r,        ,      0,   0,    2
Closed, put_r,   r,        ,      INF, 5000, INF
0,      put_can, data,     ,      0B,  ,
1,      put_can, data,     ,      1B,  ,
Lo,     get_u,   u,        UBATT, 0,   0,    0.3
Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1

[test night_on]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  1,     Ho

[test day_off]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Lo
";

    fn suite() -> TestSuite {
        Workbook::parse_str("wb.cts", WB).unwrap().suite
    }

    fn stand() -> TestStand {
        TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap()
    }

    #[test]
    fn reparsing_the_same_text_hashes_equal() {
        assert_eq!(hash_suite(&suite()), hash_suite(&suite()));
        assert_eq!(hash_stand(&stand()), hash_stand(&stand()));
    }

    #[test]
    fn structural_mutations_change_the_suite_hash() {
        let base = hash_suite(&suite());

        let mut renamed = suite();
        renamed.tests[0].name = "night_on_v2".into();
        assert_ne!(hash_suite(&renamed), base, "renamed test");

        let mut bound = suite();
        let mut ho = bound.statuses.get_str("Ho").unwrap().clone();
        ho.max = Some(1.2);
        bound.statuses.insert(ho);
        assert_ne!(hash_suite(&bound), base, "widened check bound");

        let mut reordered = suite();
        reordered.tests.swap(0, 1);
        assert_ne!(hash_suite(&reordered), base, "reordered tests");

        let mut dt = suite();
        dt.tests[0].steps[0].dt = SimTime::from_millis(600);
        assert_ne!(hash_suite(&dt), base, "changed step duration");
    }

    #[test]
    fn structural_mutations_change_the_stand_hash() {
        let base = hash_stand(&stand());

        let mut env = stand();
        env.env_mut().set("ubatt", 13.8);
        assert_ne!(hash_stand(&env), base, "supply voltage");

        let renamed =
            TestStand::parse_str("a.stand", &crate::PAPER_STAND_A.replace("HIL-A", "HIL-Z"))
                .unwrap();
        assert_ne!(hash_stand(&renamed), base, "renamed stand");

        let rewired = TestStand::parse_str(
            "a.stand",
            &crate::PAPER_STAND_A.replace("Mx1.2, Ress2,    DS_FL", "Mx1.2, Ress2,    DS_FR"),
        )
        .unwrap();
        assert_ne!(hash_stand(&rewired), base, "re-wired crosspoint");
    }

    #[test]
    fn script_hash_tracks_generated_content() {
        let suite = suite();
        let a = comptest_script::generate(&suite, "night_on").unwrap();
        let b = comptest_script::generate(&suite, "day_off").unwrap();
        assert_eq!(hash_script(&a), hash_script(&a));
        assert_ne!(hash_script(&a), hash_script(&b));
    }

    #[test]
    fn device_hash_distinguishes_configs() {
        use comptest_dut::ecus::interior_light;
        let a = interior_light::device(Default::default());
        let b = interior_light::device(Default::default());
        assert_eq!(hash_device(&a), hash_device(&b), "same config, same hash");
        let cfg = comptest_dut::ElectricalConfig {
            ubatt: 13.8,
            ..Default::default()
        };
        let c = interior_light::device(cfg);
        assert_ne!(hash_device(&a), hash_device(&c), "different supply rail");
    }

    #[test]
    fn exec_options_hash_covers_sampling_and_stop() {
        let base = hash_exec_options(&ExecOptions::default());
        let continuous = hash_exec_options(&ExecOptions {
            sample: SampleMode::Continuous {
                interval: SimTime::from_millis(100),
            },
            ..ExecOptions::default()
        });
        let stop = hash_exec_options(&ExecOptions {
            stop_on_failure: true,
            ..ExecOptions::default()
        });
        assert_ne!(base, continuous);
        assert_ne!(base, stop);
        assert_ne!(continuous, stop);
    }

    #[test]
    fn cell_key_display_is_filesystem_safe_and_fixed_width() {
        let key = CellKey {
            suite_hash: 1,
            stand_hash: 0xdead_beef,
            dut_config_hash: u64::MAX,
            exec_hash: 0,
        };
        let name = key.to_string();
        assert_eq!(name.len(), 16 * 4 + 3);
        assert!(name
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase() || c == '-'));
    }

    fn lamp_entry(suite: &TestSuite) -> CampaignEntry<'_> {
        CampaignEntry {
            suite,
            device_factory: Box::new(|| {
                comptest_dut::ecus::interior_light::device(Default::default())
            }),
        }
    }

    #[test]
    fn footprint_is_stable_and_salt_moves_it() {
        let suite = suite();
        let stand = stand();
        let entry = lamp_entry(&suite);
        let a = footprint_for_cell(&entry, &stand, "");
        let b = footprint_for_cell(&entry, &stand, "");
        assert_eq!(a, b, "footprints are a pure function of the cell");
        assert!(!a.signals.is_empty() && !a.pins.is_empty() && !a.resources.is_empty());
        assert_eq!(a.ecus, vec!["interior_light".to_owned()]);
        assert!(a.frames.contains(&0x2A0), "CAN-mapped NIGHT signal");

        let salted = footprint_for_cell(&entry, &stand, "fw-2");
        assert_ne!(a.plan_hash, salted.plan_hash, "salt moves the plan digest");
        assert_ne!(
            a.dut_slice_hash, salted.dut_slice_hash,
            "salt moves the DUT digest"
        );
        let options = ExecOptions::default();
        assert_ne!(
            FootprintKey::for_cell(&entry, &stand, &options, ""),
            FootprintKey::for_cell(&entry, &stand, &options, "fw-2"),
        );
    }

    #[test]
    fn footprint_ignores_unused_stand_env_vars() {
        let suite = suite();
        let stand = stand();
        let entry = lamp_entry(&suite);
        let base = footprint_for_cell(&entry, &stand, "");

        // An env var no plan evaluates is outside the footprint...
        let mut extra = stand.clone();
        extra.env_mut().set("unrelated_var", 42.0);
        assert_eq!(footprint_for_cell(&entry, &extra, ""), base);
        assert_ne!(
            hash_stand(&stand),
            hash_stand(&extra),
            "full keying re-tests on the same edit"
        );

        // ...while the supply rail the get_u checks scale against is not.
        let mut supply = stand.clone();
        supply.env_mut().set("ubatt", 13.8);
        assert_ne!(
            footprint_for_cell(&entry, &supply, "").plan_hash,
            base.plan_hash
        );
    }

    #[test]
    fn footprint_key_never_aliases_full_key() {
        let suite = suite();
        let stand = stand();
        let entry = lamp_entry(&suite);
        let options = ExecOptions::default();
        let full = CellKey::for_cell(&entry, &stand, &options);
        let footprint = FootprintKey::for_cell(&entry, &stand, &options, "");
        assert_eq!(footprint.suite_hash, full.suite_hash);
        assert_eq!(footprint.exec_hash, full.exec_hash);
        assert_ne!(footprint.cell_key(), full, "disjoint hash domains");
        assert_eq!(footprint.to_string().len(), 16 * 4 + 3);
    }

    #[test]
    fn planning_through_a_stand_leaves_its_hash_alone() {
        let unplanned = stand();
        let planned = stand();
        let script = comptest_script::generate(&suite(), "night_on").unwrap();
        comptest_stand::plan(&script, &planned).unwrap();
        assert_eq!(hash_stand(&planned.clone()), hash_stand(&unplanned));
    }

    #[test]
    fn footprint_equals_per_test_generation() {
        // The reference keys every test through its own `generate` call,
        // which re-validates the suite each time.
        let reference = |entry: &CampaignEntry<'_>, stand: &TestStand| {
            let plans: Vec<Result<ExecutionPlan, String>> = entry
                .suite
                .tests
                .iter()
                .map(|test| {
                    comptest_script::generate(entry.suite, &test.name)
                        .map_err(|e| e.to_string())
                        .and_then(|script| crate::campaign::plan_script(&script, stand))
                })
                .collect();
            let refs: Vec<Result<&ExecutionPlan, &str>> = plans
                .iter()
                .map(|p| p.as_ref().map_err(String::as_str))
                .collect();
            capture_footprint(
                &refs,
                &FootprintDevice::new(entry.device_factory.build()),
                "",
            )
        };
        let valid = suite();
        let mut invalid = suite();
        invalid.tests[1].steps[0].dt = SimTime::ZERO;
        for suite in [&valid, &invalid] {
            let entry = lamp_entry(suite);
            for stand in [stand(), TestStand::new("bare", Env::with_ubatt(12.0))] {
                assert_eq!(
                    footprint_for_cell(&entry, &stand, ""),
                    reference(&entry, &stand)
                );
            }
        }
    }

    #[test]
    fn unplannable_cells_still_get_a_footprint() {
        let suite = suite();
        // A stand with no resources cannot plan anything.
        let bare = TestStand::new("bare", Env::with_ubatt(12.0));
        let entry = lamp_entry(&suite);
        let a = footprint_for_cell(&entry, &bare, "");
        let b = footprint_for_cell(&entry, &bare, "");
        assert_eq!(a, b);
        assert!(a.signals.is_empty(), "nothing planned, nothing touched");
    }

    #[test]
    fn hasher_tags_separate_adjacent_fields() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut z = StableHasher::new();
        z.write_f64(-0.0);
        let mut p = StableHasher::new();
        p.write_f64(0.0);
        assert_eq!(z.finish(), p.finish(), "-0.0 normalises to 0.0");
        let mut z = StableHasher::new();
        z.write_f64_bits(-0.0);
        let mut p = StableHasher::new();
        p.write_f64_bits(0.0);
        assert_ne!(z.finish(), p.finish(), "raw bits keep the sign");
    }

    use comptest_dut::{Behavior, PortValue};
    use comptest_model::MethodName;
    use comptest_stand::ResourceId;

    /// The lamp suite's `night_on` plan on stand A: init stimuli, then one
    /// step applying `DS_FL` (numeric) and `NIGHT` (CAN bits) and checking
    /// `INT_ILL` (numeric bound over two pins).
    fn night_on_plan() -> ExecutionPlan {
        let script = comptest_script::generate(&suite(), "night_on").unwrap();
        comptest_stand::plan(&script, &stand()).unwrap()
    }

    fn plan_digest(plan: &ExecutionPlan) -> u64 {
        let device = FootprintDevice::new(comptest_dut::ecus::interior_light::device(
            Default::default(),
        ));
        capture_footprint(&[Ok(plan)], &device, "").plan_hash
    }

    fn apply_of<'p>(plan: &'p mut ExecutionPlan, name: &str) -> &'p mut Action {
        plan.steps[0]
            .actions
            .iter_mut()
            .find(|a| matches!(a, Action::Apply { signal, .. } if signal == name))
            .unwrap()
    }

    fn check_of(plan: &mut ExecutionPlan) -> &mut GetCheck {
        plan.steps[0]
            .actions
            .iter_mut()
            .find_map(|a| match a {
                Action::Check(check) => Some(check),
                Action::Apply { .. } => None,
            })
            .unwrap()
    }

    #[test]
    fn every_plan_field_moves_the_plan_digest() {
        let base = night_on_plan();
        let digest = plan_digest(&base);
        assert_eq!(
            plan_digest(&night_on_plan()),
            digest,
            "replanning is stable"
        );
        let moved = |what: &str, mutate: &dyn Fn(&mut ExecutionPlan)| {
            let mut plan = base.clone();
            mutate(&mut plan);
            assert_ne!(plan_digest(&plan), digest, "{what} must move the digest");
        };

        moved("script name", &|p| p.script_name.push('2'));
        moved("stand name", &|p| p.stand_name.push('2'));
        moved("step nr", &|p| p.steps[0].nr += 1);
        moved("step dt", &|p| p.steps[0].dt = SimTime::from_millis(600));
        moved("action order", &|p| p.steps[0].actions.swap(0, 1));
        moved("init stimulus dropped", &|p| {
            p.init.pop();
        });
        moved("Num vs Bits", &|p| {
            if let Action::Apply { value, .. } = apply_of(p, "NIGHT") {
                assert_eq!(
                    *value,
                    AppliedValue::Bits(BitPattern::new(1, 1).unwrap()),
                    "fixture"
                );
                *value = AppliedValue::Num(1.0);
            }
        });
        moved("applied number sign", &|p| {
            if let Action::Apply { value, .. } = apply_of(p, "DS_FL") {
                let AppliedValue::Num(v) = value else {
                    panic!("DS_FL applies a resistance")
                };
                *v = -*v;
            }
        });
        moved("apply settle", &|p| {
            if let Action::Apply { settle, .. } = apply_of(p, "DS_FL") {
                *settle = settle.saturating_add(SimTime::from_millis(1));
            }
        });
        moved("apply method", &|p| {
            if let Action::Apply { method, .. } = apply_of(p, "DS_FL") {
                *method = MethodName::new("put_u").unwrap();
            }
        });
        moved("CAN start bit", &|p| {
            if let Action::Apply {
                kind: SignalKind::Can { start_bit, .. },
                ..
            } = apply_of(p, "NIGHT")
            {
                *start_bit += 1;
            }
        });
        moved("check nominal", &|p| {
            let StatusBound::Numeric { nominal, .. } = &mut check_of(p).bound else {
                panic!("INT_ILL checks a voltage")
            };
            assert_eq!(*nominal, None, "get checks carry bounds only");
            *nominal = Some(12.0);
        });
        moved("check lo", &|p| {
            if let StatusBound::Numeric { lo, .. } = &mut check_of(p).bound {
                *lo -= 0.5;
            }
        });
        moved("check hi", &|p| {
            if let StatusBound::Numeric { hi, .. } = &mut check_of(p).bound {
                *hi += 0.5;
            }
        });
        moved("check window", &|p| {
            check_of(p).window = SimTime::from_millis(100)
        });
        moved("check settle", &|p| {
            let check = check_of(p);
            check.settle = check.settle.saturating_add(SimTime::from_millis(1));
        });
        moved("check method", &|p| {
            check_of(p).method = MethodName::new("get_r").unwrap()
        });
        moved("resource spelling", &|p| {
            let check = check_of(p);
            check.resource = ResourceId::new(check.resource.as_str().to_ascii_uppercase()).unwrap();
        });
        moved("pin list", &|p| {
            if let SignalKind::Pin { pins } = &mut check_of(p).kind {
                pins.pop();
            }
        });

        // A bit-pattern bound: the bits and the width both count.
        let bits = |bits: u64, width: u8| {
            let mut plan = base.clone();
            check_of(&mut plan).bound = StatusBound::Bits(BitPattern::new(bits, width).unwrap());
            plan_digest(&plan)
        };
        assert_ne!(bits(1, 1), bits(0, 1), "check bits");
        assert_ne!(bits(1, 1), bits(1, 2), "check bit width");
    }

    /// A lamp-shaped behaviour whose every port has a slice, so the DUT
    /// digest never falls back to the whole device.
    #[derive(Debug)]
    struct Sliced;

    impl Behavior for Sliced {
        fn name(&self) -> &str {
            "sliced"
        }
        fn inputs(&self) -> &[&'static str] {
            &["door", "night"]
        }
        fn outputs(&self) -> &[&'static str] {
            &["lamp"]
        }
        fn reset(&mut self, _now: SimTime) {}
        fn set_input(&mut self, _port: &str, _value: PortValue, _now: SimTime) {}
        fn advance(&mut self, _now: SimTime) {}
        fn next_event(&self) -> Option<SimTime> {
            None
        }
        fn output(&self, _port: &str) -> PortValue {
            PortValue::Bool(false)
        }
        fn port_slice(&self, port: &str) -> Option<String> {
            Some(port.to_owned())
        }
    }

    fn sliced_device(cfg: ElectricalConfig, lamp: PinBinding, spare: PinBinding) -> Device {
        Device::builder(Box::new(Sliced))
            .config(cfg)
            .pin("DS_FL", PinBinding::InputActiveLow { port: "door" })
            .pin("DS_RR", spare)
            .pin("INT_ILL_F", lamp)
            .pin("INT_ILL_R", PinBinding::Return)
            .can_input(0x2A0, 0, 1, "night")
            .build()
    }

    #[test]
    fn every_dut_slice_field_moves_the_dut_digest() {
        let plan = night_on_plan();
        let digest = |device: Device| {
            capture_footprint(&[Ok(&plan)], &FootprintDevice::new(device), "").dut_slice_hash
        };
        let output = PinBinding::Output { port: "lamp" };
        let spare = PinBinding::InputActiveLow { port: "door" };
        let base = digest(sliced_device(
            Default::default(),
            output.clone(),
            spare.clone(),
        ));

        let cfg = ElectricalConfig::default();
        let configs = [
            ("ubatt", ElectricalConfig { ubatt: 13.0, ..cfg }),
            (
                "pull_up",
                ElectricalConfig {
                    pull_up: 20_000.0,
                    ..cfg
                },
            ),
            (
                "low_threshold",
                ElectricalConfig {
                    low_threshold: 0.35,
                    ..cfg
                },
            ),
            (
                "high_threshold",
                ElectricalConfig {
                    high_threshold: 0.65,
                    ..cfg
                },
            ),
            (
                "drive_resistance",
                ElectricalConfig {
                    drive_resistance: 2.0,
                    ..cfg
                },
            ),
        ];
        for (field, cfg) in configs {
            let moved = digest(sliced_device(cfg, output.clone(), spare.clone()));
            assert_ne!(moved, base, "{field} must move the digest");
        }

        let input = PinBinding::InputActiveHigh { port: "lamp" };
        assert_ne!(
            digest(sliced_device(Default::default(), input, spare)),
            base,
            "Output -> InputActiveHigh on a touched pin"
        );
        // An untouched pin is outside the slice: the digest is not the
        // whole-device fallback.
        let untouched = PinBinding::InputActiveHigh { port: "door" };
        assert_eq!(
            digest(sliced_device(Default::default(), output, untouched)),
            base,
            "rebinding an untouched pin"
        );
    }
}
