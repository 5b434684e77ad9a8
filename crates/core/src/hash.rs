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
//! * identifier names hash through their canonical case-insensitive
//!   [`key()`](comptest_model::SignalName::key) form, matching how the
//!   rest of the toolchain compares them.

use std::collections::BTreeSet;
use std::fmt;

use comptest_dut::Device;
use comptest_model::{Env, SignalDef, SignalKind, StatusDef, TestSuite};
use comptest_script::TestScript;
use comptest_stand::{Action, ExecutionPlan, TestStand};

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

    /// Feeds an `f64` through its IEEE-754 bit pattern (`-0.0` is
    /// normalised to `0.0` so the two structurally equal spellings agree).
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
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

fn write_signal_kind(h: &mut StableHasher, kind: &SignalKind) {
    match kind {
        SignalKind::Pin { pins } => {
            h.write_u8(1);
            h.write_usize(pins.len());
            for pin in pins {
                h.write_str(&pin.key());
            }
        }
        SignalKind::Can {
            frame,
            start_bit,
            width,
        } => {
            h.write_u8(2);
            h.write_u32(frame.0);
            h.write_u8(*start_bit);
            h.write_u8(*width);
        }
    }
}

fn write_signal_def(h: &mut StableHasher, sig: &SignalDef) {
    h.write_str(&sig.name.key());
    write_signal_kind(h, &sig.kind);
    h.write_u8(match sig.direction {
        comptest_model::SignalDirection::Input => 0,
        comptest_model::SignalDirection::Output => 1,
    });
    match &sig.init {
        Some(init) => {
            h.write_u8(1);
            h.write_str(&init.key());
        }
        None => h.write_u8(0),
    }
    // The free-text description is documentation, not structure: two suites
    // differing only in prose verify the same contract.
}

fn write_status_def(h: &mut StableHasher, def: &StatusDef) {
    h.write_str(&def.name.key());
    h.write_str(&def.method.key());
    h.write_str(&def.attribut.to_ascii_lowercase());
    match &def.var {
        Some(var) => {
            h.write_u8(1);
            h.write_str(&var.to_ascii_lowercase());
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
                h.write_str(&a.signal.key());
                h.write_str(&a.status.key());
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
        h.write_str(&resource.id.key());
        h.write_usize(resource.capacity);
        h.write_usize(resource.capabilities.len());
        for cap in &resource.capabilities {
            h.write_str(&cap.method.key());
            h.write_str(&cap.attribut.to_ascii_lowercase());
            h.write_f64(cap.min);
            h.write_f64(cap.max);
            h.write_str(&cap.unit.to_string());
        }
    }
    let connections = stand.matrix().connections();
    h.write_usize(connections.len());
    for c in connections {
        h.write_str(&c.point.key());
        h.write_str(&c.resource.key());
        h.write_str(&c.pin.key());
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
/// This makes the *derived, exhaustive* `Debug` of [`Device`] and of every
/// [`Behavior`](comptest_dut::Behavior) implementation part of the
/// cache-key contract: a hand-written `Debug` that elides fields (e.g. via
/// `finish_non_exhaustive`) would let structurally different DUT configs
/// collide on this digest and serve each other's cached outcomes —
/// detectable only by `--cache-verify`. Keep device/behaviour `Debug`
/// derived (or field-complete), or extend this function with explicit
/// accessors instead.
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
///   does not implement `port_slice` falls back to hashing the whole
///   device, which makes the footprint exactly as conservative as full
///   keying on the DUT axis — never less safe.
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
    /// Digest of the resolved execution plans (tag `b'P'`; salt included).
    pub plan_hash: u64,
    /// Digest of the touched DUT slice (tag `b'F'`; salt included).
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

/// Folds one plan action's dependencies into the footprint sets.
fn collect_action(
    action: &Action,
    signals: &mut BTreeSet<String>,
    pins: &mut BTreeSet<String>,
    frames: &mut BTreeSet<u32>,
    resources: &mut BTreeSet<String>,
) {
    let (signal, kind, resource) = match action {
        Action::Apply {
            signal,
            kind,
            resource,
            ..
        } => (signal, kind, resource),
        Action::Check(check) => (&check.signal, &check.kind, &check.resource),
    };
    signals.insert(signal.key());
    resources.insert(resource.key());
    match kind {
        SignalKind::Pin { pins: signal_pins } => {
            for pin in signal_pins {
                pins.insert(pin.key());
            }
        }
        SignalKind::Can { frame, .. } => {
            frames.insert(frame.0);
        }
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
/// DUT digest fold the whole device, exactly like [`hash_device`].
pub fn capture_footprint(
    plans: &[Result<&ExecutionPlan, &str>],
    device: &Device,
    salt: &str,
) -> Footprint {
    let mut signals = BTreeSet::new();
    let mut pins = BTreeSet::new();
    let mut frames = BTreeSet::new();
    let mut resources = BTreeSet::new();
    let mut complete = true;

    let mut plan_hasher = StableHasher::new();
    plan_hasher.write_u8(b'P');
    plan_hasher.write_str(salt);
    plan_hasher.write_usize(plans.len());
    for plan in plans {
        match plan {
            Ok(plan) => {
                plan_hasher.write_u8(1);
                plan_hasher.write_str(&format!("{plan:?}"));
                for action in plan
                    .init
                    .iter()
                    .chain(plan.steps.iter().flat_map(|s| s.actions.iter()))
                {
                    collect_action(action, &mut signals, &mut pins, &mut frames, &mut resources);
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

    let mut dut_hasher = StableHasher::new();
    dut_hasher.write_u8(b'F');
    dut_hasher.write_str(salt);
    dut_hasher.write_str(&format!("{:?}", device.config()));
    dut_hasher.write_str(device.behavior_name());
    dut_hasher.write_usize(pins.len());
    for pin in &pins {
        dut_hasher.write_str(pin);
        match device.pin_binding_debug(pin) {
            Some((binding, port)) => {
                dut_hasher.write_u8(1);
                dut_hasher.write_str(&binding);
                match port {
                    Some(port) => match device.port_slice(port) {
                        Some(slice) => {
                            dut_hasher.write_u8(1);
                            dut_hasher.write_str(&slice);
                        }
                        None => complete = false,
                    },
                    // Return rails carry no behaviour state of their own.
                    None => dut_hasher.write_u8(0),
                }
            }
            // A pin the device does not bind (stand-side stimulus only).
            None => dut_hasher.write_u8(0),
        }
    }
    dut_hasher.write_usize(frames.len());
    for &frame in &frames {
        dut_hasher.write_u32(frame);
        let bindings = device.can_frame_bindings(comptest_model::CanFrameId(frame));
        dut_hasher.write_usize(bindings.len());
        for (start_bit, width, port, input) in bindings {
            dut_hasher.write_u8(start_bit);
            dut_hasher.write_u8(width);
            dut_hasher.write_str(port);
            dut_hasher.write_u8(u8::from(input));
            match device.port_slice(port) {
                Some(slice) => {
                    dut_hasher.write_u8(1);
                    dut_hasher.write_str(&slice);
                }
                None => complete = false,
            }
        }
    }
    if !complete {
        // Conservative fallback: hash the whole device, exactly what full
        // keying covers on the DUT axis.
        dut_hasher.write_u8(255);
        dut_hasher.write_str(&format!("{device:?}"));
    }

    Footprint {
        salt: salt.to_owned(),
        signals: signals.into_iter().collect(),
        pins: pins.into_iter().collect(),
        frames: frames.into_iter().collect(),
        resources: resources.into_iter().collect(),
        ecus: vec![device.behavior_name().to_owned()],
        plan_hash: plan_hasher.finish(),
        dut_slice_hash: dut_hasher.finish(),
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
    let device = entry.device_factory.build();
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
            capture_footprint(&refs, &entry.device_factory.build(), "")
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
    }
}
