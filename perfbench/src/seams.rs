//! Bench-owned instruments at the layer seams.
//!
//! Nothing here reaches inside the engine: each instrument wraps a public
//! function or trait of one layer and times the calls the engine makes
//! through it. The traced run installs them; the untraced run calls the
//! same layers directly.
//!
//! * [`counted_device`] — a bench-owned device factory body: it times every
//!   DUT build and wraps the behaviour so each simulated event the step
//!   engine drives through it is counted.
//! * [`TimedCache`] — a [`CampaignCache`] decorator around [`DirCache`]
//!   timing every lookup and store.
//! * [`Seams::time`] — times calls into sheets parsing and report rendering.
//! * [`CampaignObs`] — the engine's own phase timers and counters, read from
//!   an enabled `Recorder`'s snapshot (or from the daemon's `metrics` frame).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use comptest_dut::{Behavior, Device, PortValue};
use comptest_engine::cache::{CacheLookup, CellRecord, LookupInfo};
use comptest_engine::codec::{self, Value};
use comptest_engine::{CampaignCache, CellKey, DirCache};
use comptest_model::SimTime;

/// What the bench-side instruments measured during one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeamTotals {
    /// Microseconds in `Workbook::parse_str`.
    pub parse_us: f64,
    /// Microseconds rendering the JUnit and table reports.
    pub report_us: f64,
    /// Microseconds per DUT build, in build order.
    pub build_us: Vec<f64>,
    /// Microseconds per cache lookup.
    pub lookup_us: Vec<f64>,
    /// Microseconds per cache store.
    pub store_us: Vec<f64>,
    /// Simulated events the step engine drove through the DUT behaviours.
    pub sim_events: u64,
}

/// Which seam a timed call belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Seam {
    /// Workbook parsing.
    Parse,
    /// Report rendering.
    Report,
    /// One DUT build.
    Build,
    /// One cache lookup.
    Lookup,
    /// One cache store.
    Store,
}

/// Shared accumulator for one campaign's bench-side measurements.
#[derive(Debug, Default)]
pub struct Seams {
    totals: Mutex<SeamTotals>,
    sim_events: AtomicU64,
}

impl Seams {
    /// Times `f` as one call of `seam`.
    pub fn time<T>(&self, seam: Seam, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        let mut totals = self.totals.lock().expect("seam totals lock");
        match seam {
            Seam::Parse => totals.parse_us += us,
            Seam::Report => totals.report_us += us,
            Seam::Build => totals.build_us.push(us),
            Seam::Lookup => totals.lookup_us.push(us),
            Seam::Store => totals.store_us.push(us),
        }
        out
    }

    /// Returns everything measured since the last call and resets.
    pub fn take(&self) -> SeamTotals {
        let mut totals = std::mem::take(&mut *self.totals.lock().expect("seam totals lock"));
        totals.sim_events = self.sim_events.swap(0, Ordering::Relaxed);
        totals
    }
}

/// A behaviour wrapper counting the simulated events driven through it.
/// Its `Debug` output is the wrapped behaviour's, so device hashes — and
/// therefore cache keys — are the same with and without the wrapper.
/// Events are counted per device and published once when the device is
/// dropped, so parallel workers never contend on the shared counter.
struct Counted {
    inner: Box<dyn Behavior + Send>,
    events: u64,
    seams: Arc<Seams>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.seams
            .sim_events
            .fetch_add(self.events, Ordering::Relaxed);
    }
}

impl fmt::Debug for Counted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Behavior for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn inputs(&self) -> &[&'static str] {
        self.inner.inputs()
    }
    fn outputs(&self) -> &[&'static str] {
        self.inner.outputs()
    }
    fn reset(&mut self, now: SimTime) {
        self.inner.reset(now);
    }
    fn set_input(&mut self, port: &str, value: PortValue, now: SimTime) {
        self.inner.set_input(port, value, now);
    }
    fn advance(&mut self, now: SimTime) {
        self.events += 1;
        self.inner.advance(now);
    }
    fn next_event(&self) -> Option<SimTime> {
        self.inner.next_event()
    }
    fn output(&self, port: &str) -> PortValue {
        self.inner.output(port)
    }
    fn port_slice(&self, port: &str) -> Option<String> {
        self.inner.port_slice(port)
    }
}

/// Builds a device from `behavior` through `wire`; with `seams`, the build
/// is timed and the behaviour's simulated events are counted.
pub fn counted_device(
    seams: Option<&Arc<Seams>>,
    behavior: Box<dyn Behavior + Send>,
    wire: impl FnOnce(Box<dyn Behavior + Send>) -> Device,
) -> Device {
    match seams {
        None => wire(behavior),
        Some(seams) => seams.time(Seam::Build, || {
            wire(Box::new(Counted {
                inner: behavior,
                events: 0,
                seams: Arc::clone(seams),
            }))
        }),
    }
}

/// A [`CampaignCache`] decorator timing every lookup and store of the
/// [`DirCache`] it wraps.
#[derive(Debug)]
pub struct TimedCache {
    inner: Arc<DirCache>,
    seams: Arc<Seams>,
}

impl TimedCache {
    /// Wraps `inner`, recording into `seams`.
    pub fn new(inner: Arc<DirCache>, seams: Arc<Seams>) -> Self {
        Self { inner, seams }
    }
}

impl CampaignCache for TimedCache {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        match self.lookup(key) {
            CacheLookup::Hit(record) => Some(record),
            CacheLookup::Miss | CacheLookup::Corrupt => None,
        }
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        self.store_io(key, record);
    }

    fn lookup(&self, key: &CellKey) -> CacheLookup {
        self.lookup_io(key).lookup
    }

    fn lookup_io(&self, key: &CellKey) -> LookupInfo {
        self.seams.time(Seam::Lookup, || self.inner.lookup_io(key))
    }

    fn store_io(&self, key: &CellKey, record: &CellRecord) -> u64 {
        self.seams
            .time(Seam::Store, || self.inner.store_io(key, record))
    }
}

/// One campaign's engine-side observations: the phase timers, counters and
/// gauge high-water marks of its `Recorder` snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignObs {
    counters: BTreeMap<String, u64>,
    phases: BTreeMap<String, (u64, u64)>,
    gauge_max: BTreeMap<String, u64>,
}

impl CampaignObs {
    /// Reads a snapshot in its `MetricsSnapshot::to_json` form.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the text is not such a document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&codec::parse(text).map_err(|e| e.0)?)
    }

    /// Reads a snapshot document already parsed into a [`Value`] — the
    /// shape the daemon's `metrics` frame carries.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when a section is missing or malformed.
    pub fn from_value(doc: &Value) -> Result<Self, String> {
        let section = |name: &str| {
            doc.field(name)
                .and_then(Value::as_object)
                .map_err(|e| format!("metrics {name}: {}", e.0))
        };
        let field = |v: &Value, name: &str| {
            v.field(name)
                .and_then(Value::as_u64)
                .map_err(|e| format!("metrics field {name}: {}", e.0))
        };
        let mut obs = CampaignObs::default();
        for (name, v) in section("counters")? {
            let n = v.as_u64().map_err(|e| format!("counter {name}: {}", e.0))?;
            obs.counters.insert(name.clone(), n);
        }
        for (name, v) in section("phases")? {
            obs.phases
                .insert(name.clone(), (field(v, "micros")?, field(v, "calls")?));
        }
        for (name, v) in section("gauges")? {
            obs.gauge_max.insert(name.clone(), field(v, "max")?);
        }
        Ok(obs)
    }

    /// A counter's value (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A phase's accumulated microseconds (`0` when absent).
    pub fn phase_us(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |&(us, _)| us as f64)
    }

    /// A phase's call count (`0` when absent).
    pub fn phase_calls(&self, name: &str) -> u64 {
        self.phases.get(name).map_or(0, |&(_, calls)| calls)
    }

    /// A gauge's high-water mark (`0` when absent).
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.gauge_max.get(name).copied().unwrap_or(0)
    }

    /// Checks the recorder's balance invariants: every planned job is
    /// executed, cached or cancelled; every span opened is closed; no cache
    /// record was unreadable.
    ///
    /// # Errors
    ///
    /// Names the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let planned = self.counter("jobs_planned");
        let accounted = self.counter("jobs_executed")
            + self.counter("jobs_cached")
            + self.counter("jobs_cancelled");
        if accounted != planned {
            return Err(format!(
                "jobs executed+cached+cancelled {accounted} != planned {planned}"
            ));
        }
        let (opened, closed) = (self.counter("spans_opened"), self.counter("spans_closed"));
        if opened != closed {
            return Err(format!("spans opened {opened} != closed {closed}"));
        }
        match self.counter("cache_corrupt_entries") {
            0 => Ok(()),
            n => Err(format!("{n} corrupt cache entries")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_documents_parse_and_balance() {
        let doc = r#"{"counters":{"jobs_planned":4,"jobs_executed":3,"jobs_cached":1,
            "jobs_cancelled":0,"spans_opened":9,"spans_closed":9},
            "gauges":{"queue_depth":{"current":0,"max":3}},
            "phases":{"plan":{"micros":120,"calls":4}},"histograms":{}}"#;
        let obs = CampaignObs::from_json(doc).unwrap();
        assert_eq!(obs.counter("jobs_planned"), 4);
        assert_eq!(obs.counter("absent"), 0);
        assert_eq!(obs.phase_us("plan"), 120.0);
        assert_eq!(obs.phase_calls("plan"), 4);
        assert_eq!(obs.gauge_max("queue_depth"), 3);
        assert_eq!(obs.check_invariants(), Ok(()));

        let unbalanced = doc.replace("\"spans_closed\":9", "\"spans_closed\":8");
        let err = CampaignObs::from_json(&unbalanced)
            .unwrap()
            .check_invariants()
            .unwrap_err();
        assert!(err.contains("spans"), "{err}");
    }

    #[test]
    fn seams_accumulate_and_reset() {
        let seams = Seams::default();
        seams.time(Seam::Build, || ());
        seams.time(Seam::Build, || ());
        seams.time(Seam::Parse, || ());
        seams.sim_events.fetch_add(5, Ordering::Relaxed);
        let totals = seams.take();
        assert_eq!(totals.build_us.len(), 2);
        assert_eq!(totals.sim_events, 5);
        assert_eq!(seams.take(), SeamTotals::default());
    }
}
