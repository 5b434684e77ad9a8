//! The lock-cheap metrics registry behind [`Recorder`](super::Recorder):
//! fixed sets of atomic counters, gauges (current + high-water), phase
//! accumulators and fixed-bucket histograms, snapshotted into the public
//! [`MetricsSnapshot`].
//!
//! Everything on the hot path is a relaxed atomic op; names and bucket
//! bounds are compile-time constants, so recording a metric never
//! allocates or locks.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use crate::codec::Value;

/// Monotonic event counters. The names (see [`Counter::name`]) are the
/// stable identifiers exported in the metrics JSON and summary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    /// Jobs the launch planned at its granularity (cells or tests).
    JobsPlanned,
    /// Jobs that executed (including not-runnable planning failures).
    JobsExecuted,
    /// Jobs served from the campaign cache instead of executing.
    JobsCached,
    /// Jobs cancelled before they ran (or abandoned at a step boundary).
    JobsCancelled,
    /// Remote jobs re-dispatched after a worker died mid-job. Each retry
    /// re-queues the same planned job, so the invariant `jobs_executed +
    /// jobs_cached + jobs_cancelled == jobs_planned` stays balanced —
    /// retries are extra attempts, not extra jobs.
    JobsRetried,
    /// Individual tests whose outcome was determined by execution.
    TestsExecuted,
    /// Plan steps executed across all runs.
    StepsExecuted,
    /// Cache admissions served from a record.
    CacheHits,
    /// Cache admissions that had to execute (absent, undetermined record,
    /// or verify mode).
    CacheMisses,
    /// Cells whose record or plan memo existed but was
    /// corrupt/truncated/wrong-version, once per cell and launch.
    CacheCorruptEntries,
    /// Encoded record bytes read from the cache at preload — what the
    /// `cache_preload` phase cost buys.
    CacheBytesRead,
    /// Encoded record bytes written to the cache by stores.
    CacheBytesWritten,
    /// Trace spans opened.
    SpansOpened,
    /// Trace spans closed.
    SpansClosed,
    /// Wall-clock microseconds workers spent executing steps.
    WorkerBusyMicros,
    /// Wall-clock microseconds from launch to join.
    CampaignWallMicros,
    /// Total wall-clock microseconds across executed tests.
    TestWallMicrosTotal,
    /// Total simulated microseconds across executed tests.
    TestSimMicrosTotal,
    /// Cells whose preload lookup missed — the cells the campaign will
    /// (re-)execute because no valid record matched their key.
    CellsInvalidated,
    /// Encoded footprint bytes attached to this campaign's cells.
    FootprintBytes,
    /// Cells whose plan memo was usable, so their footprint key needed no
    /// codegen or planning (under `cache_verify` they are planned anyway
    /// and the memo is audited).
    PlanMemoHits,
    /// Cells of a key resolution without a usable plan
    /// memo (absent, unreadable, or written under another salt); they
    /// generate and plan as on a cold launch.
    PlanMemoMisses,
}

impl Counter {
    pub(crate) const ALL: [Counter; 22] = [
        Counter::JobsPlanned,
        Counter::JobsExecuted,
        Counter::JobsCached,
        Counter::JobsCancelled,
        Counter::JobsRetried,
        Counter::TestsExecuted,
        Counter::StepsExecuted,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheCorruptEntries,
        Counter::CacheBytesRead,
        Counter::CacheBytesWritten,
        Counter::SpansOpened,
        Counter::SpansClosed,
        Counter::WorkerBusyMicros,
        Counter::CampaignWallMicros,
        Counter::TestWallMicrosTotal,
        Counter::TestSimMicrosTotal,
        Counter::CellsInvalidated,
        Counter::FootprintBytes,
        Counter::PlanMemoHits,
        Counter::PlanMemoMisses,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Counter::JobsPlanned => "jobs_planned",
            Counter::JobsExecuted => "jobs_executed",
            Counter::JobsCached => "jobs_cached",
            Counter::JobsCancelled => "jobs_cancelled",
            Counter::JobsRetried => "jobs_retried",
            Counter::TestsExecuted => "tests_executed",
            Counter::StepsExecuted => "steps_executed",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheCorruptEntries => "cache_corrupt_entries",
            Counter::CacheBytesRead => "cache_bytes_read",
            Counter::CacheBytesWritten => "cache_bytes_written",
            Counter::SpansOpened => "spans_opened",
            Counter::SpansClosed => "spans_closed",
            Counter::WorkerBusyMicros => "worker_busy_micros",
            Counter::CampaignWallMicros => "campaign_wall_micros",
            Counter::TestWallMicrosTotal => "test_wall_micros_total",
            Counter::TestSimMicrosTotal => "test_sim_micros_total",
            Counter::CellsInvalidated => "cells_invalidated",
            Counter::FootprintBytes => "footprint_bytes",
            Counter::PlanMemoHits => "plan_memo_hits",
            Counter::PlanMemoMisses => "plan_memo_misses",
        }
    }
}

/// Instantaneous values with high-water tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gauge {
    /// Jobs handed to an executor but not yet started (pool backlog /
    /// async admission queue).
    QueueDepth,
    /// Jobs currently executing (blocking executors) or parked on a
    /// sim-time wheel (async executor).
    InflightJobs,
    /// Worker threads (pool size, shard count, or 1 for serial).
    Workers,
}

impl Gauge {
    pub(crate) const ALL: [Gauge; 3] = [Gauge::QueueDepth, Gauge::InflightJobs, Gauge::Workers];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "queue_depth",
            Gauge::InflightJobs => "inflight_jobs",
            Gauge::Workers => "workers",
        }
    }
}

/// Launch/run phases whose wall-clock time is accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Script generation, one call per entry generated (at most once per
    /// launch; entries the cache fully serves are never generated).
    Codegen,
    /// Suite/stand/DUT/exec-options hashing for the `CellKey` pass of a
    /// cached launch: one call for the suites and stands, then one per
    /// cell for its key derivation (planning and the entry's one device
    /// build included).
    Hash,
    /// Plan-memo and record reads of the `CellKey` pass on the launch
    /// thread, one or two calls per cell.
    CachePreload,
    /// Execution-plan resolution (at most once per (entry, test, stand)
    /// slot of a launch).
    Plan,
    /// Step execution on workers (sums across threads, so it can exceed
    /// the campaign wall time).
    Execute,
    /// Report rendering (recorded by the CLI after join).
    Report,
}

impl Phase {
    pub(crate) const ALL: [Phase; 6] = [
        Phase::Codegen,
        Phase::Hash,
        Phase::CachePreload,
        Phase::Plan,
        Phase::Execute,
        Phase::Report,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Codegen => "codegen",
            Phase::Hash => "hash",
            Phase::CachePreload => "cache_preload",
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Report => "report",
        }
    }
}

/// Fixed-bucket duration histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Histogram {
    /// Wall-clock time per executed test.
    TestWall,
    /// Simulated time per executed test.
    TestSim,
    /// Wall-clock time per executed step.
    StepWall,
}

impl Histogram {
    pub(crate) const ALL: [Histogram; 3] =
        [Histogram::TestWall, Histogram::TestSim, Histogram::StepWall];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Histogram::TestWall => "test_wall_micros",
            Histogram::TestSim => "test_sim_micros",
            Histogram::StepWall => "step_wall_micros",
        }
    }
}

/// Upper bucket bounds in microseconds (`<=`); values above the last bound
/// land in the overflow bucket.
const BUCKET_BOUNDS_MICROS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

#[derive(Debug, Default)]
struct GaugeCell {
    current: AtomicI64,
    max: AtomicI64,
}

#[derive(Debug, Default)]
struct PhaseCell {
    micros: AtomicU64,
    calls: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self {
            buckets: (0..=BUCKET_BOUNDS_MICROS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// The registry proper: one cell per metric, all atomics.
#[derive(Debug)]
pub(crate) struct Registry {
    counters: Vec<AtomicU64>,
    gauges: Vec<GaugeCell>,
    phases: Vec<PhaseCell>,
    histograms: Vec<HistogramCell>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            counters: (0..Counter::ALL.len()).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..Gauge::ALL.len())
                .map(|_| GaugeCell::default())
                .collect(),
            phases: (0..Phase::ALL.len())
                .map(|_| PhaseCell::default())
                .collect(),
            histograms: (0..Histogram::ALL.len())
                .map(|_| HistogramCell::default())
                .collect(),
        }
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn gauge_add(&self, gauge: Gauge, delta: i64) {
        let cell = &self.gauges[gauge as usize];
        let now = cell.current.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            cell.max.fetch_max(now, Ordering::Relaxed);
        }
    }

    pub(crate) fn phase_add(&self, phase: Phase, wall: Duration) {
        let cell = &self.phases[phase as usize];
        cell.micros
            .fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe(&self, histogram: Histogram, micros: u64) {
        let cell = &self.histograms[histogram as usize];
        let slot = BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&le| micros <= le)
            .unwrap_or(BUCKET_BOUNDS_MICROS.len());
        cell.buckets[slot].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.counters[c as usize].load(Ordering::Relaxed)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| {
                    let cell = &self.gauges[g as usize];
                    (
                        g.name(),
                        GaugeSnapshot {
                            current: cell.current.load(Ordering::Relaxed),
                            max: cell.max.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let cell = &self.phases[p as usize];
                    (
                        p.name(),
                        PhaseSnapshot {
                            micros: cell.micros.load(Ordering::Relaxed),
                            calls: cell.calls.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|&h| {
                    let cell = &self.histograms[h as usize];
                    let buckets = cell
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, b)| {
                            (
                                BUCKET_BOUNDS_MICROS.get(i).copied(),
                                b.load(Ordering::Relaxed),
                            )
                        })
                        .collect();
                    (
                        h.name(),
                        HistogramSnapshot {
                            buckets,
                            count: cell.count.load(Ordering::Relaxed),
                            sum_micros: cell.sum_micros.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One gauge's state at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub current: i64,
    /// Highest value observed.
    pub max: i64,
}

/// One phase accumulator's state at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Accumulated wall-clock microseconds.
    pub micros: u64,
    /// Number of timed calls.
    pub calls: u64,
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(upper_bound_micros, count)` per bucket; `None` is the overflow
    /// bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed microseconds.
    pub sum_micros: u64,
}

/// A point-in-time copy of every metric a [`Recorder`](super::Recorder)
/// collected — the machine-readable face of the observability layer
/// (`--metrics-out` serialises it; `comptest_report::metrics_text`
/// renders it).
///
/// Field maps are keyed by the stable metric names listed in the counter
/// glossary (crate docs, "Observability" section). Core invariants a
/// joined, un-cancelled campaign satisfies: `jobs_executed + jobs_cached
/// == jobs_planned` and `spans_opened == spans_closed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauges (current + high-water) by name.
    pub gauges: BTreeMap<&'static str, GaugeSnapshot>,
    /// Phase timing accumulators by name.
    pub phases: BTreeMap<&'static str, PhaseSnapshot>,
    /// Fixed-bucket histograms by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, `0` when the name is unknown.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's current value, `0` when the name is unknown. Gauges are
    /// additive across concurrent campaigns sharing one recorder: every
    /// launch's claims are balanced by releases, so `queue_depth`,
    /// `inflight_jobs` and `workers` all read `0` once every campaign
    /// recorded here has joined.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).map(|g| g.current).unwrap_or(0)
    }

    /// Serialises the snapshot as deterministic, machine-readable JSON —
    /// what `--metrics-out` writes.
    pub fn to_json(&self) -> String {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(&k, &v)| (k.to_owned(), Value::u64(v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(&k, g)| {
                    let mut map = BTreeMap::new();
                    map.insert("current".to_owned(), Value::Number(g.current.to_string()));
                    map.insert("max".to_owned(), Value::Number(g.max.to_string()));
                    (k.to_owned(), Value::Object(map))
                })
                .collect(),
        );
        let phases = Value::Object(
            self.phases
                .iter()
                .map(|(&k, p)| {
                    let mut map = BTreeMap::new();
                    map.insert("micros".to_owned(), Value::u64(p.micros));
                    map.insert("calls".to_owned(), Value::u64(p.calls));
                    (k.to_owned(), Value::Object(map))
                })
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(&k, h)| {
                    let buckets = Value::Array(
                        h.buckets
                            .iter()
                            .map(|&(le, count)| {
                                let mut map = BTreeMap::new();
                                map.insert(
                                    "le".to_owned(),
                                    le.map(Value::u64).unwrap_or(Value::Null),
                                );
                                map.insert("count".to_owned(), Value::u64(count));
                                Value::Object(map)
                            })
                            .collect(),
                    );
                    let mut map = BTreeMap::new();
                    map.insert("buckets".to_owned(), buckets);
                    map.insert("count".to_owned(), Value::u64(h.count));
                    map.insert("sum_micros".to_owned(), Value::u64(h.sum_micros));
                    (k.to_owned(), Value::Object(map))
                })
                .collect(),
        );
        let mut root = BTreeMap::new();
        root.insert("counters".to_owned(), counters);
        root.insert("gauges".to_owned(), gauges);
        root.insert("phases".to_owned(), phases);
        root.insert("histograms".to_owned(), histograms);
        Value::Object(root).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_phases_and_histograms_round_trip() {
        let registry = Registry::new();
        registry.add(Counter::JobsPlanned, 10);
        registry.add(Counter::JobsExecuted, 7);
        registry.add(Counter::JobsCached, 3);
        registry.gauge_add(Gauge::QueueDepth, 5);
        registry.gauge_add(Gauge::QueueDepth, -2);
        registry.phase_add(Phase::Plan, Duration::from_micros(250));
        registry.observe(Histogram::TestWall, 50);
        registry.observe(Histogram::TestWall, 5_000_000);
        registry.observe(Histogram::TestWall, 99_000_000_000);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("jobs_planned"), 10);
        assert_eq!(
            snap.counter("jobs_executed") + snap.counter("jobs_cached"),
            snap.counter("jobs_planned")
        );
        assert_eq!(snap.counter("no_such_counter"), 0);
        let queue = &snap.gauges["queue_depth"];
        assert_eq!((queue.current, queue.max), (3, 5));
        let plan = &snap.phases["plan"];
        assert_eq!((plan.micros, plan.calls), (250, 1));
        let wall = &snap.histograms["test_wall_micros"];
        assert_eq!(wall.count, 3);
        assert_eq!(wall.sum_micros, 50 + 5_000_000 + 99_000_000_000);
        assert_eq!(wall.buckets.first(), Some(&(Some(100), 1)));
        assert_eq!(wall.buckets.last(), Some(&(None, 1)));

        let json = snap.to_json();
        assert!(json.contains("\"jobs_planned\":10"), "{json}");
        assert!(json.contains("\"le\":null"), "{json}");
    }
}
