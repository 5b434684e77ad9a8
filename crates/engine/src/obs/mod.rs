//! Campaign observability: a lock-cheap metrics registry, span tracing
//! with a campaign → cell → test → step hierarchy, and exporters for
//! Chrome trace-event JSON and metrics snapshots.
//!
//! The entry point is [`Recorder`]. A disabled recorder (the default) is
//! a `None` behind a cheap `Clone` — every instrumentation hook is a
//! single branch and the executors take their uninstrumented fast paths,
//! so campaigns that never opt in pay nothing. [`Recorder::enabled`]
//! turns everything on:
//!
//! ```
//! use comptest_core::campaign::CampaignEntry;
//! use comptest_engine::{Campaign, Recorder, SerialExecutor};
//! # use comptest_sheets::Workbook;
//! # use comptest_stand::TestStand;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let wb = Workbook::parse_str("o.cts", "\
//! # [signals]
//! # name,    kind,                     direction, init
//! # DS_FL,   pin:DS_FL,                input,     Closed
//! # INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,
//! #
//! # [status]
//! # status, method,  attribut, var,   nom, min,  max
//! # Open,   put_r,   r,        ,      0,   0,    2
//! # Closed, put_r,   r,        ,      INF, 5000, INF
//! # Lo,     get_u,   u,        UBATT, 0,   0,    0.3
//! # Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1
//! #
//! # [test night_on]
//! # step, dt,  DS_FL, INT_ILL
//! # 0,    0.5, Open,  Ho
//! # ")?;
//! # let stand = TestStand::parse_str("a.stand", comptest_core::PAPER_STAND_A)?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &wb.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest_dut::ecus::interior_light::device(Default::default())
//! #     }),
//! # }];
//! # let stands = [&stand];
//! let obs = Recorder::enabled();
//! let outcome = Campaign::new(&entries, &stands)
//!     .recorder(obs.clone())
//!     .run(&SerialExecutor)?;
//! let metrics = obs.metrics().unwrap();
//! assert_eq!(
//!     metrics.counter("jobs_executed") + metrics.counter("jobs_cached"),
//!     metrics.counter("jobs_planned"),
//! );
//! let trace = obs.chrome_trace_json().unwrap(); // load in ui.perfetto.dev
//! assert!(trace.starts_with('['));
//! # Ok(())
//! # }
//! ```
//!
//! Timestamps and durations captured here are **export-only**: they are
//! never folded into results, cache keys, or cache records, so enabling
//! observability cannot change a campaign's outcome — the executor
//! conformance suite proves results stay byte-identical either way.

mod metrics;
mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use comptest_core::StepProbe;
use comptest_model::SimTime;

pub use metrics::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, PhaseSnapshot};

pub(crate) use metrics::{Counter, Gauge, Histogram, Phase};
pub(crate) use trace::SpanCat;

use metrics::Registry;
use trace::{SpanName, TraceBuf, TraceRecord};

/// Everything one enabled recorder owns; shared via `Arc` between the
/// campaign, its workers, and whoever exports at the end.
#[derive(Debug)]
struct ObsCore {
    /// All timestamps are microseconds since this instant.
    epoch: Instant,
    registry: Registry,
    trace: TraceBuf,
}

impl ObsCore {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            registry: Registry::new(),
            trace: TraceBuf::new(),
        }
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Handle to the observability subsystem: metrics registry + span
/// tracing + exporters.
///
/// Cloning is cheap (an `Arc` clone, or nothing when disabled); all
/// clones share one registry and span buffer. Attach a clone to a
/// campaign with [`Campaign::recorder`](crate::Campaign::recorder) and
/// keep one to export from afterwards. See the [module docs](self) for
/// a worked example and the crate docs for the counter glossary.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    core: Option<Arc<ObsCore>>,
}

/// Token for an open span, returned by `span_begin` and consumed by
/// `span_end`. Dropping a handle without ending it leaves the span open
/// (visible as `spans_opened != spans_closed`).
///
/// The open-span state is boxed so a handle is one nullable pointer:
/// executors embed handles in per-job state (the async executor keeps
/// thousands in its timing wheel, moving them on every sift), so the
/// handle must stay pointer-sized — especially when disabled.
#[derive(Debug)]
pub(crate) struct SpanHandle(Option<Box<OpenSpan>>);

#[derive(Debug)]
struct OpenSpan {
    cat: SpanCat,
    name: SpanName,
    /// Pair id for async-rendered spans; unused for complete events.
    id: u64,
    /// Track of the opening thread (complete events render here).
    track: u32,
    begin_micros: u64,
}

impl Recorder {
    /// A recorder that records nothing, at no cost. Also the `Default`.
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// A live recorder; share clones with campaigns, export from any of
    /// them.
    pub fn enabled() -> Self {
        Self {
            core: Some(Arc::new(ObsCore::new())),
        }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Snapshot of every counter, gauge, phase timing, and histogram;
    /// `None` when disabled.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.core.as_ref().map(|core| core.registry.snapshot())
    }

    /// The recorded spans as Chrome trace-event JSON (an array, loadable
    /// in `chrome://tracing` or <https://ui.perfetto.dev>); `None` when
    /// disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.core.as_ref().map(|core| core.trace.chrome_trace())
    }

    /// Number of span records captured so far (begin/end pairs count as
    /// two); `0` when disabled.
    pub fn span_events(&self) -> usize {
        self.core.as_ref().map_or(0, |core| core.trace.len())
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        if let Some(core) = &self.core {
            core.registry.add(counter, n);
        }
    }

    pub(crate) fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    pub(crate) fn gauge_add(&self, gauge: Gauge, delta: i64) {
        if let Some(core) = &self.core {
            core.registry.gauge_add(gauge, delta);
        }
    }

    /// Times `f` under the `report` phase accumulator — the one phase
    /// whose work (rendering tables, JUnit, exports) happens outside the
    /// engine, after [`CampaignHandle::join`](crate::CampaignHandle::join).
    /// A disabled recorder just calls `f`.
    pub fn time_report<T>(&self, f: impl FnOnce() -> T) -> T {
        self.time_phase(Phase::Report, f)
    }

    /// Times `f` as one call of `phase`, recording a complete span on the
    /// calling thread's track.
    pub(crate) fn time_phase<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let Some(core) = &self.core else { return f() };
        let begin = Instant::now();
        let ts_micros = core.now_micros();
        let out = f();
        let wall = begin.elapsed();
        core.registry.phase_add(phase, wall);
        core.registry.add(Counter::SpansOpened, 1);
        core.registry.add(Counter::SpansClosed, 1);
        core.trace.push(TraceRecord::Complete {
            cat: SpanCat::Phase,
            name: SpanName::Static(phase.name()),
            track: core.trace.track(),
            ts_micros,
            dur_micros: wall.as_micros() as u64,
        });
        out
    }

    /// Opens a span. `name` is only evaluated when enabled, so callers
    /// can format freely.
    pub(crate) fn span_begin(&self, cat: SpanCat, name: impl FnOnce() -> String) -> SpanHandle {
        let Some(core) = &self.core else {
            return SpanHandle(None);
        };
        let name = SpanName::Owned(name().into());
        let id = core.trace.next_id();
        let track = core.trace.track();
        let begin_micros = core.now_micros();
        core.registry.add(Counter::SpansOpened, 1);
        if cat.renders_async() {
            core.trace.push(TraceRecord::Begin {
                cat,
                name: name.clone(),
                id,
                track,
                ts_micros: begin_micros,
            });
        }
        SpanHandle(Some(Box::new(OpenSpan {
            cat,
            name,
            id,
            track,
            begin_micros,
        })))
    }

    /// Closes a span; `status` is only evaluated when the span is live.
    pub(crate) fn span_end(&self, handle: SpanHandle, status: impl FnOnce() -> Option<String>) {
        let (Some(core), Some(open)) = (&self.core, handle.0) else {
            return;
        };
        let ts_micros = core.now_micros();
        core.registry.add(Counter::SpansClosed, 1);
        if open.cat == SpanCat::Campaign {
            core.registry.add(
                Counter::CampaignWallMicros,
                ts_micros.saturating_sub(open.begin_micros),
            );
        }
        if open.cat.renders_async() {
            core.trace.push(TraceRecord::End {
                cat: open.cat,
                name: open.name,
                id: open.id,
                track: core.trace.track(),
                ts_micros,
                status: status(),
            });
        } else {
            core.trace.push(TraceRecord::Complete {
                cat: open.cat,
                name: open.name,
                track: open.track,
                ts_micros: open.begin_micros,
                dur_micros: ts_micros.saturating_sub(open.begin_micros),
            });
        }
    }

    /// Records one executed plan step: a complete span on the worker's
    /// track, the step histogram/counters, and the execute-phase and
    /// worker-utilization accumulators (this is the *only* place those
    /// accumulate, keeping them uniform across executors).
    pub(crate) fn step_executed(&self, nr: u32, wall: Duration) {
        let Some(core) = &self.core else { return };
        let wall_micros = wall.as_micros() as u64;
        let ts_micros = core.now_micros().saturating_sub(wall_micros);
        core.registry.add(Counter::StepsExecuted, 1);
        core.registry.add(Counter::WorkerBusyMicros, wall_micros);
        core.registry.add(Counter::SpansOpened, 1);
        core.registry.add(Counter::SpansClosed, 1);
        core.registry.phase_add(Phase::Execute, wall);
        core.registry.observe(Histogram::StepWall, wall_micros);
        core.trace.push(TraceRecord::Complete {
            cat: SpanCat::Step,
            name: SpanName::StepNr(nr),
            track: core.trace.track(),
            ts_micros,
            dur_micros: wall_micros,
        });
    }

    /// Records one executed test's wall-clock and simulated durations.
    pub(crate) fn test_timing(&self, wall: Duration, sim: SimTime) {
        let Some(core) = &self.core else { return };
        let wall_micros = wall.as_micros() as u64;
        let sim_micros = sim.as_micros();
        core.registry.add(Counter::TestWallMicrosTotal, wall_micros);
        core.registry.add(Counter::TestSimMicrosTotal, sim_micros);
        core.registry.observe(Histogram::TestWall, wall_micros);
        core.registry.observe(Histogram::TestSim, sim_micros);
    }

    /// A [`StepProbe`] feeding this recorder, for attaching to
    /// [`TestRun`](comptest_core::TestRun)s; `None` when disabled.
    pub(crate) fn step_probe(&self) -> Option<Arc<dyn StepProbe>> {
        self.core.as_ref()?;
        Some(Arc::new(StepRecorder { obs: self.clone() }))
    }
}

/// Adapter wiring `core`'s step hook into the recorder.
#[derive(Debug)]
struct StepRecorder {
    obs: Recorder,
}

impl StepProbe for StepRecorder {
    fn step_executed(&self, nr: u32, _sim_end: SimTime, wall: Duration) {
        self.obs.step_executed(nr, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert_and_free_of_output() {
        let obs = Recorder::disabled();
        assert!(!obs.is_enabled());
        obs.inc(Counter::JobsExecuted);
        let span = obs.span_begin(SpanCat::Test, || unreachable!("name not evaluated"));
        obs.span_end(span, || unreachable!("status not evaluated"));
        assert_eq!(obs.span_events(), 0);
        assert!(obs.metrics().is_none());
        assert!(obs.chrome_trace_json().is_none());
        assert!(obs.step_probe().is_none());
    }

    #[test]
    fn spans_balance_and_campaign_wall_accumulates() {
        let obs = Recorder::enabled();
        let campaign = obs.span_begin(SpanCat::Campaign, || "campaign".into());
        let test = obs.span_begin(SpanCat::Test, || "suite::t".into());
        obs.span_end(test, || Some("pass".into()));
        obs.time_phase(Phase::Plan, || ());
        obs.step_executed(3, Duration::from_micros(40));
        obs.test_timing(Duration::from_micros(90), SimTime::from_micros(1_000_000));
        obs.span_end(campaign, || None);

        let snap = obs.metrics().unwrap();
        assert_eq!(snap.counter("spans_opened"), snap.counter("spans_closed"));
        assert_eq!(snap.counter("spans_opened"), 4);
        assert_eq!(snap.counter("steps_executed"), 1);
        assert_eq!(snap.counter("worker_busy_micros"), 40);
        assert_eq!(snap.counter("test_sim_micros_total"), 1_000_000);
        assert_eq!(snap.phases["plan"].calls, 1);
        assert_eq!(snap.phases["execute"].micros, 40);
        // campaign span + test pair + phase + step, plus 2 metadata events.
        assert_eq!(obs.span_events(), 5);
        let trace = obs.chrome_trace_json().unwrap();
        crate::codec::parse(&trace).expect("valid JSON");
    }

    #[test]
    fn step_probe_feeds_the_registry() {
        let obs = Recorder::enabled();
        let probe = obs.step_probe().unwrap();
        probe.step_executed(0, SimTime::from_micros(10), Duration::from_micros(7));
        let snap = obs.metrics().unwrap();
        assert_eq!(snap.counter("steps_executed"), 1);
        assert_eq!(snap.histograms["step_wall_micros"].count, 1);
    }
}
