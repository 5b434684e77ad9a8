//! Pluggable campaign executors: the [`CampaignExecutor`] trait and the
//! in-order [`SerialExecutor`] reference. The local parallel executor
//! lives in `async_exec`, the multi-process one in [`remote`](crate::remote).
//!
//! Every executor — serial, async (pooled is one of its shapes) and
//! remote — runs one unit of work, the [`PackagedJob`]: a run of
//! consecutive tests of one cell. [`Granularity`] is its batch size.
//! `Test` packages batches of one test, `Cell` one batch holding the
//! whole cell. A job runs its tests in order, each against a fresh
//! power-cycled device, and stops after the first planning error — for a
//! batch of one test that changes nothing.
//!
//! Jobs come from [`package`]: scripts generated at most once per entry,
//! stands cloned once, execution plans resolved lazily **once per (entry,
//! test, stand) triple** through [`PlanSlot`]s that key hashing and the
//! jobs share. All of it belongs to one launch: a launch reads nothing an
//! earlier launch of the same [`Campaign`] value resolved, so re-configuring
//! a campaign between launches can never serve stale keys or plans. Every
//! executor joins through [`join_jobs`], which folds the per-test outcomes
//! with [`merge_test_outcomes`].
//!
//! With a cache, packaging first resolves every cell's key and record in
//! one pass over the cells ([`CacheRuntime::resolve`]): a cell with a
//! usable plan memo is keyed without codegen or planning, and a rotten
//! memo or record warns as it is found, before any job event. Each cache
//! hit is then decided once, when its job is packaged: the hit's outcomes
//! move into the job, which carries no tests, and admission — the point
//! where the job would start — serves them. Only entries with a cell to
//! plan or a job to execute are generated: a fully warm run generates no
//! scripts, plans nothing and builds no devices for its jobs. (It still
//! builds one device per entry to walk the DUT slices its keys cover.)

use std::borrow::{Borrow, BorrowMut};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use comptest_core::campaign::{
    cell_status, merge_test_outcomes, plan_cells, plan_script, CampaignEntry, TestJobOutcome,
};
use comptest_core::error::CoreError;
use comptest_core::exec::{ExecOptions, RunState};
use comptest_core::{StepProbe, TestRun};
use comptest_dut::Device;
use comptest_model::SimTime;
use comptest_script::TestScript;
use comptest_stand::{ExecutionPlan, TestStand};

use crate::cache::CacheRuntime;
use crate::campaign::{Campaign, Granularity};
use crate::events::{emit, EngineEvent};
use crate::handle::{CampaignHandle, CampaignOutcome, EventStream, RunCancel};
use crate::obs::{Counter, Gauge, Phase, Recorder, SpanCat, SpanHandle};

/// A strategy for executing an already-validated [`Campaign`].
///
/// The contract every implementation must keep, so executors stay
/// swappable without touching callers (pinned by the
/// `executor_conformance` integration suite):
///
/// * jobs come from the deterministic cell plan ([`plan_cells`]) and
///   outcomes merge back in canonical (cell, test) order, so the joined
///   [`CampaignResult`](comptest_core::campaign::CampaignResult) is
///   byte-identical across executors and worker counts;
/// * the first codegen error surfaces from `launch` before any job runs;
/// * cancellation is cooperative: the campaign's [`CancelToken`]
///   (`campaign.cancel`) and the per-run latch behind
///   `stop_on_first_fail` are checked before each job starts, and skipped
///   jobs count into [`CampaignOutcome::cancelled`]. The serial and remote
///   executors finish every job they started; the local parallel executor
///   ([`AsyncExecutor`](crate::AsyncExecutor), and so
///   [`PooledExecutor`](crate::PooledExecutor)) also checks between steps
///   and abandons a started job there, discarding its finished tests and
///   counting it cancelled. Either way a cut cell merges to a prefix of
///   its tests, at every worker count;
/// * events stream per cell at [`Granularity::Cell`] and per test at
///   [`Granularity::Test`], and the stream ends when the last job reports;
/// * a configured campaign cache decides each hit when the job is
///   packaged and serves it at the same admission point: a hit emits
///   [`EngineEvent::CellCached`] instead of the started/finished pair,
///   merges byte-identical to the executed outcome, and a cached failure
///   trips the `stop_on_first_fail` latch exactly like an executed one.
///
/// [`CancelToken`]: crate::CancelToken
pub trait CampaignExecutor {
    /// Launches the campaign, returning a handle to its events, its
    /// cancellation token and its eventual result. Called via
    /// [`Campaign::launch`], which validates first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Codegen`] for invalid suites; implementations
    /// must not start jobs in that case.
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError>;
}

impl<E: CampaignExecutor + ?Sized> CampaignExecutor for &E {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        (**self).launch(campaign)
    }
}

/// One lazily planned (script, stand) pair: the plan is computed on first
/// use and shared, within one launch, by key hashing and the job that runs
/// the test — so nothing plans twice, and a launch whose cells all read
/// their plan memos plans nothing.
#[derive(Default)]
pub(crate) struct PlanSlot {
    plan: OnceLock<Result<Arc<ExecutionPlan>, String>>,
}

impl PlanSlot {
    /// The plan for `script` on `stand`, computed at most once per slot.
    /// The actual planning work (first resolution only) is timed as the
    /// `plan` phase on `obs`.
    pub(crate) fn resolve(
        &self,
        script: &TestScript,
        stand: &TestStand,
        obs: &Recorder,
    ) -> Result<Arc<ExecutionPlan>, String> {
        self.plan
            .get_or_init(|| {
                obs.time_phase(Phase::Plan, || plan_script(script, stand).map(Arc::new))
            })
            .clone()
    }
}

/// One entry's generated scripts, in suite order.
pub(crate) type EntryScripts = Arc<[Arc<TestScript>]>;

/// The jobs one launch runs, with what the join and the workers need:
/// see [`package`].
struct Packaged {
    jobs: Vec<PackagedJob>,
    /// Per job, the range of the flat (cell, test) merge order its
    /// outcomes fill.
    layout: Vec<Range<usize>>,
    cache: Option<Arc<CacheRuntime>>,
}

/// Packages a launch's deterministic job list at the campaign's
/// granularity: cells in plan order, each cut into [`batches`]. This is
/// the one place a launch decides its cache hits. Stands are cloned once,
/// each cell's key and record are resolved in one pass
/// ([`CacheRuntime::resolve`], whose corruption warnings go to `events`),
/// and each job the cell's record determines takes its outcomes out of it
/// ([`CacheRuntime::take_hits`]) — a hit carries those outcomes and
/// nothing else. Every other job gets its tests with their scripts, the
/// launch's plan slots, and one freshly built device per test (the serial
/// pipeline power-cycles the DUT per test; building up front keeps worker
/// tasks `'static`). So a fully warm run builds no devices for its jobs
/// and generates no scripts.
///
/// Everything here belongs to this launch: scripts, plan slots and keys
/// are made anew each time, so a launch reads nothing an earlier launch of
/// the same campaign value resolved. Warm relaunches stay plan-free
/// through the plan memos the cache holds.
///
/// An entry's scripts are generated at most once, when its first cell to
/// plan or job to execute needs them, in entry order; a cache hit proves
/// its suite generated cleanly when it was stored. So the first codegen
/// error still surfaces here, before any job runs.
fn package(
    campaign: &Campaign<'_, '_>,
    events: &Sender<EngineEvent>,
) -> Result<Packaged, CoreError> {
    let obs = &campaign.obs;
    let entries = campaign.entries;
    let scripts: Vec<OnceCell<Result<EntryScripts, CoreError>>> =
        entries.iter().map(|_| OnceCell::new()).collect();
    let generate = |e: usize| {
        scripts[e]
            .get_or_init(|| {
                obs.time_phase(Phase::Codegen, || {
                    Ok(comptest_script::generate_all(entries[e].suite)?
                        .into_iter()
                        .map(Arc::new)
                        .collect())
                })
            })
            .clone()
    };
    let stands: Vec<Arc<TestStand>> = campaign
        .stands
        .iter()
        .map(|s| Arc::new((*s).clone()))
        .collect();
    let mut offsets = Vec::with_capacity(entries.len());
    let mut total = 0usize;
    for entry in entries {
        offsets.push(total);
        total += entry.suite.tests.len();
    }
    let n_stands = stands.len();
    let slots: Vec<Arc<PlanSlot>> = (0..total * n_stands)
        .map(|_| Arc::new(PlanSlot::default()))
        .collect();
    let slot = |e: usize, t: usize, s: usize| Arc::clone(&slots[(offsets[e] + t) * n_stands + s]);
    let mut cache = match &campaign.cache {
        None => None,
        Some(cache) => Some(CacheRuntime::resolve(
            cache, campaign, &generate, &slot, events,
        )?),
    };

    let mut jobs = Vec::new();
    let mut layout = Vec::new();
    let mut base = 0usize;
    for cell in plan_cells(entries.len(), n_stands) {
        let entry = &entries[cell.entry];
        let n_tests = entry.suite.tests.len();
        let batches = batches(campaign.granularity, n_tests);
        let mut hits = cache
            .as_mut()
            .map(|runtime| runtime.take_hits(cell.cell, &batches))
            .unwrap_or_default()
            .into_iter();
        for tests in batches {
            let cached = hits.next().flatten();
            let (job_tests, devices) = if cached.is_some() {
                (Vec::new(), Vec::new())
            } else {
                let scripts = generate(cell.entry)?;
                tests
                    .clone()
                    .map(|t| {
                        let test = JobTest {
                            name: entry.suite.tests[t].name.clone(),
                            script: Arc::clone(&scripts[t]),
                            plan: slot(cell.entry, t, cell.stand),
                        };
                        (test, entry.device_factory.build())
                    })
                    .unzip()
            };
            layout.push(base + tests.start..base + tests.end);
            jobs.push(PackagedJob {
                job: jobs.len(),
                cell: cell.cell,
                first: tests.start,
                suite: entry.suite.name.clone(),
                stand_name: stands[cell.stand].name().to_owned(),
                stand: Arc::clone(&stands[cell.stand]),
                tests: job_tests,
                devices,
                cached,
            });
        }
        base += n_tests;
    }
    Ok(Packaged {
        jobs,
        layout,
        cache: cache.map(Arc::new),
    })
}

/// The engine's unit of work, as a batch size: the suite-index ranges of
/// the jobs a cell with `tests` tests is cut into. [`Granularity::Test`]
/// makes one job per test; [`Granularity::Cell`] one job for the whole
/// cell, so even a cell without tests is one job.
fn batches(granularity: Granularity, tests: usize) -> Vec<Range<usize>> {
    match granularity {
        Granularity::Cell => std::iter::once(0..tests).collect(),
        Granularity::Test => (0..tests).map(|t| t..t + 1).collect(),
    }
}

/// One packaged job — a run of consecutive tests of one cell — with
/// everything a worker (async shard, remote process) needs,
/// owned. Packaging decided whether it is a cache hit: a hit holds its
/// cached outcomes and no tests; any other job holds its tests, each with
/// its script and a fresh device.
pub(crate) struct PackagedJob {
    /// Index into the deterministic job list.
    pub(crate) job: usize,
    pub(crate) cell: usize,
    /// Suite index of the job's first test.
    pub(crate) first: usize,
    pub(crate) suite: String,
    pub(crate) stand_name: String,
    pub(crate) stand: Arc<TestStand>,
    /// The tests to execute, in order — empty for a cache hit.
    pub(crate) tests: Vec<JobTest>,
    /// One fresh DUT per test, in order.
    pub(crate) devices: Vec<Device>,
    /// A cache hit's outcomes, moved out of the cell's pre-loaded record
    /// at packaging; admission serves them.
    pub(crate) cached: Option<Vec<TestJobOutcome>>,
}

/// One test of a packaged job: its name, its script and the launch's plan
/// slot for it on the job's stand.
pub(crate) struct JobTest {
    pub(crate) name: String,
    pub(crate) script: Arc<TestScript>,
    pub(crate) plan: Arc<PlanSlot>,
}

/// The job-side context every worker shares: execution options, the
/// campaign's granularity (which decides the event shape), cancellation
/// state, the stop-on-first-fail policy, the cache runtime and the
/// observability recorder. Cloning is cheap (`Arc`s and plain data).
#[derive(Clone)]
pub(crate) struct JobCtx {
    pub(crate) exec: ExecOptions,
    pub(crate) granularity: Granularity,
    pub(crate) cancel: RunCancel,
    pub(crate) stop: bool,
    pub(crate) cache: Option<Arc<CacheRuntime>>,
    pub(crate) obs: Recorder,
    /// Step probe feeding `obs`, built once per launch and `Arc`-shared
    /// with every run; `None` when observability is disabled, keeping the
    /// uninstrumented fast path.
    pub(crate) step_probe: Option<Arc<dyn StepProbe>>,
}

impl JobCtx {
    fn new(campaign: &Campaign<'_, '_>, cache: Option<Arc<CacheRuntime>>) -> Self {
        campaign
            .obs
            .add(Counter::JobsPlanned, campaign.job_count() as u64);
        Self {
            exec: campaign.exec,
            granularity: campaign.granularity,
            cancel: RunCancel::new(campaign.cancel.clone()),
            stop: campaign.stop_on_first_fail,
            cache,
            obs: campaign.obs.clone(),
            step_probe: campaign.obs.step_probe(),
        }
    }

    /// Admits one job at the point where it would start — the one
    /// admission sequence of every executor, so hit semantics cannot
    /// drift between them. A cancelled run acknowledges the job; a cache
    /// hit (decided at packaging) emits [`EngineEvent::CellCached`], feeds
    /// the cell's store accumulator, trips the stop latch on a cached
    /// failure and reports its outcomes. Returns the job when it must
    /// execute.
    pub(crate) fn admit(
        &self,
        mut job: PackagedJob,
        events: &Sender<EngineEvent>,
        results: &Sender<JobMsg>,
    ) -> Option<PackagedJob> {
        if self.cancel.is_cancelled() {
            let _ = results.send(JobMsg::Cancelled);
            return None;
        }
        let (Some(runtime), Some(outcomes)) = (&self.cache, job.cached.take()) else {
            return Some(job);
        };
        runtime.note(job.cell, job.first, &outcomes, false);
        self.obs.inc(Counter::CacheHits);
        self.obs.inc(Counter::JobsCached);
        let (status, failed) = self.job_status(&outcomes);
        emit(
            events,
            EngineEvent::CellCached {
                cell: job.cell,
                test: (self.granularity == Granularity::Test).then_some(job.first),
                suite: job.suite,
                stand: job.stand_name,
                status,
            },
        );
        if failed && self.stop {
            self.cancel.trip();
        }
        let _ = results.send(JobMsg::Done(job.job, outcomes));
        None
    }

    /// A run of `plan` against its fresh `device` under the campaign's
    /// execution options — the one place every executor starts a test.
    /// With observability enabled the step probe is attached, recording
    /// per-step spans and worker-utilization time; the result is
    /// byte-identical either way.
    pub(crate) fn test_run<P, D>(&self, plan: P, device: D) -> TestRun<P, D>
    where
        P: Borrow<ExecutionPlan>,
        D: BorrowMut<Device>,
    {
        let run = TestRun::new(plan, device, &self.exec);
        match &self.step_probe {
            Some(probe) => run.with_probe(Arc::clone(probe)),
            None => run,
        }
    }

    /// Status line and failed flag of a job's outcomes at the campaign's
    /// granularity: the test's verdict, or the status of the cell the
    /// outcomes merge into.
    fn job_status(&self, outcomes: &[TestJobOutcome]) -> (String, bool) {
        match (self.granularity, outcomes) {
            (Granularity::Test, [outcome]) => outcome_status(outcome),
            _ => cell_status(outcomes),
        }
    }
}

/// The simulated end time of one outcome (`0` for planning failures) —
/// what `test_sim_micros` metrics record.
fn outcome_sim_end(outcome: &TestJobOutcome) -> SimTime {
    match outcome {
        Ok(result) => result.sim_duration(),
        Err(_) => SimTime::ZERO,
    }
}

/// Short status line and failed flag of one test outcome — one
/// implementation for every executor, so events agree byte-for-byte. The
/// planning-failure reason is rendered the same way cell status lines
/// render it (`NOT RUNNABLE (<first line, truncated>)`), so live per-test
/// progress says *why* a test could not run.
fn outcome_status(outcome: &TestJobOutcome) -> (String, bool) {
    let status = match outcome {
        Ok(result) => result.verdict().to_string(),
        Err(reason) => comptest_core::campaign::not_runnable_status(reason),
    };
    let failed = !matches!(outcome, Ok(r) if r.passed());
    (status, failed)
}

/// One admitted job while its tests run: the events, spans, gauges and
/// counters of a job, kept identical on every executor. The serial
/// executor and worker processes drive it in one loop ([`execute`]), the
/// async executor one step at a time, and the remote executor starts it
/// when it ships the job and ends it when the worker's outcomes come back.
pub(crate) struct JobRun {
    job: usize,
    cell: usize,
    first: usize,
    /// Suite index of the next test to begin.
    next: usize,
    suite: String,
    stand_name: String,
    stand: Arc<TestStand>,
    pending: std::iter::Zip<std::vec::IntoIter<JobTest>, std::vec::IntoIter<Device>>,
    outcomes: Vec<TestJobOutcome>,
    failed: bool,
    /// The cell span, open at cell granularity only.
    span: Option<SpanHandle>,
    /// The span of the test begun last, open until it ends.
    test_span: Option<SpanHandle>,
}

impl JobRun {
    /// Starts an admitted job: `JobStarted` and the cell span at cell
    /// granularity, the in-flight gauge, and its cache miss. Counting the
    /// miss here rather than at admission counts it once per job, even
    /// when the remote executor admits a job again after it waited for a
    /// free worker.
    pub(crate) fn start(job: PackagedJob, ctx: &JobCtx, events: &Sender<EngineEvent>) -> Self {
        if ctx.cache.is_some() {
            ctx.obs.inc(Counter::CacheMisses);
        }
        let span = (ctx.granularity == Granularity::Cell).then(|| {
            emit(
                events,
                EngineEvent::JobStarted {
                    cell: job.cell,
                    suite: job.suite.clone(),
                    stand: job.stand_name.clone(),
                },
            );
            ctx.obs.span_begin(SpanCat::Cell, || {
                format!("{} on {}", job.suite, job.stand_name)
            })
        });
        ctx.obs.gauge_add(Gauge::InflightJobs, 1);
        Self {
            job: job.job,
            cell: job.cell,
            first: job.first,
            next: job.first,
            outcomes: Vec::with_capacity(job.tests.len()),
            pending: job.tests.into_iter().zip(job.devices),
            suite: job.suite,
            stand_name: job.stand_name,
            stand: job.stand,
            failed: false,
            span,
            test_span: None,
        }
    }

    /// Begins the job's next test — its span, and `TestStarted` at test
    /// granularity — handing out the test with its fresh device; `None`
    /// once every test began.
    pub(crate) fn begin_test(
        &mut self,
        ctx: &JobCtx,
        events: &Sender<EngineEvent>,
    ) -> Option<(JobTest, Device)> {
        let (test, device) = self.pending.next()?;
        if ctx.granularity == Granularity::Test {
            emit(
                events,
                EngineEvent::TestStarted {
                    cell: self.cell,
                    test: self.next,
                    suite: self.suite.clone(),
                    stand: self.stand_name.clone(),
                    name: test.name.clone(),
                },
            );
        }
        self.test_span = Some(
            ctx.obs
                .span_begin(SpanCat::Test, || format!("{}::{}", self.suite, test.name)),
        );
        Some((test, device))
    }

    /// The plan of `test` on the job's stand, resolved through its slot
    /// (planned at most once per launch).
    pub(crate) fn plan(&self, test: &JobTest, ctx: &JobCtx) -> Result<Arc<ExecutionPlan>, String> {
        test.plan.resolve(&test.script, &self.stand, &ctx.obs)
    }

    /// Ends the test begun last with its outcome and wall time: counters,
    /// timings, its span, and `TestFinished` at test granularity. Returns
    /// whether the job goes on — a planning error ends it, exactly where
    /// sequential cell execution stops.
    pub(crate) fn end_test(
        &mut self,
        test: &JobTest,
        outcome: TestJobOutcome,
        wall: Duration,
        ctx: &JobCtx,
        events: &Sender<EngineEvent>,
    ) -> bool {
        let (status, failed) = outcome_status(&outcome);
        ctx.obs.inc(Counter::TestsExecuted);
        ctx.obs.test_timing(wall, outcome_sim_end(&outcome));
        if let Some(span) = self.test_span.take() {
            ctx.obs.span_end(span, || Some(status.clone()));
        }
        if ctx.granularity == Granularity::Test {
            emit(
                events,
                EngineEvent::TestFinished {
                    cell: self.cell,
                    test: self.next,
                    suite: self.suite.clone(),
                    stand: self.stand_name.clone(),
                    name: test.name.clone(),
                    status,
                    failed,
                    duration: wall,
                },
            );
        }
        self.failed |= failed;
        self.next += 1;
        let go_on = outcome.is_ok();
        self.outcomes.push(outcome);
        go_on
    }

    /// Finishes the job: feeds the cache (store + verify), closes the cell
    /// span with `JobFinished` at cell granularity, trips
    /// `stop_on_first_fail` on a failure and reports the outcomes to the
    /// join.
    pub(crate) fn finish(
        self,
        ctx: &JobCtx,
        events: &Sender<EngineEvent>,
        results: &Sender<JobMsg>,
    ) {
        if let Some(runtime) = &ctx.cache {
            runtime.finish(self.cell, self.first, &self.outcomes);
        }
        ctx.obs.gauge_add(Gauge::InflightJobs, -1);
        ctx.obs.inc(Counter::JobsExecuted);
        if let Some(span) = self.span {
            let (status, failed) = cell_status(&self.outcomes);
            ctx.obs.span_end(span, || Some(status.clone()));
            emit(
                events,
                EngineEvent::JobFinished {
                    cell: self.cell,
                    suite: self.suite,
                    stand: self.stand_name,
                    status,
                    failed,
                },
            );
        }
        if self.failed && ctx.stop {
            ctx.cancel.trip();
        }
        let _ = results.send(JobMsg::Done(self.job, self.outcomes));
    }

    /// Abandons the job unfinished: open spans close, finished tests are
    /// discarded, and `msg` tells the join why. The async executor sends
    /// [`JobMsg::Cancelled`] when it cancels a job at a step boundary (the
    /// join counts it cancelled); the remote executor sends
    /// [`JobMsg::Lost`] for a job whose retries ran out. Either way the
    /// job's started event has no finished event.
    pub(crate) fn abandon(self, ctx: &JobCtx, results: &Sender<JobMsg>, msg: JobMsg) {
        let status = match msg {
            JobMsg::Lost(_) => "lost",
            _ => "cancelled",
        };
        for span in [self.test_span, self.span].into_iter().flatten() {
            ctx.obs.span_end(span, || Some(status.into()));
        }
        ctx.obs.gauge_add(Gauge::InflightJobs, -1);
        let _ = results.send(msg);
    }
}

/// Runs an admitted job to completion on the calling thread: its tests in
/// order, each planned through its slot and executed against its
/// own device, stopping after the first planning error. Every blocking
/// path — the serial loop, the remote fallback and the worker process —
/// goes through here.
pub(crate) fn execute(
    job: PackagedJob,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) {
    let mut run = JobRun::start(job, ctx, events);
    while let Some((test, mut device)) = run.begin_test(ctx, events) {
        let started = Instant::now();
        let outcome = run.plan(&test, ctx).map(|plan| {
            let mut test_run = ctx.test_run(plan, &mut device);
            loop {
                if let RunState::Finished(result) = test_run.step() {
                    break result;
                }
            }
        });
        if !run.end_test(&test, outcome, started.elapsed(), ctx, events) {
            break;
        }
    }
    run.finish(ctx, events, results);
}

/// What a job reports to the join — exactly one message per job.
pub(crate) enum JobMsg {
    /// Outcomes of job `usize`, one per test it ran.
    Done(usize, Vec<TestJobOutcome>),
    /// The job observed cancellation and never ran (or, on the async
    /// executor, was abandoned at a step boundary).
    Cancelled,
    /// The job is gone for good (remote retries exhausted, or a panic in
    /// the remote executor's in-process fallback); the label names it in
    /// [`CoreError::JobsLost`].
    Lost(String),
}

/// The launch path every executor shares: the event channel, the job list
/// from [`package`] (codegen precheck, plan slots, cache keys and records,
/// hits), and a handle joining through [`join_jobs`]. The channel exists
/// before packaging, so cache-corruption warnings precede every job
/// event. `drive` hands the jobs to the executor's workers and returns the
/// `workers` gauge claim the join releases.
pub(crate) fn launch_jobs<'a>(
    campaign: &Campaign<'a, '_>,
    drive: impl FnOnce(Vec<PackagedJob>, &JobCtx, Sender<EngineEvent>, Sender<JobMsg>) -> i64,
) -> Result<CampaignHandle<'a>, CoreError> {
    let (events_tx, events_rx) = mpsc::channel();
    let Packaged {
        jobs,
        layout,
        cache,
    } = package(campaign, &events_tx)?;
    let ctx = JobCtx::new(campaign, cache);
    let (results_tx, results_rx) = mpsc::channel();
    // `drive` owns the launch-side senders, so both streams end with the
    // last job.
    let claimed_workers = drive(jobs, &ctx, events_tx, results_tx);
    let (entries, stands) = (campaign.entries, campaign.stands);
    let run_token = ctx.cancel.run_token();
    Ok(CampaignHandle::new(
        EventStream::new(events_rx),
        run_token,
        Box::new(move || {
            let outcome = join_jobs(results_rx, &layout, entries, stands, &ctx);
            ctx.obs.gauge_add(Gauge::Workers, -claimed_workers);
            outcome
        }),
    ))
}

/// The join every executor shares. Takes exactly one message per job,
/// drops each job's outcomes into its `layout` range of the flat (cell, test) order and folds them with
/// [`merge_test_outcomes`]. A job that neither reported nor acknowledged
/// cancellation died mid-job (a panic caught by a shard): that surfaces
/// as [`CoreError::JobsLost`], never as a silently truncated — possibly
/// all-green — result.
fn join_jobs(
    results: Receiver<JobMsg>,
    layout: &[Range<usize>],
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
    ctx: &JobCtx,
) -> Result<CampaignOutcome, CoreError> {
    let total = entries.iter().map(|e| e.suite.tests.len()).sum::<usize>() * stands.len();
    let mut slots: Vec<Option<TestJobOutcome>> = (0..total).map(|_| None).collect();
    let mut ran = vec![false; layout.len()];
    let mut acknowledged = 0usize;
    let mut lost = Vec::new();
    for msg in results.iter().take(layout.len()) {
        let (job, outcomes) = match msg {
            JobMsg::Done(job, outcomes) => (job, outcomes),
            JobMsg::Cancelled => {
                acknowledged += 1;
                continue;
            }
            JobMsg::Lost(label) => {
                lost.push(label);
                continue;
            }
        };
        ran[job] = true;
        for (slot, outcome) in layout[job].clone().zip(outcomes) {
            slots[slot] = Some(outcome);
        }
    }
    if !lost.is_empty() {
        return Err(CoreError::JobsLost {
            lost: lost.len(),
            jobs: lost,
        });
    }
    let cancelled = ran.iter().filter(|ran| !**ran).count();
    if cancelled > acknowledged {
        return Err(CoreError::JobsLost {
            lost: cancelled - acknowledged,
            jobs: Vec::new(),
        });
    }
    let (mut result, _) = merge_test_outcomes(entries, stands, slots);
    if ctx.granularity == Granularity::Cell {
        // The merge keeps every cell without tests (at test granularity
        // there is nothing to cancel in one). Here each is a job of its
        // own, and a cancelled one must not appear.
        let mut merged = layout
            .iter()
            .zip(&ran)
            .filter(|(tests, ran)| **ran || tests.is_empty());
        result
            .cells
            .retain(|_| merged.next().is_some_and(|(_, ran)| *ran));
    }
    if let Some(runtime) = &ctx.cache {
        runtime.check_verified()?;
    }
    Ok(CampaignOutcome { result, cancelled })
}

/// Runs every job in plan order on the calling thread — the reference
/// executor for determinism checks, byte-identical to the serial
/// [`run_campaign`](comptest_core::reference::run_campaign), which runs
/// cells with no jobs and no cache.
///
/// `launch` executes the whole campaign before returning: the handle's
/// event stream replays the buffered events and `join` is instant.
/// Cancellation still works — `stop_on_first_fail` and the campaign's
/// [`CancelToken`](crate::CancelToken) (cancellable from another thread
/// while `launch` runs) skip every job not yet started.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl CampaignExecutor for SerialExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        launch_jobs(campaign, |jobs, ctx, events, results| {
            // Gauges are additive so concurrent campaigns sharing one
            // recorder (the serving case) sum instead of stomping each
            // other; the join releases the claim.
            ctx.obs.gauge_add(Gauge::Workers, 1);
            for job in jobs {
                if let Some(job) = ctx.admit(job, &events, &results) {
                    execute(job, ctx, &events, &results);
                }
            }
            1
        })
    }
}
