//! Pluggable campaign executors: the [`CampaignExecutor`] trait, the
//! in-order [`SerialExecutor`] reference and the [`PooledExecutor`] backed
//! by a persistent [`WorkerPool`].
//!
//! Every executor — serial, pooled, async and remote — runs one unit of
//! work, the [`PackagedJob`]: a run of consecutive tests of one cell.
//! [`Granularity`] is its batch size. `Test` packages batches of one
//! test, `Cell` one batch holding the whole cell. A job runs its tests in
//! order, each against a fresh power-cycled device, and stops after the
//! first planning error — for a batch of one test that changes nothing.
//!
//! Jobs come from [`Prepared`]: scripts generated once per entry, stands
//! cloned once, execution plans resolved lazily **once per (entry, test,
//! stand) triple** through shared [`PlanSlot`]s that live on the
//! [`Campaign`] value (so relaunching the same campaign — replay loops,
//! watch mode, warm cache runs — never re-plans), and the campaign cache
//! consulted at the exact admission point where a job would start. Every
//! executor joins through [`join_jobs`], which folds the per-test outcomes
//! with [`merge_test_outcomes`].

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use comptest_core::campaign::{
    cell_status, merge_test_outcomes, plan_cells, plan_script, CampaignEntry, TestJobOutcome,
};
use comptest_core::error::CoreError;
use comptest_core::exec::{ExecOptions, RunState};
use comptest_core::hash::{
    capture_footprint, hash_device, hash_exec_options, hash_stand, hash_suite, CellKey, Footprint,
    FootprintDevice,
};
use comptest_core::{StepProbe, TestResult, TestRun};
use comptest_dut::Device;
use comptest_model::SimTime;
use comptest_script::TestScript;
use comptest_stand::{ExecutionPlan, TestStand};

use crate::cache::{CacheKeying, CacheRuntime};
use crate::campaign::{Campaign, Granularity};
use crate::events::{emit, EngineEvent};
use crate::handle::{CampaignHandle, CampaignOutcome, EventStream, RunCancel};
use crate::obs::{Counter, Gauge, Phase, Recorder, SpanCat, SpanHandle};
use crate::pool::WorkerPool;

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
///   `stop_on_first_fail` are checked before each job starts, skipped
///   jobs count into [`CampaignOutcome::cancelled`], and a started job
///   always finishes — yielding the same prefix-truncation semantics at
///   every worker count;
/// * events stream per cell at [`Granularity::Cell`] and per test at
///   [`Granularity::Test`], and the stream ends when the last job reports;
/// * a configured campaign cache is consulted at the same admission point:
///   a hit emits [`EngineEvent::CellCached`] instead of the
///   started/finished pair, merges byte-identical to the executed outcome,
///   and a cached failure trips the `stop_on_first_fail` latch exactly
///   like an executed one.
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
/// use and shared by every job of the pair — and, because the slots live
/// on the [`Campaign`] value, by every *launch* of that campaign. The
/// async executor therefore no longer re-plans at admission when a
/// campaign is relaunched (replay, benches, warm cache verification), and
/// a fully cached run never plans at all.
#[derive(Debug, Default)]
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

/// The per-campaign plan store: one [`PlanSlot`] per (entry, test, stand)
/// triple, allocated on first launch and reused by later launches.
#[derive(Debug, Default)]
pub(crate) struct PlanStore {
    slots: OnceLock<Vec<Arc<PlanSlot>>>,
}

impl PlanStore {
    fn slots(&self, count: usize) -> &[Arc<PlanSlot>] {
        let slots = self
            .slots
            .get_or_init(|| (0..count).map(|_| Arc::new(PlanSlot::default())).collect());
        debug_assert_eq!(slots.len(), count, "campaign shape changed under PlanStore");
        slots
    }
}

/// The per-campaign script store: all entries' generated scripts, produced
/// once on the first launch (where generation doubles as the codegen
/// precheck) and `Arc`-shared with every later launch — a campaign's
/// entries are immutable for its lifetime, so regeneration could only
/// ever reproduce the same scripts. A codegen *error* is cached the same
/// way: every launch of an invalid campaign reports it.
#[derive(Debug, Default)]
pub(crate) struct ScriptStore {
    scripts: OnceLock<Result<Vec<Vec<Arc<TestScript>>>, CoreError>>,
}

impl ScriptStore {
    fn get_or_generate(
        &self,
        entries: &[CampaignEntry<'_>],
    ) -> Result<Vec<Vec<Arc<TestScript>>>, CoreError> {
        self.scripts.get_or_init(|| shared_scripts(entries)).clone()
    }
}

/// A campaign's resolved cache keys plus, under
/// [`CacheKeying::Footprint`], the per-cell dependency footprints the keys
/// were derived from (attached to stored records; all `None` under
/// [`CacheKeying::Full`]).
#[derive(Debug)]
pub(crate) struct KeySet {
    pub(crate) keys: Vec<CellKey>,
    pub(crate) footprints: Vec<Option<Footprint>>,
}

/// The per-campaign cache-key store: every cell's [`CellKey`], hashed
/// once per campaign *value* on first cached launch and reused by every
/// later launch — suites, stands, DUT configs and exec options are
/// immutable for the campaign's lifetime, so a replay loop or warm bench
/// re-hashing 10k tests per launch was pure waste. The hashing that does
/// happen is timed as the `hash` phase.
///
/// Under [`CacheKeying::Footprint`] resolution also captures each cell's
/// dependency [`Footprint`]: every test plan is resolved eagerly through
/// the campaign's shared [`PlanSlot`]s (the same slots execution uses, so
/// nothing plans twice) and one device per entry is built for the DUT
/// slice — reused read-only across that entry's stands.
#[derive(Debug, Default)]
pub(crate) struct KeyStore {
    keys: OnceLock<KeySet>,
}

impl KeyStore {
    /// The campaign's cell keys (and footprints) in deterministic
    /// (entry, stand) order, computed at most once per campaign value.
    /// `slot` maps an (entry, test, stand) triple to the campaign's shared
    /// plan slot.
    pub(crate) fn resolve(
        &self,
        campaign: &Campaign<'_, '_>,
        scripts: &[Vec<Arc<TestScript>>],
        slot: &dyn Fn(usize, usize, usize) -> Arc<PlanSlot>,
        obs: &Recorder,
    ) -> &KeySet {
        let entries = campaign.entries;
        let stands = campaign.stands;
        let keys = self.keys.get_or_init(|| {
            obs.time_phase(Phase::Hash, || {
                let exec_hash = hash_exec_options(&campaign.exec);
                let n_cells = entries.len() * stands.len();
                match campaign.cache_keying {
                    CacheKeying::Full => {
                        let stand_hashes: Vec<u64> = stands.iter().map(|s| hash_stand(s)).collect();
                        let mut keys = Vec::with_capacity(n_cells);
                        for entry in entries {
                            let suite_hash = hash_suite(entry.suite);
                            let dut_config_hash = hash_device(&entry.device_factory.build());
                            for &stand_hash in &stand_hashes {
                                keys.push(CellKey {
                                    suite_hash,
                                    stand_hash,
                                    dut_config_hash,
                                    exec_hash,
                                });
                            }
                        }
                        KeySet {
                            keys,
                            footprints: vec![None; n_cells],
                        }
                    }
                    CacheKeying::Footprint => {
                        let salt = &campaign.cache_salt;
                        let mut keys = Vec::with_capacity(n_cells);
                        let mut footprints = Vec::with_capacity(n_cells);
                        for (e, entry) in entries.iter().enumerate() {
                            let suite_hash = hash_suite(entry.suite);
                            // One device per entry: footprint capture only
                            // reads it, so every stand shares the build and
                            // its whole-device fallback digest.
                            let device = FootprintDevice::new(entry.device_factory.build());
                            for (s, stand) in stands.iter().enumerate() {
                                let plans: Vec<Result<Arc<ExecutionPlan>, String>> =
                                    (0..entry.suite.tests.len())
                                        .map(|t| slot(e, t, s).resolve(&scripts[e][t], stand, obs))
                                        .collect();
                                let plan_refs: Vec<Result<&ExecutionPlan, &str>> = plans
                                    .iter()
                                    .map(|p| match p {
                                        Ok(plan) => Ok(plan.as_ref()),
                                        Err(reason) => Err(reason.as_str()),
                                    })
                                    .collect();
                                let fp = capture_footprint(&plan_refs, &device, salt);
                                keys.push(fp.key(suite_hash, exec_hash).cell_key());
                                footprints.push(Some(fp));
                            }
                        }
                        KeySet { keys, footprints }
                    }
                }
            })
        });
        debug_assert_eq!(
            keys.keys.len(),
            entries.len() * stands.len(),
            "campaign shape changed under KeyStore"
        );
        keys
    }
}

/// Everything a launch shares across jobs, prepared once on the launch
/// thread: generated scripts (the codegen precheck), owned stands, the
/// campaign's plan slots, and the cache runtime with pre-loaded records.
struct Prepared {
    scripts: Vec<Vec<Arc<TestScript>>>,
    stands: Vec<Arc<TestStand>>,
    slots: Vec<Arc<PlanSlot>>,
    /// Cumulative test counts: `offsets[e]` = tests of entries `0..e`.
    offsets: Vec<usize>,
    n_stands: usize,
    cache: Option<Arc<CacheRuntime>>,
}

impl Prepared {
    /// Generates all scripts (surfacing the first codegen error before any
    /// job runs), clones stands once, binds the campaign's plan slots and
    /// pre-loads cache records in deterministic cell order.
    fn new(campaign: &Campaign<'_, '_>) -> Result<Self, CoreError> {
        let obs = &campaign.obs;
        let scripts = obs.time_phase(Phase::Codegen, || {
            campaign.scripts.get_or_generate(campaign.entries)
        })?;
        let stands: Vec<Arc<TestStand>> = campaign
            .stands
            .iter()
            .map(|s| Arc::new((*s).clone()))
            .collect();
        let mut offsets = Vec::with_capacity(campaign.entries.len() + 1);
        let mut total = 0usize;
        for entry in campaign.entries {
            offsets.push(total);
            total += entry.suite.tests.len();
        }
        offsets.push(total);
        let n_stands = campaign.stands.len();
        let slots = campaign.plans.slots(total * n_stands).to_vec();
        let cache = campaign.cache.as_ref().map(|cache| {
            let keyset = campaign.keys.resolve(
                campaign,
                &scripts,
                &|e, t, s| Arc::clone(&slots[(offsets[e] + t) * n_stands + s]),
                obs,
            );
            obs.time_phase(Phase::CachePreload, || {
                CacheRuntime::prepare(Arc::clone(cache), campaign, keyset, obs)
            })
        });
        Ok(Self {
            scripts,
            stands,
            slots,
            offsets,
            n_stands: campaign.stands.len(),
            cache,
        })
    }

    fn slot(&self, entry: usize, test: usize, stand: usize) -> Arc<PlanSlot> {
        Arc::clone(&self.slots[(self.offsets[entry] + test) * self.n_stands + stand])
    }

    /// Packages the deterministic job list at `granularity`: cells in plan
    /// order, each cut into [`batches`]. Scripts and stands are
    /// `Arc`-shared, plan slots are shared per (entry, test, stand), and
    /// every job that will actually *execute* gets one freshly built
    /// device per test (the serial pipeline power-cycles the DUT per test;
    /// building up front keeps worker tasks `'static`). Records are
    /// pre-loaded before packaging and a job's cached outcomes stay
    /// untouched until its own admission, so admission is predictable
    /// here: predicted cache hits skip device construction entirely — a
    /// fully warm run builds zero devices.
    ///
    /// Also returns, per job, the range of the flat (cell, test) merge
    /// order its outcomes fill.
    fn package(
        &self,
        entries: &[CampaignEntry<'_>],
        granularity: Granularity,
    ) -> (Vec<PackagedJob>, Vec<Range<usize>>) {
        let mut jobs = Vec::new();
        let mut layout = Vec::new();
        let mut base = 0usize;
        for cell in plan_cells(entries.len(), self.n_stands) {
            let entry = &entries[cell.entry];
            let n_tests = entry.suite.tests.len();
            for tests in batches(granularity, n_tests) {
                let hit = self
                    .cache
                    .as_ref()
                    .is_some_and(|c| c.will_hit(cell.cell, tests.clone()));
                layout.push(base + tests.start..base + tests.end);
                jobs.push(PackagedJob {
                    job: jobs.len(),
                    cell: cell.cell,
                    entry: cell.entry,
                    first: tests.start,
                    suite: entry.suite.name.clone(),
                    stand_name: self.stands[cell.stand].name().to_owned(),
                    stand: Arc::clone(&self.stands[cell.stand]),
                    tests: tests
                        .clone()
                        .map(|t| JobTest {
                            script: Arc::clone(&self.scripts[cell.entry][t]),
                            plan: self.slot(cell.entry, t, cell.stand),
                        })
                        .collect(),
                    devices: if hit {
                        Vec::new()
                    } else {
                        tests.map(|_| entry.device_factory.build()).collect()
                    },
                });
            }
            base += n_tests;
        }
        (jobs, layout)
    }
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

/// All scripts of all entries, generated up front (the codegen precheck)
/// and `Arc`-shared across jobs.
fn shared_scripts(entries: &[CampaignEntry<'_>]) -> Result<Vec<Vec<Arc<TestScript>>>, CoreError> {
    entries
        .iter()
        .map(|e| {
            Ok(comptest_script::generate_all(e.suite)?
                .into_iter()
                .map(Arc::new)
                .collect())
        })
        .collect()
}

/// One packaged job — a run of consecutive tests of one cell — with
/// everything a worker (pool thread, async shard, remote process) needs,
/// owned.
pub(crate) struct PackagedJob {
    /// Index into the deterministic job list.
    pub(crate) job: usize,
    pub(crate) cell: usize,
    /// Index into the campaign's entries — lets the join rebuild devices
    /// through the entry's `DeviceFactory` when a predicted hit strands.
    pub(crate) entry: usize,
    /// Suite index of the job's first test.
    pub(crate) first: usize,
    pub(crate) suite: String,
    pub(crate) stand_name: String,
    pub(crate) stand: Arc<TestStand>,
    pub(crate) tests: Vec<JobTest>,
    /// One fresh DUT per test, in order — empty when packaging predicted
    /// a cache hit (admission then serves the job without one).
    pub(crate) devices: Vec<Device>,
}

impl PackagedJob {
    /// Suite indices of the job's tests.
    pub(crate) fn test_range(&self) -> Range<usize> {
        self.first..self.first + self.tests.len()
    }
}

/// One test of a packaged job: its script and the campaign's shared plan
/// slot for it on the job's stand.
pub(crate) struct JobTest {
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
    fn new(campaign: &Campaign<'_, '_>, prepared: &Prepared) -> Self {
        campaign
            .obs
            .add(Counter::JobsPlanned, campaign.job_count() as u64);
        Self {
            exec: campaign.exec,
            granularity: campaign.granularity,
            cancel: RunCancel::new(campaign.cancel.clone()),
            stop: campaign.stop_on_first_fail,
            cache: prepared.cache.clone(),
            obs: campaign.obs.clone(),
            step_probe: campaign.obs.step_probe(),
        }
    }

    /// Emits the cache-corruption warnings collected at preload, if any —
    /// called by every launch path right after its event channel exists.
    fn emit_cache_warnings(&self, events: &Sender<EngineEvent>) {
        if let Some(runtime) = &self.cache {
            runtime.emit_corrupt_warnings(events);
        }
    }

    /// Admits one job at the point where it would start — the one
    /// admission sequence of every executor, so hit semantics cannot
    /// drift between them. A cancelled run acknowledges the job; a cache
    /// hit emits [`EngineEvent::CellCached`], trips the stop latch on a
    /// cached failure and reports the cached outcomes; a predicted hit
    /// that missed (another process evicted or rewrote the record) strands
    /// the job back to the join, because worker tasks cannot borrow the
    /// campaign's device factories and the join can. Returns the job when
    /// it must execute.
    pub(crate) fn admit(
        &self,
        job: PackagedJob,
        events: &Sender<EngineEvent>,
        results: &Sender<JobMsg>,
    ) -> Option<PackagedJob> {
        if self.cancel.is_cancelled() {
            let _ = results.send(JobMsg::Cancelled);
            return None;
        }
        if let Some(runtime) = &self.cache {
            match runtime.admit(job.cell, job.test_range()) {
                Some(outcomes) => {
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
                    return None;
                }
                None => self.obs.inc(Counter::CacheMisses),
            }
        }
        if job.devices.len() < job.tests.len() {
            let _ = results.send(JobMsg::Stranded(Box::new(job)));
            return None;
        }
        Some(job)
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

/// Drives one resolved plan against its fresh device. With observability
/// enabled the run is stepped through a probe-attached [`TestRun`], which
/// records per-step spans and worker-utilization time; the result is
/// byte-identical to the plain `execute` fast path either way.
fn execute_plan(plan: &ExecutionPlan, device: &mut Device, ctx: &JobCtx) -> TestResult {
    match &ctx.step_probe {
        None => comptest_core::execute(plan, device, &ctx.exec),
        Some(probe) => {
            let mut run = TestRun::new(plan, device, &ctx.exec).with_probe(Arc::clone(probe));
            loop {
                if let RunState::Finished(result) = run.step() {
                    break result;
                }
            }
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
/// counters of a job, kept identical on every executor. The blocking
/// executors drive it in one loop ([`execute`]), the async executor one
/// step at a time, and the remote executor replays a worker's results
/// through it.
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
    /// granularity, and the in-flight gauge.
    pub(crate) fn start(job: PackagedJob, ctx: &JobCtx, events: &Sender<EngineEvent>) -> Self {
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
                    name: test.script.name.clone(),
                },
            );
        }
        self.test_span = Some(ctx.obs.span_begin(SpanCat::Test, || {
            format!("{}::{}", self.suite, test.script.name)
        }));
        Some((test, device))
    }

    /// The plan of `test` on the job's stand, resolved through its shared
    /// slot (planned at most once per campaign value).
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
                    name: test.script.name.clone(),
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

    /// Abandons the job at a step boundary (the async executor's
    /// cancellation): open spans close as cancelled, finished tests are
    /// discarded, and the join counts the job cancelled.
    pub(crate) fn abandon(self, ctx: &JobCtx, results: &Sender<JobMsg>) {
        for span in [self.test_span, self.span].into_iter().flatten() {
            ctx.obs.span_end(span, || Some("cancelled".into()));
        }
        ctx.obs.gauge_add(Gauge::InflightJobs, -1);
        let _ = results.send(JobMsg::Cancelled);
    }
}

/// Runs an admitted job to completion on the calling thread: its tests in
/// order, each planned through its shared slot and executed against its
/// own device, stopping after the first planning error. Every blocking
/// path — the serial loop, pool workers, the remote fallback, join-time
/// rescue and the worker process — goes through here.
pub(crate) fn execute(
    job: PackagedJob,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) {
    let mut run = JobRun::start(job, ctx, events);
    while let Some((test, mut device)) = run.begin_test(ctx, events) {
        let started = Instant::now();
        let outcome = run
            .plan(&test, ctx)
            .map(|plan| execute_plan(&plan, &mut device, ctx));
        if !run.end_test(&test, outcome, started.elapsed(), ctx, events) {
            break;
        }
    }
    run.finish(ctx, events, results);
}

/// Admits one job and, unless admission resolved it, executes it.
pub(crate) fn run_job(
    job: PackagedJob,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) {
    if let Some(job) = ctx.admit(job, events, results) {
        execute(job, ctx, events, results);
    }
}

/// What a job reports to the join — exactly one message per job.
pub(crate) enum JobMsg {
    /// Outcomes of job `usize`, one per test it ran.
    Done(usize, Vec<TestJobOutcome>),
    /// The job observed cancellation and never ran (or, on the async
    /// executor, was abandoned at a step boundary).
    Cancelled,
    /// The job missed the cache at admission although packaging predicted
    /// a hit (and therefore built no devices); the join rescues it.
    Stranded(Box<PackagedJob>),
    /// The job is gone for good (remote retries exhausted, or a panic in
    /// the remote executor's in-process fallback); the label names it in
    /// [`CoreError::JobsLost`].
    Lost(String),
}

/// The launch path every executor shares: [`Prepared`] (codegen precheck,
/// plan slots, cache preload), the job list at the campaign's
/// granularity, and a handle joining through [`join_jobs`]. `drive` hands
/// the jobs to the executor's workers and returns the `workers` gauge
/// claim the join releases.
pub(crate) fn launch_jobs<'a>(
    campaign: &Campaign<'a, '_>,
    drive: impl FnOnce(Vec<PackagedJob>, &JobCtx, Sender<EngineEvent>, Sender<JobMsg>) -> i64,
) -> Result<CampaignHandle<'a>, CoreError> {
    let prepared = Prepared::new(campaign)?;
    let (jobs, layout) = prepared.package(campaign.entries, campaign.granularity);
    let ctx = JobCtx::new(campaign, &prepared);
    let (events_tx, events_rx) = mpsc::channel();
    let (results_tx, results_rx) = mpsc::channel();
    ctx.emit_cache_warnings(&events_tx);
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
/// runs stranded jobs on this thread (the one place that can borrow the
/// campaign's device factories), drops each job's outcomes into its
/// `layout` range of the flat (cell, test) order and folds them with
/// [`merge_test_outcomes`]. A job that neither reported nor acknowledged
/// cancellation died mid-job (a panic caught by the pool): that surfaces
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
            JobMsg::Stranded(job) => match rescue(*job, entries, ctx) {
                Some(done) => done,
                None => continue,
            },
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

/// Runs a stranded job on the join thread with devices rebuilt through its
/// entry's factory. Its events go nowhere (the worker that stranded it
/// held the campaign's event sender); the merged result is byte-identical
/// to a worker execution.
fn rescue(
    mut job: PackagedJob,
    entries: &[CampaignEntry<'_>],
    ctx: &JobCtx,
) -> Option<(usize, Vec<TestJobOutcome>)> {
    let factory = &entries[job.entry].device_factory;
    job.devices = job.tests.iter().map(|_| factory.build()).collect();
    let (events, _) = mpsc::channel();
    let (results, done) = mpsc::channel();
    execute(job, ctx, &events, &results);
    match done.try_recv() {
        Ok(JobMsg::Done(job, outcomes)) => Some((job, outcomes)),
        _ => None,
    }
}

/// Runs every job in plan order on the calling thread — the reference
/// executor for determinism checks, byte-identical to the historical
/// serial `run_campaign`.
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
                run_job(job, ctx, &events, &results);
            }
            1
        })
    }
}

/// Executes campaigns on an owned persistent [`WorkerPool`]: jobs are
/// packaged (`'static`) and drained by the pool's threads, events stream
/// live, and the same executor is reusable across successive campaigns
/// (replay / watch mode pays thread start-up once).
///
/// A bare [`WorkerPool`] is also a [`CampaignExecutor`]; this wrapper owns
/// its pool so the common case needs no extra plumbing.
#[derive(Debug)]
pub struct PooledExecutor {
    pool: WorkerPool,
}

impl PooledExecutor {
    /// An executor with a fresh pool of `workers` threads.
    ///
    /// `workers` must be at least `1` — the same rule the CLI enforces for
    /// `--workers`. Passing `0` is a caller bug: debug builds assert on it,
    /// release builds clamp to `1` (a zero-thread pool would deadlock every
    /// campaign, which is strictly worse than running serially).
    ///
    /// Exactly `workers` threads are spawned for the executor's lifetime —
    /// a persistent executor serving many campaigns is sized by its owner.
    /// When building a fresh executor for one campaign, size it to
    /// [`Campaign::job_count`] (`workers.min(campaign.job_count())`, as
    /// the CLI does) so excess threads are not constructed only to park on
    /// the queue.
    ///
    /// # Panics
    ///
    /// Debug builds panic on `workers == 0`.
    pub fn new(workers: usize) -> Self {
        debug_assert!(
            workers > 0,
            "PooledExecutor::new(0): a pool needs at least one worker \
             (release builds clamp to 1; the CLI rejects --workers 0 outright)"
        );
        Self {
            pool: WorkerPool::new(workers),
        }
    }

    /// Wraps an existing pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        Self { pool }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The backing pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

impl CampaignExecutor for PooledExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        self.pool.launch(campaign)
    }
}

impl CampaignExecutor for WorkerPool {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let lane = campaign.lane;
        launch_jobs(campaign, |jobs, ctx, events, results| {
            // Additive claim (not `gauge_set`): concurrent campaigns
            // sharing one recorder on one pool sum their claims and the
            // gauge returns to zero once every one of them joins.
            let claimed_workers = self.workers() as i64;
            ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
            for job in jobs {
                let ctx = ctx.clone();
                let events = events.clone();
                let results = results.clone();
                ctx.obs.gauge_add(Gauge::QueueDepth, 1);
                self.submit_task(
                    lane,
                    Box::new(move || {
                        ctx.obs.gauge_add(Gauge::QueueDepth, -1);
                        run_job(job, &ctx, &events, &results);
                    }),
                );
            }
            claimed_workers
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CampaignCache, MemoryCache};
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

    fn stand() -> TestStand {
        TestStand::parse_str("a.stand", comptest_core::PAPER_STAND_A).unwrap()
    }

    fn entries(suites: &[comptest_model::TestSuite]) -> Vec<CampaignEntry<'_>> {
        suites
            .iter()
            .map(|suite| CampaignEntry {
                suite,
                device_factory: Box::new(|| {
                    comptest_dut::ecus::interior_light::device(Default::default())
                }),
            })
            .collect()
    }

    /// A predicted cache hit that misses at admission: package against a
    /// warm store (every job predicts a hit, so no devices are built), then
    /// execute against an empty store — the record was evicted between
    /// packaging and admission, legal whenever the store is shared between
    /// processes. At either granularity the jobs must strand back to the
    /// join, get rebuilt devices from the entry's factory, and merge
    /// byte-identical to a cold run. Both granularities run the same
    /// packaged-job path, so one body checks either.
    fn assert_evicted_prediction_strands_and_rescues(granularity: Granularity) {
        let wb = Workbook::parse_str("a.cts", WB).unwrap();
        let suites = vec![wb.suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands: Vec<&TestStand> = vec![&stand];

        // Reference: a cold serial run without any cache.
        let cold = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .run(&SerialExecutor)
            .unwrap();

        // Warm a store, then package against it.
        let warm_store: Arc<dyn CampaignCache> = Arc::new(MemoryCache::new());
        Campaign::new(&entries, &stands)
            .granularity(granularity)
            .cache(Arc::clone(&warm_store))
            .run(&SerialExecutor)
            .unwrap();
        let warm = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .cache(Arc::clone(&warm_store));
        let prepared = Prepared::new(&warm).unwrap();
        let (jobs, layout) = prepared.package(warm.entries, granularity);
        assert!(!jobs.is_empty());
        assert!(
            jobs.iter().all(|j| j.devices.is_empty()),
            "{granularity}: warm packaging must skip device builds"
        );

        // Execute the predicted-hit jobs with the record evicted.
        let evicted = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .cache(Arc::new(MemoryCache::new()) as Arc<dyn CampaignCache>);
        let prepared_evicted = Prepared::new(&evicted).unwrap();
        let ctx = JobCtx::new(&evicted, &prepared_evicted);
        let (events_tx, _events_rx) = mpsc::channel();
        let (results_tx, results_rx) = mpsc::channel();
        let n = jobs.len();
        for job in jobs {
            run_job(job, &ctx, &events_tx, &results_tx);
        }
        drop(results_tx);
        let msgs: Vec<JobMsg> = results_rx.iter().collect();
        assert_eq!(msgs.len(), n);
        assert!(
            msgs.iter().all(|m| matches!(m, JobMsg::Stranded(_))),
            "{granularity}: every job must strand, not panic"
        );
        let (replay_tx, replay_rx) = mpsc::channel();
        for msg in msgs {
            replay_tx.send(msg).unwrap();
        }
        drop(replay_tx);
        let outcome = join_jobs(replay_rx, &layout, evicted.entries, evicted.stands, &ctx).unwrap();
        assert_eq!(outcome.cancelled, 0);
        assert_eq!(
            outcome.result, cold,
            "{granularity}: rescued outcomes must match a cold run"
        );
    }

    #[test]
    fn evicted_prediction_strands_and_rescues_test_jobs() {
        assert_evicted_prediction_strands_and_rescues(Granularity::Test);
    }

    #[test]
    fn evicted_prediction_strands_and_rescues_cells() {
        assert_evicted_prediction_strands_and_rescues(Granularity::Cell);
    }
}
