//! The local parallel executor: [`AsyncExecutor`], and [`PooledExecutor`],
//! its thread-pool-shaped configuration.
//!
//! The executor exploits what the resumable [`TestRun`] core makes
//! possible: a run is a suspendable transition system, so one thread can
//! interleave thousands of them. Each **shard** thread owns a **sim-time
//! wheel** — a [`BinaryHeap`] keyed by every active run's next step
//! deadline — pops the run with the earliest simulated deadline, advances
//! it exactly one planned step, and re-inserts it. Runs thus progress in
//! global simulated-time order, like event-driven co-simulation of that
//! many physical stands racked side by side. No extra dependencies: the
//! loop is a plain heap fed from one queue.
//!
//! The shard threads are **persistent**: spawned once per executor value,
//! on its first launch, and joined when the value drops (after the queue
//! drains). Every launch pushes its packaged jobs onto one **lane-fair
//! queue**; a shard pulls the next job whenever its wheel holds fewer runs
//! than its share of the in-flight budget, and blocks on the queue only
//! when its wheel is empty. Each job carries its own launch's context and
//! senders, so campaigns launched concurrently share the shards. Jobs are
//! grouped by [`Campaign::lane`] and pulled round-robin over the non-empty
//! lanes, oldest first within a lane: one lane is plain FIFO in plan
//! order, and distinct lanes interleave instead of queueing behind
//! whichever campaign launched first — what the `comptest serve` daemon
//! relies on to multiplex its tenants. [`PooledExecutor::new(w)`] is the
//! executor with `w` shards of one in-flight run each, which is a thread
//! pool's schedule.
//!
//! Admission is cheap by construction: plans come from the launch's
//! [`PlanSlot`](crate::executor::PlanSlot)s (resolved at most once per
//! (entry, test, stand) triple, often already by key hashing), and a cache
//! hit, decided when the job was packaged, is served *at admission* — a
//! cached run never touches the wheel at all.
//!
//! The executor keeps the full [`CampaignExecutor`] contract: it runs the
//! same packaged jobs as every other executor — a cell-granular job
//! advances its current test one step at a time and moves to the next test
//! when one finishes — outcomes merge byte-identical to
//! [`SerialExecutor`](crate::SerialExecutor) at both granularities, every
//! executed test gets its own span and wall timing, and the first codegen
//! error surfaces from launch before any job runs. Cancellation is
//! checked at admission and before every **step**: where the serial and
//! remote executors finish the jobs they started, this one abandons a
//! started job at its next step boundary — the job reports no outcome,
//! counts into `cancelled`, and (having never finished) emits no
//! `TestFinished`/`JobFinished` event.
//!
//! A panic inside a job (a buggy DUT behaviour, say) unwinds only that job:
//! admission and every step run under `catch_unwind`, so the shard lives on
//! for later jobs and campaigns. The job's launch context and senders drop
//! with it, and the join reports the missing outcome as
//! [`CoreError::JobsLost`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{self, AtomicUsize};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use comptest_core::error::CoreError;
use comptest_core::exec::{RunState, TestRun};
use comptest_dut::Device;
use comptest_model::SimTime;
use comptest_stand::ExecutionPlan;

use crate::campaign::Campaign;
use crate::events::EngineEvent;
use crate::executor::{
    launch_jobs, CampaignExecutor, JobCtx, JobMsg, JobRun, JobTest, PackagedJob,
};
use crate::handle::CampaignHandle;
use crate::obs::Gauge;

/// Executes campaigns on an event loop of resumable [`TestRun`]s: up to
/// `concurrency` runs are open simultaneously, interleaved step by step in
/// simulated-time order on one OS thread (optionally sharded over
/// several). Concurrency is therefore bounded by memory, not by thread
/// count — `AsyncExecutor::new(10_000)` is an ordinary configuration.
///
/// The shard threads start on the first launch and serve every later
/// launch of the same value, concurrent ones included; dropping the value
/// waits for the queued jobs to finish and joins the threads. Outcomes
/// merge byte-identical to every other executor; the module docs of
/// `async_exec` cover the scheduling and cancellation details.
pub struct AsyncExecutor {
    concurrency: usize,
    shards: usize,
    threads: OnceLock<Shards>,
}

impl std::fmt::Debug for AsyncExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncExecutor")
            .field("concurrency", &self.concurrency)
            .field("shards", &self.shards)
            .field("started", &self.threads.get().is_some())
            .finish()
    }
}

impl AsyncExecutor {
    /// An executor admitting up to `concurrency` simultaneous in-flight
    /// runs, all interleaved on a single shard thread.
    ///
    /// `concurrency` must be at least `1` — the same rule the CLI enforces
    /// for `--concurrency`. Debug builds assert on `0`, release builds
    /// clamp to `1` (which degenerates to serial execution in plan order).
    ///
    /// # Panics
    ///
    /// Debug builds panic on `concurrency == 0`.
    pub fn new(concurrency: usize) -> Self {
        debug_assert!(
            concurrency > 0,
            "AsyncExecutor::new(0): at least one in-flight run is required \
             (release builds clamp to 1; the CLI rejects --concurrency 0 outright)"
        );
        Self {
            concurrency: concurrency.max(1),
            shards: 1,
            threads: OnceLock::new(),
        }
    }

    /// Shards the event loop over `shards` OS threads (builder style).
    /// The in-flight budget is split so the shard limits sum to exactly
    /// `concurrency` (no more shards start than the budget has runs for),
    /// and merge order is unaffected. The shards are persistent: size
    /// them for the campaigns the value will serve (the CLI, which runs
    /// one campaign, uses `workers.min(campaign.job_count())`).
    ///
    /// # Panics
    ///
    /// Debug builds panic on `shards == 0`; release builds clamp to `1`.
    pub fn sharded(mut self, shards: usize) -> Self {
        debug_assert!(
            shards > 0,
            "AsyncExecutor::sharded(0): at least one shard thread is required \
             (release builds clamp to 1)"
        );
        self.shards = shards.max(1);
        self
    }

    /// Maximum simultaneously in-flight runs across all shards.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Number of shard threads the event loop spreads over.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl CampaignExecutor for AsyncExecutor {
    /// Queues the packaged jobs on the campaign's lane, starting the shard
    /// threads on first use; outcomes merge through the shared join
    /// exactly like every other executor.
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let lane = campaign.lane;
        launch_jobs(campaign, |jobs, ctx, events, results| {
            let shards = self
                .threads
                .get_or_init(|| Shards::spawn(self.concurrency, self.shards));
            // Additive claims (not `gauge_set`): concurrent campaigns
            // sharing one recorder sum their shard counts, released when
            // each joins.
            let claimed_workers = shards.handles.len() as i64;
            ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
            ctx.obs.gauge_add(Gauge::QueueDepth, jobs.len() as i64);
            let launch = Arc::new(Launch {
                ctx: ctx.clone(),
                events,
                results,
            });
            shards.shared.push(lane, jobs, &launch);
            claimed_workers
        })
    }
}

/// The executor with `workers` shard threads of one in-flight run each —
/// [`AsyncExecutor::new(workers).sharded(workers)`](AsyncExecutor::sharded):
/// every idle thread takes the next queued job and runs it, one step after
/// another, to the end, which is a thread pool's schedule. Everything else
/// (persistent threads, lane fairness, step-boundary cancellation, panic
/// isolation) is the [`AsyncExecutor`]'s. With one worker, jobs run one at
/// a time in plan order, like [`SerialExecutor`](crate::SerialExecutor).
#[derive(Debug)]
pub struct PooledExecutor(AsyncExecutor);

impl PooledExecutor {
    /// An executor with `workers` threads.
    ///
    /// `workers` must be at least `1` — the same rule the CLI enforces for
    /// `--workers`. Passing `0` is a caller bug: debug builds assert on it,
    /// release builds clamp to `1`.
    ///
    /// The threads start on the first launch and serve the executor's
    /// whole lifetime — a persistent executor serving many campaigns is
    /// sized by its owner. When building a fresh executor for one
    /// campaign, size it to [`Campaign::job_count`]
    /// (`workers.min(campaign.job_count())`, as the CLI does) so excess
    /// threads are not started only to park on the queue.
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
        let workers = workers.max(1);
        Self(AsyncExecutor::new(workers).sharded(workers))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.0.shards()
    }
}

impl CampaignExecutor for PooledExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        self.0.launch(campaign)
    }
}

/// What every job of one launch shares on the shards: its context and the
/// senders its events and outcome go to. The launch's last job to end
/// drops the last `Arc`, which ends the event stream and lets the join
/// count any job that never reported.
struct Launch {
    ctx: JobCtx,
    events: Sender<EngineEvent>,
    results: Sender<JobMsg>,
}

/// One queued job with the launch it belongs to.
struct Queued {
    job: PackagedJob,
    launch: Arc<Launch>,
}

/// The lane queues: jobs grouped by lane id, drained round-robin. Only
/// non-empty lanes are kept, so the rotation scan is proportional to the
/// number of *active* lanes, not of lanes ever used.
pub(crate) struct LaneQueues<T> {
    lanes: BTreeMap<u64, VecDeque<T>>,
    /// Round-robin cursor: the next steal serves the first non-empty lane
    /// with id `>= next`, wrapping to the smallest id.
    next: u64,
    closed: bool,
}

impl<T> Default for LaneQueues<T> {
    fn default() -> Self {
        Self {
            lanes: BTreeMap::new(),
            next: 0,
            closed: false,
        }
    }
}

impl<T> LaneQueues<T> {
    /// Queues `jobs` on `lane`, in order.
    pub(crate) fn push(&mut self, lane: u64, jobs: impl ExactSizeIterator<Item = T>) {
        if jobs.len() > 0 {
            self.lanes.entry(lane).or_default().extend(jobs);
        }
    }

    /// Steals the next job in round-robin lane order.
    pub(crate) fn steal(&mut self) -> Option<T> {
        let lane = self
            .lanes
            .range(self.next..)
            .map(|(id, _)| *id)
            .next()
            .or_else(|| self.lanes.keys().next().copied())?;
        let queue = self.lanes.get_mut(&lane).expect("lane exists");
        let job = queue.pop_front().expect("lanes hold only non-empty queues");
        if queue.is_empty() {
            self.lanes.remove(&lane);
        }
        self.next = lane.wrapping_add(1);
        Some(job)
    }
}

/// The queue every shard of one executor pulls from.
#[derive(Default)]
struct Shared {
    queues: Mutex<LaneQueues<Queued>>,
    available: Condvar,
    /// Jobs waiting in `queues`, readable without the lock: a shard with
    /// room on its wheel reads it before locking, so stepping does not
    /// contend on the queue while nothing waits.
    queued: AtomicUsize,
}

impl Shared {
    /// Queues one launch's jobs, in plan order, on `lane`.
    fn push(&self, lane: u64, jobs: Vec<PackagedJob>, launch: &Arc<Launch>) {
        let mut queues = self.queues.lock().expect("shard queue lock");
        self.queued.fetch_add(jobs.len(), atomic::Ordering::Relaxed);
        queues.push(
            lane,
            jobs.into_iter().map(|job| Queued {
                job,
                launch: Arc::clone(launch),
            }),
        );
        drop(queues);
        self.available.notify_all();
    }

    /// The next job in lane order. With `wait`, blocks until one is queued
    /// and returns `None` only once the executor is dropped and the queue
    /// drained; without, returns `None` as soon as nothing is queued.
    fn next(&self, wait: bool) -> Option<Queued> {
        if !wait && self.queued.load(atomic::Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queues = self.queues.lock().expect("shard queue lock");
        loop {
            if let Some(job) = queues.steal() {
                self.queued.fetch_sub(1, atomic::Ordering::Relaxed);
                return Some(job);
            }
            if !wait || queues.closed {
                return None;
            }
            queues = self.available.wait(queues).expect("shard queue lock");
        }
    }
}

/// An executor's running shard threads.
struct Shards {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Shards {
    /// Starts `min(shards, concurrency)` threads whose in-flight limits
    /// sum to exactly `concurrency`: the first `concurrency % threads`
    /// get one extra slot, and every limit is at least 1.
    fn spawn(concurrency: usize, shards: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let threads = shards.min(concurrency);
        let handles = (0..threads)
            .map(|i| {
                let limit = concurrency / threads + usize::from(i < concurrency % threads);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || drive_shard(&shared, limit))
            })
            .collect();
        Self { shared, handles }
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        // Closing the queue wakes every shard; each finishes its wheel and
        // the queued jobs, then exits.
        self.shared.queues.lock().expect("shard queue lock").closed = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One sim-time-wheel entry: a payload keyed by (deadline, admission
/// sequence). The ordering is *reversed* so [`BinaryHeap`] pops the
/// earliest deadline first; the sequence breaks ties in admission order,
/// keeping the schedule deterministic.
struct Scheduled<T> {
    deadline: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

/// One in-flight job on the wheel: its bookkeeping, the test it is
/// running (the plan is the slot's shared `Arc`, so parking a run never
/// clones the plan), when that test began, and its launch.
struct Active {
    job: JobRun,
    test: JobTest,
    run: TestRun<Arc<ExecutionPlan>, Device>,
    started: Instant,
    launch: Arc<Launch>,
}

type Wheel = BinaryHeap<Scheduled<Box<Active>>>;

/// One shard's event loop: while the wheel has room (up to `limit` jobs
/// open at once), pull one job, then advance the earliest-deadline run by
/// one step. Pulling one job per step lets shards that wake together
/// share a launch's jobs instead of the first one taking a full wheel.
/// With an empty wheel the shard waits for the queue; it exits once the
/// executor is dropped and nothing is left to run.
fn drive_shard(shared: &Shared, limit: usize) {
    let mut wheel = Wheel::new();
    let mut admitted = 0u64;
    loop {
        if wheel.len() < limit {
            match shared.next(wheel.is_empty()) {
                // A panic drops the job with its launch's senders; the
                // join reports it lost. The same holds for every step.
                Some(queued) => {
                    let _ = catch_unwind(AssertUnwindSafe(|| admit(queued, admitted, &mut wheel)));
                    admitted += 1;
                }
                None if wheel.is_empty() => return, // closed and drained
                None => {}
            }
        }
        // An empty wheel here means admission resolved the job (a cache
        // hit, a cancellation, a planning error or a panic).
        let Some(Scheduled { seq, payload, .. }) = wheel.pop() else {
            continue;
        };
        // Step-granular cancellation: abandon the popped job at its step
        // boundary; later iterations drain the rest of the wheel the same
        // way. Its finished tests are discarded and the join counts it
        // cancelled.
        if payload.launch.ctx.cancel.is_cancelled() {
            let Active { job, launch, .. } = *payload;
            job.abandon(&launch.ctx, &launch.results, JobMsg::Cancelled);
            continue;
        }
        let _ = catch_unwind(AssertUnwindSafe(|| step(payload, seq, &mut wheel)));
    }
}

/// Admits one pulled job at the point where it starts: a cache hit
/// (decided at packaging) or cancellation resolves it without touching
/// the wheel; anything else starts and parks its first test.
fn admit(Queued { job, launch }: Queued, seq: u64, wheel: &mut Wheel) {
    let Launch {
        ctx,
        events,
        results,
    } = &*launch;
    ctx.obs.gauge_add(Gauge::QueueDepth, -1);
    if let Some(job) = ctx.admit(job, events, results) {
        let job = JobRun::start(job, ctx, events);
        advance(job, launch, seq, wheel);
    }
}

/// Advances the run by one step, re-parking it under its deadline; a
/// finished test ends and the job moves to its next test.
fn step(mut active: Box<Active>, seq: u64, wheel: &mut Wheel) {
    match active.run.step() {
        RunState::Running => wheel.push(Scheduled {
            deadline: active.run.next_deadline(),
            seq,
            payload: active,
        }),
        RunState::Finished(result) => {
            let Active {
                mut job,
                test,
                started,
                launch,
                ..
            } = *active;
            let Launch { ctx, events, .. } = &*launch;
            job.end_test(&test, Ok(result), started.elapsed(), ctx, events);
            advance(job, launch, seq, wheel);
        }
    }
}

/// Starts the job's next test and parks it on the wheel under `seq`; a
/// test that cannot be planned resolves immediately, exactly as in the
/// serial executor's loop, and ends the job. A job with no test left
/// finishes.
fn advance(mut job: JobRun, launch: Arc<Launch>, seq: u64, wheel: &mut Wheel) {
    let Launch {
        ctx,
        events,
        results,
    } = &*launch;
    if let Some((test, device)) = job.begin_test(ctx, events) {
        let started = Instant::now();
        match job.plan(&test, ctx) {
            Ok(plan) => {
                let run = ctx.test_run(plan, device);
                wheel.push(Scheduled {
                    deadline: run.next_deadline(),
                    seq,
                    payload: Box::new(Active {
                        job,
                        test,
                        run,
                        started,
                        launch,
                    }),
                });
                return;
            }
            Err(reason) => {
                job.end_test(&test, Err(reason), started.elapsed(), ctx, events);
            }
        }
    }
    job.finish(ctx, events, results);
}
