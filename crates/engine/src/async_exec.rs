//! The event-loop [`AsyncExecutor`]: thousands of concurrent simulated
//! stands per OS thread.
//!
//! Where [`PooledExecutor`](crate::PooledExecutor) needs one OS thread per
//! in-flight run, this executor exploits what the resumable
//! [`TestRun`] core makes possible: a run is a suspendable transition
//! system, so one thread can interleave thousands of them. Each shard
//! thread owns a **sim-time wheel** — a [`BinaryHeap`] keyed by every
//! active run's next step deadline — pops the run with the earliest
//! simulated deadline, advances it exactly one planned step, and
//! re-inserts it. Runs thus progress in global simulated-time order, like
//! event-driven co-simulation of that many physical stands racked side by
//! side. No extra dependencies: the loop is a plain heap over `mpsc`
//! channels.
//!
//! Admission is cheap by construction: plans come from the launch's
//! [`PlanSlot`](crate::executor::PlanSlot)s (resolved at most once per
//! (entry, test, stand) triple, often already by key hashing), and a cache
//! hit, decided when the job was packaged, is served *at admission* — a
//! cached run never touches the wheel at all.
//!
//! The executor keeps the full [`CampaignExecutor`](crate::CampaignExecutor)
//! contract: it runs the same packaged jobs as every other executor — a
//! cell-granular job advances its current test one step at a time and
//! moves to the next test when one finishes — outcomes merge
//! byte-identical to [`SerialExecutor`](crate::SerialExecutor) at both
//! granularities, every executed test gets its own span and wall timing,
//! and the first codegen error surfaces from launch before any job runs.
//! Cancellation is *finer-grained* than on the other executors: the token
//! is checked before every **step**, so a cancelled campaign stops mid-run
//! at the next step boundary — an abandoned job reports no outcome, counts
//! into `cancelled`, and (having never finished) emits no
//! `TestFinished`/`JobFinished` event.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;
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
/// Outcomes merge byte-identical to every other executor; the module
/// docs of `async_exec` cover the scheduling and cancellation details.
#[derive(Debug, Clone, Copy)]
pub struct AsyncExecutor {
    concurrency: usize,
    shards: usize,
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
        }
    }

    /// Shards the event loop over `shards` OS threads (builder style).
    /// Jobs are dealt round-robin across shards in plan order, the
    /// in-flight budget is split so the shard limits sum to exactly
    /// `concurrency` (a launch never spawns more shards than it has
    /// budget or jobs for), and merge order is unaffected.
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

/// Splits the total in-flight budget over `parts` shards so the limits sum
/// to exactly `concurrency`: the first `concurrency % parts` shards get
/// one extra slot. Callers cap `parts` at `concurrency`, so every shard's
/// limit is at least 1 (a zero-limit shard would spin without admitting).
fn shard_limits(concurrency: usize, parts: usize) -> impl Iterator<Item = usize> {
    let base = concurrency / parts;
    let extra = concurrency % parts;
    (0..parts).map(move |i| base + usize::from(i < extra))
}

impl CampaignExecutor for AsyncExecutor {
    /// Deals the packaged jobs across shard threads, each interleaving its
    /// runs on a sim-time wheel; outcomes merge through the shared join
    /// exactly like every other executor.
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        launch_jobs(campaign, |jobs, ctx, events, results| {
            let parts = partition(jobs, self.shards.min(self.concurrency));
            // Additive claim (not `gauge_set`): concurrent campaigns
            // sharing one recorder sum their shard counts, released when
            // each joins.
            let claimed_workers = parts.len() as i64;
            ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
            let limits = shard_limits(self.concurrency, parts.len());
            for (part, limit) in parts.into_iter().zip(limits) {
                let ctx = ctx.clone();
                let events = events.clone();
                let results = results.clone();
                std::thread::spawn(move || drive_shard(part, limit, &ctx, &events, &results));
            }
            claimed_workers
        })
    }
}

/// Deals `items` round-robin into at most `shards` non-empty parts,
/// preserving plan order within each part.
fn partition<T>(items: Vec<T>, shards: usize) -> Vec<VecDeque<T>> {
    let shards = shards.min(items.len()).max(1);
    let mut parts: Vec<VecDeque<T>> = (0..shards).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % shards].push_back(item);
    }
    parts
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
/// clones the plan) and when that test began.
struct Active {
    job: JobRun,
    test: JobTest,
    run: TestRun<Arc<ExecutionPlan>, Device>,
    started: Instant,
}

/// One shard's event loop: admit until the in-flight limit is reached (so
/// `limit` jobs are genuinely open at once), then repeatedly advance the
/// earliest-deadline run by one step.
fn drive_shard(
    mut pending: VecDeque<PackagedJob>,
    limit: usize,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) {
    let mut wheel: BinaryHeap<Scheduled<Box<Active>>> = BinaryHeap::new();
    let mut seq = 0u64;
    ctx.obs.gauge_add(Gauge::QueueDepth, pending.len() as i64);
    loop {
        while wheel.len() < limit {
            let Some(job) = pending.pop_front() else {
                break;
            };
            ctx.obs.gauge_add(Gauge::QueueDepth, -1);
            // A cache hit (decided at packaging) or cancellation resolves
            // the job without touching the wheel.
            if let Some(job) = ctx.admit(job, events, results) {
                let job = JobRun::start(job, ctx, events);
                advance(job, seq, ctx, events, results, &mut wheel);
                seq += 1;
            }
        }
        let Some(entry) = wheel.pop() else {
            if pending.is_empty() {
                return;
            }
            // Every admitted job resolved at admission (cache hits,
            // planning errors or cancellations); go admit more.
            continue;
        };
        // Step-granular cancellation: abandon the popped job at its step
        // boundary; later iterations drain the rest of the wheel the same
        // way. Its finished tests are discarded and the join counts it
        // cancelled, keeping parity with the blocking executors' jobs,
        // which either finish or never start.
        if ctx.cancel.is_cancelled() {
            entry.payload.job.abandon(ctx, results, JobMsg::Cancelled);
            continue;
        }
        let mut active = entry.payload;
        match active.run.step() {
            RunState::Running => {
                wheel.push(Scheduled {
                    deadline: active.run.next_deadline(),
                    seq: entry.seq,
                    payload: active,
                });
            }
            RunState::Finished(result) => {
                let Active {
                    mut job,
                    test,
                    started,
                    ..
                } = *active;
                job.end_test(&test, Ok(result), started.elapsed(), ctx, events);
                advance(job, entry.seq, ctx, events, results, &mut wheel);
            }
        }
    }
}

/// Starts the job's next test and parks it on the wheel under `seq`; a
/// test that cannot be planned resolves immediately, exactly like the
/// blocking executors, and ends the job. A job with no test left
/// finishes.
fn advance(
    mut job: JobRun,
    seq: u64,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
    wheel: &mut BinaryHeap<Scheduled<Box<Active>>>,
) {
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
