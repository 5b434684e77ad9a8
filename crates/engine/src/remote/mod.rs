//! Distributed execution: ship packaged jobs to `comptest worker`
//! processes.
//!
//! [`RemoteExecutor`] implements the same [`CampaignExecutor`] contract
//! as the serial, pooled and async executors, but runs jobs in **spawned
//! worker processes** connected over stdio with the length-prefixed frame
//! protocol of the `frame` module. The division of labour:
//!
//! * the **parent** plans, packages, admits against the campaign cache
//!   (only misses are shipped), dispatches in plan order with a window of
//!   one in-flight job per worker, forwards worker progress events into
//!   the campaign's event stream, feeds results back into the cache, and
//!   merges outcomes byte-identical to every local executor;
//! * each **worker** ([`worker_main`]) interns stands and scripts once,
//!   realizes a fresh device per test from the shipped [`DeviceSpec`],
//!   and runs the job through the same job runner as local execution.
//!
//! A job travels as one `Run` frame (its cell, first test, script ids,
//! stand id and device recipe) and comes back as one `Done` frame
//! carrying its outcomes; the campaign's granularity rides once in the
//! `Hello` handshake and decides the event shape the worker streams.
//!
//! # Robustness
//!
//! * **Worker death** (EOF, decode error, non-zero exit) is detected per
//!   worker process; the in-flight job is retried on a surviving or
//!   respawned worker with exponential backoff, counted by the
//!   `jobs_retried` metric. Reader threads tag every report with the
//!   process's generation, so a late death report from a slot's earlier
//!   occupant never retires the healthy worker that replaced it. A job whose retries are exhausted is reported in
//!   [`CoreError::JobsLost`] **with its label**, keeping
//!   `jobs_executed + jobs_cached + jobs_cancelled == jobs_planned`
//!   balanced (retries add attempts, not planned jobs).
//! * **Graceful degradation**: jobs whose devices have no registry spec
//!   (custom behaviours, fault-wrapped devices) and campaigns whose
//!   workers cannot spawn at all run **in-process** instead, inside a
//!   panic catch — so a remote campaign never does worse than a local
//!   one.
//! * **Cancel fan-out** is cooperative: once the queue drains, workers
//!   get a `Shutdown` frame, their stdin closes, and a grace window of
//!   polling precedes SIGTERM and finally a hard kill.

pub(crate) mod frame;
mod worker;

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use comptest_core::campaign::TestJobOutcome;
use comptest_core::error::CoreError;
use comptest_dut::{Device, DeviceSpec};

use crate::campaign::{Campaign, Granularity};
use crate::events::{emit, EngineEvent};
use crate::executor::{
    execute, launch_jobs, CampaignExecutor, JobCtx, JobMsg, JobRun, PackagedJob,
};
use crate::handle::CampaignHandle;
use crate::obs::{Counter, Gauge};
use frame::{read_frame, write_frame, FromWorker, RunRequest, ToWorker};
pub use worker::{worker_main, HOLD_MS_ENV};

/// The distinct source-sheet spellings of a script's signal names, in
/// first-appearance order. Shipped alongside the script XML (whose writer
/// canonicalises names to lowercase) so the worker can restore them —
/// see [`restore_signal_spellings`].
fn signal_spellings(script: &comptest_script::TestScript) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut names = Vec::new();
    let statements = script
        .init
        .iter()
        .chain(script.steps.iter().flat_map(|s| s.statements.iter()));
    for name in script
        .signals
        .iter()
        .map(|def| &def.name)
        .chain(statements.map(|stmt| &stmt.signal))
    {
        if seen.insert(name.key()) {
            names.push(name.as_str().to_owned());
        }
    }
    names
}

/// Rewrites a re-parsed script's signal names back to the shipped source
/// spellings (keyed case-insensitively), so worker-side planning
/// diagnostics print the exact bytes the in-process executors produce.
/// Unknown spellings are ignored — worst case the lowercase canonical
/// name stays, which is only a wording difference, never a wrong result.
pub(crate) fn restore_signal_spellings(script: &mut comptest_script::TestScript, names: &[String]) {
    use comptest_model::SignalName;
    let by_key: std::collections::HashMap<String, &String> = names
        .iter()
        .map(|name| (name.to_ascii_lowercase(), name))
        .collect();
    let restore = |signal: &mut SignalName| {
        if let Some(spelling) = by_key.get(&signal.key()) {
            if signal.as_str() != spelling.as_str() {
                if let Ok(restored) = SignalName::new(spelling.as_str()) {
                    *signal = restored;
                }
            }
        }
    };
    for def in &mut script.signals {
        restore(&mut def.name);
    }
    for stmt in script.init.iter_mut().chain(
        script
            .steps
            .iter_mut()
            .flat_map(|s| s.statements.iter_mut()),
    ) {
        restore(&mut stmt.signal);
    }
}

/// How long the shutdown sequence polls for a worker to exit voluntarily
/// before escalating to SIGTERM, and again before the hard kill.
const GRACE: Duration = Duration::from_secs(2);

/// Executes campaigns on spawned `comptest worker` processes — see the
/// [module docs](self) for the protocol and robustness rules.
///
/// ```no_run
/// use comptest_engine::{remote::RemoteExecutor, Campaign};
/// # fn demo(campaign: Campaign<'_, '_>) -> Result<(), comptest_core::CoreError> {
/// let executor = RemoteExecutor::new(4);
/// let result = campaign.run(&executor)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct RemoteExecutor {
    workers: usize,
    command: Option<Vec<String>>,
    retry_limit: usize,
    backoff: Duration,
    envs: Vec<(String, String)>,
}

impl RemoteExecutor {
    /// An executor targeting `workers` simultaneous worker processes.
    /// Workers are spawned lazily (a fully cached campaign spawns none)
    /// and respawned on death while jobs remain.
    ///
    /// `workers` must be at least `1` — the same rule the CLI enforces for
    /// `--remote-workers`. Debug builds assert on `0`, release builds
    /// clamp to `1`.
    ///
    /// # Panics
    ///
    /// Debug builds panic on `workers == 0`.
    pub fn new(workers: usize) -> Self {
        debug_assert!(
            workers > 0,
            "RemoteExecutor::new(0): at least one worker is required \
             (release builds clamp to 1; the CLI rejects --remote-workers 0 outright)"
        );
        Self {
            workers: workers.max(1),
            command: None,
            retry_limit: 2,
            backoff: Duration::from_millis(25),
            envs: Vec::new(),
        }
    }

    /// Overrides the worker command line (builder style). The default is
    /// `current_exe() worker` — the running binary's own `worker`
    /// subcommand, which is what the `comptest` CLI provides.
    pub fn command(mut self, command: Vec<String>) -> Self {
        self.command = Some(command);
        self
    }

    /// Adds an environment variable to spawned workers (builder style) —
    /// e.g. [`HOLD_MS_ENV`] for tests that need jobs to stay in flight.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Sets how many times one job may be retried after worker deaths
    /// before it is reported lost (builder style; default 2). `0` disables
    /// retry entirely — the first death loses its in-flight job.
    pub fn retry_limit(mut self, retries: usize) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Target number of worker processes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved worker command line, or `None` when the running
    /// executable cannot be determined (the campaign then degrades to
    /// in-process execution).
    fn resolve_command(&self) -> Option<Vec<String>> {
        if let Some(command) = &self.command {
            return (!command.is_empty()).then(|| command.clone());
        }
        let exe = std::env::current_exe().ok()?;
        Some(vec![exe.to_str()?.to_owned(), "worker".to_owned()])
    }

    fn config(&self) -> OrchestratorConfig {
        OrchestratorConfig {
            workers: self.workers,
            command: self.resolve_command(),
            retry_limit: self.retry_limit,
            backoff: self.backoff,
            envs: self.envs.clone(),
        }
    }
}

impl CampaignExecutor for RemoteExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let cfg = self.config();
        launch_jobs(campaign, |jobs, ctx, events, results| {
            let claimed_workers = cfg.workers as i64;
            ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
            let ctx = ctx.clone();
            std::thread::spawn(move || Orchestrator::new(cfg, ctx, events, results).run(jobs));
            claimed_workers
        })
    }
}

/// Owned orchestrator configuration (the executor stays borrowable).
struct OrchestratorConfig {
    workers: usize,
    command: Option<Vec<String>>,
    retry_limit: usize,
    backoff: Duration,
    envs: Vec<(String, String)>,
}

/// `suite::test` for a test-granular job, `suite @ stand` for a
/// cell-granular one — how [`CoreError::JobsLost`] names a lost job.
fn label(job: &PackagedJob, granularity: Granularity) -> String {
    match (granularity, job.tests.as_slice()) {
        (Granularity::Test, [test]) => format!("{}::{}", job.suite, test.script.name),
        _ => format!("{} @ {}", job.suite, job.stand_name),
    }
}

/// The registry recipe every device of the job shares — `None` for
/// custom or fault-wrapped devices (and for jobs without tests, which have
/// nothing to execute remotely), which run in-process instead.
fn device_spec(job: &PackagedJob) -> Option<DeviceSpec> {
    let mut specs = job.devices.iter().map(Device::spec);
    let first = specs.next()??;
    specs
        .all(|spec| spec.as_ref() == Some(&first))
        .then_some(first)
}

/// Frames that ship `job` to `conn`: the stand and every script the worker
/// has not seen yet, then the one run request.
fn ship(
    job: &PackagedJob,
    spec: DeviceSpec,
    interner: &mut Interner,
    conn: &mut WorkerConn,
) -> Vec<ToWorker> {
    let mut frames = Vec::new();
    let stand = interner.stand(&job.stand_name, || comptest_stand::write_stand(&job.stand));
    if conn.sent_stands.insert(stand.id) {
        frames.push(ToWorker::Stand {
            id: stand.id,
            text: stand.payload,
        });
    }
    let mut scripts = Vec::with_capacity(job.tests.len());
    for test in &job.tests {
        let script = interner.script(&job.suite, &test.script.name, || test.script.to_xml());
        if conn.sent_scripts.insert(script.id) {
            frames.push(ToWorker::Script {
                id: script.id,
                xml: script.payload,
                names: signal_spellings(&test.script),
            });
        }
        scripts.push(script.id);
    }
    frames.push(ToWorker::Run(RunRequest {
        job: job.job,
        cell: job.cell,
        first: job.first,
        suite: job.suite.clone(),
        scripts,
        stand: stand.id,
        spec,
    }));
    frames
}

/// Decodes a worker's result record for `job` and checks it is something
/// the job can produce: its tests in order, stopping early only after a
/// planning error. Anything else means the worker is lying or corrupt.
fn decode_result(job: &PackagedJob, record: &[u8]) -> Result<Vec<TestJobOutcome>, String> {
    let outcomes = worker::decode_outcomes(record)?;
    let expected = outcomes
        .iter()
        .position(Result::is_err)
        .map_or(job.tests.len(), |stop| stop + 1);
    if outcomes.len() != expected || expected > job.tests.len() {
        return Err(format!(
            "result record holds {} outcomes for a job of {} tests",
            outcomes.len(),
            job.tests.len()
        ));
    }
    Ok(outcomes)
}

/// Replays a worker's outcomes through the shared job bookkeeping: cache
/// store and verify, counters, spans (opened and closed at receipt — the
/// remote wall time is real, but the parent's trace timeline must stay
/// self-consistent), the stop latch and the join message. The worker
/// already streamed the job's events, so the replay's go nowhere. The
/// worker reports one wall time per job; each test is charged an equal
/// share of it.
fn finish_remote(
    job: PackagedJob,
    outcomes: Vec<TestJobOutcome>,
    wall: Duration,
    ctx: &JobCtx,
    results: &Sender<JobMsg>,
) {
    let share = wall / u32::try_from(outcomes.len().max(1)).unwrap_or(u32::MAX);
    // Steps ran in the worker, whose recorder dies with it; the step
    // results in the record are the parent's source of truth.
    ctx.obs.add(Counter::StepsExecuted, count_steps(&outcomes));
    let (replayed, _) = mpsc::channel();
    let mut run = JobRun::start(job, ctx, &replayed);
    for outcome in outcomes {
        let Some((test, _device)) = run.begin_test(ctx, &replayed) else {
            break;
        };
        run.end_test(&test, outcome, share, ctx, &replayed);
    }
    run.finish(ctx, &replayed, results);
}

/// Executed steps carried home in a result record — the parent-side
/// source for `steps_executed` on remote runs (worker recorders are not
/// aggregated).
fn count_steps(outcomes: &[TestJobOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|outcome| outcome.as_ref().ok())
        .map(|result| result.steps.len() as u64)
        .sum()
}

/// A parent-assigned intern id plus the payload to ship when a worker has
/// not seen it yet.
struct Interned {
    id: u64,
    payload: String,
}

/// Campaign-wide intern table: stable ids for stands (by name — campaign
/// validation guarantees uniqueness) and scripts (by suite × test name),
/// with payload text rendered once and reused for every worker.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u64>,
    payloads: HashMap<u64, String>,
}

impl Interner {
    fn intern(&mut self, key: String, render: impl FnOnce() -> String) -> Interned {
        let next = self.ids.len() as u64;
        let id = *self.ids.entry(key).or_insert(next);
        let payload = self.payloads.entry(id).or_insert_with(render).clone();
        Interned { id, payload }
    }

    fn stand(&mut self, name: &str, render: impl FnOnce() -> String) -> Interned {
        self.intern(format!("stand\u{0}{name}"), render)
    }

    fn script(&mut self, suite: &str, test: &str, render: impl FnOnce() -> String) -> Interned {
        self.intern(format!("script\u{0}{suite}\u{0}{test}"), render)
    }
}

/// What a worker's reader thread reports to the orchestrator. Each
/// message names the worker process by its slot *and* its generation (the
/// spawn it came from): a slot is refilled after a death, and a late
/// message from the slot's earlier occupant must not be mistaken for news
/// about the healthy worker that replaced it.
enum WorkerMsg {
    Frame {
        slot: usize,
        generation: usize,
        frame: FromWorker,
    },
    /// EOF or an undecodable frame — that worker process is unusable.
    Dead { slot: usize, generation: usize },
}

/// One live worker process: the child, its stdin, its generation and what
/// it has been sent so far.
struct WorkerConn {
    child: Child,
    stdin: Option<ChildStdin>,
    pid: u32,
    generation: usize,
    sent_stands: std::collections::HashSet<u64>,
    sent_scripts: std::collections::HashSet<u64>,
}

impl WorkerConn {
    fn write_frames(&mut self, frames: &[ToWorker]) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stdin closed"))?;
        for frame in frames {
            write_frame(stdin, &frame.encode())?;
        }
        Ok(())
    }
}

/// One in-flight dispatch: the job (kept for retry), its attempt count
/// and the dispatch instant (wall-clock metrics at receipt).
struct InFlight {
    job: PackagedJob,
    attempts: usize,
    dispatched: Instant,
}

/// The scheduling loop. Owns the queue, the worker slots and the
/// channels; runs on its own thread so `launch` returns a live handle
/// immediately.
struct Orchestrator {
    cfg: OrchestratorConfig,
    ctx: JobCtx,
    events: Sender<EngineEvent>,
    results: Sender<JobMsg>,
    interner: Interner,
    /// Worker slots: `None` until first spawn or after a death.
    slots: Vec<Option<WorkerConn>>,
    inflight: Vec<Option<InFlight>>,
    msg_tx: Sender<WorkerMsg>,
    msg_rx: Receiver<WorkerMsg>,
    /// Processes spawned so far; the latest spawn's count is its
    /// generation.
    spawned: usize,
}

impl Orchestrator {
    fn new(
        cfg: OrchestratorConfig,
        ctx: JobCtx,
        events: Sender<EngineEvent>,
        results: Sender<JobMsg>,
    ) -> Self {
        let (msg_tx, msg_rx) = mpsc::channel();
        let workers = cfg.workers;
        Self {
            cfg,
            ctx,
            events,
            results,
            interner: Interner::default(),
            slots: (0..workers).map(|_| None).collect(),
            inflight: (0..workers).map(|_| None).collect(),
            msg_tx,
            msg_rx,
            spawned: 0,
        }
    }

    /// Hard cap on process spawns across the campaign — deaths trigger
    /// respawns, but a crash-looping worker binary must not fork-bomb.
    fn spawn_budget(&self) -> usize {
        self.cfg.workers * 2 + 2
    }

    fn run(mut self, jobs: Vec<PackagedJob>) {
        let mut queue: VecDeque<(PackagedJob, usize)> = jobs.into_iter().map(|j| (j, 0)).collect();
        loop {
            self.dispatch_ready(&mut queue);
            if queue.is_empty() && self.inflight.iter().all(Option::is_none) {
                break;
            }
            // The orchestrator holds a sender itself, so the channel never
            // disconnects; a message either concerns the worker process
            // now in its slot or is stale and dropped.
            let Ok(msg) = self.msg_rx.recv() else {
                break;
            };
            match msg {
                WorkerMsg::Frame {
                    slot,
                    generation,
                    frame,
                } if self.is_current(slot, generation) => self.on_frame(slot, frame, &mut queue),
                WorkerMsg::Dead { slot, generation } if self.is_current(slot, generation) => {
                    self.on_death(slot, &mut queue)
                }
                WorkerMsg::Frame { .. } | WorkerMsg::Dead { .. } => {}
            }
        }
        self.shutdown();
    }

    /// Whether `generation` is the worker process occupying `slot` now.
    fn is_current(&self, slot: usize, generation: usize) -> bool {
        self.slots[slot]
            .as_ref()
            .is_some_and(|conn| conn.generation == generation)
    }

    /// Fills every idle worker in plan order. Admission (cancel + cache)
    /// happens here — at dispatch time, not packaging time — so a stop
    /// latch tripped by an earlier result truncates exactly like the
    /// local executors. Retries were admitted on their first dispatch.
    fn dispatch_ready(&mut self, queue: &mut VecDeque<(PackagedJob, usize)>) {
        while let Some((job, attempts)) = queue.pop_front() {
            let job = match attempts {
                0 => match self.ctx.admit(job, &self.events, &self.results) {
                    Some(job) => job,
                    None => continue,
                },
                _ => job,
            };
            let Some(spec) = device_spec(&job) else {
                self.run_local_caught(job);
                continue;
            };
            match self.idle_worker() {
                Some(slot) => {
                    let conn = self.slots[slot].as_mut().expect("idle worker slot is live");
                    let frames = ship(&job, spec, &mut self.interner, conn);
                    if conn.write_frames(&frames).is_err() {
                        // The write failed: the worker is dead. Requeue the
                        // job and retire the worker now; its reader's own
                        // `Dead` report arrives stale and is dropped.
                        queue.push_front((job, attempts));
                        self.on_death(slot, queue);
                        continue;
                    }
                    self.inflight[slot] = Some(InFlight {
                        job,
                        attempts,
                        dispatched: Instant::now(),
                    });
                }
                None if self.live_workers() == 0 => {
                    // Zero workers and none can spawn: degrade the whole
                    // queue to in-process execution.
                    self.run_local_caught(job);
                }
                None => {
                    // All live workers busy: put the job back and wait for
                    // a result.
                    queue.push_front((job, attempts));
                    return;
                }
            }
        }
    }

    fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// An idle live worker's slot — spawning a new process if every live
    /// worker is busy, the target count is not reached and the spawn
    /// budget allows.
    fn idle_worker(&mut self) -> Option<usize> {
        for (i, conn) in self.slots.iter().enumerate() {
            if conn.is_some() && self.inflight[i].is_none() {
                return Some(i);
            }
        }
        if self.spawned >= self.spawn_budget() {
            return None;
        }
        let empty = (0..self.slots.len()).find(|&i| self.slots[i].is_none())?;
        match self.spawn_worker(empty) {
            Ok(()) => Some(empty),
            Err(_) => None,
        }
    }

    fn spawn_worker(&mut self, slot: usize) -> Result<(), ()> {
        let command = self.cfg.command.as_ref().ok_or(())?;
        self.spawned += 1;
        let generation = self.spawned;
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &self.cfg.envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().map_err(|_| ())?;
        let mut stdin = child.stdin.take().ok_or(())?;
        let stdout = child.stdout.take().ok_or(())?;
        let hello = ToWorker::Hello {
            exec: self.ctx.exec,
            granularity: self.ctx.granularity,
        };
        if write_frame(&mut stdin, &hello.encode()).is_err() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(());
        }
        let pid = child.id();
        let msg_tx = self.msg_tx.clone();
        std::thread::spawn(move || {
            let mut stdout = stdout;
            // EOF, a read error or an undecodable frame all end the same
            // way: the worker is unusable.
            while let Ok(Some(payload)) = read_frame(&mut stdout) {
                let Ok(frame) = FromWorker::decode(&payload) else {
                    break;
                };
                let msg = WorkerMsg::Frame {
                    slot,
                    generation,
                    frame,
                };
                if msg_tx.send(msg).is_err() {
                    return;
                }
            }
            let _ = msg_tx.send(WorkerMsg::Dead { slot, generation });
        });
        emit(
            &self.events,
            EngineEvent::WorkerSpawned { worker: slot, pid },
        );
        self.slots[slot] = Some(WorkerConn {
            child,
            stdin: Some(stdin),
            pid,
            generation,
            sent_stands: Default::default(),
            sent_scripts: Default::default(),
        });
        Ok(())
    }

    fn on_frame(
        &mut self,
        slot: usize,
        frame: FromWorker,
        queue: &mut VecDeque<(PackagedJob, usize)>,
    ) {
        match frame {
            FromWorker::Ready { .. } => {}
            FromWorker::Event(event) => emit(&self.events, event),
            FromWorker::Done { job, record } => {
                let Some(inflight) = self.inflight[slot].take() else {
                    // A result with nothing in flight: protocol breach.
                    self.on_death(slot, queue);
                    return;
                };
                let outcomes = match inflight.job.job == job {
                    true => decode_result(&inflight.job, &record),
                    false => Err(format!(
                        "result for job {job}, expected {}",
                        inflight.job.job
                    )),
                };
                match outcomes {
                    Ok(outcomes) => finish_remote(
                        inflight.job,
                        outcomes,
                        inflight.dispatched.elapsed(),
                        &self.ctx,
                        &self.results,
                    ),
                    Err(_) => {
                        // The worker is lying or corrupt. Retry the job
                        // elsewhere.
                        self.inflight[slot] = Some(inflight);
                        self.on_death(slot, queue);
                    }
                }
            }
            FromWorker::Error { message } => {
                eprintln!("comptest worker {slot}: {message}");
                self.on_death(slot, queue);
            }
        }
    }

    /// Retires the worker in `slot`: reap the child, surface `WorkerLost`,
    /// and retry (with backoff) or report the in-flight job lost.
    fn on_death(&mut self, slot: usize, queue: &mut VecDeque<(PackagedJob, usize)>) {
        let Some(mut conn) = self.slots[slot].take() else {
            return;
        };
        drop(conn.stdin.take());
        let _ = conn.child.kill();
        let _ = conn.child.wait();
        emit(
            &self.events,
            EngineEvent::WorkerLost {
                worker: slot,
                pid: conn.pid,
            },
        );
        if let Some(inflight) = self.inflight[slot].take() {
            let attempts = inflight.attempts + 1;
            if attempts <= self.cfg.retry_limit {
                self.ctx.obs.inc(Counter::JobsRetried);
                // Exponential backoff before the retry lands on a
                // surviving (or respawned) worker.
                let exp = u32::try_from(attempts.saturating_sub(1)).unwrap_or(u32::MAX);
                std::thread::sleep(self.cfg.backoff.saturating_mul(1 << exp.min(8)));
                queue.push_front((inflight.job, attempts));
            } else {
                let label = label(&inflight.job, self.ctx.granularity);
                let _ = self.results.send(JobMsg::Lost(label));
            }
        }
    }

    /// In-process degradation inside a panic catch: a panicking DUT model
    /// must surface as a lost job (with its label), never tear down the
    /// orchestrator — the behaviour `catches_lost_jobs` conformance pins.
    fn run_local_caught(&self, job: PackagedJob) {
        let label = label(&job, self.ctx.granularity);
        let (ctx, events, results) = (&self.ctx, &self.events, &self.results);
        if catch_unwind(AssertUnwindSafe(|| execute(job, ctx, events, results))).is_err() {
            // Rebalance the gauge the panicking job left claimed.
            ctx.obs.gauge_add(Gauge::InflightJobs, -1);
            let _ = results.send(JobMsg::Lost(label));
        }
    }

    /// Cooperative cancel fan-out / end-of-campaign teardown: `Shutdown`
    /// frame, close stdin, grace window, SIGTERM, hard kill.
    fn shutdown(mut self) {
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            let _ = conn.write_frames(&[ToWorker::Shutdown]);
            drop(conn.stdin.take());
        }
        let deadline = Instant::now() + GRACE;
        loop {
            let mut alive = false;
            for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
                match conn.child.try_wait() {
                    Ok(Some(_)) => {}
                    _ => alive = true,
                }
            }
            if !alive {
                return;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Grace expired: escalate. The engine forbids unsafe code, so
        // SIGTERM goes through the `kill` utility; the hard kill is the
        // portable std fallback.
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            if matches!(conn.child.try_wait(), Ok(Some(_))) {
                continue;
            }
            let _ = Command::new("kill")
                .args(["-TERM", &conn.pid.to_string()])
                .status();
        }
        let term_deadline = Instant::now() + GRACE;
        while Instant::now() < term_deadline {
            if self
                .slots
                .iter_mut()
                .filter_map(Option::as_mut)
                .all(|c| matches!(c.child.try_wait(), Ok(Some(_))))
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            let _ = conn.child.kill();
            let _ = conn.child.wait();
        }
    }
}
