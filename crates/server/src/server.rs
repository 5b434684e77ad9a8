//! The resident campaign service: admission queue, one shared executor,
//! per-tenant event hubs, graceful drain.
//!
//! One [`Server`] owns everything expensive exactly once — the bundled
//! suites, one lane-fair sharded [`AsyncExecutor`] (`workers` threads,
//! whatever [`ExecutorChoice`](crate::ExecutorChoice) a submission
//! names) and (optionally) a shared [`DirCache`] — and multiplexes every
//! submitted campaign onto them. Each submission becomes a *tenant*: a
//! stable [`CampaignId`], a private [`CancelToken`], a private enabled
//! [`Recorder`] (so `metrics` answers per tenant, not per process) and an
//! [`EventHub`] that replays history to late subscribers. A campaign's
//! lane is its id, so concurrently running tenants interleave
//! round-robin on the shared threads instead of convoying.
//!
//! Lifecycle: `submit` enqueues (`Queued`) and, while fewer than
//! `max_active` campaigns run, starts a runner thread on the next queued
//! one (`Running`). A runner launches its campaign, joins it, renders the
//! verdict frame (`Done`) or the error frame (`Failed`), then takes the
//! next queued campaign; when the queue is empty it releases its slot and
//! exits. There is no scheduler thread, so an idle daemon runs only its
//! accept loop and the executor's shard threads. A cancel on a queued
//! tenant resolves it to `Cancelled` without ever launching; on a running
//! tenant it trips the token and the verdict still carries its
//! cancelled-job count. Clients are entirely decoupled from this: a
//! dropped watch connection only drops a hub subscriber, never the
//! campaign.
//!
//! A terminal tenant keeps only what the wire can still ask for: its
//! hub's history and terminal [`ResultFrame`] (which `fetch` serves too)
//! and its recorder frozen into a [`MetricsSnapshot`] (which `metrics`
//! serves). The result matrix, test traces and the recorder's span
//! buffer are released when the campaign finishes, so a long-lived
//! daemon does not grow with the traces of every campaign it ran.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use comptest_core::campaign::CampaignEntry;
use comptest_core::service::{CampaignId, CampaignState};
use comptest_dut::ecus;
use comptest_engine::codec::{self, Value};
use comptest_engine::{
    AsyncExecutor, Campaign, CampaignCache, CampaignOutcome, CancelToken, DirCache, EngineEvent,
    MetricsSnapshot, Recorder,
};
use comptest_model::TestSuite;
use comptest_sheets::Workbook;
use comptest_stand::TestStand;

use crate::protocol::{CampaignSpec, Frame, ResultFrame, StatusRow};
use crate::signals;

/// How a [`Server`] is provisioned. Everything here is shared by all
/// tenants for the process lifetime.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding the bundled `<ecu>.cts` workbooks (the facade's
    /// `assets/` in the stock layout).
    pub assets_dir: PathBuf,
    /// OS threads of the shared executor: its event loop is sharded over
    /// as many, and they serve every tenant.
    pub workers: usize,
    /// In-flight run limit of the shared executor, split over its
    /// `workers` shards and shared by every running tenant, whichever
    /// executor choice it submitted.
    pub concurrency: usize,
    /// Campaigns allowed to run simultaneously; further submissions wait
    /// in the admission queue. `1` serialises campaigns (and makes
    /// queued-cancel deterministic — the conformance suite relies on it).
    pub max_active: usize,
    /// Optional shared on-disk cell cache, consulted by every submission
    /// that asks for caching.
    pub cache_dir: Option<PathBuf>,
}

impl ServeConfig {
    /// A config with stock sizing: 4 workers, 64 async slots, 4 active
    /// campaigns, no cache.
    pub fn new(assets_dir: impl Into<PathBuf>) -> Self {
        Self {
            assets_dir: assets_dir.into(),
            workers: 4,
            concurrency: 64,
            max_active: 4,
            cache_dir: None,
        }
    }
}

/// One message from a campaign's [`EventHub`] to a subscriber.
#[derive(Debug, Clone)]
pub enum HubMsg {
    /// A live (or replayed) engine event.
    Event(EngineEvent),
    /// The terminal verdict; always the last message a subscriber sees.
    Done(ResultFrame),
}

/// A per-campaign event fan-out with replay: subscribers joining late
/// first receive the full history, then live events, then the terminal
/// [`HubMsg::Done`]. Publishing never blocks on slow subscribers
/// (channels are unbounded) and a dropped subscriber is silently
/// retired — the campaign outlives its watchers.
#[derive(Debug, Default)]
pub struct EventHub {
    inner: Mutex<HubInner>,
}

#[derive(Debug, Default)]
struct HubInner {
    history: Vec<EngineEvent>,
    done: Option<ResultFrame>,
    subs: Vec<Sender<HubMsg>>,
}

impl EventHub {
    fn new() -> Self {
        Self::default()
    }

    /// Subscribes, replaying history (and the verdict, if the campaign
    /// already finished) before any live event. The single lock makes
    /// replay-then-live gapless: no event can slip between the replay
    /// and the subscription.
    pub fn subscribe(&self) -> Receiver<HubMsg> {
        let (tx, rx) = channel();
        let mut inner = self.inner.lock().expect("event hub lock");
        for event in &inner.history {
            let _ = tx.send(HubMsg::Event(event.clone()));
        }
        match &inner.done {
            Some(done) => {
                let _ = tx.send(HubMsg::Done(done.clone()));
            }
            None => inner.subs.push(tx),
        }
        rx
    }

    fn publish(&self, event: EngineEvent) {
        let mut inner = self.inner.lock().expect("event hub lock");
        inner
            .subs
            .retain(|sub| sub.send(HubMsg::Event(event.clone())).is_ok());
        inner.history.push(event);
    }

    fn finish(&self, frame: ResultFrame) {
        let mut inner = self.inner.lock().expect("event hub lock");
        for sub in inner.subs.drain(..) {
            let _ = sub.send(HubMsg::Done(frame.clone()));
        }
        inner.done = Some(frame);
    }

    /// The terminal verdict, once the campaign finished.
    fn verdict(&self) -> Option<ResultFrame> {
        self.inner.lock().expect("event hub lock").done.clone()
    }
}

/// A validated submission, detached from the wire spec: stands are
/// loaded eagerly at submit time (so path errors surface to the
/// submitting client, not into a `Failed` state later), suites resolved
/// to indices into the server's bundled set.
#[derive(Debug)]
struct Submission {
    suite_indices: Vec<usize>,
    stands: Vec<TestStand>,
    granularity: comptest_engine::Granularity,
    stop_on_first_fail: bool,
    use_cache: bool,
}

#[derive(Debug)]
struct Tenant {
    state: CampaignState,
    /// Present while `Queued`; taken by the runner that launches it.
    job: Option<Submission>,
    cancel: CancelToken,
    obs: TenantMetrics,
    /// Holds the terminal frame once `state` is terminal; both are set
    /// under the service state lock, so they never disagree.
    hub: Arc<EventHub>,
}

impl Tenant {
    /// Moves the tenant to terminal `state` with its verdict `frame`:
    /// the hub gets the frame (subscribers, replay and `fetch` all serve
    /// it) and the recorder is frozen. Called under the service state
    /// lock.
    fn finish(&mut self, state: CampaignState, frame: ResultFrame) {
        self.state = state;
        self.job = None;
        self.obs.freeze();
        self.hub.finish(frame);
    }
}

/// A tenant's metrics: a live recorder while the campaign can still
/// record, its final snapshot once the campaign is terminal.
#[derive(Debug)]
enum TenantMetrics {
    Live(Recorder),
    Frozen(MetricsSnapshot),
}

impl TenantMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        match self {
            TenantMetrics::Live(obs) => obs.metrics().expect("tenant recorders are enabled"),
            TenantMetrics::Frozen(snapshot) => snapshot.clone(),
        }
    }

    /// Replaces the recorder (registry and span buffer) with its
    /// snapshot. The runner joined before this, so nothing records into
    /// it any more.
    fn freeze(&mut self) {
        *self = TenantMetrics::Frozen(self.snapshot());
    }
}

#[derive(Debug, Default)]
struct ServiceState {
    tenants: BTreeMap<CampaignId, Tenant>,
    queue: VecDeque<CampaignId>,
    /// Runner threads alive: each runs one campaign at a time, at most
    /// `max_active` of them.
    active: usize,
    next_id: u64,
    draining: bool,
}

#[derive(Debug)]
struct Inner {
    cfg: ServeConfig,
    suites: Vec<TestSuite>,
    suite_names: Vec<String>,
    executor: AsyncExecutor,
    cache: Option<Arc<DirCache>>,
    state: Mutex<ServiceState>,
    /// Notified when a runner releases its slot; [`Server::drain`] waits
    /// on it for `active == 0`.
    idle: Condvar,
    /// Connection frames currently being handled (request dispatched, or
    /// response not yet flushed). [`Server::run`] waits for this to reach
    /// zero before draining on SIGTERM/SIGINT, so a submission accepted
    /// just before the signal still gets its `submitted` response written
    /// instead of the process exiting with the reply half-flushed.
    admissions: Mutex<usize>,
    admissions_cv: Condvar,
}

/// The resident campaign service. Cheap to clone (connection threads
/// each hold one); all clones share the same state. Create with
/// [`Server::new`], serve sockets with [`Server::run`] or drive it
/// in-process through [`submit`](Server::submit) /
/// [`subscribe`](Server::subscribe) / [`fetch`](Server::fetch) — the
/// conformance tests do both.
#[derive(Debug, Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Builds the service: loads every bundled suite once, opens the
    /// shared cache (if configured) and sets up the one shared executor,
    /// whose `workers` threads start on the first launch. No thread runs
    /// until a campaign is submitted.
    ///
    /// # Errors
    ///
    /// Returns a rendered error if a bundled workbook fails to load or
    /// the cache directory cannot be opened.
    pub fn new(mut cfg: ServeConfig) -> Result<Self, String> {
        cfg.workers = cfg.workers.max(1);
        cfg.concurrency = cfg.concurrency.max(1);
        cfg.max_active = cfg.max_active.max(1);
        let mut suites = Vec::new();
        let mut suite_names = Vec::new();
        for ecu in ecus::NAMES {
            let path = cfg.assets_dir.join(format!("{ecu}.cts"));
            let workbook = Workbook::load(&path)
                .map_err(|e| format!("loading bundled suite {}: {e}", path.display()))?;
            suites.push(workbook.suite);
            suite_names.push(ecu.to_owned());
        }
        let cache = match &cfg.cache_dir {
            Some(dir) => {
                Some(Arc::new(DirCache::open(dir).map_err(|e| {
                    format!("opening cache {}: {e}", dir.display())
                })?))
            }
            None => None,
        };
        let inner = Arc::new(Inner {
            executor: AsyncExecutor::new(cfg.concurrency).sharded(cfg.workers),
            cfg,
            suites,
            suite_names,
            cache,
            state: Mutex::new(ServiceState {
                next_id: 1,
                ..ServiceState::default()
            }),
            idle: Condvar::new(),
            admissions: Mutex::new(0),
            admissions_cv: Condvar::new(),
        });
        Ok(Self { inner })
    }

    /// The config the server was built with (sizes normalised to ≥ 1).
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// The bundled suite names this server can run.
    pub fn suite_names(&self) -> &[String] {
        &self.inner.suite_names
    }

    /// Validates and enqueues a submission, returning its stable id.
    /// Stand files load now (errors surface here); execution starts at
    /// once if fewer than `max_active` campaigns run, else when a runner
    /// finishes the campaigns queued before it.
    ///
    /// # Errors
    ///
    /// Returns a rendered error for an empty stand list, an unknown
    /// suite name, an unloadable stand file, or a draining server.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<CampaignId, String> {
        let id = self.enqueue(spec)?;
        self.start_runners();
        Ok(id)
    }

    /// [`submit`](Server::submit) without starting a runner: the
    /// connection handler replies `submitted` first and then calls
    /// [`start_runners`](Server::start_runners), so the launch's planning
    /// does not compete with the reply (a burst of submissions would
    /// otherwise reach the daemon spread out by the launches it causes).
    fn enqueue(&self, spec: &CampaignSpec) -> Result<CampaignId, String> {
        if spec.stands.is_empty() {
            return Err("a submission needs at least one stand path".to_owned());
        }
        let suite_indices: Vec<usize> = if spec.suites.is_empty() {
            (0..self.inner.suites.len()).collect()
        } else {
            spec.suites
                .iter()
                .map(|name| {
                    self.inner
                        .suite_names
                        .iter()
                        .position(|bundled| bundled == name)
                        .ok_or_else(|| {
                            format!(
                                "unknown suite {name:?} (bundled: {})",
                                self.inner.suite_names.join(", ")
                            )
                        })
                })
                .collect::<Result<_, _>>()?
        };
        let stands = spec
            .stands
            .iter()
            .map(|path| TestStand::load(path).map_err(|e| format!("loading stand {path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let job = Submission {
            suite_indices,
            stands,
            granularity: spec.granularity,
            stop_on_first_fail: spec.stop_on_first_fail,
            use_cache: spec.cache,
        };
        let mut st = self.inner.state.lock().expect("service state lock");
        if st.draining {
            return Err("server is shutting down".to_owned());
        }
        let id = CampaignId(st.next_id);
        st.next_id += 1;
        st.tenants.insert(
            id,
            Tenant {
                state: CampaignState::Queued,
                job: Some(job),
                cancel: CancelToken::new(),
                obs: TenantMetrics::Live(Recorder::enabled()),
                hub: Arc::new(EventHub::new()),
            },
        );
        st.queue.push_back(id);
        Ok(id)
    }

    /// Starts a runner on the next queued campaign while fewer than
    /// `max_active` run. A runner that finishes its campaign takes the
    /// next one itself (see [`run_queue`]), so only a submission can find
    /// a free slot.
    fn start_runners(&self) {
        let mut st = self.inner.state.lock().expect("service state lock");
        while st.active < self.inner.cfg.max_active {
            let Some(launch) = next_launch(&mut st) else {
                return;
            };
            st.active += 1;
            let inner = self.inner.clone();
            std::thread::spawn(move || run_queue(inner, launch));
        }
    }

    /// Subscribes to a campaign's events: full replay, then live, then
    /// the terminal [`HubMsg::Done`].
    ///
    /// # Errors
    ///
    /// Returns a rendered error for an unknown id.
    pub fn subscribe(&self, id: CampaignId) -> Result<Receiver<HubMsg>, String> {
        let hub = {
            let st = self.inner.state.lock().expect("service state lock");
            st.tenants
                .get(&id)
                .ok_or_else(|| format!("unknown campaign id {id}"))?
                .hub
                .clone()
        };
        Ok(hub.subscribe())
    }

    /// Cancels a campaign. Queued: it resolves to `Cancelled` and never
    /// launches. Running: its token trips and the drained verdict
    /// carries the cancelled-job count as usual. Terminal states ignore
    /// the cancel (idempotent).
    ///
    /// # Errors
    ///
    /// Returns a rendered error for an unknown id.
    pub fn cancel(&self, id: CampaignId) -> Result<(), String> {
        let mut st = self.inner.state.lock().expect("service state lock");
        let tenant = st
            .tenants
            .get_mut(&id)
            .ok_or_else(|| format!("unknown campaign id {id}"))?;
        match tenant.state {
            CampaignState::Queued => {
                tenant.finish(CampaignState::Cancelled, cancelled_frame(id));
                st.queue.retain(|queued| *queued != id);
            }
            CampaignState::Running => tenant.cancel.cancel(),
            _ => {}
        }
        Ok(())
    }

    /// The verdict for `id` as a wire frame: `result` when terminal (the
    /// very frame its watchers received), `pending` while
    /// queued/running, `error` for an unknown id. This is what makes
    /// verdicts survive client disconnects — any client can fetch by id
    /// for the rest of the server's life.
    pub fn fetch(&self, id: CampaignId) -> Frame {
        let (hub, state) = {
            let st = self.inner.state.lock().expect("service state lock");
            match st.tenants.get(&id) {
                Some(tenant) => (tenant.hub.clone(), tenant.state.name()),
                None => {
                    return Frame::Error {
                        message: format!("unknown campaign id {id}"),
                    }
                }
            }
        };
        // A tenant's frame is set with its terminal state, so a missing
        // frame means the state read above was live.
        match hub.verdict() {
            Some(frame) => Frame::Result(frame),
            None => Frame::Pending {
                id,
                state: state.to_owned(),
            },
        }
    }

    /// Every known campaign's lifecycle state, in id (= submission)
    /// order.
    pub fn status_rows(&self) -> Vec<StatusRow> {
        let st = self.inner.state.lock().expect("service state lock");
        st.tenants
            .iter()
            .map(|(id, tenant)| StatusRow {
                id: *id,
                state: tenant.state.name().to_owned(),
            })
            .collect()
    }

    /// One campaign's metrics snapshot (counters, gauges, phase timers,
    /// histograms) as a JSON value — each tenant has its own recorder,
    /// so the numbers are per-campaign even under concurrency. A
    /// terminal campaign answers with the snapshot its recorder was
    /// frozen into when it finished.
    ///
    /// # Errors
    ///
    /// Returns a rendered error for an unknown id.
    pub fn metrics(&self, id: CampaignId) -> Result<Value, String> {
        let snapshot = {
            let st = self.inner.state.lock().expect("service state lock");
            st.tenants
                .get(&id)
                .ok_or_else(|| format!("unknown campaign id {id}"))?
                .obs
                .snapshot()
        };
        codec::parse(&snapshot.to_json()).map_err(|e| e.0)
    }

    /// True once shutdown has begun (no new submissions are accepted).
    pub fn is_draining(&self) -> bool {
        self.inner
            .state
            .lock()
            .expect("service state lock")
            .draining
    }

    /// Begins graceful shutdown: refuses new submissions, resolves every
    /// queued campaign to `Cancelled`, trips every running campaign's
    /// token. Does not wait — pair with [`drain`](Server::drain).
    pub fn begin_shutdown(&self) {
        let mut st = self.inner.state.lock().expect("service state lock");
        st.draining = true;
        while let Some(id) = st.queue.pop_front() {
            if let Some(tenant) = st.tenants.get_mut(&id) {
                if tenant.state == CampaignState::Queued {
                    tenant.finish(CampaignState::Cancelled, cancelled_frame(id));
                }
            }
        }
        for tenant in st.tenants.values() {
            if tenant.state == CampaignState::Running {
                tenant.cancel.cancel();
            }
        }
    }

    /// Waits until no runner is left, so every campaign that was running
    /// has its terminal verdict. Call after
    /// [`begin_shutdown`](Server::begin_shutdown): the queue is then
    /// empty, and in-flight campaigns drain cooperatively (their verdicts
    /// still carry their cancelled-job counts).
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().expect("service state lock");
        while st.active > 0 {
            st = self.inner.idle.wait(st).expect("service state lock");
        }
    }

    /// [`begin_shutdown`](Server::begin_shutdown) + [`drain`](Server::drain).
    pub fn shutdown(&self) {
        self.begin_shutdown();
        self.drain();
    }

    /// Marks one connection frame as in flight — held from decode through
    /// the response flush, so [`Server::run`] will not tear the process
    /// down between a dispatched `submit` and its `submitted` reply.
    fn begin_admission(&self) -> AdmissionGuard<'_> {
        *self.inner.admissions.lock().expect("admissions lock") += 1;
        AdmissionGuard { inner: &self.inner }
    }

    /// Waits (bounded) for every in-flight connection frame to finish.
    /// The bound keeps a wedged client from holding shutdown hostage.
    fn await_admissions(&self, timeout: Duration) {
        let pending = self.inner.admissions.lock().expect("admissions lock");
        let _ = self
            .inner
            .admissions_cv
            .wait_timeout_while(pending, timeout, |pending| *pending > 0)
            .expect("admissions lock");
    }

    /// Serves connections on `listener` until a `shutdown` frame arrives
    /// or a SIGINT/SIGTERM is observed (see [`signals`]), then drains
    /// and returns. Each connection gets its own thread; the listener is
    /// polled non-blockingly so shutdown is noticed within ~20 ms.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener cannot be polled.
    pub fn run(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if signals::triggered() {
                self.begin_shutdown();
            }
            if self.is_draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(false);
                    // Small frames + request/response: without nodelay,
                    // Nagle + delayed ACK adds ~40 ms per round-trip.
                    let _ = stream.set_nodelay(true);
                    let server = self.clone();
                    std::thread::spawn(move || handle_connection(server, stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Final backlog sweep: clients that connected before the signal
        // but were not yet accepted would otherwise see a reset when the
        // listener drops. They get a thread like everyone else — whose
        // submits now resolve to a clean `draining` refusal.
        while let Ok((stream, _peer)) = listener.accept() {
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_nodelay(true);
            let server = self.clone();
            std::thread::spawn(move || handle_connection(server, stream));
        }
        // Let in-flight connection frames finish before draining: a
        // submit dispatched just before the signal must flush its
        // `submitted` response (and an already-admitted campaign then
        // drains to a stored verdict like any other). The short sleep
        // lets connection threads pick frames already in their socket
        // buffers out and register them before the admission count is
        // consulted.
        std::thread::sleep(Duration::from_millis(50));
        self.await_admissions(Duration::from_secs(5));
        self.drain();
        Ok(())
    }
}

/// RAII for [`Server::begin_admission`].
struct AdmissionGuard<'a> {
    inner: &'a Inner,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut pending = self.inner.admissions.lock().expect("admissions lock");
        *pending -= 1;
        if *pending == 0 {
            self.inner.admissions_cv.notify_all();
        }
    }
}

/// A campaign taken off the queue, with what its runner needs.
struct Launch {
    id: CampaignId,
    job: Submission,
    cancel: CancelToken,
    obs: Recorder,
    hub: Arc<EventHub>,
}

/// Marks the next queued tenant `Running` and hands out its launch.
/// Called under the service state lock, by `start_runners` (which then
/// starts a runner) and by a runner that finished its campaign (which
/// keeps its slot for it). The queue holds only `Queued` tenants: a
/// cancel removes its tenant.
fn next_launch(st: &mut ServiceState) -> Option<Launch> {
    let id = st.queue.pop_front()?;
    let tenant = st.tenants.get_mut(&id).expect("queued id has a tenant");
    tenant.state = CampaignState::Running;
    let job = tenant.job.take().expect("queued tenant keeps its job");
    let TenantMetrics::Live(obs) = &tenant.obs else {
        unreachable!("a queued tenant's recorder is live")
    };
    Some(Launch {
        id,
        job,
        cancel: tenant.cancel.clone(),
        obs: obs.clone(),
        hub: tenant.hub.clone(),
    })
}

/// A runner: runs `launch`, finishes its tenant, and goes on with the
/// next queued campaign until the queue is empty; then it releases its
/// slot and wakes [`Server::drain`].
fn run_queue(inner: Arc<Inner>, mut launch: Launch) {
    loop {
        let id = launch.id;
        // A panic must not leak the slot, or `drain` would wait forever.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute_submission(&inner, &launch)))
                .unwrap_or_else(|_| Err("campaign runner panicked".to_owned()));
        let (state, frame) = match outcome {
            Ok(outcome) => (CampaignState::Done, done_frame(id, &outcome)),
            Err(message) => (
                CampaignState::Failed(message.clone()),
                failed_frame(id, message),
            ),
        };
        let mut st = inner.state.lock().expect("service state lock");
        if let Some(tenant) = st.tenants.get_mut(&id) {
            tenant.finish(state, frame);
        }
        match next_launch(&mut st) {
            Some(next) => launch = next,
            None => {
                st.active -= 1;
                inner.idle.notify_all();
                return;
            }
        }
    }
}

fn execute_submission(inner: &Inner, launch: &Launch) -> Result<CampaignOutcome, String> {
    let job = &launch.job;
    let entries: Vec<CampaignEntry<'_>> = job
        .suite_indices
        .iter()
        .map(|&idx| {
            let ecu = inner.suite_names[idx].clone();
            CampaignEntry {
                suite: &inner.suites[idx],
                device_factory: Box::new(move || {
                    ecus::device_by_name(&ecu, Default::default()).expect("bundled ECU")
                }),
            }
        })
        .collect();
    let stand_refs: Vec<&TestStand> = job.stands.iter().collect();
    let mut campaign = Campaign::new(&entries, &stand_refs)
        .granularity(job.granularity)
        .stop_on_first_fail(job.stop_on_first_fail)
        .cancel_token(launch.cancel.clone())
        .recorder(launch.obs.clone())
        // The lane is the campaign id: concurrent tenants round-robin on
        // the shared threads.
        .lane(launch.id.0);
    if job.use_cache {
        if let Some(cache) = &inner.cache {
            campaign = campaign.cache(cache.clone() as Arc<dyn CampaignCache>);
        }
    }
    let mut handle = campaign
        .launch(&inner.executor)
        .map_err(|e| e.to_string())?;
    for event in handle.events() {
        launch.hub.publish(event);
    }
    handle.join().map_err(|e| e.to_string())
}

fn done_frame(id: CampaignId, outcome: &CampaignOutcome) -> ResultFrame {
    let (passed, failed, errored, not_runnable) = outcome.result.totals();
    ResultFrame {
        id,
        state: CampaignState::Done.name().to_owned(),
        error: None,
        cancelled: outcome.cancelled as u64,
        all_green: outcome.result.all_green(),
        report: outcome.result.to_string(),
        passed: passed as u64,
        failed: failed as u64,
        errored: errored as u64,
        not_runnable: not_runnable as u64,
    }
}

fn cancelled_frame(id: CampaignId) -> ResultFrame {
    ResultFrame {
        id,
        state: CampaignState::Cancelled.name().to_owned(),
        error: None,
        cancelled: 0,
        all_green: false,
        report: String::new(),
        passed: 0,
        failed: 0,
        errored: 0,
        not_runnable: 0,
    }
}

fn failed_frame(id: CampaignId, error: String) -> ResultFrame {
    ResultFrame {
        state: CampaignState::Failed(String::new()).name().to_owned(),
        error: Some(error),
        ..cancelled_frame(id)
    }
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    let mut line = frame.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn handle_connection(server: Server, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match Frame::decode(&line) {
            Ok(frame) => frame,
            Err(e) => {
                let reply = Frame::Error {
                    message: format!("bad frame: {}", e.0),
                };
                if write_frame(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
        };
        // Held until this frame's response is flushed: a SIGTERM arriving
        // mid-dispatch waits for the reply instead of racing it.
        let _admission = server.begin_admission();
        let keep = match frame {
            Frame::Submit(spec) => match server.enqueue(&spec) {
                Ok(id) => {
                    let replied = write_frame(&mut writer, &Frame::Submitted { id }).is_ok();
                    server.start_runners();
                    replied && (!spec.watch || stream_campaign(&server, &mut writer, id))
                }
                Err(message) => write_frame(&mut writer, &Frame::Error { message }).is_ok(),
            },
            Frame::Watch { id } => stream_campaign(&server, &mut writer, id),
            Frame::Fetch { id } => write_frame(&mut writer, &server.fetch(id)).is_ok(),
            Frame::Cancel { id } => {
                let reply = match server.cancel(id) {
                    Ok(()) => Frame::Ok,
                    Err(message) => Frame::Error { message },
                };
                write_frame(&mut writer, &reply).is_ok()
            }
            Frame::Status => write_frame(
                &mut writer,
                &Frame::Status2 {
                    rows: server.status_rows(),
                },
            )
            .is_ok(),
            Frame::Metrics { id } => {
                let reply = match server.metrics(id) {
                    Ok(metrics) => Frame::MetricsReply { id, metrics },
                    Err(message) => Frame::Error { message },
                };
                write_frame(&mut writer, &reply).is_ok()
            }
            Frame::Shutdown => {
                let ok = write_frame(&mut writer, &Frame::Ok).is_ok();
                server.begin_shutdown();
                ok
            }
            Frame::Ping => write_frame(&mut writer, &Frame::Pong).is_ok(),
            _ => write_frame(
                &mut writer,
                &Frame::Error {
                    message: "unexpected response frame".to_owned(),
                },
            )
            .is_ok(),
        };
        if !keep {
            return;
        }
    }
}

/// Streams one campaign to one connection: replayed + live `event`
/// frames, then the `result`. A write failure (client gone) just drops
/// the subscription; the campaign keeps running.
fn stream_campaign(server: &Server, writer: &mut TcpStream, id: CampaignId) -> bool {
    let rx = match server.subscribe(id) {
        Ok(rx) => rx,
        Err(message) => return write_frame(writer, &Frame::Error { message }).is_ok(),
    };
    for msg in rx {
        let ok = match msg {
            HubMsg::Event(event) => write_frame(writer, &Frame::Event { id, event }).is_ok(),
            HubMsg::Done(result) => return write_frame(writer, &Frame::Result(result)).is_ok(),
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // Socket-level coverage lives in tests/server_conformance.rs (its
    // own process, away from the signal-flag unit test). These cover
    // the hub's replay contract and the tenant lifecycle in process.

    #[test]
    fn hub_replays_history_and_verdict_to_late_subscribers() {
        let hub = EventHub::new();
        let event = EngineEvent::JobStarted {
            cell: 0,
            suite: "s".into(),
            stand: "t".into(),
        };
        let live = hub.subscribe();
        hub.publish(event.clone());
        hub.finish(cancelled_frame(CampaignId(1)));
        let late = hub.subscribe();
        for rx in [live, late] {
            let msgs: Vec<HubMsg> = rx.into_iter().collect();
            assert_eq!(msgs.len(), 2);
            assert!(matches!(&msgs[0], HubMsg::Event(e) if *e == event));
            assert!(matches!(&msgs[1], HubMsg::Done(done) if done.state == "cancelled"));
        }
    }

    #[test]
    fn hub_retires_dropped_subscribers() {
        let hub = EventHub::new();
        drop(hub.subscribe());
        hub.publish(EngineEvent::JobStarted {
            cell: 0,
            suite: "s".into(),
            stand: "t".into(),
        });
        assert_eq!(hub.inner.lock().unwrap().subs.len(), 0);
        assert_eq!(hub.inner.lock().unwrap().history.len(), 1);
    }

    /// `shutdown` drains to terminal verdicts: the running campaign's
    /// token trips and it still joins a `done` verdict that counts its
    /// cancelled jobs, the queued one resolves to `cancelled` without
    /// launching, and no runner is left behind.
    #[test]
    fn shutdown_drains_running_and_queued_campaigns() {
        let assets = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        let server = Server::new(ServeConfig {
            workers: 1,
            max_active: 1,
            ..ServeConfig::new(assets.clone())
        })
        .unwrap();
        let stand = |name: &str| assets.join(name).display().to_string();
        let wide = CampaignSpec {
            stands: vec![stand("stand_a.stand"), stand("stand_b.stand")],
            granularity: comptest_engine::Granularity::Test,
            cache: false,
            ..CampaignSpec::default()
        };
        let running = server.submit(&wide).unwrap();
        let queued = server.submit(&wide).unwrap();
        assert_eq!(server.fetch(running).encode(), pending(running, "running"));
        assert_eq!(server.fetch(queued).encode(), pending(queued, "queued"));
        server.shutdown();

        let Frame::Result(verdict) = server.fetch(running) else {
            panic!("a drained campaign must be terminal");
        };
        assert_eq!(verdict.state, "done");
        assert!(verdict.cancelled > 0, "the tripped token skips jobs");
        let Frame::Result(verdict) = server.fetch(queued) else {
            panic!("a queued campaign must resolve at shutdown");
        };
        assert_eq!(verdict.state, "cancelled");
        assert!(verdict.report.is_empty(), "never launched, no report");
        for row in server.status_rows() {
            assert!(
                matches!(row.state.as_str(), "done" | "cancelled"),
                "{}: {}",
                row.id,
                row.state
            );
        }
        assert_eq!(server.inner.state.lock().unwrap().active, 0);
        assert_eq!(server.submit(&wide).unwrap_err(), "server is shutting down");
    }

    fn pending(id: CampaignId, state: &str) -> String {
        Frame::Pending {
            id,
            state: state.to_owned(),
        }
        .encode()
    }

    /// A finished tenant keeps its verdict frame and a frozen metrics
    /// snapshot, not its result matrix or recorder: `fetch` answers with
    /// the very frame the campaign streamed, `metrics` with a snapshot
    /// that no longer moves, for every terminal state.
    #[test]
    fn finished_tenants_keep_their_verdict_frame() {
        let assets = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        let server = Server::new(ServeConfig {
            workers: 1,
            max_active: 1,
            ..ServeConfig::new(assets.clone())
        })
        .unwrap();
        let stand = |name: &str| assets.join(name).display().to_string();
        let spec = CampaignSpec {
            stands: vec![stand("stand_b.stand")],
            suites: vec!["interior_light".into()],
            cache: false,
            ..CampaignSpec::default()
        };
        // The first campaign runs the whole bundled matrix, so a
        // submission made while it runs is still queued when cancelled.
        let wide = CampaignSpec {
            stands: vec![stand("stand_a.stand"), stand("stand_b.stand")],
            suites: Vec::new(),
            ..spec.clone()
        };
        let done = |rx: Receiver<HubMsg>| match rx.into_iter().last() {
            Some(HubMsg::Done(frame)) => frame,
            other => panic!("no terminal frame, got {other:?}"),
        };
        const CAMPAIGNS: usize = 24;
        let mut streamed: Vec<(CampaignId, ResultFrame)> = Vec::new();
        for i in 0..CAMPAIGNS {
            let id = server.submit(if i == 0 { &wide } else { &spec }).unwrap();
            let live = server.subscribe(id).unwrap();
            if i == 0 {
                let queued = server.submit(&spec).unwrap();
                server.cancel(queued).unwrap();
                streamed.push((queued, done(server.subscribe(queued).unwrap())));
            }
            streamed.push((id, done(live)));
        }
        assert_eq!(streamed[0].1.state, "cancelled", "cancelled while queued");
        assert!(streamed[1..].iter().all(|(_, frame)| frame.state == "done"));

        let counter = |metrics: &Value, name: &str| {
            metrics
                .field("counters")
                .unwrap()
                .as_object()
                .unwrap()
                .get(name)
                .map_or(0, |n| n.as_u64().unwrap())
        };
        for (id, frame) in &streamed {
            assert_eq!(
                server.fetch(*id).encode(),
                Frame::Result(frame.clone()).encode(),
                "{id}: fetch must serve the streamed frame"
            );
            let metrics = server.metrics(*id).unwrap();
            assert_eq!(server.metrics(*id).unwrap(), metrics, "{id}");
            assert_eq!(
                counter(&metrics, "jobs_planned") > 0,
                frame.state == "done",
                "{id}: a launched campaign's snapshot counts its jobs"
            );
            assert_eq!(
                counter(&metrics, "jobs_executed")
                    + counter(&metrics, "jobs_cached")
                    + counter(&metrics, "jobs_cancelled"),
                counter(&metrics, "jobs_planned"),
                "{id}"
            );
            assert_eq!(
                counter(&metrics, "spans_opened"),
                counter(&metrics, "spans_closed"),
                "{id}"
            );
        }
        let st = server.inner.state.lock().unwrap();
        assert_eq!(st.tenants.len(), CAMPAIGNS + 1);
        for (id, tenant) in &st.tenants {
            assert!(tenant.state.is_terminal(), "{id}");
            assert!(
                matches!(tenant.obs, TenantMetrics::Frozen(_)),
                "{id} still holds a live recorder"
            );
        }
        drop(st);
        server.shutdown();
    }
}
