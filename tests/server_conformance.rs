//! The server conformance suite: `comptest serve` must be a transparent
//! multiplexer, never a different engine.
//!
//! Each test boots a real daemon on a loopback socket and drives it
//! through the wire [`Client`], proving the service contract end to end:
//!
//! * **byte-identity** — a served verdict's report is the exact
//!   `CampaignResult` rendering a local `SerialExecutor` produces for
//!   the same matrix, per granularity × cache off/cold/warm, and on the
//!   shared async executor;
//! * **fairness** — a burst of campaigns multiplexed onto one shared
//!   single-thread executor, pooled or async, makes progress on *every*
//!   campaign (lane round-robin, no starvation): when the first verdict
//!   lands, every other campaign has already executed work;
//! * **disconnect survival** — dropping a watching connection mid-stream
//!   neither kills nor stalls the campaign; any later connection fetches
//!   the verdict by id;
//! * **cancel over the wire** — a queued campaign cancels without ever
//!   launching (`cancelled`, empty report); a running campaign drains
//!   cooperatively into a `done` verdict with a nonzero cancelled-job
//!   count that stays fetchable.

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comptest::prelude::*;
use comptest::server::{CampaignSpec, Client, ExecutorChoice, Fetched, Frame, ServeConfig, Server};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Minimal scoped temp directory (no tempfile crate in the container).
struct TempDir {
    path: std::path::PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "comptest-server-conformance-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        Self { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A daemon on a loopback socket, drained on drop.
struct TestServer {
    server: Server,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(cfg: ServeConfig) -> Self {
        let server = Server::new(cfg).expect("server builds");
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("local addr");
        let run = server.clone();
        let thread = std::thread::spawn(move || run.run(listener).expect("serve loop"));
        Self {
            server,
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.begin_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn stand_paths() -> Vec<String> {
    ["stand_a.stand", "stand_b.stand"]
        .iter()
        .map(|name| comptest::asset(name).display().to_string())
        .collect()
}

/// Writes `n` clones of the paper's stand A with distinct names into
/// `dir`, returning their paths. Widening the stand axis is how the
/// cancellation/fairness tests get a deterministically *long* campaign
/// (hundreds of jobs on one worker) out of the fixed bundled suites.
fn cloned_stand_paths(dir: &TempDir, n: usize) -> Vec<String> {
    let template =
        std::fs::read_to_string(comptest::asset("stand_a.stand")).expect("stand template");
    (0..n)
        .map(|i| {
            let path = dir.path.join(format!("stand_{i:02}.stand"));
            let body = template.replace("name = HIL-A", &format!("name = HIL-{i:02}"));
            std::fs::write(&path, body).expect("write cloned stand");
            path.display().to_string()
        })
        .collect()
}

/// The local reference: the same matrix run directly on the serial
/// executor — the byte-identity anchor every served verdict must match.
fn reference(
    granularity: Granularity,
    paths: &[String],
) -> (String, (usize, usize, usize, usize), bool) {
    let suites = comptest::load_bundled_suites().expect("bundled suites");
    let entries = comptest::bundled_entries(&suites);
    let stands: Vec<TestStand> = paths
        .iter()
        .map(|p| TestStand::load(p).expect("stand loads"))
        .collect();
    let refs: Vec<&TestStand> = stands.iter().collect();
    let outcome = Campaign::new(&entries, &refs)
        .granularity(granularity)
        .launch(&SerialExecutor)
        .expect("reference launch")
        .join()
        .expect("reference join");
    (
        outcome.result.to_string(),
        outcome.result.totals(),
        outcome.result.all_green(),
    )
}

fn spec_for(paths: &[String], granularity: Granularity, cache: bool) -> CampaignSpec {
    CampaignSpec {
        stands: paths.to_vec(),
        granularity,
        cache,
        ..CampaignSpec::default()
    }
}

fn spec(granularity: Granularity, cache: bool) -> CampaignSpec {
    spec_for(&stand_paths(), granularity, cache)
}

// ---------------------------------------------------------------------------
// Byte-identity
// ---------------------------------------------------------------------------

#[test]
fn served_verdicts_are_byte_identical_to_local_execution() {
    let scratch = TempDir::new("identity");
    let mut cfg = ServeConfig::new(comptest::assets_dir());
    cfg.workers = 2;
    cfg.max_active = 2;
    cfg.cache_dir = Some(scratch.path.join("cache"));
    let ts = TestServer::start(cfg);

    for granularity in [Granularity::Cell, Granularity::Test] {
        let (want_report, want_totals, want_green) = reference(granularity, &stand_paths());
        // cache off, cold cache, warm cache — every mode must merge the
        // exact bytes the local serial reference produces.
        for (label, cache) in [("off", false), ("cold", true), ("warm", true)] {
            let mut client = ts.client();
            let (_, verdict) = client
                .submit_and_watch(&spec(granularity, cache), |_| {})
                .expect("served campaign");
            assert_eq!(verdict.state, "done", "{granularity:?}/{label}");
            assert_eq!(verdict.report, want_report, "{granularity:?}/{label}");
            let got_totals = (
                verdict.passed as usize,
                verdict.failed as usize,
                verdict.errored as usize,
                verdict.not_runnable as usize,
            );
            assert_eq!(got_totals, want_totals, "{granularity:?}/{label}");
            assert_eq!(verdict.all_green, want_green, "{granularity:?}/{label}");
            assert_eq!(verdict.cancelled, 0, "{granularity:?}/{label}");
        }
        // The shared async executor serves the same bytes too.
        let mut async_spec = spec(granularity, false);
        async_spec.executor = ExecutorChoice::Async;
        let mut client = ts.client();
        let (_, verdict) = client
            .submit_and_watch(&async_spec, |_| {})
            .expect("async served campaign");
        assert_eq!(verdict.report, want_report, "{granularity:?}/async");
    }
}

// ---------------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------------

/// Cell jobs in each campaign of the burst test: five bundled suites per
/// cloned stand, about three tests per cell. The first campaign must not
/// finish before the last one is submitted, three round trips later, or
/// that one would rightly have run nothing. A release build on two shared
/// vCPUs ran at most ~190 test jobs in four round trips (see
/// [`CANCEL_CAMPAIGN_JOBS`]); 400 cells hold about 1,200 tests.
const BURST_CAMPAIGN_JOBS: usize = 400;

#[test]
fn burst_of_campaigns_progresses_on_every_campaign() {
    burst_progresses_on(ExecutorChoice::Pooled);
    burst_progresses_on(ExecutorChoice::Async);
}

fn burst_progresses_on(executor: ExecutorChoice) {
    // One shared thread, four concurrently active campaigns: only lane
    // round-robin can interleave them. When the first verdict lands,
    // every other campaign must already have executed jobs — under a
    // starving FIFO the later submissions would still be at zero. The
    // async executor's one shard holds many runs at once, but it pulls
    // them from the same lane-fair queue.
    let scratch = TempDir::new(&format!("fairness-{executor:?}"));
    let suites = comptest::load_bundled_suites()
        .expect("bundled suites")
        .len();
    let paths = cloned_stand_paths(&scratch, BURST_CAMPAIGN_JOBS.div_ceil(suites));
    let mut cfg = ServeConfig::new(comptest::assets_dir());
    cfg.workers = 1;
    cfg.max_active = 4;
    let ts = TestServer::start(cfg);

    let mut spec = spec_for(&paths, Granularity::Cell, false);
    spec.executor = executor;
    let mut submitter = ts.client();
    let ids: Vec<_> = (0..4)
        .map(|_| submitter.submit(&spec).expect("submit"))
        .collect();

    // Wait for the first campaign (any of them) to finish.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for &id in &ids {
        let rx = ts.server.subscribe(id).expect("subscribe");
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            for msg in rx {
                if let comptest::server::HubMsg::Done(_) = msg {
                    let _ = done_tx.send(id);
                }
            }
        });
    }
    let first_done = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("some campaign finishes");

    let mut probe = ts.client();
    for &id in &ids {
        if id == first_done {
            continue;
        }
        let metrics = probe.metrics(id).expect("metrics frame");
        let executed = metrics
            .field("counters")
            .and_then(|c| c.field("jobs_executed"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert!(
            executed >= 1,
            "{executor:?}: campaign {id} starved: 0 jobs executed when {first_done} already finished"
        );
    }

    // The burst still drains to four complete, correct verdicts.
    let (want_report, ..) = reference(Granularity::Cell, &paths);
    for &id in &ids {
        let verdict = wait_ready(&mut probe, id);
        assert_eq!(verdict.state, "done", "{executor:?}");
        assert_eq!(verdict.report, want_report, "{executor:?}");
    }
}

// ---------------------------------------------------------------------------
// Disconnect survival
// ---------------------------------------------------------------------------

fn wait_ready(
    client: &mut Client,
    id: comptest::server::CampaignId,
) -> comptest::server::ResultFrame {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match client.fetch(id).expect("fetch") {
            Fetched::Ready(verdict) => return verdict,
            Fetched::Pending(_) => {
                assert!(Instant::now() < deadline, "campaign {id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn campaign_survives_client_disconnect_and_is_fetchable_by_id() {
    let mut cfg = ServeConfig::new(comptest::assets_dir());
    cfg.workers = 1;
    let ts = TestServer::start(cfg);

    // Client A submits with streaming, reads exactly one event, then
    // vanishes mid-stream.
    let id = {
        let mut a = ts.client();
        let mut watch_spec = spec(Granularity::Test, false);
        watch_spec.watch = true;
        a.send(&Frame::Submit(watch_spec)).expect("send submit");
        let Frame::Submitted { id } = a.recv().expect("submitted") else {
            panic!("expected submitted frame");
        };
        assert!(
            matches!(a.recv().expect("first event"), Frame::Event { .. }),
            "expected a streamed event before disconnecting"
        );
        id
        // `a` drops here: connection gone, campaign still running.
    };

    // Client B (a different connection) fetches the verdict by id.
    let mut b = ts.client();
    let verdict = wait_ready(&mut b, id);
    let (want_report, ..) = reference(Granularity::Test, &stand_paths());
    assert_eq!(verdict.state, "done");
    assert_eq!(verdict.report, want_report);

    // And a late watcher still gets the full replayed stream + result.
    let mut late = ts.client();
    let mut events = 0usize;
    let replayed = late.watch(id, |_| events += 1).expect("late watch");
    assert_eq!(replayed.report, want_report);
    assert!(
        events > 0,
        "late watcher should receive the replayed events"
    );
}

// ---------------------------------------------------------------------------
// Cancel over the wire
// ---------------------------------------------------------------------------

/// Test-granularity jobs in the running campaign of the cancel test: one
/// job per bundled test per cloned stand. Its one worker must still have
/// jobs left when the cancel lands, four round trips after submission; a
/// release build on two shared vCPUs had run at most ~190 of them by then.
const CANCEL_CAMPAIGN_JOBS: usize = 3_000;

#[test]
fn wire_cancel_hits_queued_and_running_campaigns() {
    let scratch = TempDir::new("cancel");
    let tests_per_stand: usize = comptest::load_bundled_suites()
        .expect("bundled suites")
        .iter()
        .map(|suite| suite.tests.len())
        .sum();
    let paths = cloned_stand_paths(&scratch, CANCEL_CAMPAIGN_JOBS.div_ceil(tests_per_stand));
    // max_active = 1 serialises campaigns in submission order, so the
    // second submission is queued behind the first.
    let mut cfg = ServeConfig::new(comptest::assets_dir());
    cfg.workers = 1;
    cfg.max_active = 1;
    let ts = TestServer::start(cfg);

    // The running campaign streams on its own connection from submission
    // on, so the events it yields are live, not replayed history.
    let mut watcher = ts.client();
    let mut watch_spec = spec_for(&paths, Granularity::Test, false);
    watch_spec.watch = true;
    watcher
        .send(&Frame::Submit(watch_spec))
        .expect("submit running");
    let Frame::Submitted { id: running } = watcher.recv().expect("submitted") else {
        panic!("expected submitted frame");
    };

    // Queued cancel: resolves terminal without ever launching.
    let mut client = ts.client();
    let queued = client
        .submit(&spec_for(&paths, Granularity::Test, false))
        .expect("submit queued");
    client.cancel(queued).expect("cancel queued");
    let Fetched::Ready(verdict) = client.fetch(queued).expect("fetch cancelled") else {
        panic!("cancelled campaign must be terminal immediately");
    };
    assert_eq!(verdict.state, "cancelled");
    assert!(verdict.report.is_empty(), "never launched, no report");

    // Running cancel: trip it on its first streamed event; the drained
    // verdict keeps the deterministic finished prefix and accounts for
    // the skipped jobs.
    assert!(
        matches!(watcher.recv().expect("first event"), Frame::Event { .. }),
        "campaign should be streaming before the cancel"
    );
    client.cancel(running).expect("cancel running");
    let verdict = wait_ready(&mut client, running);
    assert_eq!(
        verdict.state, "done",
        "running cancel still joins a verdict"
    );
    assert!(
        verdict.cancelled > 0,
        "a mid-run cancel must skip at least one job"
    );

    // Both terminal states are visible in the campaign table.
    let rows = client.status().expect("status");
    let state_of = |id| {
        rows.iter()
            .find(|row| row.id == id)
            .map(|row| row.state.clone())
    };
    assert_eq!(state_of(running).as_deref(), Some("done"));
    assert_eq!(state_of(queued).as_deref(), Some("cancelled"));
}
