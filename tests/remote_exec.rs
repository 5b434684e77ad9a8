//! Remote-executor robustness: worker processes dying mid-campaign.
//!
//! The conformance battery (`executor_conformance.rs`) proves the happy
//! path — remote runs merge the serial bytes across granularities and
//! cache modes. This binary stages the failure modes that need a real
//! `kill -9`:
//!
//! * a murdered worker's in-flight jobs are retried on survivors and the
//!   campaign still joins byte-identical to serial, with `jobs_retried`
//!   accounting for every extra dispatch and the job counters balanced;
//! * with retries disabled, the join reports `JobsLost` naming the exact
//!   lost jobs instead of returning a silently truncated matrix;
//! * a worker command that cannot spawn at all degrades gracefully to
//!   in-process execution, still byte-identical;
//! * a late death report from a slot's earlier worker process never
//!   retires the healthy worker that replaced it.
//!
//! The kill tests stage their failure without timing: a wrapper script
//! makes one worker process hold its job (`COMPTEST_WORKER_HOLD_MS`) until
//! it is killed, and the kill waits for proof that the job was shipped
//! and the holding process exists.
//! The stale-report test stages its failure with a wrapper script too.

use std::path::{Path, PathBuf};
use std::sync::mpsc;

use comptest::core::CoreError;
use comptest::engine::HOLD_MS_ENV;
use comptest::prelude::*;

fn load_suites() -> Vec<TestSuite> {
    comptest::load_bundled_suites().expect("bundled workbooks load")
}

fn load_stand(name: &str) -> TestStand {
    TestStand::load(comptest::asset(name)).unwrap()
}

/// SIGKILLs a pid — no shutdown frame, no SIGTERM grace, exactly the
/// "worker machine caught fire" case the retry path exists for.
fn kill_nine(pid: u32) {
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status();
}

/// A fresh marker path for one test's wrapper script.
fn marker(test: &str) -> PathBuf {
    let marker = std::env::temp_dir().join(format!("comptest-{test}-{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);
    let _ = std::fs::remove_dir_all(&marker);
    marker
}

/// A worker command under which exactly one process, the first to claim
/// `marker`, holds every job for ten minutes: the job it is shipped cannot
/// finish before the test kills it. The claim is a symlink to the claiming
/// process's pid (which `exec` keeps), so the watcher knows whom to kill;
/// every other process is a plain worker. The wrapped binary is the real
/// `comptest` — `current_exe()` in a test harness is the harness, which
/// has no `worker` subcommand.
fn held_worker(marker: &Path) -> Vec<String> {
    let script = format!(
        r#"if ln -s "$$" "$1" 2>/dev/null; then
        export {HOLD_MS_ENV}=600000
    fi
    exec "$0" worker"#
    );
    vec![
        "sh".to_string(),
        "-c".to_string(),
        script,
        env!("CARGO_BIN_EXE_comptest").to_string(),
        marker.display().to_string(),
    ]
}

/// What [`kill_held_worker`]'s watcher saw on the event stream.
#[derive(Debug, Default)]
struct Watched {
    /// The SIGKILLed worker's pid.
    killed: Option<u32>,
    /// `WorkerLost` events.
    lost: usize,
    /// `JobStarted` and `TestStarted` events.
    started: usize,
    /// `JobFinished` and `TestFinished` events.
    finished: usize,
}

/// Drains the event stream on a thread and SIGKILLs the held worker of
/// [`held_worker`] once it provably holds a job. The parent emits a job's
/// started event right after it ships the job, and it spawns a worker
/// only to ship it a job; a campaign with at least `workers` jobs ships
/// one to each of its first `workers` processes before it handles any
/// worker message. So after `workers` started events every spawned worker
/// has its job in flight. The watcher then polls the marker link until
/// one of those processes has claimed the hold, and kills that one.
fn kill_held_worker(
    stream: EventStream,
    marker: PathBuf,
    workers: usize,
) -> std::thread::JoinHandle<Watched> {
    std::thread::spawn(move || {
        let mut seen = Watched::default();
        for event in stream {
            match event {
                EngineEvent::JobStarted { .. } | EngineEvent::TestStarted { .. } => {
                    seen.started += 1;
                    if seen.started == workers {
                        let pid = loop {
                            let claim = std::fs::read_link(&marker).ok();
                            match claim.and_then(|pid| pid.to_str()?.parse().ok()) {
                                Some(pid) => break pid,
                                None => std::thread::yield_now(),
                            }
                        };
                        kill_nine(pid);
                        seen.killed = Some(pid);
                    }
                }
                EngineEvent::JobFinished { .. } | EngineEvent::TestFinished { .. } => {
                    seen.finished += 1
                }
                EngineEvent::WorkerLost { .. } => seen.lost += 1,
                _ => {}
            }
        }
        seen
    })
}

#[test]
fn killed_worker_jobs_are_retried_byte_identically() {
    let suites = load_suites();
    let entries = comptest::bundled_entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];

    let reference = Campaign::new(&entries, &stands)
        .launch(&SerialExecutor)
        .unwrap()
        .join()
        .unwrap();

    let marker = marker("kill-retry");
    let executor = RemoteExecutor::new(2).command(held_worker(&marker));
    let obs = Recorder::enabled();
    let mut handle = Campaign::new(&entries, &stands)
        .recorder(obs.clone())
        .launch(&executor)
        .unwrap();
    let watcher = kill_held_worker(handle.events(), marker.clone(), executor.workers());
    let outcome = handle.join().expect("retries must recover the campaign");
    let seen = watcher.join().expect("watcher thread");
    let _ = std::fs::remove_file(&marker);

    assert!(
        seen.killed.is_some(),
        "fixture must have spawned a worker to kill"
    );
    assert!(
        seen.lost >= 1,
        "the murdered worker must surface as WorkerLost"
    );
    assert_eq!(
        outcome, reference,
        "retried jobs must merge the exact serial bytes"
    );
    let metrics = obs.metrics().unwrap();
    assert!(
        metrics.counter("jobs_retried") >= 1,
        "the in-flight job of a SIGKILLed worker must be retried ({:?})",
        metrics.counters
    );
    // Retries add dispatch attempts, not planned jobs: the balance the
    // engine documents for every executor must survive a worker death.
    assert_eq!(
        metrics.counter("jobs_executed")
            + metrics.counter("jobs_cached")
            + metrics.counter("jobs_cancelled"),
        metrics.counter("jobs_planned"),
        "job accounting must balance after a retry ({:?})",
        metrics.counters
    );
    // The parent emits a job's events once, however often it ships it.
    let planned = metrics.counter("jobs_planned") as usize;
    assert_eq!(
        (seen.started, seen.finished),
        (planned, planned),
        "one started and one finished event per planned job after a retry ({seen:?})"
    );
}

#[test]
fn retry_limit_zero_reports_the_exact_lost_jobs() {
    let suites = load_suites();
    let entries = comptest::bundled_entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let cell_labels: Vec<String> = entries
        .iter()
        .map(|e| format!("{} @ {}", e.suite.name, stand_b.name()))
        .collect();

    let marker = marker("kill-lost");
    let executor = RemoteExecutor::new(2)
        .command(held_worker(&marker))
        .retry_limit(0);
    let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
    let watcher = kill_held_worker(handle.events(), marker.clone(), executor.workers());
    let err = handle
        .join()
        .expect_err("a lost job with retries disabled must fail the join");
    let seen = watcher.join().expect("watcher thread");
    let _ = std::fs::remove_file(&marker);
    assert!(
        seen.killed.is_some(),
        "fixture must have spawned a worker to kill"
    );

    match err {
        CoreError::JobsLost { lost, jobs } => {
            assert_eq!(lost, jobs.len(), "count and label list must agree");
            assert_eq!(
                seen.started - seen.finished,
                lost,
                "a lost job shows its started event and no finished event ({seen:?})"
            );
            assert!(!jobs.is_empty(), "the lost set must name the lost jobs");
            for job in &jobs {
                assert!(
                    cell_labels.contains(job),
                    "lost label {job:?} must name a planned cell ({cell_labels:?})"
                );
            }
        }
        other => panic!("expected JobsLost, got {other:?}"),
    }
}

#[test]
fn unspawnable_worker_command_degrades_to_in_process_execution() {
    let suites = load_suites();
    let entries = comptest::bundled_entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    let reference = Campaign::new(&entries, &stands)
        .launch(&SerialExecutor)
        .unwrap()
        .join()
        .unwrap();

    let executor = RemoteExecutor::new(2).command(vec![
        "/nonexistent/comptest-worker-binary-that-cannot-exist".to_string(),
    ]);
    let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
    let (spawned_tx, spawned_rx) = mpsc::channel();
    let stream = handle.events();
    let watcher = std::thread::spawn(move || {
        for event in stream {
            if matches!(event, EngineEvent::WorkerSpawned { .. }) {
                let _ = spawned_tx.send(());
            }
        }
    });
    let outcome = handle
        .join()
        .expect("zero spawnable workers must degrade, not fail");
    watcher.join().expect("watcher thread");
    assert!(
        spawned_rx.try_recv().is_err(),
        "an unspawnable command must not report spawned workers"
    );
    assert_eq!(
        outcome, reference,
        "in-process degradation must merge the exact serial bytes"
    );
}

/// Regression for the worker-death cascade. The first worker process
/// refuses its job with an `Error` frame (the real worker's reply to a
/// frame it cannot decode), so the orchestrator retires it and respawns
/// the slot for the retry. That process's reader thread then reports the
/// same death a second time, and the report is only processed once the
/// slot holds the healthy replacement. It must be dropped as stale:
/// exactly one `WorkerLost`, one retry, and the serial bytes.
#[test]
fn stale_death_report_spares_the_respawned_worker() {
    let suites = load_suites();
    let entries = comptest::bundled_entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let reference = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .run(&SerialExecutor)
        .unwrap();

    // The first process to create the marker directory feeds a one-byte
    // frame with an unknown tag to a real worker, which answers with an
    // `Error` frame; `cat` then holds the pipes open until the
    // orchestrator kills it. Every later process is a plain worker.
    let marker = marker("stale-death");
    let script = r#"if mkdir "$1" 2>/dev/null; then
        printf '\001\000\000\000\143' | "$0" worker 2>/dev/null
        exec cat >/dev/null
    fi
    exec "$0" worker"#;
    let executor = RemoteExecutor::new(1).command(vec![
        "sh".to_string(),
        "-c".to_string(),
        script.to_string(),
        env!("CARGO_BIN_EXE_comptest").to_string(),
        marker.display().to_string(),
    ]);
    let obs = Recorder::enabled();
    let mut handle = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .recorder(obs.clone())
        .launch(&executor)
        .unwrap();
    let stream = handle.events();
    let watcher = std::thread::spawn(move || {
        stream
            .filter(|event| matches!(event, EngineEvent::WorkerLost { .. }))
            .count()
    });
    let outcome = handle.join();
    let lost_events = watcher.join().expect("watcher thread");
    let _ = std::fs::remove_dir_all(&marker);

    let outcome = outcome.expect("a stale death report must not cost the job");
    assert_eq!(lost_events, 1, "one refused job, one lost worker");
    assert_eq!(
        outcome.result, reference,
        "the retried job must merge the exact serial bytes"
    );
    let metrics = obs.metrics().unwrap();
    assert_eq!(metrics.counter("jobs_retried"), 1, "{:?}", metrics.counters);
    assert_eq!(
        metrics.counter("jobs_executed") + metrics.counter("jobs_cached"),
        metrics.counter("jobs_planned"),
        "{:?}",
        metrics.counters
    );
}
