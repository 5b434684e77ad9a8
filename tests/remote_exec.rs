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
//! The kill tests hold each job for `COMPTEST_WORKER_HOLD_MS` so a kill
//! lands while a job is reliably in flight; the stale-report test stages
//! its failure with a wrapper script instead, without timing.

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

/// The real `comptest` binary as the worker command — `current_exe()` in
/// a test harness is the harness, which has no `worker` subcommand.
fn worker_command() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_comptest").to_string(),
        "worker".to_string(),
    ]
}

/// SIGKILLs a pid — no shutdown frame, no SIGTERM grace, exactly the
/// "worker machine caught fire" case the retry path exists for.
fn kill_nine(pid: u32) {
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status();
}

/// Drains the event stream on a thread, SIGKILLing the first spawned
/// worker the moment its `WorkerSpawned` event appears. Returns
/// (killed pid, observed `WorkerLost` count).
fn kill_first_worker(stream: EventStream) -> std::thread::JoinHandle<(Option<u32>, usize)> {
    std::thread::spawn(move || {
        let mut killed = None;
        let mut lost = 0usize;
        for event in stream {
            match event {
                EngineEvent::WorkerSpawned { pid, .. } if killed.is_none() => {
                    kill_nine(pid);
                    killed = Some(pid);
                }
                EngineEvent::WorkerLost { .. } => lost += 1,
                _ => {}
            }
        }
        (killed, lost)
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

    let executor = RemoteExecutor::new(2)
        .command(worker_command())
        .env(HOLD_MS_ENV, "200");
    let obs = Recorder::enabled();
    let mut handle = Campaign::new(&entries, &stands)
        .recorder(obs.clone())
        .launch(&executor)
        .unwrap();
    let watcher = kill_first_worker(handle.events());
    let outcome = handle.join().expect("retries must recover the campaign");
    let (killed, lost_events) = watcher.join().expect("watcher thread");

    assert!(
        killed.is_some(),
        "fixture must have spawned a worker to kill"
    );
    assert!(
        lost_events >= 1,
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

    let executor = RemoteExecutor::new(1)
        .command(worker_command())
        .env(HOLD_MS_ENV, "200")
        .retry_limit(0);
    let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
    let watcher = kill_first_worker(handle.events());
    let err = handle
        .join()
        .expect_err("a lost job with retries disabled must fail the join");
    let (killed, _) = watcher.join().expect("watcher thread");
    assert!(
        killed.is_some(),
        "fixture must have spawned a worker to kill"
    );

    match err {
        CoreError::JobsLost { lost, jobs } => {
            assert_eq!(lost, jobs.len(), "count and label list must agree");
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
    let marker = std::env::temp_dir().join(format!("comptest-stale-death-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&marker);
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
