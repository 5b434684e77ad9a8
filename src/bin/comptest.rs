//! `comptest` — command-line front end for the component-test toolchain.
//!
//! ```text
//! comptest validate <workbook.cts>
//! comptest gen <workbook.cts> <test> [out.xml]
//! comptest run <workbook.cts> <test> <stand.stand> <ecu>
//! comptest suite <workbook.cts> <stand.stand> <ecu> [--junit out.xml]
//! comptest campaign <stand.stand>... [--executor serial|pooled|async|remote]
//!                   [--workers N] [--concurrency N] [--remote-workers N]
//!                   [--granularity cell|test]
//!                   [--sample end-of-step|continuous:<interval_s>]
//!                   [--stop-on-first-fail] [--junit out.xml]
//!                   [--cache <dir>|off] [--cache-verify]
//!                   [--cache-salt <salt>]
//!                   [--trace-out trace.json] [--metrics]
//!                   [--metrics-out metrics.json]
//! comptest portability <workbook.cts> <stand.stand>...
//! comptest stands <stand.stand>...
//! comptest worker    # remote-executor child; speaks frames on stdio
//! comptest serve [--addr 127.0.0.1:7171] [--workers N] [--concurrency N]
//!                [--max-active N] [--cache <dir>]
//! comptest submit [--addr HOST:PORT] <stand.stand>... [--suite NAME]...
//!                 [--granularity cell|test] [--executor pooled|async]
//!                 [--stop-on-first-fail] [--no-cache] [--watch]
//! comptest watch [--addr HOST:PORT] <campaign-id>
//! comptest cancel [--addr HOST:PORT] <campaign-id>
//! comptest status [--addr HOST:PORT]
//! ```
//!
//! `campaign` runs every bundled ECU suite against every given stand
//! through the engine's `Campaign` builder, streaming live progress from
//! the campaign handle and optionally writing a campaign JUnit report.
//! Every executor produces the byte-identical result matrix:
//!
//! * `--executor pooled` (default): `--workers N` OS threads (default
//!   1 = serial reference order), each running one job at a time. It is
//!   an alias for the async executor with `--concurrency` equal to
//!   `--workers`: one in-flight run per thread.
//! * `--executor serial`: the in-order reference executor.
//! * `--executor async`: the event loop — up to `--concurrency N`
//!   (default 1024) test runs in flight *simultaneously*, interleaved
//!   step by step on `--workers` shard threads (default 1), so
//!   concurrency is no longer capped by thread count.
//!
//! Both local parallel shapes start at most one thread per job
//! (`--workers` is capped at the campaign's job count).
//! * `--executor remote`: multi-process — packaged jobs ship over stdio
//!   frames to `--remote-workers N` (default 2) spawned `comptest worker`
//!   children; a killed worker's jobs are retried on survivors (the
//!   `jobs_retried` counter in `--metrics`), and the cache stays in the
//!   parent so workers never touch disk.
//!
//! A sizing flag the selected executor would ignore (`--concurrency`
//! without `--executor async`, `--workers` with `--executor serial` or
//! `remote`, `--remote-workers` without `--executor remote`) is
//! rejected rather than silently dropped.
//!
//! `--granularity cell` (default) schedules one job per suite×stand cell;
//! `--granularity test` shards down to single tests — progress is then
//! streamed per test, and a large workbook no longer bounds wall-clock.
//! `--sample` selects when expected-output checks are measured:
//! `end-of-step` (default, paper semantics) or `continuous:<interval_s>`
//! (sample the whole step window every interval — the stricter ablation
//! the `comptest_core::exec` module docs describe). `--stop-on-first-fail`
//! cancels the remaining jobs as soon as one fails, keeping the
//! deterministic finished prefix in the report (on the pooled and async
//! executors cancellation cuts in at *step* granularity: in-flight runs
//! stop at their next step boundary).
//!
//! `--cache <dir>` keys every suite×stand×DUT cell by stable structural
//! hashes and skips byte-identical re-executions across campaign runs
//! (`off` is the default). The
//! summary reports how many results came from the cache, and the exit
//! code is identical to a cold run — a cached failure still fails the
//! campaign. `--cache-verify` is the audit mode: cached cells re-execute
//! anyway and the run errors if any cached outcome diverges. A cache key
//! hashes only the slices of the stand and DUT configuration the cell
//! actually touches, so editing one ECU's workbook or fault set
//! invalidates only the cells that exercise it. `--cache-salt <salt>`
//! folds an arbitrary author-supplied string into every key — bump it to
//! force re-execution without touching any input (firmware release,
//! harness recalibration, …).
//!
//! Observability (any of the three flags enables recording; results stay
//! byte-identical to an unobserved run — see `comptest_engine::obs`):
//!
//! * `--trace-out <path>` writes a Chrome trace-event JSON file after the
//!   campaign joins — open it in a trace viewer (`chrome://tracing`,
//!   <https://ui.perfetto.dev>) to see campaign/phase/cell/test/step spans
//!   on per-worker tracks.
//! * `--metrics` prints the metrics summary tables (counters, gauges,
//!   phase timings, histograms) to stderr after the campaign summary.
//! * `--metrics-out <path>` writes the same snapshot as deterministic
//!   JSON for machine consumption.
//!
//! `serve` runs the resident multi-tenant campaign daemon (see the
//! `comptest_server` crate docs for the wire protocol): suites load
//! once, submitted campaigns share two lane-fair executors (pooled and
//! async) and one on-disk cache, events stream live with replay,
//! verdicts stay fetchable by id after the submitting client
//! disconnects, and SIGINT/SIGTERM (or a `shutdown` frame) drains
//! gracefully. `submit`, `watch`, `cancel` and `status` are thin wire
//! clients. The one-shot
//! `campaign` also handles Ctrl-C cooperatively: queued jobs are
//! skipped, in-flight ones stop at their next step boundary (or, on the
//! serial and remote executors, finish), and the partial matrix still
//! reports.

use std::process::ExitCode;

use comptest::core::portability::check_portability;
use comptest::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("validate") => {
            let wb = need(it.next(), "workbook path")?;
            cmd_validate(wb)
        }
        Some("gen") => {
            let wb = need(it.next(), "workbook path")?;
            let test = need(it.next(), "test name")?;
            cmd_gen(wb, test, it.next())
        }
        Some("run") => {
            let wb = need(it.next(), "workbook path")?;
            let test = need(it.next(), "test name")?;
            let stand = need(it.next(), "stand path")?;
            let ecu = need(it.next(), "ecu name")?;
            cmd_run(wb, test, stand, ecu)
        }
        Some("suite") => {
            let wb = need(it.next(), "workbook path")?;
            let stand = need(it.next(), "stand path")?;
            let ecu = need(it.next(), "ecu name")?;
            let rest: Vec<&str> = it.collect();
            let junit = match rest.as_slice() {
                [] => None,
                ["--junit", path] => Some(*path),
                other => return Err(format!("unexpected arguments {other:?}").into()),
            };
            cmd_suite(wb, stand, ecu, junit)
        }
        Some("lint") => {
            let wb = need(it.next(), "workbook path")?;
            cmd_lint(wb)
        }
        Some("campaign") => {
            let rest: Vec<&str> = it.collect();
            cmd_campaign(&rest)
        }
        Some("portability") => {
            let wb = need(it.next(), "workbook path")?;
            let stands: Vec<&str> = it.collect();
            if stands.is_empty() {
                return Err("portability needs at least one stand".into());
            }
            cmd_portability(wb, &stands)
        }
        Some("stands") => {
            for path in it {
                let stand = TestStand::load(path)?;
                print!("{stand}");
            }
            Ok(ExitCode::SUCCESS)
        }
        // The remote executor's child-process entry point: speaks the
        // length-prefixed frame protocol on stdin/stdout until the parent
        // closes the pipe or sends `shutdown`. Not meant to be run by hand.
        Some("worker") => Ok(ExitCode::from(comptest::engine::worker_main() as u8)),
        Some("serve") => {
            let rest: Vec<&str> = it.collect();
            cmd_serve(&rest)
        }
        Some("submit") => {
            let rest: Vec<&str> = it.collect();
            cmd_submit(&rest)
        }
        Some("watch") => {
            let rest: Vec<&str> = it.collect();
            cmd_watch(&rest)
        }
        Some("cancel") => {
            let rest: Vec<&str> = it.collect();
            cmd_cancel(&rest)
        }
        Some("status") => {
            let rest: Vec<&str> = it.collect();
            cmd_status(&rest)
        }
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => {
            eprintln!(
                "usage: comptest <validate|lint|gen|run|suite|campaign|portability|stands\
                 |serve|submit|watch|cancel|status|worker> …"
            );
            Ok(ExitCode::from(2))
        }
    }
}

fn need<'a>(value: Option<&'a str>, what: &str) -> Result<&'a str, Box<dyn std::error::Error>> {
    value.ok_or_else(|| format!("missing argument: {what}").into())
}

/// Validates an output path taken by `flag` at parse time, so a typo
/// fails before the campaign runs instead of after minutes of execution:
/// the path must be non-empty, not itself a directory, and its parent
/// directory must already exist.
fn check_out_path(flag: &str, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    if path.is_empty() {
        return Err(format!("{flag} needs a non-empty output path").into());
    }
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Err(format!("{flag} {path:?} is a directory, expected a file path").into());
    }
    if let Some(parent) = p.parent().filter(|parent| !parent.as_os_str().is_empty()) {
        if !parent.is_dir() {
            return Err(format!(
                "{flag} {path:?}: parent directory {parent:?} does not exist \
                 (create it first)",
                parent = parent.display().to_string()
            )
            .into());
        }
    }
    Ok(())
}

fn cmd_validate(path: &str) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(path)?;
    for w in &parsed.warnings {
        eprintln!("{w}");
    }
    let issues = parsed.suite.validate(&MethodRegistry::builtin());
    if issues.is_empty() {
        println!(
            "{}: ok ({} signals, {} statuses, {} tests)",
            parsed.suite.name,
            parsed.suite.signals.len(),
            parsed.suite.statuses.len(),
            parsed.suite.tests.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for issue in &issues {
            eprintln!("{issue}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_lint(path: &str) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(path)?;
    let scripts = generate_all(&parsed.suite)?;
    let mut warnings = 0usize;
    for script in &scripts {
        let findings = comptest::script::lint(script);
        let vars = comptest::script::required_variables(script);
        println!(
            "{}: {} finding(s); requires stand variables: {}",
            script.name,
            findings.len(),
            if vars.is_empty() {
                "-".to_owned()
            } else {
                vars.join(", ")
            }
        );
        for f in &findings {
            println!("  {f}");
            if f.level == comptest::script::LintLevel::Warning {
                warnings += 1;
            }
        }
    }
    Ok(if warnings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_gen(
    path: &str,
    test: &str,
    out: Option<&str>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(path)?;
    let script = generate(&parsed.suite, test)?;
    let xml = script.to_xml();
    match out {
        Some(out) => {
            std::fs::write(out, &xml)?;
            println!("wrote {out}");
        }
        None => print!("{xml}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn load_dut(
    ecu: &str,
    stand: &TestStand,
) -> Result<comptest::dut::Device, Box<dyn std::error::Error>> {
    comptest::device_for_stand(ecu, stand)
        .ok_or_else(|| format!("unknown ecu {ecu:?}; known: interior_light, wiper, power_window, central_lock, flasher").into())
}

fn cmd_run(
    wb: &str,
    test: &str,
    stand_path: &str,
    ecu: &str,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(wb)?;
    let stand = TestStand::load(stand_path)?;
    let mut dut = load_dut(ecu, &stand)?;
    let result = run_test(
        &parsed.suite,
        test,
        &stand,
        &mut dut,
        &ExecOptions::default(),
    )?;
    print!("{}", comptest::report::step_table(&result));
    Ok(if result.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_suite(
    wb: &str,
    stand_path: &str,
    ecu: &str,
    junit: Option<&str>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(wb)?;
    let stand = TestStand::load(stand_path)?;
    // Validate the ECU name with a friendly message before running.
    load_dut(ecu, &stand)?;
    let result = run_suite(
        &parsed.suite,
        &stand,
        || comptest::device_for_stand(ecu, &stand).expect("validated above"),
        &ExecOptions::default(),
    )?;
    print!("{}", comptest::report::suite_text(&result));
    if let Some(path) = junit {
        std::fs::write(path, comptest::report::junit_xml(&result))?;
        println!("wrote {path}");
    }
    Ok(if result.verdict() == Verdict::Pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Which [`CampaignExecutor`] the `campaign` subcommand launches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecutorKind {
    Serial,
    Pooled,
    Async,
    Remote,
}

impl ExecutorKind {
    /// The accepted `FromStr` spellings, for error messages.
    const ACCEPTED: [&'static str; 4] = ["serial", "pooled", "async", "remote"];
}

impl std::str::FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(ExecutorKind::Serial),
            "pooled" => Ok(ExecutorKind::Pooled),
            "async" => Ok(ExecutorKind::Async),
            "remote" => Ok(ExecutorKind::Remote),
            _ => Err(format!(
                "unknown executor {s:?}: expected one of {}",
                ExecutorKind::ACCEPTED.join(", ")
            )),
        }
    }
}

/// Where `--cache` points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum CacheMode {
    /// No caching (the default).
    #[default]
    Off,
    /// On-disk cache directory shared across runs.
    Dir(String),
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    /// `off` or a directory path. To keep a typo like
    /// `--cache of` from silently becoming a cache directory, a bare word
    /// without any path separator or dot is rejected — spell a relative
    /// directory `./name`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("off") {
            Ok(CacheMode::Off)
        } else if s.contains(['/', '\\', '.']) {
            Ok(CacheMode::Dir(s.to_owned()))
        } else {
            Err(format!(
                "unknown cache mode {s:?}: expected off or a directory path \
                 (spell a relative directory {:?})",
                format!("./{s}")
            ))
        }
    }
}

fn cmd_campaign(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut stand_paths: Vec<&str> = Vec::new();
    let mut executor_kind = ExecutorKind::Pooled;
    let mut workers: Option<usize> = None;
    let mut concurrency: Option<usize> = None;
    let mut remote_workers: Option<usize> = None;
    let mut granularity = Granularity::Cell;
    let mut sample = SampleMode::EndOfStep;
    let mut stop_on_first_fail = false;
    let mut junit: Option<&str> = None;
    let mut cache_mode = CacheMode::Off;
    let mut cache_verify = false;
    let mut cache_salt: Option<&str> = None;
    let mut trace_out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut print_metrics = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--executor" => {
                let e = need(
                    it.next().copied(),
                    "--executor (serial|pooled|async|remote)",
                )?;
                executor_kind = e.parse()?;
            }
            "--workers" => {
                let n = need(it.next().copied(), "--workers count")?;
                let n: usize = n.parse().map_err(|_| format!("bad worker count {n:?}"))?;
                if n == 0 {
                    return Err(
                        "--workers must be at least 1 (0 would leave the campaign with no \
                         worker threads)"
                            .into(),
                    );
                }
                workers = Some(n);
            }
            "--concurrency" => {
                let n = need(it.next().copied(), "--concurrency count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad concurrency count {n:?}"))?;
                if n == 0 {
                    return Err(
                        "--concurrency must be at least 1 (0 would leave the async executor \
                         with no in-flight runs)"
                            .into(),
                    );
                }
                concurrency = Some(n);
            }
            "--remote-workers" => {
                let n = need(it.next().copied(), "--remote-workers count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad remote worker count {n:?}"))?;
                if n == 0 {
                    return Err(
                        "--remote-workers must be at least 1 (0 would leave the campaign \
                         with no worker processes)"
                            .into(),
                    );
                }
                remote_workers = Some(n);
            }
            "--granularity" => {
                let g = need(it.next().copied(), "--granularity (cell|test)")?;
                granularity = g.parse()?;
            }
            "--sample" => {
                let s = need(
                    it.next().copied(),
                    "--sample (end-of-step|continuous:<interval_s>)",
                )?;
                sample = s.parse()?;
            }
            "--stop-on-first-fail" => stop_on_first_fail = true,
            "--junit" => junit = Some(need(it.next().copied(), "--junit path")?),
            "--cache" => {
                let c = need(it.next().copied(), "--cache (<dir>|off)")?;
                cache_mode = c.parse()?;
            }
            "--cache-verify" => cache_verify = true,
            "--cache-salt" => {
                cache_salt = Some(need(it.next().copied(), "--cache-salt value")?);
            }
            "--trace-out" => {
                let path = need(it.next().copied(), "--trace-out path")?;
                check_out_path("--trace-out", path)?;
                trace_out = Some(path);
            }
            "--metrics-out" => {
                let path = need(it.next().copied(), "--metrics-out path")?;
                check_out_path("--metrics-out", path)?;
                metrics_out = Some(path);
            }
            "--metrics" => print_metrics = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown campaign flag {other:?}").into())
            }
            stand => stand_paths.push(stand),
        }
    }
    if stand_paths.is_empty() {
        return Err("campaign needs at least one stand".into());
    }
    // A flag the selected executor would ignore is a configuration
    // mistake; reject it instead of silently running something else.
    if concurrency.is_some() && executor_kind != ExecutorKind::Async {
        return Err(
            "--concurrency only applies to --executor async (use --workers to size the \
             pooled executor)"
                .into(),
        );
    }
    if workers.is_some() && executor_kind == ExecutorKind::Serial {
        return Err(
            "--workers does not apply to --executor serial (it runs in-order on one thread)".into(),
        );
    }
    if workers.is_some() && executor_kind == ExecutorKind::Remote {
        return Err(
            "--workers does not apply to --executor remote (size the worker processes \
             with --remote-workers)"
                .into(),
        );
    }
    if remote_workers.is_some() && executor_kind != ExecutorKind::Remote {
        return Err("--remote-workers only applies to --executor remote".into());
    }
    if cache_verify && cache_mode == CacheMode::Off {
        return Err("--cache-verify needs a persistent cache to audit (pass --cache <dir>)".into());
    }
    if cache_salt.is_some() && cache_mode == CacheMode::Off {
        return Err("--cache-salt needs a cache to salt (pass --cache <dir>)".into());
    }
    let workers = workers.unwrap_or(1);
    let concurrency = concurrency.unwrap_or(1024);

    let stands: Vec<TestStand> = stand_paths
        .iter()
        .map(TestStand::load)
        .collect::<Result<_, _>>()?;
    let stand_refs: Vec<&TestStand> = stands.iter().collect();
    // The bundled ECU library: suite files `assets/<ecu>.cts`, behaviours
    // in `comptest::dut::ecus`.
    let suites = comptest::load_bundled_suites()?;
    let entries = comptest::bundled_entries(&suites);

    // The builder API: one campaign description, launched on the selected
    // executor; a printer thread drains the typed event stream while the
    // campaign runs, and join() folds the deterministic result. The pool
    // is sized to the matrix — no point spawning threads no job will
    // reach; the async executor shards over --workers event-loop threads.
    // Any observability flag enables the recorder; keep a clone to export
    // from after join. Disabled recording costs nothing and changes no
    // output, so the default stays off.
    let obs = if trace_out.is_some() || metrics_out.is_some() || print_metrics {
        comptest::engine::Recorder::enabled()
    } else {
        comptest::engine::Recorder::disabled()
    };
    let mut campaign = Campaign::new(&entries, &stand_refs)
        .exec_options(ExecOptions {
            sample,
            ..ExecOptions::default()
        })
        .granularity(granularity)
        .stop_on_first_fail(stop_on_first_fail)
        .cache_verify(cache_verify)
        .cache_salt(cache_salt.unwrap_or(""))
        .recorder(obs.clone());
    campaign = match &cache_mode {
        CacheMode::Off => campaign,
        CacheMode::Dir(dir) => {
            campaign.cache(std::sync::Arc::new(comptest::engine::DirCache::open(dir)?))
        }
    };
    // One sizing rule for both local parallel shapes: the threads are
    // persistent, so none is started beyond the campaign's job count.
    let threads = workers.min(campaign.job_count().max(1));
    let executor: Box<dyn CampaignExecutor> = match executor_kind {
        ExecutorKind::Serial => Box::new(SerialExecutor),
        ExecutorKind::Pooled => Box::new(PooledExecutor::new(threads)),
        ExecutorKind::Async => Box::new(AsyncExecutor::new(concurrency).sharded(threads)),
        // The worker command defaults to this very binary re-invoked as
        // `comptest worker` (RemoteExecutor::resolve_command), so the CLI
        // needs no extra plumbing here.
        ExecutorKind::Remote => Box::new(comptest::engine::RemoteExecutor::new(
            remote_workers.unwrap_or(2),
        )),
    };
    let mut handle = campaign.launch(executor.as_ref())?;
    // Cooperative Ctrl-C: trip the handle's token instead of dying
    // mid-write — queued jobs are skipped, pooled and async runs stop at
    // their next step boundary, serial and remote jobs finish, and the
    // partial matrix still reports through the normal path below.
    comptest::server::signals::install();
    comptest::server::signals::cancel_on_signal(handle.cancel_token());
    let stream = handle.events();
    // The printer thread also counts cache hits for the summary line.
    let printer = std::thread::spawn(move || {
        let mut cached = 0usize;
        for event in stream {
            if matches!(event, EngineEvent::CellCached { .. }) {
                cached += 1;
            }
            eprintln!("{}", comptest::report::progress_line(&event));
        }
        cached
    });
    let outcome = handle.join();
    let cached = printer.join().expect("printer thread");
    let outcome = outcome?;
    eprintln!("{}", comptest::report::summary_line(&outcome));
    if cache_mode != CacheMode::Off {
        eprintln!("cache: {cached} result(s) served from cache");
    }

    // Render reports under the `report` phase so the exported metrics
    // account for the whole CLI run, then export the trace/metrics last
    // (the export itself is not self-observing).
    obs.time_report(|| -> Result<(), Box<dyn std::error::Error>> {
        print!("{}", outcome.result);
        if let Some(path) = junit {
            std::fs::write(path, comptest::report::campaign_junit_xml(&outcome.result))?;
            println!("wrote {path}");
        }
        Ok(())
    })?;
    if let Some(path) = trace_out {
        let json = obs.chrome_trace_json().expect("recorder enabled");
        std::fs::write(path, json)?;
        println!("trace: wrote {path} ({} spans)", obs.span_events());
    }
    let snapshot = obs.metrics();
    if let Some(path) = metrics_out {
        let snapshot = snapshot.as_ref().expect("recorder enabled");
        std::fs::write(path, snapshot.to_json())?;
        println!("metrics: wrote {path}");
    }
    if print_metrics {
        let snapshot = snapshot.as_ref().expect("recorder enabled");
        eprint!("{}", comptest::report::metrics_text(snapshot));
    }
    Ok(if outcome.result.all_green() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Where the wire subcommands dial / `serve` listens unless `--addr`
/// says otherwise.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7171";

fn parse_count(flag: &str, value: &str) -> Result<usize, Box<dyn std::error::Error>> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("bad {flag} count {value:?}"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1").into());
    }
    Ok(n)
}

fn cmd_serve(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use comptest::server::{ServeConfig, Server};
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut cfg = ServeConfig::new(comptest::assets_dir());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--addr" => addr = need(it.next().copied(), "--addr host:port")?.to_owned(),
            "--workers" => {
                cfg.workers =
                    parse_count("--workers", need(it.next().copied(), "--workers count")?)?
            }
            "--concurrency" => {
                cfg.concurrency = parse_count(
                    "--concurrency",
                    need(it.next().copied(), "--concurrency count")?,
                )?
            }
            "--max-active" => {
                cfg.max_active = parse_count(
                    "--max-active",
                    need(it.next().copied(), "--max-active count")?,
                )?
            }
            "--cache" => {
                cfg.cache_dir = Some(need(it.next().copied(), "--cache dir")?.into());
            }
            other => return Err(format!("unknown serve flag {other:?}").into()),
        }
    }
    // Graceful shutdown: SIGINT/SIGTERM stop admissions, cancel queued
    // campaigns, trip running ones and drain before the process exits.
    comptest::server::signals::install();
    let server = Server::new(cfg)?;
    let listener = std::net::TcpListener::bind(addr.as_str())?;
    {
        // Flush eagerly: when stdout is piped (CI smoke test) the bound
        // address must be scrapable before the daemon blocks in accept.
        use std::io::Write as _;
        let mut out = std::io::stdout();
        writeln!(out, "serving on {}", listener.local_addr()?)?;
        out.flush()?;
    }
    server.run(listener)?;
    eprintln!("serve: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

fn verdict_exit(verdict: &comptest::server::ResultFrame) -> ExitCode {
    if verdict.state == "done" && verdict.all_green {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_submit(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use comptest::server::{CampaignSpec, Client};
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut spec = CampaignSpec::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--addr" => addr = need(it.next().copied(), "--addr host:port")?.to_owned(),
            "--suite" => spec
                .suites
                .push(need(it.next().copied(), "--suite name")?.to_owned()),
            "--granularity" => {
                let g = need(it.next().copied(), "--granularity (cell|test)")?;
                spec.granularity = g.parse()?;
            }
            "--executor" => {
                let e = need(it.next().copied(), "--executor (pooled|async)")?;
                spec.executor = e.parse()?;
            }
            "--stop-on-first-fail" => spec.stop_on_first_fail = true,
            "--no-cache" => spec.cache = false,
            "--watch" => spec.watch = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown submit flag {other:?}").into())
            }
            stand => spec.stands.push(stand.to_owned()),
        }
    }
    if spec.stands.is_empty() {
        return Err("submit needs at least one stand path (resolved on the server)".into());
    }
    let mut client = Client::connect(addr.as_str())?;
    if spec.watch {
        let (id, verdict) = client.submit_and_watch(&spec, |event| {
            eprintln!("{}", comptest::report::progress_line(event));
        })?;
        eprintln!("{id}: {}", verdict.state);
        print!("{}", verdict.report);
        Ok(verdict_exit(&verdict))
    } else {
        let id = client.submit(&spec)?;
        println!("{id}");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_watch(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use comptest::server::Client;
    let (addr, ids) = wire_args(args, "watch")?;
    let [id] = ids.as_slice() else {
        return Err("watch needs exactly one campaign id (c-NNNNNN)".into());
    };
    let id: comptest::server::CampaignId = id.parse()?;
    let mut client = Client::connect(addr.as_str())?;
    let verdict = client.watch(id, |event| {
        eprintln!("{}", comptest::report::progress_line(event));
    })?;
    eprintln!("{id}: {}", verdict.state);
    if let Some(error) = &verdict.error {
        eprintln!("error: {error}");
    }
    print!("{}", verdict.report);
    Ok(verdict_exit(&verdict))
}

fn cmd_cancel(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use comptest::server::Client;
    let (addr, ids) = wire_args(args, "cancel")?;
    let [id] = ids.as_slice() else {
        return Err("cancel needs exactly one campaign id (c-NNNNNN)".into());
    };
    let id: comptest::server::CampaignId = id.parse()?;
    Client::connect(addr.as_str())?.cancel(id)?;
    println!("cancelled {id}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(args: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use comptest::server::Client;
    let (addr, rest) = wire_args(args, "status")?;
    if !rest.is_empty() {
        return Err(format!("unexpected status arguments {rest:?}").into());
    }
    for row in Client::connect(addr.as_str())?.status()? {
        println!("{} {}", row.id, row.state);
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the shared wire-client argument shape: `--addr` plus
/// positional operands.
fn wire_args(
    args: &[&str],
    command: &str,
) -> Result<(String, Vec<String>), Box<dyn std::error::Error>> {
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--addr" => addr = need(it.next().copied(), "--addr host:port")?.to_owned(),
            other if other.starts_with("--") => {
                return Err(format!("unknown {command} flag {other:?}").into())
            }
            operand => rest.push(operand.to_owned()),
        }
    }
    Ok((addr, rest))
}

fn cmd_portability(wb: &str, stands: &[&str]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let parsed = Workbook::load(wb)?;
    let loaded: Vec<TestStand> = stands
        .iter()
        .map(TestStand::load)
        .collect::<Result<_, _>>()?;
    let refs: Vec<&TestStand> = loaded.iter().collect();
    let report = check_portability(&parsed.suite, &refs)?;
    print!("{report}");
    Ok(if report.fully_portable() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
