//! The campaign benchmark.
//!
//! ```text
//! perfbench --workload <fleet_cold|dense_cold|edit_warm|serve_open>
//!           [--seed N] [--seconds S] [--trace 0|1] [--rate R]
//! ```
//!
//! Sets the workload up from `--seed` (several times, reporting the median
//! as `setup_s`), then measures for `--seconds`. Every campaign's output is
//! checked against a reference computed at setup on the serial executor
//! with the cache off. Human-readable lines come first (`e2e`, `layer` and
//! `check` lines, each metric with its unit and sample count); the last
//! line is one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`, whose window is split between an
//! untraced half and a traced half so the tracing overhead is measured).
//! The exit code is non-zero when any output check failed. `--rate`
//! overrides `serve_open`'s offered load, to measure where it saturates.

mod closed;
mod dense;
mod edit;
mod fleet;
mod inputs;
mod metrics;
mod seams;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use comptest_engine::Recorder;

use closed::{run_window, ClosedLoop, LoopRun};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{ratio, Samples};

const USAGE: &str = "usage: perfbench --workload <fleet_cold|dense_cold|edit_warm|serve_open> \
                     [--seed N] [--seconds S] [--trace 0|1] [--rate R]";

/// How often a run sets its workload up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Closed-loop latency limits for `in_limit_frac`, ms: a campaign taking
/// longer than this misses, as does one that fails its output check. Each
/// is 1.2 to 2 times the p90 measured while tuning (`BASELINE.md`), so a
/// tail regression moves `in_limit_frac`.
const FLEET_LIMIT_MS: f64 = 15.0;
const DENSE_LIMIT_MS: f64 = 60.0;
const EDIT_LIMIT_MS: f64 = 70.0;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `serve_open`'s offered load, submissions/s; `None` is the default.
    rate: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rate: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--rate" => {
                parsed.rate = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|r: &f64| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| format!("--rate {value}: expected a positive number"))?,
                );
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn setup_dir(&self, i: usize) -> PathBuf {
        self.0.join(format!("setup-{i}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// What a run measured.
struct Outcome {
    e2e: Metrics,
    layers: Option<Metrics>,
    attempted: usize,
    failures: Vec<String>,
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The end-to-end metrics shared by both loop shapes.
fn e2e_metrics(
    setup_s: &Samples,
    tests_per_s: f64,
    latencies_ms: &Samples,
    in_limit: f64,
    attempted: usize,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s.median(), "s", setup_s.len());
    m.set("tests_per_s", tests_per_s, "tests/s", attempted);
    m.set(
        "latency_ms_p50",
        latencies_ms.median(),
        "ms",
        latencies_ms.len(),
    );
    m.set(
        "latency_ms_p90",
        latencies_ms.percentile(90.0),
        "ms",
        latencies_ms.len(),
    );
    m.set(
        "latency_p90_samples_beyond",
        latencies_ms.beyond(90.0) as f64,
        "count",
        latencies_ms.len(),
    );
    m.set("in_limit_frac", in_limit, "frac", attempted);
    m.set("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    Ok(m)
}

fn closed_e2e(setup_s: &Samples, run: &LoopRun, limit_ms: f64) -> Result<Metrics, String> {
    e2e_metrics(
        setup_s,
        ratio(run.tests as f64, run.busy_s),
        &run.latencies_ms,
        run.latencies_ms
            .fraction_within(limit_ms, run.failures.len()),
        run.attempted,
    )
}

/// Sets a closed-loop workload up [`SETUP_REPEATS`] times (each including
/// one warm-up campaign) and measures the last one.
fn run_closed<W: ClosedLoop>(
    args: &Args,
    limit_ms: f64,
    mut setup: impl FnMut(usize) -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Samples::new();
    let mut workload = None;
    for i in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        let mut w = setup(i)?;
        w.iterate(None, &Recorder::disabled())
            .check
            .map_err(|e| format!("warm-up campaign: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("set up at least once");
    let window = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let run = run_window(&mut w, window, false);
        return Ok(Outcome {
            e2e: closed_e2e(&setup_s, &run, limit_ms)?,
            layers: None,
            attempted: run.attempted,
            failures: run.failures,
        });
    }
    let plain = run_window(&mut w, window / 2, false);
    let traced = run_window(&mut w, window / 2, true);
    let mut layers = metrics::attribute(&traced.traces, &w.context());
    layers.set(
        "trace_overhead_frac",
        ratio(traced.latencies_ms.median(), plain.latencies_ms.median()) - 1.0,
        "frac",
        traced.latencies_ms.len(),
    );
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures);
    Ok(Outcome {
        e2e: closed_e2e(&setup_s, &plain, limit_ms)?,
        layers: Some(layers),
        attempted: plain.attempted + traced.attempted,
        failures,
    })
}

fn run_serve(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let rate = args.rate.unwrap_or(serve::RATE_PER_S);
    let inputs = serve::ServeInputs::generate(args.seed, rate, args.seconds, &work.0)?;
    let mut setup_s = Samples::new();
    let mut workload = None;
    for i in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(serve::ServeOpen::setup(&inputs, &work.setup_dir(i))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let w = workload.expect("set up at least once");
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let subs = w.run(args.trace.then_some(half));
    let plain: Vec<&serve::Submission> = subs.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&serve::Submission> = subs.iter().filter(|s| s.traced).collect();
    let window = serve::open_loop(&plain);
    let e2e = e2e_metrics(
        &setup_s,
        window.tests_per_s,
        &window.latencies_ms,
        window
            .latencies_ms
            .fraction_within(serve::LIMIT_MS, window.failures.len()),
        window.attempted,
    )?;
    let layers = args.trace.then(|| {
        let mut layers = serve::layers(&traced, &w.context());
        let traced_window = serve::open_loop(&traced);
        layers.set(
            "trace_overhead_frac",
            ratio(
                traced_window.latencies_ms.median(),
                window.latencies_ms.median(),
            ) - 1.0,
            "frac",
            traced_window.latencies_ms.len(),
        );
        layers
    });
    let failures = subs
        .iter()
        .filter_map(|s| s.outcome.as_ref().err().cloned())
        .collect();
    Ok(Outcome {
        e2e,
        layers,
        attempted: subs.len(),
        failures,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(&args.workload)?;
    match args.workload.as_str() {
        "fleet_cold" => run_closed(args, FLEET_LIMIT_MS, |_| fleet::Fleet::setup(args.seed)),
        "dense_cold" => run_closed(args, DENSE_LIMIT_MS, |_| dense::DenseCold::setup(args.seed)),
        "edit_warm" => run_closed(args, EDIT_LIMIT_MS, |i| {
            edit::EditWarm::setup(args.seed, &work.setup_dir(i))
        }),
        "serve_open" => run_serve(args, &work),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

fn report(args: &Args, outcome: &Outcome) -> String {
    let failed = outcome.failures.len();
    let mut out = format!(
        "perfbench workload={} seed={} seconds={} trace={}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    out.push_str(&outcome.e2e.lines("e2e"));
    if let Some(layers) = &outcome.layers {
        out.push_str(&layers.lines("layer"));
    }
    out.push_str(&format!(
        "check attempted={} failed={failed} failed_frac={}\n",
        outcome.attempted,
        ratio(failed as f64, outcome.attempted as f64)
    ));
    let correct = failed == 0;
    let (metrics, catalogue): (&Metrics, &[(&str, &str)]) = match &outcome.layers {
        Some(layers) => (layers, &PER_LAYER),
        None => (&outcome.e2e, &END_TO_END),
    };
    out.push_str(&metrics::result_line(
        correct,
        outcome.attempted,
        failed,
        metrics,
        catalogue,
    ));
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for failure in outcome.failures.iter().take(3) {
                eprintln!("perfbench: output check failed: {failure}");
            }
            print!("{}", report(&args, &outcome));
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse_args(&argv("--workload fleet_cold --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "fleet_cold".into(),
                seed: 1,
                seconds: 10.0,
                trace: true,
                rate: None,
            }
        );
        let args = parse_args(&argv("--workload x --seed 7 --seconds 0.5")).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 0.5, false));
        let args = parse_args(&argv("--workload serve_open --rate 45")).unwrap();
        assert_eq!(args.rate, Some(45.0));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --rate -1",
            "--workload x --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn peak_rss_is_measured() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn work_dirs_are_removed() {
        let path = {
            let work = WorkDir::create("selftest").unwrap();
            assert!(work.0.is_dir());
            work.0.clone()
        };
        assert!(!path.exists());
    }
}
