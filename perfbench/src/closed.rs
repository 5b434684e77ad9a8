//! The closed-loop runner: one campaign after another, each started when
//! the previous one finished.

use std::sync::Arc;
use std::time::{Duration, Instant};

use comptest_core::campaign::CampaignResult;
use comptest_engine::Recorder;

use crate::metrics::{CampaignTrace, LayerContext};
use crate::seams::{CampaignObs, Seams};
use crate::stats::Samples;

/// One closed-loop campaign, timed by the workload itself so the output
/// check stays outside the measurement.
#[derive(Debug)]
pub struct Iteration {
    /// What the user waited for.
    pub wall: Duration,
    /// Tests with a verdict (executed or served from the cache).
    pub tests: u64,
    /// The output check: `Err` names the mismatch or error.
    pub check: Result<(), String>,
}

impl Iteration {
    /// An iteration that failed before producing a result.
    pub fn failed(wall: Duration, error: String) -> Self {
        Self {
            wall,
            tests: 0,
            check: Err(error),
        }
    }
}

/// A closed-loop workload.
pub trait ClosedLoop {
    /// How the workload's campaigns use the engine.
    fn context(&self) -> LayerContext;

    /// Runs one campaign. With `seams`, the bench-side instruments are
    /// installed; `obs` is enabled exactly when `seams` is given.
    fn iterate(&mut self, seams: Option<&Arc<Seams>>, obs: &Recorder) -> Iteration;
}

/// Tests with a verdict in a campaign result.
pub fn verdict_tests(result: &CampaignResult) -> u64 {
    let (passed, failed, errored, _) = result.totals();
    (passed + failed + errored) as u64
}

/// Compares a campaign result with its reference.
///
/// # Errors
///
/// Describes the first difference.
pub fn check_result(result: &CampaignResult, reference: &CampaignResult) -> Result<(), String> {
    if result == reference {
        return Ok(());
    }
    Err(format!(
        "campaign result differs from the serial reference:\n{result}\nexpected:\n{reference}"
    ))
}

/// What one measuring window of a closed loop observed.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Wall times of the campaigns that passed their output check, ms.
    pub latencies_ms: Samples,
    /// Tests with a verdict, summed.
    pub tests: u64,
    /// Summed campaign wall time, s.
    pub busy_s: f64,
    /// Campaigns attempted.
    pub attempted: usize,
    /// Output-check failures, rendered.
    pub failures: Vec<String>,
    /// Per-campaign traces (traced windows only).
    pub traces: Vec<CampaignTrace>,
}

/// Runs campaigns back to back for `window` (at least one).
pub fn run_window(workload: &mut dyn ClosedLoop, window: Duration, traced: bool) -> LoopRun {
    let deadline = Instant::now() + window;
    let mut run = LoopRun::default();
    loop {
        let seams = traced.then(|| Arc::new(Seams::default()));
        let obs = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let it = workload.iterate(seams.as_ref(), &obs);
        run.attempted += 1;
        run.busy_s += it.wall.as_secs_f64();
        run.tests += it.tests;
        let mut check = it.check;
        if let (Some(seams), Some(snapshot)) = (seams, obs.metrics()) {
            match CampaignObs::from_json(&snapshot.to_json()) {
                Ok(campaign_obs) => {
                    if check.is_ok() {
                        check = campaign_obs.check_invariants();
                    }
                    run.traces.push(CampaignTrace {
                        wall_us: it.wall.as_secs_f64() * 1e6,
                        obs: campaign_obs,
                        seams: seams.take(),
                        server_us: 0.0,
                    });
                }
                Err(e) => check = Err(e),
            }
        }
        match check {
            Ok(()) => run.latencies_ms.push(it.wall.as_secs_f64() * 1e3),
            Err(e) => run.failures.push(e),
        }
        if Instant::now() >= deadline {
            return run;
        }
    }
}
