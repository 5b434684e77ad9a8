//! `dense_cold`: generated suites against an event-dense bench-owned DUT
//! on the sharded async executor, cold.
//!
//! Every generated test simulates 0.2 s against a device whose model
//! schedules an internal event every 20 µs of simulated time, so device
//! stepping dominates and plans (four stimulus pins, one measured output)
//! are tiny.

use std::sync::Arc;
use std::time::Instant;

use comptest_core::campaign::{CampaignEntry, CampaignResult};
use comptest_dut::{Behavior, Device, PinBinding, PortValue};
use comptest_engine::{AsyncExecutor, Campaign, Granularity, Recorder, SerialExecutor};
use comptest_model::{PinId, SimTime, TestSuite};
use comptest_sheets::Workbook;
use comptest_stand::{ResourceId, TestStand};
use comptest_workload::{gen_stand, gen_workbook_text, SplitMix64, StandShape, WorkbookShape};

use crate::closed::{check_result, verdict_tests, ClosedLoop, Iteration};
use crate::inputs;
use crate::metrics::LayerContext;
use crate::seams::{counted_device, Seams};

/// Shard threads of the async executor.
pub const SHARDS: usize = 2;
/// In-flight runs of the async executor.
const CONCURRENCY: usize = 64;
/// Generated suite shape: tests per campaign, stimulus signals, steps.
const SHAPE: WorkbookShape = WorkbookShape {
    signals: 4,
    tests: 48,
    steps: 2,
};
/// Internal activity period of the dense DUT.
const TICK: SimTime = SimTime::from_micros(20);

/// A DUT model with one internal event per [`TICK`] and constant outputs:
/// expensive to advance, cheap to check.
#[derive(Debug)]
struct Dense {
    next: SimTime,
}

impl Behavior for Dense {
    fn name(&self) -> &str {
        "dense"
    }
    fn inputs(&self) -> &[&'static str] {
        &["in"]
    }
    fn outputs(&self) -> &[&'static str] {
        &["out"]
    }
    fn reset(&mut self, now: SimTime) {
        self.next = now.saturating_add(TICK);
    }
    fn set_input(&mut self, _port: &str, _value: PortValue, _now: SimTime) {}
    fn advance(&mut self, now: SimTime) {
        while self.next <= now {
            self.next = self.next.saturating_add(TICK);
        }
    }
    fn next_event(&self) -> Option<SimTime> {
        Some(self.next)
    }
    fn output(&self, _port: &str) -> PortValue {
        PortValue::Bool(false)
    }
}

/// The dense device; its output pair carries the generated suites' checks.
fn dense_device(seams: Option<&Arc<Seams>>) -> Device {
    counted_device(seams, Box::new(Dense { next: TICK }), |behavior| {
        Device::builder(behavior)
            .pin("OUT_F", PinBinding::Output { port: "out" })
            .pin("OUT_R", PinBinding::Return)
            .build()
    })
}

/// A generated stand serving the generated suites, with a DVM switched onto
/// the output pair.
fn dense_stand(rng: &mut SplitMix64) -> Result<TestStand, String> {
    let shape = StandShape {
        pins: SHAPE.signals,
        put_resources: SHAPE.signals,
        get_resources: 1,
        // Every decade reaches every pin, so a step driving all inputs at
        // once always finds an allocation.
        density: 1.0,
    };
    let pin = |name: &str| PinId::new(name).map_err(|e| format!("pin {name}: {e}"));
    let dvm = ResourceId::new("Dvm0").map_err(|e| format!("resource: {e}"))?;
    Ok(gen_stand(rng, &shape)
        .with_connection(pin("XO1")?, dvm.clone(), pin("OUT_F")?)
        .with_connection(pin("XO2")?, dvm, pin("OUT_R")?))
}

/// The `dense_cold` workload.
pub struct DenseCold {
    suite: TestSuite,
    stand: TestStand,
    executor: AsyncExecutor,
    reference: CampaignResult,
    ctx: LayerContext,
}

impl DenseCold {
    /// Generates the suite and stand for `seed` and computes the reference.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when generation or the reference run fails.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let text = gen_workbook_text(&mut rng, &SHAPE);
        let suite = Workbook::parse_str("dense.cts", &text)
            .map_err(|e| format!("generated workbook: {e}"))?
            .suite;
        let stand = dense_stand(&mut rng)?;
        let entries = [CampaignEntry {
            suite: &suite,
            device_factory: Box::new(|| dense_device(None)),
        }];
        let reference = Campaign::new(&entries, &[&stand])
            .granularity(Granularity::Test)
            .run(&SerialExecutor)
            .map_err(|e| format!("reference run: {e}"))?;
        drop(entries);
        if verdict_tests(&reference) != SHAPE.tests as u64 {
            return Err(format!(
                "seed {seed}: the generated suite does not run:\n{reference}"
            ));
        }
        Ok(Self {
            ctx: LayerContext {
                workers: SHARDS as f64,
                entries: 1,
                test_jobs: suite.tests.len(),
                distinct_ratio: inputs::distinct_plan_ratio(&[&suite], 1),
            },
            suite,
            stand,
            executor: AsyncExecutor::new(CONCURRENCY).sharded(SHARDS),
            reference,
        })
    }
}

impl ClosedLoop for DenseCold {
    fn context(&self) -> LayerContext {
        self.ctx
    }

    fn iterate(&mut self, seams: Option<&Arc<Seams>>, obs: &Recorder) -> Iteration {
        let start = Instant::now();
        let seams = seams.cloned();
        let entries = [CampaignEntry {
            suite: &self.suite,
            device_factory: Box::new(move || dense_device(seams.as_ref())),
        }];
        let outcome = Campaign::new(&entries, &[&self.stand])
            .granularity(Granularity::Test)
            .recorder(obs.clone())
            .launch(&self.executor)
            .and_then(|handle| handle.join());
        let wall = start.elapsed();
        match outcome {
            Ok(outcome) => Iteration {
                wall,
                tests: verdict_tests(&outcome.result),
                check: check_result(&outcome.result, &self.reference),
            },
            Err(e) => Iteration::failed(wall, format!("campaign: {e}")),
        }
    }
}
