//! `edit_warm`: re-running a composite-device campaign after one edit, on
//! a pre-populated footprint-keyed `DirCache`.
//!
//! The device aggregates [`BLOCKS`] independent ECU blocks, each with its
//! own generated suite. Every iteration gives one seeded block a
//! configuration revision no earlier iteration used and re-runs the whole
//! campaign at cell granularity: exactly one cell misses, executes and is
//! stored; every other cell is read back from the cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use comptest_core::campaign::{CampaignEntry, CampaignResult};
use comptest_dut::{Behavior, Device, ElectricalConfig, PinBinding};
use comptest_engine::{
    Campaign, CampaignCache, DirCache, Granularity, PooledExecutor, Recorder, SerialExecutor,
};
use comptest_model::TestSuite;
use comptest_sheets::Workbook;
use comptest_stand::TestStand;
use comptest_workload::{
    block_device, block_stand, gen_workbook_text_prefixed, BlockEcu, BlockSpec, SplitMix64,
    WorkbookShape,
};

use crate::closed::{check_result, verdict_tests, ClosedLoop, Iteration};
use crate::inputs;
use crate::metrics::LayerContext;
use crate::seams::{counted_device, Seams, TimedCache};

/// Pool workers.
pub const WORKERS: usize = 2;
/// Blocks of the composite device (= suites = cells).
pub const BLOCKS: usize = 16;
/// Generated suite shape per block.
const SHAPE: WorkbookShape = WorkbookShape {
    signals: 2,
    tests: 32,
    steps: 2,
};
/// Pin bindings need `'static` port names.
const OUT_PORTS: [&str; BLOCKS] = [
    "e0_out", "e1_out", "e2_out", "e3_out", "e4_out", "e5_out", "e6_out", "e7_out", "e8_out",
    "e9_out", "e10_out", "e11_out", "e12_out", "e13_out", "e14_out", "e15_out",
];

fn prefix(block: usize) -> String {
    format!("e{block}_")
}

/// The composite device for `specs`, wired like `block_device` but built
/// through the bench-owned factory body.
fn vehicle(specs: &[BlockSpec], seams: Option<&Arc<Seams>>) -> Device {
    let behavior: Box<dyn Behavior + Send> = Box::new(BlockEcu::new(specs.to_vec(), None));
    counted_device(seams, behavior, |behavior| {
        let mut builder = Device::builder(behavior).config(ElectricalConfig::default());
        for spec in specs {
            builder = builder
                .pin(
                    &format!("{}OUT_F", spec.prefix),
                    PinBinding::Output {
                        port: spec.out_port,
                    },
                )
                .pin(&format!("{}OUT_R", spec.prefix), PinBinding::Return);
        }
        builder.build()
    })
}

/// The `edit_warm` workload.
pub struct EditWarm {
    suites: Vec<TestSuite>,
    stand: TestStand,
    specs: Vec<BlockSpec>,
    cache: Arc<DirCache>,
    executor: PooledExecutor,
    edits: SplitMix64,
    revision: u64,
    reference: CampaignResult,
    ctx: LayerContext,
}

impl EditWarm {
    /// Generates the block suites for `seed`, computes the reference and
    /// fills a fresh cache under `dir` with one cold run.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when generation, the cache or a run fails.
    pub fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let suites = (0..BLOCKS)
            .map(|k| {
                let mut rng =
                    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64));
                let text = gen_workbook_text_prefixed(&mut rng, &SHAPE, &prefix(k));
                Workbook::parse_str(&format!("e{k}.cts"), &text)
                    .map(|wb| wb.suite)
                    .map_err(|e| format!("generated workbook e{k}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let prefixes: Vec<String> = (0..BLOCKS).map(prefix).collect();
        let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        let stand = block_stand(&prefix_refs, SHAPE.signals);
        let specs: Vec<BlockSpec> = (0..BLOCKS)
            .map(|k| BlockSpec {
                prefix: prefix(k),
                out_port: OUT_PORTS[k],
                config: "rev0".to_owned(),
            })
            .collect();

        let reference = {
            let entries: Vec<CampaignEntry<'_>> = suites
                .iter()
                .map(|suite| {
                    let specs = specs.clone();
                    CampaignEntry {
                        suite,
                        device_factory: Box::new(move || {
                            block_device(&specs, ElectricalConfig::default(), None)
                        }),
                    }
                })
                .collect();
            Campaign::new(&entries, &[&stand])
                .granularity(Granularity::Cell)
                .run(&SerialExecutor)
                .map_err(|e| format!("reference run: {e}"))?
        };
        if verdict_tests(&reference) != (BLOCKS * SHAPE.tests) as u64 {
            return Err(format!(
                "seed {seed}: a generated suite does not run:\n{reference}"
            ));
        }

        let cache_dir: PathBuf = dir.join("cache");
        let cache = Arc::new(DirCache::open(&cache_dir).map_err(|e| format!("cache: {e}"))?);
        let workload = Self {
            ctx: LayerContext {
                workers: WORKERS as f64,
                entries: BLOCKS,
                test_jobs: BLOCKS * SHAPE.tests,
                distinct_ratio: inputs::distinct_plan_ratio(&suites.iter().collect::<Vec<_>>(), 1),
            },
            suites,
            stand,
            specs,
            cache,
            executor: PooledExecutor::new(WORKERS),
            edits: SplitMix64::new(seed ^ 0xED17),
            revision: 0,
            reference,
        };
        // Pre-populate: one cold run of the unedited vehicle stores every cell.
        let fill = workload.run(None, &Recorder::disabled());
        fill.check.map_err(|e| format!("cache fill: {e}"))?;
        Ok(workload)
    }

    /// Runs the campaign for the current block revisions.
    fn run(&self, seams: Option<&Arc<Seams>>, obs: &Recorder) -> Iteration {
        let start = Instant::now();
        let specs = Arc::new(self.specs.clone());
        let entries: Vec<CampaignEntry<'_>> = self
            .suites
            .iter()
            .map(|suite| {
                let specs = Arc::clone(&specs);
                let seams = seams.cloned();
                CampaignEntry {
                    suite,
                    device_factory: Box::new(move || vehicle(&specs, seams.as_ref())),
                }
            })
            .collect();
        let cache: Arc<dyn CampaignCache> = match seams {
            Some(seams) => Arc::new(TimedCache::new(Arc::clone(&self.cache), Arc::clone(seams))),
            None => Arc::clone(&self.cache) as Arc<dyn CampaignCache>,
        };
        let outcome = Campaign::new(&entries, &[&self.stand])
            .granularity(Granularity::Cell)
            .cache(cache)
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

impl ClosedLoop for EditWarm {
    fn context(&self) -> LayerContext {
        self.ctx
    }

    fn iterate(&mut self, seams: Option<&Arc<Seams>>, obs: &Recorder) -> Iteration {
        let block = self.edits.index(BLOCKS);
        self.revision += 1;
        self.specs[block].config = format!("rev{}", self.revision);
        let mut it = self.run(seams, obs);
        if let (Ok(()), Some(metrics)) = (&it.check, obs.metrics()) {
            let invalidated = metrics.counter("cells_invalidated");
            if invalidated != 1 {
                it.check = Err(format!(
                    "an edit of one block re-executed {invalidated} cells"
                ));
            }
        }
        it
    }
}
