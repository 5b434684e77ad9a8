//! `fleet_cold`: a CLI-style cold regression of the five bundled ECU
//! workbooks over a seeded set of stands derived from the bundled ones.
//!
//! Every iteration parses the workbook text, builds a fresh campaign (so
//! every test is planned again), runs it at test granularity on a
//! two-worker pool without a cache and renders the JUnit report and the
//! result table — what one `comptest campaign --junit` invocation does.

use std::sync::Arc;
use std::time::Instant;

use comptest_core::campaign::{CampaignEntry, CampaignResult};
use comptest_dut::ecus::{central_lock, flasher, interior_light, power_window, wiper};
use comptest_dut::{Device, ElectricalConfig};
use comptest_engine::{Campaign, Granularity, PooledExecutor, Recorder, SerialExecutor};
use comptest_model::TestSuite;
use comptest_sheets::Workbook;
use comptest_stand::TestStand;
use comptest_workload::SplitMix64;

use crate::closed::{check_result, verdict_tests, ClosedLoop, Iteration};
use crate::inputs::{self, StandKind, ECUS};
use crate::metrics::LayerContext;
use crate::seams::{counted_device, Seam, Seams};

/// Pool workers (the machine's core count).
pub const WORKERS: usize = 2;
/// Stand kinds of one campaign's stand set.
const STANDS: [StandKind; 10] = [
    StandKind::A,
    StandKind::B,
    StandKind::A,
    StandKind::B,
    StandKind::A,
    StandKind::B,
    StandKind::A,
    StandKind::B,
    StandKind::A,
    StandKind::B,
];

/// A bundled ECU's device, built through the bench-owned factory body.
pub fn ecu_device(ecu: &str, seams: Option<&Arc<Seams>>) -> Device {
    let cfg = ElectricalConfig::default();
    match ecu {
        "interior_light" => {
            counted_device(seams, Box::new(interior_light::InteriorLight::new()), |b| {
                interior_light::device_with(cfg, b)
            })
        }
        "wiper" => counted_device(seams, Box::new(wiper::Wiper::new()), |b| {
            wiper::device_with(cfg, b)
        }),
        "power_window" => counted_device(seams, Box::new(power_window::PowerWindow::new()), |b| {
            power_window::device_with(cfg, b)
        }),
        "central_lock" => counted_device(seams, Box::new(central_lock::CentralLock::new()), |b| {
            central_lock::device_with(cfg, b)
        }),
        "flasher" => counted_device(seams, Box::new(flasher::Flasher::new()), |b| {
            flasher::device_with(cfg, b)
        }),
        other => unreachable!("{other} is not a bundled ECU"),
    }
}

/// The campaign every reference is computed with: the bundled ECUs built
/// by the library's own constructors, serial, no cache.
pub fn serial_reference(
    suites: &[TestSuite],
    stands: &[TestStand],
) -> Result<CampaignResult, String> {
    let entries: Vec<CampaignEntry<'_>> = suites
        .iter()
        .zip(ECUS)
        .map(|(suite, ecu)| CampaignEntry {
            suite,
            device_factory: Box::new(move || {
                comptest_dut::ecus::device_by_name(ecu, ElectricalConfig::default())
                    .expect("bundled ECU")
            }),
        })
        .collect();
    let stand_refs: Vec<&TestStand> = stands.iter().collect();
    Campaign::new(&entries, &stand_refs)
        .granularity(Granularity::Test)
        .run(&SerialExecutor)
        .map_err(|e| format!("reference run: {e}"))
}

/// Renders what a CLI campaign writes: the JUnit document and the table.
fn render(result: &CampaignResult) -> String {
    let mut out = comptest_report::campaign_junit_xml(result);
    out.push_str(&comptest_report::campaign_table(result).to_string());
    out
}

/// The `fleet_cold` workload.
pub struct Fleet {
    workbooks: Vec<(String, String)>,
    stands: Vec<TestStand>,
    executor: PooledExecutor,
    reference: CampaignResult,
    reference_report: String,
    ctx: LayerContext,
}

impl Fleet {
    /// Generates the stand set for `seed` and computes the reference.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when an input cannot be read or generated.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let workbooks = ECUS
            .iter()
            .map(|ecu| {
                let file = format!("{ecu}.cts");
                let text = inputs::read_asset(&file)?;
                Ok((file, text))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut rng = SplitMix64::new(seed);
        let stands = inputs::parse_stands(&inputs::stand_set(
            &STANDS,
            &format!("F{seed:x}"),
            &mut rng,
        )?)?;
        let suites = workbooks
            .iter()
            .map(|(file, text)| Workbook::parse_str(file, text).map(|wb| wb.suite))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bundled workbook: {e}"))?;
        let reference = serial_reference(&suites, &stands)?;
        let suite_refs: Vec<&TestSuite> = suites.iter().collect();
        let tests: usize = suites.iter().map(|s| s.tests.len()).sum();
        Ok(Self {
            ctx: LayerContext {
                workers: WORKERS as f64,
                entries: suites.len(),
                test_jobs: tests * stands.len(),
                distinct_ratio: inputs::distinct_plan_ratio(&suite_refs, stands.len()),
            },
            reference_report: render(&reference),
            reference,
            workbooks,
            stands,
            executor: PooledExecutor::new(WORKERS),
        })
    }
}

impl ClosedLoop for Fleet {
    fn context(&self) -> LayerContext {
        self.ctx
    }

    fn iterate(&mut self, seams: Option<&Arc<Seams>>, obs: &Recorder) -> Iteration {
        let start = Instant::now();
        let parse = || {
            self.workbooks
                .iter()
                .map(|(file, text)| Workbook::parse_str(file, text).map(|wb| wb.suite))
                .collect::<Result<Vec<_>, _>>()
        };
        let parsed = match seams {
            Some(seams) => seams.time(Seam::Parse, parse),
            None => parse(),
        };
        let suites = match parsed {
            Ok(suites) => suites,
            Err(e) => return Iteration::failed(start.elapsed(), format!("parse: {e}")),
        };
        let entries: Vec<CampaignEntry<'_>> = suites
            .iter()
            .zip(ECUS)
            .map(|(suite, ecu)| {
                let seams = seams.cloned();
                CampaignEntry {
                    suite,
                    device_factory: Box::new(move || ecu_device(ecu, seams.as_ref())),
                }
            })
            .collect();
        let stand_refs: Vec<&TestStand> = self.stands.iter().collect();
        let outcome = Campaign::new(&entries, &stand_refs)
            .granularity(Granularity::Test)
            .recorder(obs.clone())
            .launch(&self.executor)
            .and_then(|handle| handle.join());
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return Iteration::failed(start.elapsed(), format!("campaign: {e}")),
        };
        let report = match seams {
            Some(seams) => seams.time(Seam::Report, || render(&outcome.result)),
            None => render(&outcome.result),
        };
        let wall = start.elapsed();
        let check = check_result(&outcome.result, &self.reference).and_then(|()| {
            if report == self.reference_report {
                Ok(())
            } else {
                Err("rendered report differs from the reference rendering".to_owned())
            }
        });
        Iteration {
            wall,
            tests: verdict_tests(&outcome.result),
            check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundled_suites() -> Vec<TestSuite> {
        ECUS.iter()
            .map(|ecu| {
                let file = format!("{ecu}.cts");
                Workbook::parse_str(&file, &inputs::read_asset(&file).unwrap())
                    .unwrap()
                    .suite
            })
            .collect()
    }

    /// Reordering a stand's switch matrix never changes which cells plan:
    /// every seed offers the same work.
    #[test]
    fn derived_stands_plan_like_their_templates() {
        let suites = bundled_suites();
        let bundled = inputs::parse_stands(&[
            ("a".into(), inputs::read_asset("stand_a.stand").unwrap()),
            ("b".into(), inputs::read_asset("stand_b.stand").unwrap()),
        ])
        .unwrap();
        let expected = serial_reference(&suites, &bundled).unwrap().totals();
        for seed in 0..8 {
            let set = inputs::stand_set(
                &[StandKind::A, StandKind::B],
                "t",
                &mut SplitMix64::new(seed),
            )
            .unwrap();
            let stands = inputs::parse_stands(&set).unwrap();
            assert_eq!(
                serial_reference(&suites, &stands).unwrap().totals(),
                expected,
                "seed {seed}"
            );
        }
    }

    /// The counting wrapper is invisible in a device's `Debug` form, which
    /// is what device hashes (and so cache keys) are computed from.
    #[test]
    fn counted_devices_hash_like_plain_ones() {
        let seams = Arc::new(Seams::default());
        for ecu in ECUS {
            let plain = ecu_device(ecu, None);
            let counted = ecu_device(ecu, Some(&seams));
            assert_eq!(format!("{plain:?}"), format!("{counted:?}"), "{ecu}");
        }
        assert_eq!(seams.take().build_us.len(), ECUS.len());
    }
}
