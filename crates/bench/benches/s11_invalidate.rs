//! S11 — footprint-keyed invalidation: re-test only what a change touches.
//!
//! The scenario the footprint cache exists for: a 10 000-test regression
//! campaign over a composite vehicle model (ten ECU blocks behind one
//! device, one 1 000-test suite per block), where an engineer edits **one**
//! block's fault set and re-runs warm.
//!
//! Each cell's key covers only the slices of the device its plans touch,
//! so exactly the edited block's cell re-executes and the other nine stay
//! hits. A key over the whole device configuration would move for all ten
//! cells on the single edit, so the warm re-run would re-execute
//! everything: the cold run of the edited campaign is that baseline.
//!
//! This bench is an *assertion*, not just a timing: the invalidated-cell
//! count is checked against the planner's own prediction (the set of cells
//! whose footprint [`CellKey`] moved), the warm results are checked
//! byte-identical to a cold run of the edited campaign, and the warm
//! re-run must be ≥ 5× faster than that cold run. Medians land in
//! `BENCH_s11.json` at the workspace root.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use comptest::core::campaign::CampaignEntry;
use comptest::core::CellKey;
use comptest::dut::ElectricalConfig;
use comptest::engine::DirCache;
use comptest::prelude::*;
use comptest_bench::summary::{time_median, BenchSummary};
use comptest_model::SimTime;
use comptest_workload::{
    block_device, block_stand, gen_workbook_text_prefixed, BlockSpec, SplitMix64, WorkbookShape,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// Ten blocks × one 1 000-test suite each = the 10k-test campaign.
const BLOCKS: usize = 10;
const TESTS_PER_BLOCK: usize = 1_000;
/// Input signals per block (the suites' stimulus width).
const SIGNALS: usize = 2;
/// The block whose fault set the "engineer" edits.
const EDITED: usize = 3;
/// Internal device activity: each 2-step test simulates 0.2 s, so one
/// execution advances the model through ~2 000 events — execution
/// dominates, records stay check-sized (the s8 asymmetry).
const TICK: SimTime = SimTime::from_micros(100);
/// Timed iterations per arm (median taken), cold and warm alike.
const ITERS: usize = 3;

/// Pin-binding port names must be `'static`; ten literals beat leaking.
const OUT_PORTS: [&str; BLOCKS] = [
    "e0_out", "e1_out", "e2_out", "e3_out", "e4_out", "e5_out", "e6_out", "e7_out", "e8_out",
    "e9_out",
];

const SHAPE: WorkbookShape = WorkbookShape {
    signals: SIGNALS,
    tests: TESTS_PER_BLOCK,
    steps: 2,
};

/// The composite device's blocks; `edited` flips one block's fault set to
/// its post-edit revision.
fn specs(edited: Option<usize>) -> Vec<BlockSpec> {
    (0..BLOCKS)
        .map(|k| BlockSpec {
            prefix: format!("e{k}_"),
            out_port: OUT_PORTS[k],
            config: if edited == Some(k) {
                "fault_set=rev2".to_owned()
            } else {
                "fault_set=rev1".to_owned()
            },
        })
        .collect()
}

/// One generated suite per block, disjoint pin sets.
fn block_suites() -> Vec<TestSuite> {
    (0..BLOCKS)
        .map(|k| {
            let mut rng = SplitMix64::new(0x511 + k as u64);
            let text = gen_workbook_text_prefixed(&mut rng, &SHAPE, &format!("e{k}_"));
            Workbook::parse_str(&format!("e{k}.cts"), &text)
                .expect("generated workbook parses")
                .suite
        })
        .collect()
}

/// Campaign entries sharing ONE composite device per build — every suite
/// sees the whole vehicle, footprints tell the cells apart.
fn vehicle_entries(suites: &[TestSuite], edited: Option<usize>) -> Vec<CampaignEntry<'_>> {
    suites
        .iter()
        .map(|suite| {
            let specs = specs(edited);
            CampaignEntry {
                suite,
                device_factory: Box::new(move || {
                    block_device(&specs, ElectricalConfig::default(), Some(TICK))
                }),
            }
        })
        .collect()
}

/// Clones a pristine cache directory so each timed warm run starts from
/// the same pre-edit store (a warm run re-stores what it re-executes).
fn restore_cache(pristine: &Path, work: &Path) {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).expect("cache dir");
    for entry in std::fs::read_dir(pristine).expect("pristine cache") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), work.join(entry.file_name())).expect("copy record");
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comptest-s11-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn invalidate(_c: &mut Criterion) {
    let prefixes: Vec<String> = (0..BLOCKS).map(|k| format!("e{k}_")).collect();
    let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
    let stand = block_stand(&prefix_refs, SIGNALS);
    let stands = [&stand];
    let suites = block_suites();
    let base = vehicle_entries(&suites, None);
    let edited = vehicle_entries(&suites, Some(EDITED));
    let mut summary = BenchSummary::new("s11", BLOCKS * TESTS_PER_BLOCK);

    // The planner's prediction: which cells' footprint keys does the edit
    // move? Exactly the edited block's — asserted now, and asserted again
    // below against the engine's own invalidation counter.
    let opts = ExecOptions::default();
    let moved: Vec<usize> = (0..BLOCKS)
        .filter(|&k| {
            CellKey::for_cell(&base[k], &stand, &opts, "")
                != CellKey::for_cell(&edited[k], &stand, &opts, "")
        })
        .collect();
    assert_eq!(moved, vec![EDITED], "only the edited block's key may move");
    let predicted = moved.len();

    // Ground truth for the post-edit campaign: a cold, cache-less run.
    let reference = Campaign::new(&edited, &stands)
        .granularity(Granularity::Test)
        .run(&SerialExecutor)
        .expect("cold run");
    summary.record(
        "cold_edited",
        time_median(ITERS, || {
            black_box(
                Campaign::new(&edited, &stands)
                    .granularity(Granularity::Test)
                    .run(&SerialExecutor)
                    .unwrap(),
            )
        }),
    );

    // Populate the pre-edit store once, cold.
    let pristine = scratch("pristine");
    let _ = Campaign::new(&base, &stands)
        .granularity(Granularity::Test)
        .cache(Arc::new(DirCache::open(&pristine).expect("cache dir")))
        .run(&SerialExecutor)
        .expect("populate run");

    // One instrumented warm run of the edited campaign: byte-identity plus
    // the invalidation accounting.
    let work = scratch("work");
    restore_cache(&pristine, &work);
    let obs = Recorder::enabled();
    let warm = Campaign::new(&edited, &stands)
        .granularity(Granularity::Test)
        .cache(Arc::new(DirCache::open(&work).expect("cache dir")))
        .recorder(obs.clone())
        .run(&SerialExecutor)
        .expect("warm run");
    assert_eq!(warm, reference, "warm re-run must match cold");
    let metrics = obs.metrics().unwrap();
    assert_eq!(
        metrics.counter("cells_invalidated"),
        predicted as u64,
        "engine invalidation must match the planner's prediction"
    );
    assert_eq!(
        metrics.counter("jobs_cached"),
        ((BLOCKS - predicted) * TESTS_PER_BLOCK) as u64,
        "untouched blocks must stay hits"
    );

    // Timed: restore the pre-edit store, re-run the edited campaign.
    let campaign = Campaign::new(&edited, &stands)
        .granularity(Granularity::Test)
        .cache(Arc::new(DirCache::open(&work).expect("cache dir")));
    summary.record(
        "warm_footprint",
        time_median(ITERS, || {
            restore_cache(&pristine, &work);
            black_box(campaign.run(&SerialExecutor).unwrap())
        }),
    );
    summary.note("cells_invalidated_footprint", predicted as f64);
    let _ = std::fs::remove_dir_all(&pristine);
    let _ = std::fs::remove_dir_all(&work);

    let cold_ms = summary.median_ms("cold_edited").expect("cold arm recorded");
    let warm_ms = summary
        .median_ms("warm_footprint")
        .expect("warm arm recorded");
    let speedup = cold_ms / warm_ms;
    summary.note("footprint_speedup", speedup);
    summary.note("predicted_invalidated", predicted as f64);
    let path = summary.write_at_workspace_root().expect("summary written");
    println!(
        "s11 summary → {} (warm re-run {speedup:.1}× faster than cold)",
        path.display()
    );
    assert!(
        speedup >= 5.0,
        "warm re-run after the edit must be ≥ 5× faster than a cold run \
         (cold {cold_ms:.1} ms vs warm {warm_ms:.1} ms)"
    );
}

criterion_group!(benches, invalidate);
criterion_main!(benches);
