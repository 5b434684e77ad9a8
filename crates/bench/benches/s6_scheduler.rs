//! S6 — scheduler stress: cell-count scaling on synthetic ECU variants.
//!
//! The `s5/parallel_campaign` bench only shows speedup on multi-core
//! hosts; on the single-core CI container every worker count degenerates
//! to serial time plus scheduling overhead. This sweep measures exactly
//! that overhead: many *tiny* generated workbooks (ECU variants from
//! `comptest-workload`, deterministic seeds) against one synthetic stand,
//! so per-cell work is small and the scheduler — job planning, queue
//! stealing, event-free merge — dominates. Doubling the variant count
//! should roughly double wall-clock at every granularity; a superlinear
//! curve is a scheduler regression, visible even on one core.

use std::hint::black_box;
use std::time::{Duration, Instant};

use comptest::core::campaign::CampaignEntry;
use comptest::prelude::*;
use comptest_bench::build_device;
use comptest_model::PinId;
use comptest_stand::ResourceId;
use comptest_workload::{gen_stand, gen_workbook_text, SplitMix64, StandShape, WorkbookShape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A variant workbook is intentionally tiny: the cell's execution cost is
/// negligible next to the cost of scheduling it.
const SHAPE: WorkbookShape = WorkbookShape {
    signals: 4,
    tests: 2,
    steps: 5,
};

/// Generates `n` distinct ECU-variant suites (one seed each).
fn variant_suites(n: usize) -> Vec<TestSuite> {
    (0..n)
        .map(|seed| {
            let mut rng = SplitMix64::new(0xECu64 + seed as u64);
            let text = gen_workbook_text(&mut rng, &SHAPE);
            let mut wb = Workbook::parse_str(&format!("variant_{seed}.cts"), &text)
                .expect("generated workbook parses");
            wb.suite.name = format!("variant_{seed}");
            wb.suite
        })
        .collect()
}

/// A stand serving the generated workbooks: full-density crosspoints for
/// the input pins plus a DVM route to the output pin pair.
fn variant_stand() -> TestStand {
    let mut rng = SplitMix64::new(7);
    let shape = StandShape {
        pins: SHAPE.signals,
        put_resources: SHAPE.signals,
        get_resources: 1,
        density: 1.0,
    };
    let dvm = ResourceId::new("Dvm0").expect("valid");
    gen_stand(&mut rng, &shape)
        .with_connection(
            PinId::new("XO1").expect("valid"),
            dvm.clone(),
            PinId::new("OUT_F").expect("valid"),
        )
        .with_connection(
            PinId::new("XO2").expect("valid"),
            dvm,
            PinId::new("OUT_R").expect("valid"),
        )
}

fn cell_count_scaling(c: &mut Criterion) {
    let stand = variant_stand();
    let stands = [&stand];

    let mut group = c.benchmark_group("s6/cell_count_scaling");
    group.sample_size(10);
    for n_variants in [8usize, 32, 128] {
        let suites = variant_suites(n_variants);
        let entries: Vec<CampaignEntry> = suites
            .iter()
            .map(|suite| CampaignEntry {
                suite,
                device_factory: Box::new(|| {
                    build_device("interior_light", Default::default(), None)
                }),
            })
            .collect();
        for granularity in [Granularity::Cell, Granularity::Test] {
            let campaign = Campaign::new(&entries, &stands).granularity(granularity);
            group.bench_with_input(
                BenchmarkId::new(granularity.to_string(), n_variants),
                &granularity,
                |b, _| b.iter(|| black_box(campaign.run(&PooledExecutor::new(4)).unwrap())),
            );
        }
    }
    group.finish();
}

/// Pool construction amortisation: the same 32-variant campaign run on a
/// per-call executor vs a persistent executor reused across iterations —
/// the watch-mode / replay scenario the persistent pool behind
/// [`PooledExecutor`] exists for.
fn pool_reuse(c: &mut Criterion) {
    let stand = variant_stand();
    let stands = [&stand];
    let suites = variant_suites(32);
    let entries: Vec<CampaignEntry> = suites
        .iter()
        .map(|suite| CampaignEntry {
            suite,
            device_factory: Box::new(|| build_device("interior_light", Default::default(), None)),
        })
        .collect();
    let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);

    let mut group = c.benchmark_group("s6/pool_reuse");
    group.sample_size(10);
    group.bench_function("fresh_pool_per_campaign", |b| {
        b.iter(|| black_box(campaign.run(&PooledExecutor::new(4)).unwrap()))
    });
    group.bench_function("persistent_pool", |b| {
        let executor = PooledExecutor::new(4);
        b.iter(|| black_box(campaign.run(&executor).unwrap()))
    });
    group.finish();
}

/// Linearity check: the *per-cell* cost at 16× scale must stay within a
/// tolerance band of the small-campaign cost. A scheduler whose planning
/// or merge step went quadratic blows far past the band (16× at O(n²));
/// the band is wide because shared CI hosts are noisy, not because the
/// property is soft.
fn linearity(_c: &mut Criterion) {
    const SMALL: usize = 8;
    const LARGE: usize = 128;
    let stand = variant_stand();
    let stands = [&stand];
    let per_cell = |n: usize| {
        let suites = variant_suites(n);
        let entries: Vec<CampaignEntry> = suites
            .iter()
            .map(|suite| CampaignEntry {
                suite,
                device_factory: Box::new(|| {
                    build_device("interior_light", Default::default(), None)
                }),
            })
            .collect();
        let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);
        let executor = PooledExecutor::new(4);
        let median = time_median(5, || black_box(campaign.run(&executor).unwrap()));
        median.as_secs_f64() / n as f64
    };
    let small = per_cell(SMALL);
    let large = per_cell(LARGE);
    let ratio = large / small;
    println!(
        "s6 linearity: per-cell {:.1}µs @{SMALL} vs {:.1}µs @{LARGE} (ratio {ratio:.2})",
        small * 1e6,
        large * 1e6
    );
    assert!(
        (0.2..5.0).contains(&ratio),
        "per-cell cost must scale linearly: {ratio:.2}× outside the 0.2–5.0 band \
         ({small:.6}s @{SMALL} cells vs {large:.6}s @{LARGE} cells)"
    );
}

/// Runs `f` `iters` times and returns the median wall-clock duration.
fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

criterion_group!(benches, cell_count_scaling, pool_reuse, linearity);
criterion_main!(benches);
