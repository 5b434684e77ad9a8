//! E7/§5 — "successfully applied to two ECUs": the full library campaign on
//! the supplier stand and the fault-injection coverage run.

use std::hint::black_box;

use comptest::core::campaign::CampaignEntry;
use comptest::core::faultcamp::run_fault_campaign;
use comptest::prelude::*;
use comptest_bench::{build_device, cfg_for, fault_set, load_stand, load_suite, ECUS};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn suite_execution(c: &mut Criterion) {
    let stand = load_stand("stand_b.stand");
    let mut group = c.benchmark_group("s5/suite_on_stand_b");
    group.sample_size(20);
    for ecu in ECUS {
        let suite = load_suite(ecu);
        group.bench_with_input(BenchmarkId::from_parameter(ecu), &suite, |b, suite| {
            b.iter(|| {
                black_box(
                    run_suite(
                        suite,
                        &stand,
                        || build_device(ecu, cfg_for(&stand), None),
                        &ExecOptions::default(),
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn fault_campaign(c: &mut Criterion) {
    let stand = load_stand("stand_a.stand");
    let suite = load_suite("interior_light");
    let faults = fault_set("interior_light");
    let mut group = c.benchmark_group("s5/fault_campaign");
    group.sample_size(10);
    group.bench_function("interior_light_12_faults", |b| {
        b.iter(|| {
            black_box(
                run_fault_campaign(
                    &suite,
                    &stand,
                    |f| build_device("interior_light", cfg_for(&stand), f),
                    &faults,
                    &ExecOptions::default(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// The full 5-ECU × 2-stand matrix through the `Campaign` builder on a
/// pooled executor, sharded over 1/2/4/8 workers. The serial (1-worker)
/// row is the baseline; the others demonstrate the wall-clock speedup of
/// independent campaign cells. The executor is constructed inside the
/// timed closure, matching the per-call thread start-up the PR-1 engine
/// paid (the s6 `pool_reuse` bench isolates that cost).
///
/// Cells run under continuous sampling (the monitoring mode of the
/// `comptest_core::exec` module docs, ~100× the samples of end-of-step
/// checking) — the soak regime where a
/// campaign actually hurts and sharding pays. End-of-step cells finish in
/// ~100 µs each, which a thread pool cannot amortise.
///
/// Note: speedup only shows on multi-core hosts (the two interior-light
/// cells dominate the critical path at ~6.5 ms each and overlap from two
/// workers up); on a single-core container every worker count degenerates
/// to the serial time plus scheduling overhead.
fn parallel_campaign(c: &mut Criterion) {
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let suites: Vec<TestSuite> = ECUS.iter().map(|e| load_suite(e)).collect();
    let entries: Vec<CampaignEntry> = suites
        .iter()
        .zip(ECUS)
        .map(|(suite, ecu)| CampaignEntry {
            suite,
            device_factory: Box::new(move || build_device(ecu, Default::default(), None)),
        })
        .collect();
    let soak = ExecOptions {
        sample: SampleMode::Continuous {
            interval: comptest_model::SimTime::from_millis(20),
        },
        ..ExecOptions::default()
    };

    let campaign = Campaign::new(&entries, &stands).exec_options(soak);
    let mut group = c.benchmark_group("s5/parallel_campaign");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| black_box(campaign.run(&PooledExecutor::new(workers)).unwrap()))
            },
        );
    }
    group.finish();
}

/// A skewed matrix — one large workbook (the interior-light suite with its
/// tests replicated 8×) plus the four small ECU suites — on 4 workers at
/// both scheduling granularities.
///
/// This is the shape where per-test sharding is the only way to win:
/// cell-granular scheduling pins the whole large suite to one worker, so
/// wall-clock is bounded by that single cell no matter how many workers
/// exist; test-granular jobs spread the large suite's tests over the pool.
/// (As with `parallel_campaign`, the gap only shows on multi-core hosts.)
fn skewed_granularity(c: &mut Criterion) {
    let stand = load_stand("stand_b.stand");
    let stands = [&stand];

    let mut large = load_suite("interior_light");
    let base = large.tests.clone();
    for rep in 1..8 {
        for test in &base {
            let mut test = test.clone();
            test.name = format!("{}_{rep}", test.name);
            large.tests.push(test);
        }
    }
    let mut suites = vec![large];
    suites.extend(
        ["wiper", "power_window", "central_lock", "flasher"]
            .iter()
            .map(|e| load_suite(e)),
    );
    let entries: Vec<CampaignEntry> = suites
        .iter()
        .map(|suite| {
            let ecu: &'static str = ECUS
                .iter()
                .find(|e| suite.name.starts_with(*e))
                .expect("suite name matches a bundled ECU");
            CampaignEntry {
                suite,
                device_factory: Box::new(move || build_device(ecu, Default::default(), None)),
            }
        })
        .collect();
    let soak = ExecOptions {
        sample: SampleMode::Continuous {
            interval: comptest_model::SimTime::from_millis(20),
        },
        ..ExecOptions::default()
    };

    let mut group = c.benchmark_group("s5/skewed_granularity");
    group.sample_size(10);
    for granularity in [Granularity::Cell, Granularity::Test] {
        let campaign = Campaign::new(&entries, &stands)
            .exec_options(soak)
            .granularity(granularity);
        group.bench_with_input(
            BenchmarkId::from_parameter(granularity),
            &granularity,
            |b, _| b.iter(|| black_box(campaign.run(&PooledExecutor::new(4)).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    suite_execution,
    fault_campaign,
    parallel_campaign,
    skewed_granularity
);
criterion_main!(benches);
