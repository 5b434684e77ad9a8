//! S8 — content-addressed campaign cache: cold vs warm regression runs.
//!
//! The caching claim: a regression campaign whose suites, stands and DUT
//! configs are unchanged should not pay for re-execution — the
//! content-addressed cache turns every cell into a key lookup plus a
//! record clone. The sweep measures one suite of 1 000 / 10 000 tests on
//! one stand, against a DUT whose simulation is *event-dense* (an
//! internal 20 µs activity tick — ~10 000 device events per test — the
//! regime of real ECU scenarios where most of a cold run is spent
//! advancing the device model; sim-time is free, device events are not)
//! so execution genuinely dominates a cold run while the cached record
//! stays check-sized:
//!
//! * `cold` — no cache: the full execute-everything baseline;
//! * `warm_memory` — every job served from a pre-populated in-process
//!   [`MemoryCache`] (key hashing + record clone + merge);
//! * `warm_dir_bin` — every job served from a pre-populated on-disk
//!   [`DirCache`] of binary records (one read plus one borrowing decode
//!   per cell);
//! * `verify` — `cache_verify` audit mode: executes everything *and*
//!   compares against the cache (the paper-style spot check; expected to
//!   cost about one cold run).
//!
//! The acceptance bar from the roadmap: a warm 10k-test campaign at least
//! 5× faster than cold. Each warm bench asserts byte-identity to the cold
//! result once before timing, so the speedup is never bought with a
//! wrong answer.

use std::hint::black_box;
use std::sync::Arc;

use comptest::core::campaign::CampaignEntry;
use comptest::dut::{Behavior, Device, PinBinding, PortValue};
use comptest::engine::{DirCache, MemoryCache};
use comptest::prelude::*;
use comptest_bench::summary::time_median;
use comptest_model::{PinId, SimTime};
use comptest_stand::ResourceId;
use comptest_workload::{gen_stand, gen_workbook_text, SplitMix64, StandShape, WorkbookShape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const SIGNALS: usize = 4;
/// Internal DUT activity period: each generated test simulates 0.2 s, so
/// one execution advances the device through ~10 000 events.
const TICK: SimTime = SimTime::from_micros(20);

/// A DUT model with dense internal activity: it schedules an event every
/// [`TICK`] of simulated time (a control loop iterating, CAN traffic,
/// PWM bookkeeping — whatever makes real models expensive to advance).
/// Outputs stay constant, so the *result* of a test is small while its
/// *execution* is not — exactly the asymmetry a campaign cache exploits.
#[derive(Debug)]
struct BusyBehavior {
    next: SimTime,
}

impl Behavior for BusyBehavior {
    fn name(&self) -> &str {
        "busy"
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

/// A device around [`BusyBehavior`], wired for the generated workbooks:
/// the `OUT_F`/`OUT_R` pair carries the checked output (constantly dark),
/// the stimulated input pins need no binding.
fn busy_device() -> Device {
    Device::builder(Box::new(BusyBehavior { next: TICK }))
        .pin("OUT_F", PinBinding::Output { port: "out" })
        .pin("OUT_R", PinBinding::Return)
        .build()
}

/// One generated suite with `tests` 2-step tests.
fn suite_with_tests(tests: usize) -> TestSuite {
    let mut rng = SplitMix64::new(0xCAC4E);
    let text = gen_workbook_text(
        &mut rng,
        &WorkbookShape {
            signals: SIGNALS,
            tests,
            steps: 2,
        },
    );
    let mut wb = Workbook::parse_str("cache.cts", &text).expect("generated workbook parses");
    wb.suite.name = format!("cache_{tests}");
    wb.suite
}

/// A stand serving the generated workbooks (the s6/s7 wiring).
fn variant_stand() -> TestStand {
    let mut rng = SplitMix64::new(7);
    let shape = StandShape {
        pins: SIGNALS,
        put_resources: SIGNALS,
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

fn cold_vs_warm(c: &mut Criterion) {
    let stand = variant_stand();
    let stands = [&stand];

    let mut group = c.benchmark_group("s8/cache");
    group.sample_size(10);
    for n_tests in [1_000usize, 10_000] {
        let suite = suite_with_tests(n_tests);
        let entries = vec![CampaignEntry {
            suite: &suite,
            device_factory: Box::new(busy_device),
        }];

        // Cold baseline: no cache, test granularity (one job per test).
        let cold = Campaign::new(&entries, &stands).granularity(Granularity::Test);
        let reference = cold.run(&SerialExecutor).expect("cold run");
        group.bench_with_input(BenchmarkId::new("cold", n_tests), &n_tests, |b, _| {
            b.iter(|| black_box(cold.run(&SerialExecutor).unwrap()))
        });

        // Warm in-process cache: populate once, then every run is hits.
        let memory = Arc::new(MemoryCache::new());
        let warm_memory = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(memory);
        assert_eq!(warm_memory.run(&SerialExecutor).unwrap(), reference);
        group.bench_with_input(
            BenchmarkId::new("warm_memory", n_tests),
            &n_tests,
            |b, _| b.iter(|| black_box(warm_memory.run(&SerialExecutor).unwrap())),
        );

        // Warm on-disk cache.
        let dir = std::env::temp_dir().join(format!(
            "comptest-s8-{}-{n_tests}-warm_dir_bin",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let warm_dir = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(Arc::new(DirCache::open(&dir).expect("bench cache dir")));
        assert_eq!(warm_dir.run(&SerialExecutor).unwrap(), reference);
        group.bench_with_input(
            BenchmarkId::new("warm_dir_bin", n_tests),
            &n_tests,
            |b, _| b.iter(|| black_box(warm_dir.run(&SerialExecutor).unwrap())),
        );

        // Audit mode: execute everything and compare against the cache.
        let verify = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(Arc::new(MemoryCache::new()))
            .cache_verify(true);
        assert_eq!(verify.run(&SerialExecutor).unwrap(), reference);
        group.bench_with_input(BenchmarkId::new("verify", n_tests), &n_tests, |b, _| {
            b.iter(|| black_box(verify.run(&SerialExecutor).unwrap()))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Measures every arm once more with plain `Instant` medians and writes
/// the machine-readable summary `BENCH_s8.json` at the workspace root —
/// criterion's console output is for humans, this file is for CI diffs.
fn emit_summary(_c: &mut Criterion) {
    const N_TESTS: usize = 10_000;
    const ITERS: usize = 3;
    let stand = variant_stand();
    let stands = [&stand];
    let suite = suite_with_tests(N_TESTS);
    let entries = vec![CampaignEntry {
        suite: &suite,
        device_factory: Box::new(busy_device),
    }];
    let mut summary = comptest_bench::summary::BenchSummary::new("s8", N_TESTS);

    let cold = Campaign::new(&entries, &stands).granularity(Granularity::Test);
    let reference = cold.run(&SerialExecutor).expect("cold run");
    summary.record(
        "cold",
        time_median(ITERS, || black_box(cold.run(&SerialExecutor).unwrap())),
    );

    let warm_memory = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(Arc::new(MemoryCache::new()));
    assert_eq!(warm_memory.run(&SerialExecutor).unwrap(), reference);
    summary.record(
        "warm_memory",
        time_median(ITERS, || {
            black_box(warm_memory.run(&SerialExecutor).unwrap())
        }),
    );

    {
        let dir = std::env::temp_dir().join(format!(
            "comptest-s8-sum-warm_dir_bin-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let warm_dir = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(Arc::new(DirCache::open(&dir).expect("bench cache dir")));
        assert_eq!(warm_dir.run(&SerialExecutor).unwrap(), reference);
        summary.record(
            "warm_dir_bin",
            time_median(ITERS, || black_box(warm_dir.run(&SerialExecutor).unwrap())),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let verify = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(Arc::new(MemoryCache::new()))
        .cache_verify(true);
    assert_eq!(verify.run(&SerialExecutor).unwrap(), reference);
    summary.record(
        "verify",
        time_median(ITERS, || black_box(verify.run(&SerialExecutor).unwrap())),
    );

    let speedup = summary.median_ms("cold").unwrap() / summary.median_ms("warm_dir_bin").unwrap();
    summary.note("warm_dir_bin_speedup", speedup);
    let path = summary.write_at_workspace_root().expect("summary written");
    println!(
        "s8 summary → {} (warm_dir_bin {speedup:.1}× faster)",
        path.display()
    );
}

criterion_group!(benches, cold_vs_warm, emit_summary);
criterion_main!(benches);
