//! E4/T4 — the connection matrix: resource-allocation scaling over pins ×
//! resources × matrix density, the reroute-vs-greedy ablation, and sparse
//! block stands (many resources, one or two per pin).

use std::hint::black_box;

use comptest_bench::sparse_alloc_case;
use comptest_model::MethodRegistry;
use comptest_stand::{plan_with, AllocOptions};
use comptest_workload::{gen_script, gen_stand, ScriptShape, SplitMix64, StandShape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn allocation_scaling(c: &mut Criterion) {
    let registry = MethodRegistry::builtin();
    let mut group = c.benchmark_group("t4/alloc_scaling");
    for (pins, resources) in [(8usize, 2usize), (32, 8), (128, 16), (256, 32)] {
        let mut rng = SplitMix64::new(7);
        let stand = gen_stand(
            &mut rng,
            &StandShape {
                pins,
                put_resources: resources,
                get_resources: 2,
                density: 0.4,
            },
        );
        let script = gen_script(
            &mut rng,
            &ScriptShape {
                signals: pins,
                steps: 100,
                puts_per_step: 3,
                concurrency: resources,
            },
        );
        group.throughput(Throughput::Elements(100));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pins}p_{resources}r")),
            &(stand, script),
            |b, (stand, script)| {
                b.iter(|| black_box(plan_with(script, stand, AllocOptions::default(), &registry)))
            },
        );
    }
    group.finish();
}

fn reroute_ablation(c: &mut Criterion) {
    let registry = MethodRegistry::builtin();
    let mut rng = SplitMix64::new(11);
    let stand = gen_stand(
        &mut rng,
        &StandShape {
            pins: 64,
            put_resources: 8,
            get_resources: 2,
            density: 0.3,
        },
    );
    let script = gen_script(
        &mut rng,
        &ScriptShape {
            signals: 64,
            steps: 200,
            puts_per_step: 3,
            concurrency: 8,
        },
    );
    let mut group = c.benchmark_group("t4/reroute_ablation");
    group.bench_function("reroute", |b| {
        b.iter(|| {
            black_box(plan_with(
                &script,
                &stand,
                AllocOptions { reroute: true },
                &registry,
            ))
        })
    });
    group.bench_function("greedy", |b| {
        b.iter(|| {
            black_box(plan_with(
                &script,
                &stand,
                AllocOptions { reroute: false },
                &registry,
            ))
        })
    });
    group.finish();
}

fn density_sweep(c: &mut Criterion) {
    let registry = MethodRegistry::builtin();
    let mut group = c.benchmark_group("t4/density_sweep");
    for density in [0.2f64, 0.5, 1.0] {
        let mut rng = SplitMix64::new(13);
        let stand = gen_stand(
            &mut rng,
            &StandShape {
                pins: 64,
                put_resources: 8,
                get_resources: 2,
                density,
            },
        );
        let script = gen_script(
            &mut rng,
            &ScriptShape {
                signals: 64,
                steps: 100,
                puts_per_step: 2,
                concurrency: 8,
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{density}")),
            &(stand, script),
            |b, (stand, script)| {
                b.iter(|| black_box(plan_with(script, stand, AllocOptions::default(), &registry)))
            },
        );
    }
    group.finish();
}

/// Many resources, one or two reaching each pin: the block-stand shape of
/// the multi-block workloads, which random matrices at density ≥ 0.2 never
/// produce.
fn sparse_stand(c: &mut Criterion) {
    let registry = MethodRegistry::builtin();
    let mut group = c.benchmark_group("t4/sparse_stand");
    for (blocks, signals) in [(16usize, 2usize), (64, 4)] {
        let (stand, script) = sparse_alloc_case(blocks, signals);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{blocks}b_{}r", stand.resources().len())),
            &(stand, script),
            |b, (stand, script)| {
                b.iter(|| black_box(plan_with(script, stand, AllocOptions::default(), &registry)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    allocation_scaling,
    reroute_ablation,
    density_sweep,
    sparse_stand
);
criterion_main!(benches);
