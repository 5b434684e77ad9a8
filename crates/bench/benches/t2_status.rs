//! E2/T2 — the status definition table: status resolution against stand
//! environments, and the expression pre-compilation ablation (parse once vs
//! re-parse per evaluation).

use std::hint::black_box;

use comptest_bench::load_suite;
use comptest_model::{Env, Expr};
use criterion::{criterion_group, criterion_main, Criterion};

fn status_resolution(c: &mut Criterion) {
    let suite = load_suite("interior_light");
    let env = Env::with_ubatt(12.0);

    c.bench_function("t2/resolve_all_statuses", |b| {
        b.iter(|| {
            for def in suite.statuses.iter() {
                black_box(def.resolve(&env).unwrap());
            }
        })
    });

    c.bench_function("t2/lookup_by_name", |b| {
        b.iter(|| {
            black_box(suite.statuses.get_str("Ho")).unwrap();
            black_box(suite.statuses.get_str("closed")).unwrap();
        })
    });
}

fn expression_ablation(c: &mut Criterion) {
    let env = Env::with_ubatt(13.8);
    let source = "(1.1*ubatt)";

    // Pre-compiled: the interpreter's production path.
    let compiled = Expr::parse(source).unwrap();
    c.bench_function("t2/expr_precompiled_eval", |b| {
        b.iter(|| black_box(&compiled).eval(&env).unwrap())
    });

    // Re-parse per evaluation: the naive alternative to the interpreter's
    // parse-once path above.
    c.bench_function("t2/expr_reparse_eval", |b| {
        b.iter(|| Expr::parse(black_box(source)).unwrap().eval(&env).unwrap())
    });

    let complex = Expr::parse("clamp(min(1.1*ubatt, 16), 0.7*ubatt, max(14, ubatt))").unwrap();
    c.bench_function("t2/expr_complex_eval", |b| {
        b.iter(|| black_box(&complex).eval(&env).unwrap())
    });
}

criterion_group!(benches, status_resolution, expression_ablation);
criterion_main!(benches);
