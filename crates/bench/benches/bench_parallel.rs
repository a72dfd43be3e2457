//! E16 — FO = CRAM[1] (the paper's "parallel"): one FO update is a
//! constant-depth, polynomial-work parallel step. Depth is measured in
//! the unit tests (quantifier depth, constant in n); here we measure the
//! work side — the same formula evaluated with 1, 2, 4, 8 worker
//! threads slicing the outermost variable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynfo_graph::generate::{gnp, rng};
use dynfo_logic::formula::{exists, rel, v};
use dynfo_logic::parallel::evaluate_parallel;
use dynfo_logic::{Structure, Vocabulary};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("E16_parallel_fo");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 64u32;
    let g = gnp(n, 0.2, &mut rng(41));
    let vocab = Arc::new(Vocabulary::new().with_relation("E", 2));
    let mut st = Structure::empty(vocab, n);
    for (a, b) in g.edges() {
        st.insert("E", [a, b]);
        st.insert("E", [b, a]);
    }
    // A 3-hop join: enough work to distribute.
    let f = exists(
        ["u"],
        rel("E", [v("x"), v("u")]) & rel("E", [v("u"), v("y")]) & rel("E", [v("y"), v("z")]),
    );
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("three_hop_join", threads),
            &threads,
            |b, &threads| b.iter(|| evaluate_parallel(&f, &st, &[], threads).unwrap()),
        );
    }
    // The persistent pool on a small, cheap formula where scheduling
    // overhead dominates: this is the shape of a Dyn-FO update stream —
    // thousands of tiny evaluations — and the case the worker pool
    // exists for.
    let small = rel("E", [v("x"), v("y")]) & rel("E", [v("y"), v("x")]);
    for threads in [2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("per_update_pooled", threads),
            &threads,
            |b, &threads| b.iter(|| evaluate_parallel(&small, &st, &[], threads).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench
}
criterion_main!(benches);
