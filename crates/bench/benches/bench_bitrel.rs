//! E17 — bitmap relation primitives.
//!
//! A binary relation over universe n is n² bits, packed into ⌈n²/64⌉
//! machine words, so union/intersection/difference/complement run
//! word-parallel (64 tuples per instruction) and membership is one
//! shift and mask. This bench measures those set-algebra primitives at
//! n ∈ {64, 256, 1024, 4096} — the range the Dyn-FO programs sweep —
//! on G(n, p) edge sets (expected degree 8, so density 8/n falls as n
//! grows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynfo_graph::generate::{gnp, rng};
use dynfo_logic::{Relation, Tuple};

fn edge_relations(n: u32) -> (Relation, Relation) {
    let make = |seed: u64| {
        let g = gnp(n, 8.0 / n as f64, &mut rng(seed));
        let tuples = g
            .edges()
            .flat_map(|(a, b)| [Tuple::pair(a, b), Tuple::pair(b, a)]);
        Relation::from_tuples_with_universe(2, n, tuples)
    };
    (make(7), make(8))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("E17_bitrel");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [64u32, 256, 1024, 4096] {
        let (x, y) = edge_relations(n);
        group.bench_with_input(
            BenchmarkId::new("union", n),
            &n,
            |b, _| b.iter(|| x.union(&y)),
        );
        group.bench_with_input(
            BenchmarkId::new("difference", n),
            &n,
            |b, _| b.iter(|| x.difference(&y)),
        );
        group.bench_with_input(
            BenchmarkId::new("complement", n),
            &n,
            |b, _| b.iter(|| x.complement()),
        );
        group.bench_with_input(
            BenchmarkId::new("contains_all", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut hits = 0u32;
                    // Probe a fixed diagonal band, not all n² tuples,
                    // to keep the probe count equal across n.
                    for i in 0..64u32 {
                        for j in 0..64u32 {
                            let t = Tuple::pair((i * 3) % n, (j * 5) % n);
                            hits += u32::from(x.contains(&t));
                        }
                    }
                    hits
                })
            },
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
