//! E20 — compiled bit-parallel plans.
//!
//! The plan compiler lowers each update/query formula to a flat op
//! sequence over dense bit-relations: fused AND/OR/ANDNOT passes,
//! quantification as word folds, 64 tuples per instruction. This bench
//! measures per-update latency of the machine (state-restoring request
//! pairs, so it never drifts) on PARITY, REACH_u and semi-dynamic
//! REACH_u at n ≥ 64 and MSF at n = 16, plus a parameterless three-hop
//! join query evaluated standalone, compiled against the relational-
//! algebra interpreter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynfo_core::{programs, DynFoMachine, DynFoProgram, Request};
use dynfo_graph::generate::{churn_stream, rng, EdgeOp};
use dynfo_logic::formula::{exists, rel, v};
use dynfo_logic::{evaluate, Evaluator, Plan, Relation, Structure, Tuple, Vocabulary};
use std::sync::Arc;

fn prepopulated(program: DynFoProgram, n: u32, seed: u64) -> DynFoMachine {
    let mut m = DynFoMachine::new(program, n);
    for op in churn_stream(n, 3 * n as usize, 0.2, true, &mut rng(seed)) {
        let req = match op {
            EdgeOp::Ins(a, b) => Request::ins("E", [a, b]),
            EdgeOp::Del(a, b) => Request::del("E", [a, b]),
        };
        m.apply(&req).unwrap();
    }
    m
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("E20_compiled_updates");
    group.sample_size(12);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for n in [64u32, 128] {
        // PARITY: monadic counter maintenance, pure grow/shrink rules
        // over unary relations.
        let mut m = DynFoMachine::new(programs::parity::program(), n);
        for i in (0..n).step_by(3) {
            m.apply(&Request::ins("M", [i])).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("PARITY_compiled", n), &n, |b, &n| {
            b.iter(|| {
                m.apply(&Request::ins("M", [n / 2 + 1])).unwrap();
                m.apply(&Request::del("M", [n / 2 + 1])).unwrap();
            })
        });

        // REACH_u: spanning-forest maintenance. The pair is an absent
        // edge between already-connected vertices, so the insert is a
        // cheap grow and the delete resolves from the non-forest guard —
        // the uniform steady-state request mix (forest-edge repairs
        // would swamp the measurement with their variance).
        let mut m = prepopulated(programs::reach_u::program(), n, 7);
        let pair = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| {
                !m.state().rel("E").contains(&Tuple::pair(a, b))
                    && m.query_named("connected", &[a, b]).unwrap()
            })
            .expect("churn graph has a connected non-edge");
        group.bench_with_input(BenchmarkId::new("REACH_u_compiled", n), &n, |b, _| {
            b.iter(|| {
                m.apply(&Request::ins("E", [pair.0, pair.1])).unwrap();
                m.apply(&Request::del("E", [pair.0, pair.1])).unwrap();
            })
        });

        // Semi-dynamic REACH_u: quantifier-free binary-aux updates, the
        // formula shape where every rule compiles and the word kernels
        // replace O(n²) row materialization outright.
        let mut m = DynFoMachine::new(programs::semi::reach_u_program(), n);
        for i in 0..n - 1 {
            if i % 3 != 0 {
                m.apply(&Request::ins("E", [i, i + 1])).unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("semi_REACH_u_compiled", n), &n, |b, _| {
            // Insert-only by the Dyn_s contract; repeat an edge already
            // present so the state cannot drift.
            b.iter(|| m.apply(&Request::ins("E", [1, 2])).unwrap())
        });
    }

    // MSF at n = 16 only: past it, its residuals exceed the compile cap
    // and run on the interpreter (ROADMAP item 3).
    let n = 16u32;
    let mut m = DynFoMachine::new(programs::msf::program(), n);
    let mut r = rng(9);
    use rand::Rng;
    for _ in 0..n {
        let a = r.gen_range(0..n);
        let b = r.gen_range(0..n);
        if a != b {
            m.apply(&Request::ins("W", [a.min(b), a.max(b), r.gen_range(0..n)]))
                .unwrap();
        }
    }
    group.bench_with_input(BenchmarkId::new("MSF_compiled", n), &n, |b, &n| {
        b.iter(|| {
            m.apply(&Request::ins("W", [0, n - 1, 1])).unwrap();
            m.apply(&Request::del("W", [0, n - 1, 1])).unwrap();
        })
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("E20_compiled_query");
    group.sample_size(12);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Three-hop join: ∃a∃b E(x,a) ∧ E(a,b) ∧ E(b,y) — the shape where
    // the interpreter materializes two intermediate joins and the plan
    // runs three broadcasts, two fused ANDs, and two folds. Average
    // degree 24: the plan's word passes are data-independent while the
    // interpreter's joins grow with degree³, and this is past the
    // crossover (the E20 table sweeps the density).
    let f = exists(
        ["a", "b"],
        rel("E", [v("x"), v("a")]) & rel("E", [v("a"), v("b")]) & rel("E", [v("b"), v("y")]),
    );
    for n in [64u32, 128] {
        let vocab = Arc::new(Vocabulary::new().with_relation("E", 2));
        let mut st = Structure::empty(vocab, n);
        let edges = dynfo_graph::generate::gnp(n, 24.0 / n as f64, &mut rng(5));
        st.set_relation(
            st.vocab().relation("E").unwrap(),
            Relation::from_tuples_with_universe(
                2,
                n,
                edges
                    .edges()
                    .flat_map(|(a, b)| [Tuple::pair(a, b), Tuple::pair(b, a)]),
            ),
        );
        let plan = Plan::compile(&dynfo_logic::analysis::canonicalize(&f), &st)
            .expect("three-hop query compiles");
        let mut arena = plan.arena();
        group.bench_with_input(
            BenchmarkId::new("three_hop_compiled", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut ev = Evaluator::new(&st, &[]);
                    plan.execute(&mut ev, &mut arena, None).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("three_hop_interpreted", n),
            &n,
            |b, _| b.iter(|| evaluate(&f, &st, &[]).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_updates, bench_query
}
criterion_main!(benches);
