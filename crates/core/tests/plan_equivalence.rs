//! The program × route matrix: every program in the Section 4 library,
//! on a randomized request stream, through every execution route that
//! applies to all of them — the machine as built (compiled bit-parallel
//! plans with the algebraic optimizer; the reference, held to
//! Definition 3.1 after every request by `run_differential`), the
//! parallel rule scheduler, and `apply_batch`. All three must be
//! indistinguishable — same auxiliary structure, same answers at every
//! aligned step. Each program stresses a different mix of plan shapes:
//! grow-only ψ, shrink, full diffs, guarded fallbacks, numeric guards,
//! and parameterized queries.
//!
//! Optimizer-on ≡ Definition 3.1 subsumes the old optimizer-on ≡
//! optimizer-off differential; what each row still pins separately is
//! that the plan path actually ran and whether the optimizer found
//! anything to remove in that program's plans — a rewrite regression
//! that silently stops firing fails here, not just in E24.
//!
//! The step-loop itself lives in `dynfo-testutil` ([`run_differential`]),
//! the one shared oracle-differential harness, also used by the
//! integration and logic-level suites.

use dynfo_core::{programs, DynFoMachine, DynFoProgram, Request};
use dynfo_testutil::{
    churn_stream, dag_churn_stream, edge_requests, rng, run_differential, weighted_stream,
    DiffMode,
};
use proptest::prelude::*;
use rand::Rng;

/// One matrix row: drive `reqs` through all three routes, require that
/// compiled plans actually executed on every machine (guards against
/// silently falling back everywhere), and check the optimizer's static
/// summary: with `optimizer_fires` it removed ops (and kernel words)
/// from some plan, without it the program's plans were already tight.
fn assert_routes_agree(
    program: impl Fn() -> DynFoProgram,
    n: u32,
    reqs: &[Request],
    queries: &[(&str, &[u32])],
    optimizer_fires: bool,
) {
    let machines = run_differential(
        &program,
        n,
        reqs,
        queries,
        &[DiffMode::Plans, DiffMode::Parallel(3), DiffMode::Batch(5)],
    );
    let compiled = |m: &DynFoMachine| {
        m.stats().update_work.plan_compiled + m.stats().query_work.plan_compiled
    };
    for m in &machines {
        assert!(
            compiled(m) > 0,
            "no plan ever executed with {} workers (update fallbacks: {}, query fallbacks: {})",
            m.parallelism(),
            m.stats().update_work.plan_fallback,
            m.stats().query_work.plan_fallback
        );
    }
    let (ops, words) = machines[0].plan_opt_summary();
    if optimizer_fires {
        assert!(ops > 0 && words > 0, "optimizer found nothing: {ops} ops, {words} words");
    } else {
        assert_eq!(ops, 0, "optimizer unexpectedly fired");
    }
}

fn parity_stream() -> Vec<Request> {
    let mut rand = rng(11);
    (0..40)
        .map(|_| {
            let i = rand.gen_range(0..8u32);
            if rand.gen_bool(0.4) {
                Request::del("M", [i])
            } else {
                Request::ins("M", [i])
            }
        })
        .collect()
}

/// REACH_u's stream also exercises `set` requests: the query reads
/// constants s and t.
fn reach_u_stream(n: u32) -> Vec<Request> {
    let mut reqs = edge_requests("E", &churn_stream(n, 35, 0.3, true, &mut rng(13)));
    reqs.insert(10, Request::set("s", 2));
    reqs.insert(20, Request::set("t", 5));
    reqs
}

macro_rules! route_matrix {
    ($($test:ident => ($program:expr, $n:expr, $reqs:expr, $queries:expr, $fires:expr);)*) => {$(
        #[test]
        fn $test() {
            assert_routes_agree($program, $n, &$reqs, &$queries, $fires);
        }
    )*};
}

// {12 programs} × [Plans, Parallel(3), Batch(5)]; the last
// column is `optimizer_fires`. The semi-dynamic programs are
// insert-only by contract (delete rate 0).
route_matrix! {
    // PARITY's counter rules are already tight.
    routes_parity => (programs::parity::program, 8, parity_stream(), [], false);
    routes_reach_u => (programs::reach_u::program, 7, reach_u_stream(7),
        [("connected", &[0, 6][..]), ("connected", &[2, 3])], true);
    routes_reach_acyclic => (programs::reach_acyclic::program, 7,
        edge_requests("E", &dag_churn_stream(7, 35, 0.3, &mut rng(17))),
        [("reaches", &[0, 6][..])], true);
    routes_trans_reduction => (programs::trans_reduction::program, 6,
        edge_requests("E", &dag_churn_stream(6, 30, 0.3, &mut rng(19))),
        [("in_tr", &[0, 1][..]), ("reaches", &[0, 5])], true);
    // MSF's 5-ary cycle rules are the optimizer's biggest win in the library.
    routes_msf => (programs::msf::program, 5, weighted_stream(5, 30, 23),
        [("in_msf", &[0, 1][..]), ("connected", &[0, 4])], true);
    routes_bipartite => (programs::bipartite::program, 7,
        edge_requests("E", &churn_stream(7, 35, 0.3, true, &mut rng(29))),
        [("odd_path", &[0, 1][..]), ("connected", &[0, 6])], true);
    routes_kconn => (|| programs::kconn::program_up_to(2), 6,
        edge_requests("E", &churn_stream(6, 30, 0.3, true, &mut rng(31))),
        [("connected", &[0, 5][..])], true);
    routes_matching => (programs::matching::program, 6,
        edge_requests("E", &churn_stream(6, 30, 0.3, true, &mut rng(37))),
        [("matched", &[0, 1][..]), ("is_matched", &[2])], true);
    routes_lca => (programs::lca::program, 6,
        edge_requests("E", &dag_churn_stream(6, 30, 0.3, &mut rng(41))),
        [("ancestor", &[0, 5][..])], true);
    routes_vertex_cover => (programs::vertex_cover::program, 6,
        edge_requests("E", &churn_stream(6, 30, 0.3, true, &mut rng(43))),
        [("in_cover", &[0][..]), ("in_cover", &[3])], true);
    // The semi-dynamic rules are quantifier-free; what the optimizer
    // rewrites is their bulk closure, whose ∃-joins it composes.
    routes_semi_reach_u => (programs::semi::reach_u_program, 7,
        edge_requests("E", &churn_stream(7, 25, 0.0, true, &mut rng(47))),
        [("connected", &[0, 6][..])], true);
    routes_semi_reach => (programs::semi::reach_program, 7,
        edge_requests("E", &churn_stream(7, 25, 0.0, false, &mut rng(53))),
        [("reaches", &[0, 6][..])], true);
}

/// The whole stream through one `apply_batch` chunk (the comparison
/// happens once, at the end), and mid-size chunks whose boundaries
/// interleave with the stream (compared at every boundary).
#[test]
fn plan_batch_sizes_match_stepwise_apply() {
    let n = 7u32;
    let reqs = edge_requests("E", &churn_stream(n, 40, 0.35, true, &mut rng(61)));
    run_differential(
        &programs::reach_u::program,
        n,
        &reqs,
        &[("connected", &[0, 6])],
        &[
            DiffMode::Plans,
            DiffMode::Batch(reqs.len()),
            DiffMode::Batch(7),
            DiffMode::Batch(3),
        ],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized REACH_u streams including duplicate inserts, phantom
    /// deletes, and parameter-guarded deletes of non-forest edges, held
    /// to Definition 3.1 after every request.
    #[test]
    fn plan_reach_u_random(
        ops in proptest::collection::vec((0u32..6, 0u32..6, proptest::bool::ANY), 1..25)
    ) {
        let reqs: Vec<Request> = ops
            .iter()
            .map(|&(a, b, ins)| if ins {
                Request::ins("E", [a, b])
            } else {
                Request::del("E", [a, b])
            })
            .collect();
        run_differential(
            &programs::reach_u::program,
            6,
            &reqs,
            &[("connected", &[0, 5])],
            &[DiffMode::Plans],
        );
    }

    /// Randomized PARITY streams: the complement-heavy counter rules
    /// stress word-NOT and the ∀ peephole.
    #[test]
    fn plan_parity_random(
        ops in proptest::collection::vec((0u32..8, proptest::bool::ANY), 1..30)
    ) {
        let reqs: Vec<Request> = ops
            .iter()
            .map(|&(i, ins)| if ins {
                Request::ins("M", [i])
            } else {
                Request::del("M", [i])
            })
            .collect();
        run_differential(
            &programs::parity::program,
            8,
            &reqs,
            &[],
            &[DiffMode::Plans],
        );
    }
}

/// The enumerated synth corpus, machine-free: every corpus formula's
/// optimized plan must match its raw lowering and the interpreter on a
/// seeded random graph structure (the logic-level proptest corpus runs
/// the same assertion over random structures; this pins the checked-in
/// corpus itself).
#[test]
fn opt_corpus_formulas_match() {
    use dynfo_testutil::assert_plan_matches;
    let rels: std::collections::BTreeMap<_, _> =
        [(dynfo_logic::Sym::new("E"), 2), (dynfo_logic::Sym::new("M"), 1)]
            .into_iter()
            .collect();
    for (i, n) in [6u32, 9].into_iter().enumerate() {
        let st = dynfo_testutil::synth::random_structure(&rels, n, 1000 + i as u64);
        for f in dynfo_testutil::synth::corpus(120) {
            assert_plan_matches(&f, &st, &[]);
        }
    }
}

/// An edge copy and its transitive closure, grown per insert — one
/// compiled rule. The recompute closure rebuilds `TC` as a fresh
/// relation holding the same tuples.
fn rebuilding_closure() -> DynFoProgram {
    use dynfo_core::RequestKind;
    use dynfo_logic::formula::{eq, param, rel, v, Term};
    DynFoProgram::builder("closure")
        .input_relation("E", 2)
        .aux_relation("TC", 2)
        .on(
            RequestKind::ins("E"),
            "E",
            &["x", "y"],
            rel("E", [v("x"), v("y")]) | (eq(v("x"), param(0)) & eq(v("y"), param(1))),
        )
        .on(
            RequestKind::ins("E"),
            "TC",
            &["x", "y"],
            rel("TC", [v("x"), v("y")])
                | ((eq(v("x"), param(0)) | rel("TC", [v("x"), param(0)]))
                    & (eq(v("y"), param(1)) | rel("TC", [param(1), v("y")]))),
        )
        .recompute(|st| {
            let mut fresh = st.clone();
            let id = fresh.vocab().relation(dynfo_logic::Sym::new("TC")).expect("TC in vocab");
            let tc = st.relation(id).iter();
            fresh.set_relation(id, dynfo_logic::Relation::from_tuples_with_universe(2, st.size(), tc));
            fresh
        })
        .query(rel("TC", [Term::Min, Term::Max]))
        .build()
}

/// Apply `ins E(a, b)` and hold the result to Definition 3.1.
fn closure_step(program: &DynFoProgram, m: &mut DynFoMachine, a: u32, b: u32) {
    let req = Request::ins("E", [a, b]);
    let pre = m.state().clone();
    m.apply(&req).unwrap();
    assert_eq!(m.state(), &dynfo_testutil::reference_step(program, &pre, &req));
}

/// `recompute()` adopts its closure's structure, and the TC rule keeps
/// running its plan against it — no fallback, no bail.
#[test]
fn recompute_keeps_rules_compiled() {
    let program = rebuilding_closure();
    let mut m = DynFoMachine::new(program.clone(), 8);
    closure_step(&program, &mut m, 0, 1);
    closure_step(&program, &mut m, 1, 2);
    let before = m.stats().update_work;
    assert!(before.plan_compiled > 0 && before.plan_fallback == 0, "{before:?}");

    assert!(m.recompute().unwrap());
    closure_step(&program, &mut m, 2, 7);
    closure_step(&program, &mut m, 5, 0);
    let work = m.stats().update_work;
    assert!(work.plan_compiled > before.plan_compiled, "the TC rule stopped running compiled");
    assert_eq!(work.plan_fallback, 0, "{work:?}");
    assert!(m.query().unwrap(), "0 →* 7");
}

/// `∃a b c d` around a 5-clique of `rel` on `x, a, b, c, d`: past the
/// compile cap at n = 64 ([`dynfo_testutil::clique`]).
fn in_5_clique(rel: &str, x: &str) -> dynfo_logic::Formula {
    use dynfo_logic::formula::exists;
    exists(["a", "b", "c", "d"], dynfo_testutil::clique(rel, &[x, "a", "b", "c", "d"]))
}

/// Formulas that do not compile over any relations run on the
/// interpreter: a rule whose residual holds a 5-variable block at
/// n = 64, and a query that is one — on Definition 3.1's state.
#[test]
fn uncompiled_rules_and_queries_interpret() {
    use dynfo_core::RequestKind;
    use dynfo_logic::formula::{eq, exists, param, rel, v};
    let members = ["x", "a", "b", "c", "d"];
    let program = DynFoProgram::builder("clique")
        .input_relation("E", 2)
        .aux_relation("S", 1)
        .on(
            RequestKind::ins("E"),
            "E",
            &["x", "y"],
            rel("E", [v("x"), v("y")]) | (eq(v("x"), param(0)) & eq(v("y"), param(1))),
        )
        .on(RequestKind::ins("E"), "S", &["y"], rel("S", [v("y")]) | in_5_clique("E", "y"))
        .query(exists(members, dynfo_testutil::clique("E", &members)))
        .build();
    let mut m = DynFoMachine::new(program.clone(), 64);
    let mut reqs: Vec<Request> = (10..15)
        .flat_map(|a| (a + 1..15).map(move |b| Request::ins("E", [a, b])))
        .collect();
    reqs.push(Request::ins("E", [0, 63]));
    for req in &reqs {
        let pre = m.state().clone();
        m.apply(req).unwrap();
        assert_eq!(m.state(), &dynfo_testutil::reference_step(&program, &pre, req), "{req}");
    }
    assert!(m.holds("S", [10u32]), "the clique's first member, on the last request");
    assert!(!m.holds("S", [11u32]), "clique() orders its pairs: only 10 comes first");
    assert!(m.stats().update_work.rows_built > 0, "{:?}", m.stats().update_work);
    assert!(m.query().unwrap());
    let query = m.stats().query_work;
    assert_eq!((query.plan_compiled, query.plan_fallback), (0, 1), "{query:?}");
}

/// One guarded rule whose two selected residuals split: a bind join
/// `∃u (A(u) ∧ B(u, x))`, which runs compiled, and a 5-clique block over
/// `K` at n = 64, which is past the compile cap. Each residual is
/// routed on its own: the bind join ORs its roots into the rule's
/// result and adds no interpreter rows — the split rule interprets
/// exactly the rows of a sibling rule that has only the clique arm —
/// and the state is Definition 3.1's after every request.
#[test]
fn residuals_route_on_their_own() {
    use dynfo_core::RequestKind;
    use dynfo_logic::formula::{eq, exists, not, param, rel, v, Formula};
    use dynfo_obs::{ObsHandle, Registry};
    use std::sync::Arc;
    let copy = |name: &str, vars: &[&str]| {
        rel(name, vars.iter().map(|&c| v(c)))
            | vars
                .iter()
                .enumerate()
                .map(|(i, &c)| eq(v(c), param(i)))
                .reduce(|a, b| a & b)
                .expect("a column")
    };
    let program = |with_bind_join: bool| {
        let bind = not(rel("M", [param(0)]))
            & exists(["u"], rel("A", [v("u")]) & rel("B", [v("u"), v("x")]));
        let wide = not(rel("B", [param(0), param(0)])) & in_5_clique("K", "x");
        let grow = if with_bind_join { bind | wide } else { wide };
        let mut b = DynFoProgram::builder("split")
            .input_relation("M", 1)
            .input_relation("A", 1)
            .input_relation("B", 2)
            .input_relation("K", 2)
            .aux_relation("T", 1);
        for (name, vars) in [("M", &["x"][..]), ("A", &["x"]), ("B", &["x", "y"]), ("K", &["x", "y"])] {
            b = b.on(RequestKind::ins(name), name, vars, copy(name, vars));
        }
        b.on(RequestKind::ins("M"), "T", &["x"], rel("T", [v("x")]) | grow)
            .query(Formula::True)
            .build()
    };
    let registry = Arc::new(Registry::new());
    let mut split = DynFoMachine::new(program(true), 64).with_obs(&ObsHandle::with_registry(registry.clone()));
    let mut alone = DynFoMachine::new(program(false), 64);
    let mut reqs = vec![Request::ins("A", [1]), Request::ins("A", [2])];
    reqs.extend([[1, 3], [2, 4], [5, 6]].map(|t| Request::ins("B", t)));
    reqs.extend((7..12).flat_map(|a| (a + 1..12).map(move |b| Request::ins("K", [a, b]))));
    reqs.extend([10, 11, 12].map(|a| Request::ins("M", [a])));
    let bound = registry.counter("machine.bind_join.bound");
    for req in &reqs {
        let pre = split.state().clone();
        let (w, w_alone) = (split.apply(req).unwrap(), alone.apply(req).unwrap());
        assert_eq!(split.state(), &dynfo_testutil::reference_step(&split.program().clone(), &pre, req), "{req}");
        if req.kind() == RequestKind::ins("M") {
            assert!(w_alone.rows_built > 0, "{req}: the clique arm did not interpret");
            assert_eq!(w.rows_built, w_alone.rows_built, "{req}: the bind join interpreted");
            assert_eq!(w.plan_fallback, 1, "{req}: {w:?}");
            assert!(w.plan_compiled > w_alone.plan_compiled, "{req}: {w:?}");
        }
    }
    for x in [3, 4, 7] {
        assert!(split.holds("T", [x]), "T({x})");
    }
    assert!(!split.holds("T", [8u32]), "only the clique's first member is in T");
    if dynfo_obs::ENABLED {
        assert_eq!(bound.get(), 3, "one bound bind join per M insert");
    }
}
