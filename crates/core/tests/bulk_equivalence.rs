//! Differential suite for definable bulk changes: a machine applying
//! `Request::BulkIns`/`BulkDel` natively ([`DiffMode::Bulk`] — one-shot
//! Δ-fixpoint where the program's rule shapes admit it, per-tuple
//! fallback otherwise) must be indistinguishable, state and answers at
//! every step, from a machine replaying the equivalent single-tuple
//! stream (`expand_bulk`). Every Section 4 program runs a mixed
//! single/bulk stream with randomized δ formulas; focused tests then
//! pin *which* path ran — the fixpoint counts a bulk change as one
//! request, the fallback as its live Δ-popcount — and that the
//! fallback preserves the expanded stream's entire install profile.
//!
//! The serve-layer crash-recovery rungs through a bulk journal frame
//! (kill-after-frame, torn-final-frame) live in
//! `crates/serve/tests/fault_matrix.rs`; core cannot exercise the
//! journal from here.

use dynfo_core::{programs, DynFoMachine, DynFoProgram, Request, RequestKind};
use dynfo_logic::formula::{
    and, eq, exists, forall, lit, lt, not, param, rel, v, Formula,
};
use dynfo_testutil::{
    churn_stream, dag_churn_stream, edge_requests, rng, run_differential, weighted_stream,
    DiffMode,
};
use rand::Rng;

/// δ = the successor chain `x1 = x0 + 1`: Θ(n) live tuples whose
/// closure forces multi-round fixpoints in Grow-maintained programs.
fn chain() -> Formula {
    and([
        lt(v("x0"), v("x1")),
        forall(["z"], not(and([lt(v("x0"), v("z")), lt(v("z"), v("x1"))]))),
    ])
}

/// A random arity-1 δ (member sets).
fn delta1(n: u32, rand: &mut impl Rng) -> Formula {
    let m = rand.gen_range(1..n);
    match rand.gen_range(0..3u32) {
        0 => lt(v("x0"), lit(m)),
        1 => not(lt(v("x0"), lit(m))),
        _ => eq(v("x0"), lit(m)),
    }
}

/// A random arity-2 δ. Every defined edge satisfies `x0 < x1`, so the
/// DAG programs keep their acyclicity promise when the base stream
/// does.
fn delta2(n: u32, rand: &mut impl Rng) -> Formula {
    let m = rand.gen_range(2..n);
    let c = rand.gen_range(0..n - 1);
    match rand.gen_range(0..3u32) {
        0 => chain(),
        // The full Θ(m²) block on the first m nodes.
        1 => and([lt(v("x0"), v("x1")), lt(v("x1"), lit(m))]),
        // The out-star of c.
        _ => and([eq(v("x0"), lit(c)), lt(v("x0"), v("x1"))]),
    }
}

/// A random arity-3 δ for MSF's weighted relation. Insert δs are
/// functional in the weight column — one weight per pair, respecting
/// the program's one-weight-per-edge shape — while delete δs may hit
/// anything: the live-Δ filter intersects them with the current
/// relation.
fn delta3(n: u32, is_ins: bool, rand: &mut impl Rng) -> Formula {
    let m = rand.gen_range(2..n);
    if is_ins {
        and([
            lt(v("x0"), v("x1")),
            lt(v("x1"), lit(m)),
            eq(v("x2"), v("x0")),
        ])
    } else {
        and([lt(v("x0"), v("x1")), lt(v("x2"), lit(m))])
    }
}

/// Splice a bulk request after every `every` base requests, alternating
/// inserts and deletes (inserts only when `ins_only` — the semi-dynamic
/// promise).
fn splice(
    base: Vec<Request>,
    target: &str,
    every: usize,
    ins_only: bool,
    mut delta: impl FnMut(bool) -> Formula,
) -> Vec<Request> {
    let mut out = Vec::new();
    let mut k = 0usize;
    for (i, req) in base.into_iter().enumerate() {
        out.push(req);
        if (i + 1) % every == 0 {
            let is_ins = ins_only || k.is_multiple_of(2);
            let f = delta(is_ins);
            out.push(if is_ins {
                Request::bulk_ins(target, f)
            } else {
                Request::bulk_del(target, f)
            });
            k += 1;
        }
    }
    out
}

/// Native-bulk vs expanded-stream differential (plans on both sides).
fn assert_bulk_transparent(
    program: impl Fn() -> DynFoProgram,
    n: u32,
    reqs: &[Request],
    queries: &[(&str, &[u32])],
) {
    assert!(
        reqs.iter().filter(|r| r.is_bulk()).count() >= 2,
        "the stream must actually carry bulk requests"
    );
    run_differential(&program, n, reqs, queries, &[DiffMode::Plans, DiffMode::Bulk]);
}

#[test]
fn bulk_parity() {
    let n = 8u32;
    let mut rand = rng(401);
    let base: Vec<Request> = (0..30)
        .map(|_| {
            let i = rand.gen_range(0..n);
            if rand.gen_bool(0.4) {
                Request::del("M", [i])
            } else {
                Request::ins("M", [i])
            }
        })
        .collect();
    let mut drand = rng(402);
    let reqs = splice(base, "M", 5, false, |_| delta1(n, &mut drand));
    assert_bulk_transparent(programs::parity::program, n, &reqs, &[]);
}

#[test]
fn bulk_reach_u() {
    let n = 8u32;
    let base = edge_requests("E", &churn_stream(n, 30, 0.3, true, &mut rng(403)));
    let mut drand = rng(404);
    let reqs = splice(base, "E", 5, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::reach_u::program,
        n,
        &reqs,
        &[("connected", &[0, 7]), ("connected", &[2, 3])],
    );
}

#[test]
fn bulk_reach_acyclic() {
    let n = 8u32;
    let base = edge_requests("E", &dag_churn_stream(n, 30, 0.3, &mut rng(405)));
    let mut drand = rng(406);
    let reqs = splice(base, "E", 5, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::reach_acyclic::program,
        n,
        &reqs,
        &[("reaches", &[0, 7])],
    );
}

#[test]
fn bulk_trans_reduction() {
    let n = 7u32;
    let base = edge_requests("E", &dag_churn_stream(n, 28, 0.3, &mut rng(407)));
    let mut drand = rng(408);
    let reqs = splice(base, "E", 7, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::trans_reduction::program,
        n,
        &reqs,
        &[("in_tr", &[0, 1]), ("reaches", &[0, 6])],
    );
}

#[test]
fn bulk_msf() {
    let n = 6u32;
    let base = weighted_stream(n, 24, 409);
    let mut drand = rng(410);
    let reqs = splice(base, "W", 6, false, |is_ins| delta3(n, is_ins, &mut drand));
    assert_bulk_transparent(
        programs::msf::program,
        n,
        &reqs,
        &[("in_msf", &[0, 1]), ("connected", &[0, 5])],
    );
}

#[test]
fn bulk_bipartite() {
    let n = 8u32;
    let base = edge_requests("E", &churn_stream(n, 30, 0.3, true, &mut rng(411)));
    let mut drand = rng(412);
    let reqs = splice(base, "E", 5, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::bipartite::program,
        n,
        &reqs,
        &[("odd_path", &[0, 1]), ("connected", &[0, 7])],
    );
}

#[test]
fn bulk_kconn() {
    let n = 6u32;
    let base = edge_requests("E", &churn_stream(n, 24, 0.3, true, &mut rng(413)));
    let mut drand = rng(414);
    let reqs = splice(base, "E", 6, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        || programs::kconn::program_up_to(2),
        n,
        &reqs,
        &[("connected", &[0, 5])],
    );
}

#[test]
fn bulk_matching() {
    let n = 6u32;
    let base = edge_requests("E", &churn_stream(n, 24, 0.3, true, &mut rng(415)));
    let mut drand = rng(416);
    let reqs = splice(base, "E", 6, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::matching::program,
        n,
        &reqs,
        &[("matched", &[0, 1]), ("is_matched", &[2])],
    );
}

#[test]
fn bulk_lca() {
    let n = 7u32;
    let base = edge_requests("E", &dag_churn_stream(n, 28, 0.3, &mut rng(417)));
    let mut drand = rng(418);
    let reqs = splice(base, "E", 7, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(programs::lca::program, n, &reqs, &[("ancestor", &[0, 6])]);
}

#[test]
fn bulk_vertex_cover() {
    let n = 6u32;
    let base = edge_requests("E", &churn_stream(n, 24, 0.3, true, &mut rng(419)));
    let mut drand = rng(420);
    let reqs = splice(base, "E", 6, false, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::vertex_cover::program,
        n,
        &reqs,
        &[("in_cover", &[0]), ("in_cover", &[3])],
    );
}

#[test]
fn bulk_semi_reach_u() {
    let n = 8u32;
    let base = edge_requests("E", &churn_stream(n, 20, 0.0, true, &mut rng(421)));
    let mut drand = rng(422);
    let reqs = splice(base, "E", 5, true, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::semi::reach_u_program,
        n,
        &reqs,
        &[("connected", &[0, 7])],
    );
}

#[test]
fn bulk_semi_reach() {
    let n = 8u32;
    let base = edge_requests("E", &churn_stream(n, 20, 0.0, false, &mut rng(423)));
    let mut drand = rng(424);
    let reqs = splice(base, "E", 5, true, |_| delta2(n, &mut drand));
    assert_bulk_transparent(
        programs::semi::reach_program,
        n,
        &reqs,
        &[("reaches", &[0, 7])],
    );
}

/// The semi-dynamic programs are memoryless with Grow-shaped insert
/// rules, so a bulk insert runs as *one* request through the iterated
/// Δ-fixpoint rather than popcount single-tuple replays — the request
/// counter is the witness for which path executed.
#[test]
fn semi_reach_u_bulk_insert_takes_the_one_shot_path() {
    let n = 16u32;
    let p = programs::semi::reach_u_program;
    let mut bulk = DynFoMachine::new(p(), n);
    let mut stream = DynFoMachine::new(p(), n);
    let req = Request::bulk_ins("E", chain());
    let expanded = bulk.expand_bulk(&req).unwrap();
    assert_eq!(expanded.len(), 15, "the full successor chain");
    for r in &expanded {
        stream.apply(r).unwrap();
    }
    bulk.apply(&req).unwrap();
    assert_eq!(bulk.state(), stream.state());
    assert!(bulk.query_named("connected", &[0, 15]).unwrap());
    assert_eq!(
        bulk.stats().requests,
        1,
        "the fixpoint counts one request, not 15 replays"
    );
}

/// REACH_u does not claim memorylessness, so its bulk requests replay
/// through the per-tuple fallback — which must preserve not just the
/// final state but the expanded stream's entire install profile and
/// request count. `machine.bulk_fallback` counts both: an ineligible
/// kind is one of the counter's two causes.
#[test]
fn reach_u_fallback_preserves_the_install_profile() {
    let n = 8u32;
    let p = programs::reach_u::program;
    let prelude = edge_requests("E", &churn_stream(n, 12, 0.3, true, &mut rng(427)));
    let registry = std::sync::Arc::new(dynfo_obs::Registry::new());
    let mut bulk =
        DynFoMachine::new(p(), n).with_obs(&dynfo_obs::ObsHandle::with_registry(registry.clone()));
    let mut stream = DynFoMachine::new(p(), n);
    for r in &prelude {
        bulk.apply(r).unwrap();
        stream.apply(r).unwrap();
    }
    let reqs = [
        Request::bulk_ins("E", chain()),
        Request::bulk_del("E", and([lt(v("x0"), v("x1")), lt(v("x1"), lit(5))])),
    ];
    let mut live_delta = 0usize;
    for req in &reqs {
        let expanded = bulk.expand_bulk(req).unwrap();
        live_delta += expanded.len();
        for r in &expanded {
            stream.apply(r).unwrap();
        }
        bulk.apply(req).unwrap();
        assert_eq!(bulk.state(), stream.state(), "after {req}");
    }
    assert!(live_delta > 2, "the δs were not no-ops");
    assert_eq!(
        bulk.stats().requests,
        stream.stats().requests,
        "the fallback replays one request per live Δ tuple"
    );
    assert_eq!(
        bulk.stats().installs,
        stream.stats().installs,
        "and routes every install identically"
    );
    assert_eq!(
        registry.counter("machine.bulk_fallback").get(),
        2,
        "ineligible kind"
    );
}

/// A memoryless program whose delete rules are a DeleteCopy plus a true
/// `Shrink` (target ∧ ψ, ψ positive in the kind's targets): U maintains
/// the downward closure of M under ≤, so bulk deletes are one-shot
/// eligible through the shrink fixpoint.
fn down_closure() -> DynFoProgram {
    let ins_m = rel("M", [v("x0")]) | eq(v("x0"), param(0));
    let del_m = rel("M", [v("x0")]) & not(eq(v("x0"), param(0)));
    // ins(M, a): U gains every x ≤ a.
    let ins_u = rel("U", [v("x")]) | not(lt(param(0), v("x")));
    // del(M, a): U keeps x iff some surviving member still dominates it.
    let del_u = rel("U", [v("x")])
        & exists(
            ["y"],
            rel("M", [v("y")]) & not(eq(v("y"), param(0))) & not(lt(v("y"), v("x"))),
        );
    DynFoProgram::builder("down_closure")
        .input_relation("M", 1)
        .aux_relation("U", 1)
        .memoryless()
        .on(RequestKind::ins("M"), "M", &["x0"], ins_m)
        .on(RequestKind::ins("M"), "U", &["x"], ins_u)
        .on(RequestKind::del("M"), "M", &["x0"], del_m)
        .on(RequestKind::del("M"), "U", &["x"], del_u)
        .query(exists(["x"], rel("U", [v("x")])))
        .build()
}

/// Bulk *deletes* take the one-shot path too, through the shrink
/// fixpoint, and match the expanded stream exactly.
#[test]
fn shrink_program_bulk_delete_takes_the_one_shot_path() {
    let n = 12u32;
    let mut bulk = DynFoMachine::new(down_closure(), n);
    let mut stream = DynFoMachine::new(down_closure(), n);
    for &m in &[3u32, 7, 10] {
        bulk.apply(&Request::ins("M", [m])).unwrap();
        stream.apply(&Request::ins("M", [m])).unwrap();
    }
    // δ = everything below 8: live Δ is {3, 7}, deleted in one request.
    let req = Request::bulk_del("M", lt(v("x0"), lit(8)));
    let expanded = bulk.expand_bulk(&req).unwrap();
    assert_eq!(expanded.len(), 2, "live Δ = {{3, 7}}");
    for r in &expanded {
        stream.apply(r).unwrap();
    }
    bulk.apply(&req).unwrap();
    assert_eq!(bulk.state(), stream.state());
    assert_eq!(bulk.stats().requests, 4, "3 seeds + one one-shot bulk delete");
    // U shrank to the downward closure of {10}.
    assert!(bulk.holds("U", [10u32]));
    assert!(!bulk.holds("U", [11u32]));
}

/// The custom shrink program under randomized mixed streams.
#[test]
fn shrink_program_differential_over_random_streams() {
    let n = 10u32;
    let mut rand = rng(431);
    let base: Vec<Request> = (0..24)
        .map(|_| {
            let i = rand.gen_range(0..n);
            if rand.gen_bool(0.4) {
                Request::del("M", [i])
            } else {
                Request::ins("M", [i])
            }
        })
        .collect();
    let mut drand = rng(433);
    let reqs = splice(base, "M", 4, false, |_| delta1(n, &mut drand));
    run_differential(
        &down_closure,
        n,
        &reqs,
        &[],
        &[DiffMode::Plans, DiffMode::Bulk],
    );
}

/// Bulk requests compose with every execution mode at once: the native
/// path, the parallel scheduler and `apply_batch`
/// (which dispatches bulk natively inside a chunk) all stay aligned on
/// one mixed stream.
#[test]
fn bulk_composes_with_every_execution_mode() {
    let n = 8u32;
    let base = edge_requests("E", &churn_stream(n, 32, 0.35, true, &mut rng(437)));
    let mut drand = rng(439);
    let reqs = splice(base, "E", 6, false, |_| delta2(n, &mut drand));
    run_differential(
        &programs::reach_u::program,
        n,
        &reqs,
        &[("connected", &[0, 7])],
        &[
            DiffMode::Plans,
            DiffMode::Bulk,
            DiffMode::Parallel(3),
            DiffMode::Batch(5),
        ],
    );
}

/// A bulk change's route is a fact of its kind: semi REACH_u's insert
/// kind is eligible, so every Δ size — one tuple, a pair, the chain,
/// every increasing pair — runs the one-shot fixpoint as one request,
/// lands on its expanded stream's state, and never falls back.
#[test]
fn eligible_kinds_run_one_shot_at_every_delta_size() {
    let n = 16u32;
    let p = programs::semi::reach_u_program;
    let deltas = [
        (1, and([chain(), lt(v("x1"), lit(2))])),
        (2, and([chain(), lt(v("x1"), lit(3))])),
        (15, chain()),
        (120, lt(v("x0"), v("x1"))),
    ];
    for (size, delta) in deltas {
        let registry = std::sync::Arc::new(dynfo_obs::Registry::new());
        let mut bulk = DynFoMachine::new(p(), n)
            .with_obs(&dynfo_obs::ObsHandle::with_registry(registry.clone()));
        let mut stream = DynFoMachine::new(p(), n);
        let req = Request::bulk_ins("E", delta);
        let expanded = bulk.expand_bulk(&req).unwrap();
        assert_eq!(expanded.len(), size);
        stream.apply_all(&expanded).unwrap();
        bulk.apply(&req).unwrap();
        assert_eq!(bulk.state(), stream.state(), "|Δ| = {size}");
        assert_eq!(bulk.stats().requests, 1, "|Δ| = {size}: one request");
        assert_eq!(
            registry.counter("machine.bulk_fallback").get(),
            0,
            "|Δ| = {size}"
        );
    }
}

/// δ reads no relation at all (the successor chain is numeric), so no
/// density gate may send it to the interpreter: the chain bulk on
/// semi REACH_u at n = 128 runs δ and every closure round compiled, and
/// the request's work — which absorbs δ's — builds no interpreter row.
#[test]
fn relation_free_delta_runs_compiled() {
    let n = 128u32;
    let mut m = DynFoMachine::new(programs::semi::reach_u_program(), n);
    let req = Request::bulk_ins("E", chain());
    let work = m.apply(&req).unwrap();
    assert_eq!(m.stats().requests, 1, "one-shot");
    assert!(m.query_named("connected", &[0, n - 1]).unwrap());
    assert_eq!(work.rows_built, 0, "the interpreter ran: {work:?}");
    assert_eq!(work.plan_fallback, 0, "{work:?}");
    // δ's plan is one of the executions the request counts: one per
    // closure round of P's rule, plus δ's own.
    let rounds = m.stats().installs.grow_evals;
    assert!(rounds >= 7, "a 127-edge chain closes by doubling: {rounds} rounds");
    assert_eq!(work.plan_compiled, rounds + 1, "δ's work is not in the request's: {work:?}");
    assert_eq!(m.stats().update_work.rows_built, 0);
}

/// The bulk path's interpreter caller: δ holds a 5-variable block, past
/// the compile cap at n = 64 ([`dynfo_testutil::clique`]), so it is
/// materialized by the interpreter. `S` collects the vertices that
/// start a 5-clique of `E`; its closed residual holds the same block,
/// so the kind's closure never compiles and the kind is not one-shot
/// eligible: the change replays per tuple — `machine.bulk_fallback`'s
/// one cause — and lands on the expanded stream's state.
#[test]
fn bulk_interprets_what_does_not_compile() {
    let vars = ["x", "y"];
    let copy = rel("E", vars.map(v)) | (eq(v("x"), param(0)) & eq(v("y"), param(1)));
    let starts_clique = |x: &str| {
        exists(["a", "b", "c", "d"], dynfo_testutil::clique("E", &[x, "a", "b", "c", "d"]))
    };
    let program = DynFoProgram::builder("clique_starts")
        .input_relation("E", 2)
        .aux_relation("S", 1)
        .memoryless()
        .on(RequestKind::ins("E"), "E", &vars, copy)
        .on(RequestKind::ins("E"), "S", &["x"], rel("S", [v("x")]) | starts_clique("x"))
        .query(Formula::True)
        .build();
    let n = 64;
    let registry = std::sync::Arc::new(dynfo_obs::Registry::new());
    // Two 5-cliques, each ordered by its pairs' first members.
    let seeds: Vec<Request> = [0u32, 20]
        .into_iter()
        .flat_map(|lo| (lo..lo + 5).flat_map(move |a| (a + 1..lo + 5).map(move |b| Request::ins("E", [a, b]))))
        .collect();
    let machine = |obs: &dynfo_obs::ObsHandle| {
        let mut m = DynFoMachine::new(program.clone(), n).with_obs(obs);
        m.apply_all(&seeds).unwrap();
        m
    };
    let mut bulk = machine(&dynfo_obs::ObsHandle::with_registry(registry.clone()));
    let mut stream = machine(&dynfo_obs::ObsHandle::default());
    // An edge to 63 from every vertex that starts a 5-clique.
    let delta = eq(v("x1"), lit(63)) & starts_clique("x0");
    let canonical = dynfo_logic::analysis::canonicalize(&delta);
    assert!(dynfo_logic::Plan::compile(&canonical, bulk.state()).is_none(), "test premise");
    let req = Request::bulk_ins("E", delta);
    let expanded = stream.expand_bulk(&req).unwrap();
    assert_eq!(expanded.len(), 2, "(0, 63), (20, 63)");
    stream.apply_all(&expanded).unwrap();
    let before = bulk.stats().update_work;
    bulk.apply(&req).unwrap();
    assert_eq!(bulk.state(), stream.state());
    assert!(bulk.holds("S", [0u32]) && bulk.holds("S", [20u32]), "S holds both clique starts");
    assert_eq!(bulk.stats().requests, seeds.len() + 2, "the seeds + the 2 expanded tuples");
    let work = bulk.stats().update_work;
    assert!(work.rows_built > before.rows_built, "the replay interpreted: {work:?}");
    assert_eq!(registry.counter("machine.bulk_fallback").get(), 1, "ineligible kind");
}
