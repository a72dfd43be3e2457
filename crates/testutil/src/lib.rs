//! # dynfo-testutil
//!
//! The one copy of the oracle-differential step-loop that used to be
//! pasted into three test files: [`run_differential`] drives one
//! request stream through several machine configurations
//! ([`DiffMode`]s) and asserts they are indistinguishable — same
//! auxiliary state, same boolean query, same named-query answers — at
//! every aligned step, with the first of them held to
//! [`reference_step`], the paper's definition of an update executed
//! literally. Also hosts the shared workload builders
//! ([`edge_requests`], [`weighted_stream`]) and the formula-level
//! plan-vs-interpreter assertion ([`assert_plan_matches`]) used by the
//! `dynfo-logic` differential suite.

use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_logic::analysis::canonicalize;
use dynfo_logic::formula::Formula;
use dynfo_logic::{evaluate, Elem, Evaluator, Plan, Relation, Structure, Sym};
use rand::Rng;

pub mod strings;
pub mod synth;

pub use dynfo_graph::generate::{churn_stream, dag_churn_stream, rng, EdgeOp};
pub use strings::{
    assert_dfa_oracle, assert_dyck_oracle, dyck_edit_requests, string_edit_requests,
};

/// Convert edge ops into ins/del requests against relation `rel`.
pub fn edge_requests(rel: &str, ops: &[EdgeOp]) -> Vec<Request> {
    ops.iter()
        .map(|op| match *op {
            EdgeOp::Ins(a, b) => Request::ins(rel, [a, b]),
            EdgeOp::Del(a, b) => Request::del(rel, [a, b]),
        })
        .collect()
}

/// A weighted-edge stream honoring MSF's delete contract: deletes
/// replay a live weighted edge, inserts dedup by the (min, max) pair.
pub fn weighted_stream(n: u32, steps: usize, seed: u64) -> Vec<Request> {
    let mut rand = rng(seed);
    let mut live: Vec<(u32, u32, u32)> = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..steps {
        if !live.is_empty() && rand.gen_bool(0.3) {
            let i = rand.gen_range(0..live.len());
            let (a, b, w) = live.swap_remove(i);
            reqs.push(Request::del("W", [a, b, w]));
        } else {
            let a = rand.gen_range(0..n);
            let b = rand.gen_range(0..n);
            if a == b || live.iter().any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b))) {
                continue;
            }
            let w = rand.gen_range(0..n);
            live.push((a.min(b), a.max(b), w));
            reqs.push(Request::ins("W", [a.min(b), a.max(b), w]));
        }
    }
    reqs
}

/// Definition 3.1 verbatim — the reference every execution route is
/// held to. After a request, every auxiliary relation with a rule for
/// the request's kind is redefined *simultaneously* as the set of
/// tuples satisfying the rule's stored formula over the pre-state;
/// everything else is copied, and `set(c, a)` rebinds `c`. One plain
/// [`evaluate`] per rule and a wholesale relation replacement: no
/// machine, no cache, no plans, no deltas, no rule classification.
///
/// # Panics
/// Panics on a bulk request (not a request of Definition 3.1 — replay
/// its expanded stream instead) or if a formula fails to evaluate.
pub fn reference_step(program: &DynFoProgram, pre: &Structure, req: &Request) -> Structure {
    assert!(!req.is_bulk(), "reference_step takes single-tuple requests: {req}");
    let n = pre.size();
    let params = req.params();
    let mut post = pre.clone();
    for rule in program.rules_for(req.kind()) {
        let mut table = evaluate(&rule.formula, pre, &params)
            .unwrap_or_else(|e| panic!("reference: {} on {req} failed: {e}", rule.target));
        // The program builder simplifies stored formulas, which can
        // erase a declared variable (a tautological `x = x`); such a
        // variable is unconstrained and ranges over the universe.
        for &v in &rule.vars {
            if table.col(v).is_none() {
                table = table.extend(v, n);
            }
        }
        let rows = table.project(&rule.vars).into_rows();
        let id = pre.vocab().relation(rule.target).expect("rule target in aux vocabulary");
        post.set_relation(id, Relation::from_tuples_with_universe(rule.vars.len(), n, rows));
    }
    if let Request::Set(c, value) = req {
        if post.vocab().constant(*c).is_some() {
            post.set_const(c.as_str(), *value);
        }
    }
    post
}

/// One machine configuration for [`run_differential`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffMode {
    /// The machine as built: compiled bit-parallel plans, with the
    /// interpreter as its in-runtime fallback.
    Plans,
    /// Plans, applying requests through `apply_batch` in chunks of
    /// this size; state is compared at chunk boundaries only.
    Batch(usize),
    /// Definable bulk changes applied natively through the machine's
    /// bulk-maintenance path (one-shot Δ-fixpoint or internal
    /// fallback). Every *other* non-batch mode replays the equivalent
    /// single-tuple stream from its own `expand_bulk` instead, so
    /// holding this mode against any of them is exactly the bulk ≡
    /// tuple-stream equivalence contract. (`Batch` carries bulk
    /// requests through `apply_batch`, which dispatches them natively
    /// too.)
    Bulk,
}

/// Drive `reqs` through one machine per mode and assert every mode is
/// indistinguishable from `modes[0]` (which must step single-tuple
/// requests: not a batch or bulk mode): identical auxiliary state,
/// identical boolean query answer, and identical answers for every
/// `(name, args)` in `queries`, at every step where the compared
/// machine is aligned (always, except inside a `Batch` chunk).
/// `modes[0]` itself is held to [`reference_step`] after every
/// single-tuple request, so every mode is transitively held to
/// Definition 3.1. A definable bulk request is applied natively by
/// [`DiffMode::Bulk`] and [`DiffMode::Batch`] machines and replayed as
/// each machine's own `expand_bulk` tuple stream everywhere else, so
/// any stream mixing bulk and single-tuple requests doubles as a
/// bulk-vs-stream equivalence check. Returns the machines, in mode
/// order, so callers can make additional assertions about their stats.
pub fn run_differential(
    program: &dyn Fn() -> DynFoProgram,
    n: u32,
    reqs: &[Request],
    queries: &[(&str, &[u32])],
    modes: &[DiffMode],
) -> Vec<DynFoMachine> {
    assert!(!modes.is_empty(), "need at least a reference mode");
    assert!(
        !matches!(modes[0], DiffMode::Batch(_) | DiffMode::Bulk),
        "the reference mode must step single-tuple requests"
    );
    let mut machines: Vec<DynFoMachine> =
        modes.iter().map(|_| DynFoMachine::new(program(), n)).collect();
    let mut pending: Vec<Vec<Request>> = vec![Vec::new(); modes.len()];
    for (step, req) in reqs.iter().enumerate() {
        for (i, mode) in modes.iter().enumerate() {
            match mode {
                DiffMode::Batch(k) => {
                    pending[i].push(req.clone());
                    if pending[i].len() >= (*k).max(1) || step + 1 == reqs.len() {
                        machines[i]
                            .apply_batch(&pending[i])
                            .unwrap_or_else(|e| panic!("step {step}: batch failed: {e}"));
                        pending[i].clear();
                    }
                }
                DiffMode::Bulk => {
                    machines[i]
                        .apply(req)
                        .unwrap_or_else(|e| panic!("step {step} ({req}): apply failed: {e}"));
                }
                _ => {
                    // Bulk requests become the equivalent single-tuple
                    // stream against this machine's own state (equal to
                    // the reference's at every aligned step, so every
                    // mode expands the same stream); non-bulk requests
                    // come back from `expand_bulk` as themselves.
                    let expanded = if req.is_bulk() {
                        machines[i].expand_bulk(req).unwrap_or_else(|e| {
                            panic!("step {step} ({req}): expand failed: {e}")
                        })
                    } else {
                        vec![req.clone()]
                    };
                    for r in &expanded {
                        let expect = (i == 0)
                            .then(|| reference_step(machines[0].program(), machines[0].state(), r));
                        machines[i]
                            .apply(r)
                            .unwrap_or_else(|e| panic!("step {step} ({r}): apply failed: {e}"));
                        if let Some(expect) = expect {
                            assert_eq!(
                                machines[0].state(),
                                &expect,
                                "step {step} ({r}): {:?} diverged from Definition 3.1",
                                modes[0]
                            );
                        }
                    }
                }
            }
        }
        for (i, mode) in modes.iter().enumerate().skip(1) {
            if matches!(mode, DiffMode::Batch(_)) && !pending[i].is_empty() {
                continue; // mid-chunk: not aligned with the reference yet
            }
            let (head, rest) = machines.split_first_mut().unwrap();
            let m = &mut rest[i - 1];
            assert_eq!(
                m.state(),
                head.state(),
                "step {step} ({req}): {mode:?} state diverged from {:?}",
                modes[0]
            );
            assert_eq!(
                m.query().unwrap(),
                head.query().unwrap(),
                "step {step} ({req}): {mode:?} query diverged from {:?}",
                modes[0]
            );
            for &(name, args) in queries {
                assert_eq!(
                    m.query_named(name, args).unwrap(),
                    head.query_named(name, args).unwrap(),
                    "step {step} ({req}): {mode:?} {name}{args:?} diverged"
                );
            }
        }
    }
    machines
}

/// `⋀ rel(vᵢ, vⱼ)` over every pair `i < j` of `vars`: with the `vars`
/// bound together, a block no quantifier moves out of, since every
/// variable shares a conjunct with every other. Five variables at
/// n = 64 make a 2³⁰-bit slot, past every compile cap, so a formula
/// around it runs on the interpreter over any relations.
pub fn clique(rel: &str, vars: &[&str]) -> Formula {
    use dynfo_logic::formula::{and, rel as atom, v};
    and(vars
        .iter()
        .enumerate()
        .flat_map(|(i, &x)| vars[i + 1..].iter().map(move |&y| atom(rel, [v(x), v(y)]))))
}

/// Formula-level differential: compile `f` both with the algebraic
/// optimizer off and on (skipping formulas the plan compiler declines),
/// execute each plan twice on one arena (stable-slot reuse), and hold
/// every run against the interpreter's table. The optimizer must also
/// preserve the root column set — decode depends on it.
pub fn assert_plan_matches(f: &Formula, st: &Structure, params: &[Elem]) {
    let canonical = canonicalize(f);
    let expect = evaluate(&canonical, st, params).expect("interpreter failed");
    let mut orders: Vec<Vec<Sym>> = Vec::new();
    for optimize in [false, true] {
        let Some(plan) = Plan::compile_with(&canonical, st, optimize) else {
            continue;
        };
        let mut arena = plan.arena();
        for run in 0..2 {
            let mut ev = Evaluator::new(st, params);
            let got = plan
                .execute(&mut ev, &mut arena, None)
                .expect("plan execution failed");
            let order: Vec<Sym> = got.vars().to_vec();
            assert_eq!(
                got.sorted(),
                expect.clone().project(&order).sorted(),
                "run {run} (optimize: {optimize}): plan != interpreter for {canonical} \
                 (params {params:?})"
            );
            orders.push(order);
        }
    }
    orders.dedup();
    assert!(
        orders.len() <= 1,
        "optimizer changed the root column order for {canonical}: {orders:?}"
    );
}
