//! Semi-dynamic programs (`Dyn_s-FO`, §3.1): the insert-only variant.
//!
//! When deletes are disallowed the machinery collapses dramatically:
//! undirected reachability needs just the symmetric path relation
//!
//! ```text
//! ins(E, a, b):  P'(x,y) ≡ P(x,y) ∨ (P*(x,a) ∧ P*(b,y)) ∨ (P*(x,b) ∧ P*(a,y))
//! ```
//!
//! — a **quantifier-free** update (CRAM depth 0), no spanning forest, no
//! arity-3 relation. Contrast with the fully dynamic Theorem 4.1, whose
//! delete support costs the forest/PV machinery and depth 2. The same
//! collapse happens for directed reachability (drop the acyclicity
//! promise: inserts never need the detour argument).
//!
//! A machine running a semi-dynamic program simply has no rules for
//! `del` requests; [`crate::machine::DynFoMachine`] then leaves the
//! state unchanged, which models the class's "deletes do not occur"
//! promise (the input copy would desynchronize if the promise were
//! broken — callers must respect it).

use crate::program::DynFoProgram;
use crate::programs::eq_pair;
use crate::request::RequestKind;
use dynfo_logic::formula::{cst, eq, param, rel, v, Formula, Term};

/// `P*(s, t) ≡ s = t ∨ P(s, t)`.
fn path(s: Term, t: Term) -> Formula {
    eq(s, t) | rel("P", [s, t])
}

/// Semi-dynamic undirected reachability. Input `⟨E², s, t⟩`; only
/// `ins(E, ·, ·)` and `set` requests occur.
///
/// `P` maintains the *reflexive* symmetric path relation: the `x = y`
/// disjunct pulls the whole diagonal in on the first insert. That makes
/// the update idempotent — re-applying `ins(E, a, b)` with `a ~ b`
/// already connected changes nothing, whereas the irreflexive variant
/// would manufacture diagonal pairs from `P*(x,a) ∧ P*(b,x)` — which is
/// exactly what the `memoryless` claim promises and what the bulk
/// one-shot Δ-fixpoint (which closes every rule over the whole change
/// set repeatedly) relies on to stay byte-identical to the expanded
/// single-tuple stream.
pub fn reach_u_program() -> DynFoProgram {
    let (a, b) = (param(0), param(1));
    let ins_e = rel("E", [v("x"), v("y")]) | eq_pair("x", "y");
    let ins_p = rel("P", [v("x"), v("y")])
        | eq(v("x"), v("y"))
        | (path(v("x"), a) & path(b, v("y")))
        | (path(v("x"), b) & path(a, v("y")));

    DynFoProgram::builder("semi_reach_u")
        .input_relation("E", 2)
        .input_constant("s")
        .input_constant("t")
        .aux_relation("P", 2)
        .memoryless()
        .on(RequestKind::ins("E"), "E", &["x", "y"], ins_e)
        .on(RequestKind::ins("E"), "P", &["x", "y"], ins_p)
        .query(path(cst("s"), cst("t")))
        .named_query("connected", path(param(0), param(1)))
        .build()
}

/// Semi-dynamic **directed** reachability — no acyclicity promise
/// needed, unlike the fully dynamic Theorem 4.2 (which only handles
/// deletes under the acyclic promise; general directed delete is the
/// paper's open "Is REACH in Dyn-FO?" question).
pub fn reach_program() -> DynFoProgram {
    use crate::programs::tuple_is_params;
    let (a, b) = (param(0), param(1));
    let ins_e = rel("E", [v("x"), v("y")]) | tuple_is_params(&["x", "y"]);
    // Reflexive for the same idempotence reason as `reach_u_program`.
    let ins_p = rel("P", [v("x"), v("y")])
        | eq(v("x"), v("y"))
        | (path(v("x"), a) & path(b, v("y")));

    DynFoProgram::builder("semi_reach")
        .input_relation("E", 2)
        .input_constant("s")
        .input_constant("t")
        .aux_relation("P", 2)
        .memoryless()
        .on(RequestKind::ins("E"), "E", &["x", "y"], ins_e)
        .on(RequestKind::ins("E"), "P", &["x", "y"], ins_p)
        .query(path(cst("s"), cst("t")))
        .named_query("reaches", path(param(0), param(1)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DynFoMachine;
    use crate::request::Request;
    use dynfo_graph::graph::{DiGraph, Graph};
    use dynfo_graph::traversal::{connected, reaches};
    use dynfo_graph::unionfind::UnionFind;
    use rand::Rng;

    #[test]
    fn undirected_matches_union_find_under_inserts() {
        let n = 12u32;
        let mut m = DynFoMachine::new(reach_u_program(), n);
        let mut uf = UnionFind::new(n);
        let mut rng = dynfo_graph::generate::rng(301);
        for _ in 0..60 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            m.apply(&Request::ins("E", [a, b])).unwrap();
            uf.union(a, b);
            for x in 0..n {
                for y in 0..n {
                    assert_eq!(
                        m.query_named("connected", &[x, y]).unwrap(),
                        uf.same(x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn directed_handles_cycles_without_a_promise() {
        let n = 6u32;
        let mut m = DynFoMachine::new(reach_program(), n);
        let mut g = DiGraph::new(n);
        // Build a cycle 0→1→2→0 plus a tail — the fully dynamic
        // Theorem 4.2 program may not see cycles; semi-dynamic is fine.
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            m.apply(&Request::ins("E", [a, b])).unwrap();
            g.insert(a, b);
        }
        for x in 0..n {
            for y in 0..n {
                assert_eq!(
                    m.query_named("reaches", &[x, y]).unwrap(),
                    reaches(&g, x, y),
                    "reaches({x},{y})"
                );
            }
        }
    }

    #[test]
    fn memoryless_under_duplicate_inserts() {
        // The irreflexive path relation failed exactly this: a repeated
        // insert between already-connected endpoints manufactured
        // diagonal pairs, so the aux state depended on the history, not
        // just the evaluated input — and the bulk one-shot fixpoint
        // (which re-closes rules over the whole Δ) diverged from the
        // expanded stream.
        use crate::machine::check_memoryless;
        let a = vec![Request::ins("E", [0, 1]), Request::ins("E", [1, 2])];
        let b = vec![
            Request::ins("E", [0, 1]),
            Request::ins("E", [0, 1]),
            Request::ins("E", [1, 2]),
            Request::ins("E", [1, 2]),
            Request::ins("E", [0, 1]),
        ];
        assert!(check_memoryless(&reach_u_program(), 5, &a, &b).unwrap());
        assert!(check_memoryless(&reach_program(), 5, &a, &b).unwrap());
    }

    #[test]
    fn update_depth_is_zero() {
        // The Dyn_s headline: quantifier-free maintenance.
        assert_eq!(reach_u_program().update_depth(), 0);
        assert_eq!(reach_program().update_depth(), 0);
    }

    #[test]
    fn much_cheaper_than_fully_dynamic() {
        // Same insert workload; semi-dynamic should do far less
        // evaluator work than Theorem 4.1's forest maintenance.
        let n = 10u32;
        let inserts: Vec<Request> = (0..n - 1)
            .map(|i| Request::ins("E", [i, i + 1]))
            .collect();
        let mut semi = DynFoMachine::new(reach_u_program(), n);
        let mut full = DynFoMachine::new(crate::programs::reach_u::program(), n);
        semi.apply_all(&inserts).unwrap();
        full.apply_all(&inserts).unwrap();
        // Whatever route each rule took, its work is kernel words or
        // interpreter rows.
        let work = |m: &DynFoMachine| {
            let w = m.stats().update_work;
            w.kernel_words + w.rows_built as u64
        };
        assert!(
            work(&semi) * 2 < work(&full),
            "semi {} vs full {}",
            work(&semi),
            work(&full)
        );
        // And of course both answer alike.
        assert!(semi.query_named("connected", &[0, n - 1]).unwrap());
        assert!(full.query_named("connected", &[0, n - 1]).unwrap());
    }

    #[test]
    fn graph_oracle_cross_check() {
        let n = 9u32;
        let mut m = DynFoMachine::new(reach_u_program(), n);
        let mut g = Graph::new(n);
        let mut rng = dynfo_graph::generate::rng(303);
        for _ in 0..40 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            m.apply(&Request::ins("E", [a, b])).unwrap();
            g.insert(a, b);
        }
        for x in 0..n {
            assert_eq!(
                m.query_named("connected", &[x, (x + 4) % n]).unwrap(),
                connected(&g, x, (x + 4) % n)
            );
        }
    }
}
