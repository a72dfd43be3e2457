//! REACH_u (Theorem 4.1): reachability in undirected graphs, maintained
//! by a spanning forest.
//!
//! Auxiliary relations (paper's notation):
//!
//! * `F(x, y)` — `{x, y}` is an edge of the current spanning forest
//!   (stored symmetrically);
//! * `PV(x, y, u)` — the unique forest path from `x` to `y` passes via
//!   `u` (endpoints included: `F(x,y)` implies `PV(x,y,x)` and
//!   `PV(x,y,y)`).
//!
//! Abbreviations: `P(x,y) ≡ x=y ∨ PV(x,y,x)` (same forest tree) and
//! `Eq(x,y,a,b) ≡ (x=a∧y=b) ∨ (x=b∧y=a)`.
//!
//! Two small corrections to the published formulas (the PODS version is
//! informal in places):
//!
//! * the path-segment test needs the *trivial segment* case — we use
//!   `Via(p,q,z) ≡ (p=q ∧ z=p) ∨ PV(p,q,z)` where the paper writes just
//!   `PV(p,q,z)`; otherwise inserting the very first edge of a tree
//!   produces no endpoint tuples, contradicting the stated invariant;
//! * the PV insert-update needs the `¬P(a,b)` guard that the paper's F
//!   update already has (otherwise inserting an edge inside an existing
//!   tree manufactures bogus path tuples);
//! * the paper elides the `New` formula for delete; we pick the
//!   lexicographically least reconnecting edge, oriented from `a`'s side
//!   to `b`'s side, which also makes the program's choice deterministic.
//!
//! The delete update uses the paper's `T(x,y,z) ≡ PV(x,y,z) ∧
//! ¬(PV(x,y,a) ∧ PV(x,y,b))` — forest paths that survive cutting edge
//! `{a,b}` — and reconnects via `New` exactly as Theorem 4.1 describes.

use crate::program::DynFoProgram;
use crate::programs::eq_pair;
use crate::request::RequestKind;
use dynfo_logic::formula::{
    eq, exists, forall, implies, le, lt, not, param, rel, v, Formula, Term,
};

/// `P(s, t) ≡ s = t ∨ PV(s, t, s)` for arbitrary terms.
pub(crate) fn same_tree(s: Term, t: Term) -> Formula {
    eq(s, t) | rel("PV", [s, t, s])
}

/// `Via(p, q, z)`: `z` lies on the forest path from `p` to `q`
/// (including the trivial path when `p = q`).
pub(crate) fn via(p: Term, q: Term, z: Term) -> Formula {
    (eq(p, q) & eq(z, p)) | rel("PV", [p, q, z])
}

/// `T(x, y, z)` w.r.t. an arbitrary cut edge `{c, d}`: the forest path
/// from `x` to `y` via `z` survives deleting that edge. (Only meaningful
/// when `{c,d}` is a forest edge: a tree path uses the edge iff it
/// passes via both endpoints.)
pub(crate) fn t_cut(x: Term, y: Term, z: Term, c: Term, d: Term) -> Formula {
    rel("PV", [x, y, z]) & not(rel("PV", [x, y, c]) & rel("PV", [x, y, d]))
}

/// `ViaT`: like [`via`] but in the forest cut at `{c, d}`.
pub(crate) fn via_cut(p: Term, q: Term, z: Term, c: Term, d: Term) -> Formula {
    (eq(p, q) & eq(z, p)) | t_cut(p, q, z, c, d)
}

/// Connectivity in the forest cut at `{c, d}`.
pub(crate) fn conn_cut(p: Term, q: Term, c: Term, d: Term) -> Formula {
    eq(p, q) | t_cut(p, q, p, c, d)
}

/// `T` with the deleted request edge `{?0, ?1}` as the cut.
fn t_rel(x: Term, y: Term, z: Term) -> Formula {
    t_cut(x, y, z, param(0), param(1))
}

/// `ViaT` with the request edge as the cut.
fn via_t(p: Term, q: Term, z: Term) -> Formula {
    via_cut(p, q, z, param(0), param(1))
}

/// Connectivity in the request-cut forest.
fn conn_t(p: Term, q: Term) -> Formula {
    conn_cut(p, q, param(0), param(1))
}

/// `Cand(x, y)`: a surviving graph edge from `a`'s side to `b`'s side of
/// the cut — a candidate replacement for the deleted forest edge.
fn cand(x: Term, y: Term) -> Formula {
    rel("E", [x, y])
        & not((eq(x, param(0)) & eq(y, param(1))) | (eq(x, param(1)) & eq(y, param(0))))
        & conn_t(x, param(0))
        & conn_t(y, param(1))
}

/// `New(x, y)`: the lexicographically least candidate edge, stated as
/// two successive minima — no candidate starts below `x`, and none from
/// `x` ends below `y`. Each minimum mentions one of `x`, `y` beside its
/// bound variables, so the formula lowers to slots of arity ≤ 3 (the
/// single block of [`new_edge_one_block`] is 4-ary in `(x, y, p, q)`).
pub(crate) fn new_edge(x: &str, y: &str) -> Formula {
    cand(v(x), v(y))
        & forall(
            ["p", "q"],
            implies(lt(v("p"), v(x)), not(cand(v("p"), v("q")))),
        )
        & forall(["q"], implies(lt(v("q"), v(y)), not(cand(v(x), v("q")))))
}

/// The same minimum as one 4-ary block comparing `(x, y)` against every
/// candidate pair lexicographically: two copies of `Cand` where
/// [`new_edge`] has three. k-edge connectivity composes the delete
/// formulas into themselves, where every copy compounds and nothing is
/// lowered per update, so its query keeps this statement.
pub(crate) fn new_edge_one_block(x: &str, y: &str) -> Formula {
    let lex_le = lt(v(x), v("p")) | (eq(v(x), v("p")) & le(v(y), v("q")));
    cand(v(x), v(y)) & forall(["p", "q"], implies(cand(v("p"), v("q")), lex_le))
}

/// The six update formulas of Theorem 4.1, shared with the programs that
/// extend the spanning-forest structure (bipartiteness, k-edge
/// connectivity, minimum spanning forests).
pub(crate) struct ForestFormulas {
    pub ins_e: Formula,
    pub ins_f: Formula,
    pub ins_pv: Formula,
    pub del_e: Formula,
    pub del_f: Formula,
    pub del_pv: Formula,
}

/// Build the Theorem 4.1 update formulas.
pub(crate) fn forest_formulas() -> ForestFormulas {
    forest_formulas_with(new_edge)
}

/// The update formulas over a given statement of `New`.
pub(crate) fn forest_formulas_with(new_edge: fn(&str, &str) -> Formula) -> ForestFormulas {
    let a = param(0);
    let b = param(1);

    // ---- insert(E, a, b) ----
    let ins_e = rel("E", [v("x"), v("y")]) | eq_pair("x", "y");
    let ins_f = rel("F", [v("x"), v("y")]) | (eq_pair("x", "y") & not(same_tree(a, b)));
    let ins_pv = rel("PV", [v("x"), v("y"), v("z")])
        | (not(same_tree(a, b))
            & exists(
                ["u", "w"],
                ((eq(v("u"), a) & eq(v("w"), b)) | (eq(v("u"), b) & eq(v("w"), a)))
                    & same_tree(v("x"), v("u"))
                    & same_tree(v("w"), v("y"))
                    & (via(v("x"), v("u"), v("z")) | via(v("w"), v("y"), v("z"))),
            ));

    // ---- delete(E, a, b) ----
    let del_e = rel("E", [v("x"), v("y")]) & not(eq_pair("x", "y"));
    let was_forest = rel("F", [a, b]);
    let del_f = (rel("F", [v("x"), v("y")]) & not(eq_pair("x", "y")))
        | (was_forest.clone() & (new_edge("x", "y") | new_edge("y", "x")));
    let del_pv = (not(was_forest.clone()) & rel("PV", [v("x"), v("y"), v("z")]))
        | (was_forest
            & (t_rel(v("x"), v("y"), v("z"))
                | exists(
                    ["u", "w"],
                    (new_edge("u", "w") | new_edge("w", "u"))
                        & conn_t(v("x"), v("u"))
                        & conn_t(v("w"), v("y"))
                        & (via_t(v("x"), v("u"), v("z")) | via_t(v("w"), v("y"), v("z"))),
                )));

    ForestFormulas {
        ins_e,
        ins_f,
        ins_pv,
        del_e,
        del_f,
        del_pv,
    }
}

/// Build the REACH_u program.
///
/// Input vocabulary `⟨E², s, t⟩`; requests `ins(E,a,b)` / `del(E,a,b)`
/// act symmetrically. Boolean query: are `s` and `t` connected? Named
/// query `connected(?0, ?1)`.
pub fn program() -> DynFoProgram {
    use dynfo_logic::formula::cst;
    let ForestFormulas {
        ins_e,
        ins_f,
        ins_pv,
        del_e,
        del_f,
        del_pv,
    } = forest_formulas();

    DynFoProgram::builder("reach_u")
        .input_relation("E", 2)
        .input_constant("s")
        .input_constant("t")
        .aux_relation("F", 2)
        .aux_relation("PV", 3)
        .on(RequestKind::ins("E"), "E", &["x", "y"], ins_e)
        .on(RequestKind::ins("E"), "F", &["x", "y"], ins_f)
        .on(RequestKind::ins("E"), "PV", &["x", "y", "z"], ins_pv)
        .on(RequestKind::del("E"), "E", &["x", "y"], del_e)
        .on(RequestKind::del("E"), "F", &["x", "y"], del_f)
        .on(RequestKind::del("E"), "PV", &["x", "y", "z"], del_pv)
        .query(same_tree(cst("s"), cst("t")))
        .named_query("connected", same_tree(param(0), param(1)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_with_oracle, DynFoMachine};
    use crate::request::Request;
    use dynfo_graph::generate::{churn_stream, rng, EdgeOp};
    use dynfo_graph::graph::Graph;
    use dynfo_graph::traversal::{components, connected};
    use dynfo_logic::{Structure, Tuple};

    fn to_requests(ops: &[EdgeOp]) -> Vec<Request> {
        ops.iter()
            .map(|op| match *op {
                EdgeOp::Ins(a, b) => Request::ins("E", [a, b]),
                EdgeOp::Del(a, b) => Request::del("E", [a, b]),
            })
            .collect()
    }

    fn graph_of(input: &Structure) -> Graph {
        let mut g = Graph::new(input.size());
        for t in input.rel("E").iter() {
            g.insert(t[0], t[1]);
        }
        g
    }

    /// Extract the forest from the machine state and verify every
    /// Theorem 4.1 invariant against the true graph.
    fn check_invariants(machine: &mut DynFoMachine, graph: &Graph, step: usize) {
        let n = graph.num_nodes();
        let state = machine.state().clone();

        // F stored symmetrically and F ⊆ E.
        let mut forest = Graph::new(n);
        for t in state.rel("F").iter() {
            assert!(
                state.holds("F", [t[1], t[0]]),
                "step {step}: F not symmetric at {t}"
            );
            assert!(
                graph.has_edge(t[0], t[1]),
                "step {step}: forest edge {t} not in graph"
            );
            forest.insert(t[0], t[1]);
        }

        // The forest is acyclic and spans the graph's components.
        let graph_comps = components(graph);
        let forest_comps = components(&forest);
        assert_eq!(
            graph_comps, forest_comps,
            "step {step}: forest does not span"
        );
        let num_components = {
            let mut labels: Vec<_> = graph_comps.clone();
            labels.sort_unstable();
            labels.dedup();
            labels.len()
        };
        assert_eq!(
            forest.num_edges(),
            n as usize - num_components,
            "step {step}: forest has a cycle or missing edge"
        );

        // PV is exactly "z on the unique forest path from x to y".
        for x in 0..n {
            let dist = dynfo_graph::traversal::distances(&forest, x);
            for y in 0..n {
                let path = forest_path(&forest, x, y, &dist);
                for z in 0..n {
                    let expected = path.as_ref().is_some_and(|p| p.contains(&z));
                    let actual = state.holds("PV", Tuple::triple(x, y, z));
                    assert_eq!(
                        actual, expected,
                        "step {step}: PV({x},{y},{z}) wrong (path {path:?})"
                    );
                }
            }
        }

        // Connectivity queries agree with BFS.
        for x in 0..n {
            for y in 0..n {
                assert_eq!(
                    machine.query_named("connected", &[x, y]).unwrap(),
                    connected(graph, x, y),
                    "step {step}: connected({x},{y}) wrong"
                );
            }
        }
    }

    /// The unique forest path x → y as a vertex set, if connected and
    /// x ≠ y (None if disconnected; the trivial path is excluded to match
    /// PV's semantics, which never holds tuples (x,x,·)).
    fn forest_path(
        forest: &Graph,
        x: u32,
        y: u32,
        dist_from_x: &[Option<usize>],
    ) -> Option<Vec<u32>> {
        if x == y || dist_from_x[y as usize].is_none() {
            return None;
        }
        // Walk back from y along decreasing distance.
        let mut path = vec![y];
        let mut cur = y;
        while cur != x {
            let d = dist_from_x[cur as usize].unwrap();
            let prev = forest
                .neighbors(cur)
                .find(|&w| dist_from_x[w as usize] == Some(d - 1))
                .expect("forest path must step down");
            path.push(prev);
            cur = prev;
        }
        Some(path)
    }

    #[test]
    fn random_churn_full_invariants() {
        let ops = churn_stream(7, 60, 0.35, true, &mut rng(42));
        run_with_oracle(program(), 7, &to_requests(&ops), |step, machine, input| {
            let graph = graph_of(input);
            check_invariants(machine, &graph, step);
        }).unwrap();
    }

    #[test]
    fn two_minima_pick_the_lexicographically_least_candidate() {
        // On forests the machine itself maintains, for every forest edge
        // as the cut: both statements of `New` select the same pairs.
        for (n, seed) in [(5u32, 1u64), (9, 2), (16, 3)] {
            let ops = churn_stream(n, 3 * n as usize, 0.2, true, &mut rng(seed));
            let mut m = DynFoMachine::new(program(), n);
            m.apply_all(&to_requests(&ops)).unwrap();
            let cuts: Vec<_> = m.state().rel("F").iter().collect();
            assert!(!cuts.is_empty(), "n={n}: no forest edge to cut");
            let mut replaced = 0;
            for cut in cuts {
                let params = [cut[0], cut[1]];
                let new = m.evaluate(&new_edge("x", "y"), &params).unwrap().sorted();
                let old = m.evaluate(&new_edge_one_block("x", "y"), &params).unwrap();
                assert_eq!(new, old.sorted(), "n={n}, cut {cut}");
                assert!(new.len() <= 1, "n={n}, cut {cut}: {} minima", new.len());
                replaced += new.len();
            }
            assert!(replaced > 0, "n={n}: no cut edge had a replacement");
        }
    }

    #[test]
    fn delete_reconnects_through_replacement_edge() {
        // Cycle 0-1-2-3-0: deleting a forest edge must reconnect via the
        // non-forest edge.
        let mut m = DynFoMachine::new(program(), 4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            m.apply(&Request::ins("E", [a, b])).unwrap();
        }
        // All forest edges are among the first three inserts; (3,0) is
        // the non-forest edge.
        assert!(m.holds("F", [0u32, 1]));
        assert!(!m.holds("F", [3u32, 0]));
        m.apply(&Request::del("E", [1, 2])).unwrap();
        assert!(m.query_named("connected", &[1, 2]).unwrap());
        assert!(m.holds("F", [3u32, 0]) || m.holds("F", [0u32, 3]));
    }

    #[test]
    fn boolean_query_tracks_constants() {
        let mut m = DynFoMachine::new(program(), 6);
        m.apply(&Request::set("s", 0)).unwrap();
        m.apply(&Request::set("t", 3)).unwrap();
        assert!(!m.query().unwrap());
        m.apply(&Request::ins("E", [0, 1])).unwrap();
        m.apply(&Request::ins("E", [1, 3])).unwrap();
        assert!(m.query().unwrap());
        m.apply(&Request::del("E", [0, 1])).unwrap();
        assert!(!m.query().unwrap());
    }

    #[test]
    fn self_loops_are_harmless() {
        let mut m = DynFoMachine::new(program(), 4);
        m.apply(&Request::ins("E", [2, 2])).unwrap();
        assert!(m.holds("E", [2u32, 2]));
        assert!(!m.holds("F", [2u32, 2]));
        assert!(!m.query_named("connected", &[2, 3]).unwrap());
        m.apply(&Request::del("E", [2, 2])).unwrap();
        assert!(!m.holds("E", [2u32, 2]));
    }

    #[test]
    fn update_depth_is_constant() {
        let p = program();
        // Insert PV: depth 1 (∃uw). Delete PV: ∃uw over New (which hides
        // a ¬∃pq) → depth 2. Constant in n — the CRAM[1] claim.
        assert_eq!(p.update_depth(), 2);
    }

    #[test]
    fn phantom_deletes_change_nothing() {
        let mut m = DynFoMachine::new(program(), 5);
        m.apply(&Request::ins("E", [0, 1])).unwrap();
        let before = m.state().clone();
        m.apply(&Request::del("E", [2, 3])).unwrap();
        assert_eq!(m.state(), &before);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Connectivity matches BFS on arbitrary short request
            /// sequences (including redundant and phantom operations,
            /// which churn streams never produce).
            #[test]
            fn connectivity_matches_bfs(
                ops in proptest::collection::vec((0u32..5, 0u32..5, proptest::bool::ANY), 1..25)
            ) {
                let reqs: Vec<Request> = ops
                    .iter()
                    .map(|&(a, b, ins)| if ins {
                        Request::ins("E", [a, b])
                    } else {
                        Request::del("E", [a, b])
                    })
                    .collect();
                let mut machine = DynFoMachine::new(program(), 5);
                let mut graph = Graph::new(5);
                for req in &reqs {
                    machine.apply(req).unwrap();
                    match req {
                        Request::Ins(_, args) => {
                            graph.insert(args[0], args[1]);
                            // Mirror the symmetric interpretation.
                        }
                        Request::Del(_, args) => {
                            graph.remove(args[0], args[1]);
                        }
                        _ => {}
                    }
                    for x in 0..5 {
                        for y in 0..5 {
                            prop_assert_eq!(
                                machine.query_named("connected", &[x, y]).unwrap(),
                                connected(&graph, x, y),
                                "connected({}, {}) after {}", x, y, req
                            );
                        }
                    }
                }
            }
        }
    }
}
