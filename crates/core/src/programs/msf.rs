//! Minimum spanning forests (Theorem 4.4).
//!
//! Input: a weighted symmetric edge relation `W(x, y, q)` — edge `{x,y}`
//! has weight `q` (a universe element, compared with the built-in `≤`).
//! Requests `ins(W, a, b, w)` / `del(W, a, b, w)` act symmetrically.
//!
//! Auxiliary relations: `F` (the minimum spanning forest) and `PV`
//! (forest path-via), maintained as in Theorem 4.1 but with weight-aware
//! edge choice. Edges are ordered by the key `(weight, min, max)`;
//! since that order is total, the MSF is *unique* and the program is
//! **memoryless** (the paper's closing remark of Theorem 4.4).
//!
//! * **Insert** `{a,b}` with weight `w`: if `a`,`b` were disconnected,
//!   exactly Theorem 4.1's merge. Otherwise find the maximum-key edge
//!   `{c,d}` on the forest path `a ⇝ b`; if the new edge's key is
//!   smaller, swap: cut `{c,d}` and re-join through `{a,b}`.
//! * **Delete**: as Theorem 4.1, but the replacement edge is the
//!   *minimum-key* crossing edge instead of the lexicographically least.
//!
//! `W` must be kept functional by the requester (delete an edge before
//! re-inserting it with a different weight); the request's weight
//! parameter on delete must match the stored weight, otherwise the
//! delete is a no-op.

use crate::program::DynFoProgram;
use crate::programs::eq_pair;
use crate::programs::reach_u::{conn_cut, same_tree, t_cut, via, via_cut};
use crate::request::RequestKind;
use dynfo_logic::formula::{eq, exists, le, lt, not, param, rel, v, Formula, Term};

/// Strict key order on weighted, *sorted-endpoint* edges:
/// `(q1, c1, d1) < (q2, c2, d2)` lexicographically.
fn key_lt(q1: Term, c1: Term, d1: Term, q2: Term, c2: Term, d2: Term) -> Formula {
    lt(q1, q2) | (eq(q1, q2) & (lt(c1, c2) | (eq(c1, c2) & lt(d1, d2))))
}

/// The new edge's key `(?2, min(?0,?1), max(?0,?1))` is strictly below
/// `(q, c, d)`.
fn new_key_lt(q: Term, c: Term, d: Term) -> Formula {
    let (a, b, w) = (param(0), param(1), param(2));
    (le(a, b) & key_lt(w, a, b, q, c, d)) | (lt(b, a) & key_lt(w, b, a, q, c, d))
}

/// `OnPath(c, d)` with `c < d`: forest edge `{c,d}` lies on the forest
/// path from `?0` to `?1`.
fn on_path(c: &str, d: &str) -> Formula {
    rel("F", [v(c), v(d)])
        & lt(v(c), v(d))
        & rel("PV", [param(0), param(1), v(c)])
        & rel("PV", [param(0), param(1), v(d)])
}

/// `PathEdge(c, d, q)`: `OnPath(c, d)` with weight `q`.
fn path_edge(c: &str, d: &str, q: &str) -> Formula {
    on_path(c, d) & rel("W", [v(c), v(d), v(q)])
}

/// `MaxEdge(c, d, q)`: `{c,d}` (sorted) is the maximum-key edge on the
/// forest path `?0 ⇝ ?1`, with weight `q`. Stated as three successive
/// maxima — no path edge is heavier, none as heavy starts above `c`,
/// none from `c` as heavy ends above `d` — so no block compares two
/// whole keys and every slot stays at arity ≤ 4.
fn max_edge(c: &str, d: &str, q: &str) -> Formula {
    path_edge(c, d, q)
        & not(exists(["q2", "c2", "d2"], lt(v(q), v("q2")) & path_edge("c2", "d2", "q2")))
        & not(exists(["c2", "d2"], lt(v(c), v("c2")) & path_edge("c2", "d2", q)))
        & not(exists(["d2"], lt(v(d), v("d2")) & path_edge(c, "d2", q)))
}

/// `Swap`: inserting the new edge improves the forest (some path edge
/// has a larger key).
fn swap() -> Formula {
    exists(
        ["c", "d", "q"],
        max_edge("c", "d", "q") & new_key_lt(v("q"), v("c"), v("d")),
    )
}

/// Crossing candidate for delete: a surviving weighted edge from `?0`'s
/// side to `?1`'s side of the cut.
fn del_cand(x: Term, y: Term, q: Term) -> Formula {
    let pair_eq = (eq(x, param(0)) & eq(y, param(1))) | (eq(x, param(1)) & eq(y, param(0)));
    rel("W", [x, y, q])
        & not(pair_eq & eq(q, param(2)))
        & conn_cut(x, param(0), param(0), param(1))
        & conn_cut(y, param(1), param(0), param(1))
}

/// Minimum-key crossing candidate (oriented `?0`-side → `?1`-side),
/// as three successive minima over weight, source and target, like
/// [`max_edge`].
fn min_cand(x: &str, y: &str) -> Formula {
    let cand = |p: &str, r: &str, q: &str| del_cand(v(p), v(r), v(q));
    exists(
        ["q"],
        cand(x, y, "q")
            & not(exists(["q2", "p", "r"], lt(v("q2"), v("q")) & cand("p", "r", "q2")))
            & not(exists(["p", "r"], lt(v("p"), v(x)) & cand("p", "r", "q")))
            & not(exists(["r"], lt(v("r"), v(y)) & cand(x, "r", "q"))),
    )
}

/// Build the MSF program. Named queries: `in_msf(?0, ?1)` (forest
/// membership) and `connected(?0, ?1)`.
pub fn program() -> DynFoProgram {
    let (a, b) = (param(0), param(1));
    let f_xy = rel("F", [v("x"), v("y")]);
    let pv_xyz = rel("PV", [v("x"), v("y"), v("z")]);

    // ---- insert(W, a, b, w) ----
    let ins_w = rel("W", [v("x"), v("y"), v("q")]) | (eq_pair("x", "y") & eq(v("q"), param(2)));
    let disconnected = not(same_tree(a, b));
    // `{c,d}` below refers to the swapped-out maximum edge.
    let max_pair = exists(["q"], max_edge("x", "y", "q") | max_edge("y", "x", "q"));
    let ins_f = (disconnected.clone() & (f_xy.clone() | eq_pair("x", "y")))
        | (same_tree(a, b)
            & ((swap() & ((f_xy.clone() & not(max_pair)) | eq_pair("x", "y")))
                | (not(swap()) & f_xy.clone())));

    let merge_new = exists(
        ["u", "w"],
        ((eq(v("u"), a) & eq(v("w"), b)) | (eq(v("u"), b) & eq(v("w"), a)))
            & same_tree(v("x"), v("u"))
            & same_tree(v("w"), v("y"))
            & (via(v("x"), v("u"), v("z")) | via(v("w"), v("y"), v("z"))),
    );
    // After swapping out {c,d}: surviving paths plus paths re-joined
    // through the new edge {?0, ?1}.
    let swap_pv = exists(
        ["c", "d", "q"],
        max_edge("c", "d", "q")
            & new_key_lt(v("q"), v("c"), v("d"))
            & (t_cut(v("x"), v("y"), v("z"), v("c"), v("d"))
                | (conn_cut(v("x"), a, v("c"), v("d"))
                    & conn_cut(b, v("y"), v("c"), v("d"))
                    & (via_cut(v("x"), a, v("z"), v("c"), v("d"))
                        | via_cut(b, v("y"), v("z"), v("c"), v("d"))))
                | (conn_cut(v("x"), b, v("c"), v("d"))
                    & conn_cut(a, v("y"), v("c"), v("d"))
                    & (via_cut(v("x"), b, v("z"), v("c"), v("d"))
                        | via_cut(a, v("y"), v("z"), v("c"), v("d"))))),
    );
    let ins_pv = (disconnected & (pv_xyz.clone() | merge_new))
        | (same_tree(a, b)
            & ((swap() & swap_pv) | (not(swap()) & pv_xyz.clone())));

    // ---- delete(W, a, b, w) ----
    let del_w = rel("W", [v("x"), v("y"), v("q")])
        & not(eq_pair("x", "y") & eq(v("q"), param(2)));
    // The restructuring fires only if the request removes an actual
    // forest edge: tuple present AND {a,b} in F.
    let was = rel("W", [a, b, param(2)]) & rel("F", [a, b]);
    let del_f = (not(was.clone()) & f_xy.clone())
        | (was.clone()
            & ((f_xy & not(eq_pair("x", "y"))) | min_cand("x", "y") | min_cand("y", "x")));
    let del_pv = (not(was.clone()) & pv_xyz.clone())
        | (was
            & (t_cut(v("x"), v("y"), v("z"), a, b)
                | exists(
                    ["u", "w"],
                    (min_cand("u", "w") | min_cand("w", "u"))
                        & conn_cut(v("x"), v("u"), a, b)
                        & conn_cut(v("w"), v("y"), a, b)
                        & (via_cut(v("x"), v("u"), v("z"), a, b)
                            | via_cut(v("w"), v("y"), v("z"), a, b)),
                )));

    DynFoProgram::builder("msf")
        .input_relation("W", 3)
        .aux_relation("F", 2)
        .aux_relation("PV", 3)
        .memoryless()
        .on(RequestKind::ins("W"), "W", &["x", "y", "q"], ins_w)
        .on(RequestKind::ins("W"), "F", &["x", "y"], ins_f)
        .on(RequestKind::ins("W"), "PV", &["x", "y", "z"], ins_pv)
        .on(RequestKind::del("W"), "W", &["x", "y", "q"], del_w)
        .on(RequestKind::del("W"), "F", &["x", "y"], del_f)
        .on(RequestKind::del("W"), "PV", &["x", "y", "z"], del_pv)
        .query(Formula::True)
        .named_query("in_msf", rel("F", [param(0), param(1)]))
        .named_query("connected", same_tree(param(0), param(1)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{check_memoryless, DynFoMachine};
    use crate::request::Request;
    use dynfo_graph::mst::{kruskal, WeightedGraph};
    use dynfo_logic::formula::{forall, implies};
    use rand::seq::SliceRandom;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Compare the machine's forest with Kruskal's on the same graph.
    fn check_forest(m: &DynFoMachine, g: &WeightedGraph, step: usize, exact: bool) {
        let oracle: BTreeSet<(u32, u32)> =
            kruskal(g).into_iter().map(|(a, b, _)| (a, b)).collect();
        let mut ours = BTreeSet::new();
        for t in m.state().rel("F").iter() {
            assert!(
                m.state().holds("F", [t[1], t[0]]),
                "step {step}: F not symmetric"
            );
            if t[0] <= t[1] {
                ours.insert((t[0], t[1]));
            }
        }
        if exact {
            assert_eq!(ours, oracle, "step {step}: forest differs from Kruskal");
        } else {
            // Tie-broken differently is fine; weights must agree.
            let weight = |set: &BTreeSet<(u32, u32)>| -> u64 {
                set.iter()
                    .map(|&(a, b)| g.weight(a, b).expect("forest edge in graph") as u64)
                    .sum()
            };
            assert_eq!(ours.len(), oracle.len(), "step {step}: forest size");
            assert_eq!(weight(&ours), weight(&oracle), "step {step}: forest weight");
        }
    }

    /// Weighted churn: insert/delete random edges with weights from the
    /// universe; weights unique if `distinct`.
    fn weighted_churn(
        m: &mut DynFoMachine,
        n: u32,
        steps: usize,
        distinct: bool,
        seed: u64,
    ) {
        let mut rng = dynfo_graph::generate::rng(seed);
        let mut g = WeightedGraph::new(n);
        let mut pool: Vec<u32> = (0..n).collect();
        pool.shuffle(&mut rng);
        let mut present: Vec<(u32, u32, u32)> = Vec::new();
        for step in 0..steps {
            let delete = !present.is_empty() && rng.gen_bool(0.35);
            if delete {
                let i = rng.gen_range(0..present.len());
                let (a, b, w) = present.swap_remove(i);
                g.remove(a, b);
                m.apply(&Request::del("W", [a, b, w])).unwrap();
            } else {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b || g.weight(a, b).is_some() {
                    continue;
                }
                let w = if distinct {
                    // Key uniqueness comes from the pair anyway; use a
                    // fresh-ish weight to exercise distinct weights.
                    rng.gen_range(0..n)
                } else {
                    rng.gen_range(0..3.min(n))
                };
                g.insert(a, b, w);
                present.push((a, b, w));
                m.apply(&Request::ins("W", [a, b, w])).unwrap();
            }
            check_forest(m, &g, step, false);
        }
    }

    /// Key order on weighted, sorted-endpoint edges:
    /// `(q1, c1, d1) ≤ (q2, c2, d2)` lexicographically.
    fn key_le(q1: Term, c1: Term, d1: Term, q2: Term, c2: Term, d2: Term) -> Formula {
        lt(q1, q2) | (eq(q1, q2) & (lt(c1, c2) | (eq(c1, c2) & le(d1, d2))))
    }

    /// [`max_edge`] as one 6-ary block comparing whole keys.
    fn max_edge_one_block(c: &str, d: &str, q: &str) -> Formula {
        path_edge(c, d, q)
            & forall(
                ["c2", "d2", "q2"],
                implies(
                    path_edge("c2", "d2", "q2"),
                    key_le(v("q2"), v("c2"), v("d2"), v(q), v(c), v(d)),
                ),
            )
    }

    /// [`min_cand`] as one 6-ary block comparing whole keys.
    fn min_cand_one_block(x: &str, y: &str) -> Formula {
        exists(
            ["q"],
            del_cand(v(x), v(y), v("q"))
                & forall(
                    ["p", "r", "q2"],
                    implies(
                        del_cand(v("p"), v("r"), v("q2")),
                        key_le(v("q"), v(x), v(y), v("q2"), v("p"), v("r")),
                    ),
                ),
        )
    }

    #[test]
    fn successive_minima_pick_the_one_block_edges() {
        // On forests the machine itself maintains, with weights from
        // {0, 1, 2} so keys tie on weight, for every parameter vector a
        // request evaluates the extremum with — every endpoint pair for
        // the insert's `MaxEdge` (one orientation: `PV` is symmetric in
        // them), every forest edge (`W` holds both orientations) with
        // its weight for the delete's `MinCand` — both statements select
        // the same edge.
        for (n, steps, seed) in [(5u32, 25, 1u64), (9, 45, 2), (16, 20, 3)] {
            let mut m = DynFoMachine::new(program(), n);
            weighted_churn(&mut m, n, steps, false, seed);
            let same = |new: &Formula, old: &Formula, params: &[u32]| {
                let new = m.evaluate(new, params).unwrap().sorted();
                assert_eq!(new, m.evaluate(old, params).unwrap().sorted(), "n={n}, {params:?}");
                assert!(new.len() <= 1, "n={n}, {params:?}: {} extrema", new.len());
                new.len()
            };
            let (max_new, max_old) = (max_edge("c", "d", "q"), max_edge_one_block("c", "d", "q"));
            let maxima: usize = (0..n * n)
                .filter(|i| i / n < i % n)
                .map(|i| same(&max_new, &max_old, &[i / n, i % n]))
                .sum();
            let (min_new, min_old) = (min_cand("x", "y"), min_cand_one_block("x", "y"));
            let minima: usize = m
                .state()
                .rel("W")
                .iter()
                .filter(|t| m.holds("F", [t[0], t[1]]))
                .map(|t| same(&min_new, &min_old, t.as_slice()))
                .sum();
            assert!(maxima > 0 && minima > 0, "n={n}: {maxima} maxima, {minima} minima");
        }
    }

    #[test]
    fn forest_weight_matches_kruskal_under_churn() {
        let mut m = DynFoMachine::new(program(), 6);
        weighted_churn(&mut m, 6, 60, true, 21);
    }

    #[test]
    fn forest_weight_matches_kruskal_with_ties() {
        let mut m = DynFoMachine::new(program(), 6);
        weighted_churn(&mut m, 6, 60, false, 22);
    }

    #[test]
    fn insert_lighter_edge_swaps_out_heaviest() {
        let mut m = DynFoMachine::new(program(), 16);
        // Path 0-1-2 with weights 5 and 9 (weights are universe elements).
        m.apply(&Request::ins("W", [0, 1, 5])).unwrap();
        m.apply(&Request::ins("W", [1, 2, 9])).unwrap();
        assert!(m.query_named("in_msf", &[1, 2]).unwrap());
        // Edge 0-2 with weight 3 creates a cycle; heaviest (1,2) leaves.
        m.apply(&Request::ins("W", [0, 2, 3])).unwrap();
        assert!(m.query_named("in_msf", &[0, 2]).unwrap());
        assert!(!m.query_named("in_msf", &[1, 2]).unwrap());
        assert!(m.query_named("in_msf", &[0, 1]).unwrap());
        // Still all connected.
        assert!(m.query_named("connected", &[0, 2]).unwrap());
        assert!(m.query_named("connected", &[1, 2]).unwrap());
    }

    #[test]
    fn insert_heavier_edge_changes_nothing() {
        let mut m = DynFoMachine::new(program(), 16);
        m.apply(&Request::ins("W", [0, 1, 2])).unwrap();
        m.apply(&Request::ins("W", [1, 2, 3])).unwrap();
        let f_before: Vec<_> = m.state().rel("F").iter().collect();
        m.apply(&Request::ins("W", [0, 2, 9])).unwrap();
        let f_after: Vec<_> = m.state().rel("F").iter().collect();
        assert_eq!(f_before, f_after);
        assert!(m.holds("W", [0u32, 2, 9]));
    }

    #[test]
    fn delete_picks_minimum_weight_replacement() {
        let mut m = DynFoMachine::new(program(), 5);
        // Tree edge 0-1 (w=1) plus two non-tree reconnectors 0-2-1 path:
        // build square 0-1 (1), 0-2 (4), 2-1 (2): forest = {0-1, 2-1}.
        m.apply(&Request::ins("W", [0, 1, 1])).unwrap();
        m.apply(&Request::ins("W", [2, 1, 2])).unwrap();
        m.apply(&Request::ins("W", [0, 2, 4])).unwrap();
        assert!(!m.query_named("in_msf", &[0, 2]).unwrap());
        // Deleting 0-1 must reconnect through 0-2 (the only crossing
        // edge).
        m.apply(&Request::del("W", [0, 1, 1])).unwrap();
        assert!(m.query_named("in_msf", &[0, 2]).unwrap());
        assert!(m.query_named("connected", &[0, 1]).unwrap());
    }

    #[test]
    fn delete_with_wrong_weight_is_a_no_op() {
        let mut m = DynFoMachine::new(program(), 8);
        m.apply(&Request::ins("W", [0, 1, 5])).unwrap();
        let before = m.state().clone();
        m.apply(&Request::del("W", [0, 1, 4])).unwrap();
        assert_eq!(m.state(), &before);
    }

    #[test]
    fn memoryless_theorem_4_4() {
        let p = program();
        // Same final weighted graph through different histories.
        let a = [
            Request::ins("W", [0, 1, 3]),
            Request::ins("W", [1, 2, 1]),
            Request::ins("W", [0, 2, 2]),
        ];
        let b = [
            Request::ins("W", [0, 2, 2]),
            Request::ins("W", [0, 1, 3]),
            Request::ins("W", [2, 3, 1]),
            Request::del("W", [2, 3, 1]),
            Request::ins("W", [1, 2, 1]),
        ];
        assert!(check_memoryless(&p, 5, &a, &b).unwrap());
    }
}
