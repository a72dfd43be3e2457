//! Directed reachability by "start over and muddle through"
//! (Datta–Kulkarni–Mukherjee–Schwentick–Zeume; strategy paper of
//! Schwentick et al.): the first non-string client of the program-level
//! recompute closure.
//!
//! Full dynamic directed reachability (*Reachability is in DynFO*) is
//! heavyweight; the practical variant maintained here is exact under
//! *insertions* — the classic one-step join
//!
//! ```text
//! TC'(x, y) ≡ TC(x, y) ∨ (TC(x, ?0) ∧ TC(?1, y))
//! ```
//!
//! is a constant-depth FO update because `TC` is kept reflexively and
//! transitively closed — and deliberately **stale under deletions**:
//! `del(E, a, b)` removes the edge but leaves `TC` as an
//! over-approximation (muddling through). The program carries a
//! [`recompute`](crate::program::ProgramBuilder::recompute) closure
//! that rebuilds `TC` exactly from `E` by BFS; calling
//! [`DynFoMachine::recompute`](crate::machine::DynFoMachine::recompute)
//! on a cadence (the serving tier's seq-keyed
//! `StoreConfig::recompute_every`) amortizes the O(n·m) start over
//! against the cheap almost-everywhere updates, exactly the paper's
//! bargain. After any run of insert-only traffic — or right
//! after a recompute — answers are exact; in between, `TC` only ever
//! errs on the side of *reachable*.

use crate::program::DynFoProgram;
use crate::request::RequestKind;
use dynfo_logic::formula::{eq, param, rel, v, Term};
use dynfo_logic::{Relation, Structure, Tuple};
use std::collections::VecDeque;

/// The edge relation.
pub const E: &str = "E";
/// The maintained (reflexive) transitive closure.
pub const TC: &str = "TC";

/// Rebuild `TC` as the exact reflexive-transitive closure of `E` —
/// the "start over" half of the strategy, also usable standalone.
pub fn recompute_closure(st: &Structure) -> Structure {
    let n = st.size() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in st.rel(E).iter() {
        adj[t[0] as usize].push(t[1]);
    }
    let mut tc = Relation::with_universe(2, st.size());
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for s in 0..n as u32 {
        seen.iter_mut().for_each(|v| *v = false);
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            tc.insert(Tuple::from_slice(&[s, u]));
            for &w in &adj[u as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    let mut fresh = st.clone();
    let id = fresh.vocab().relation(dynfo_logic::sym(TC)).expect("TC in vocab");
    fresh.set_relation(id, tc);
    fresh
}

/// The muddle-through directed-reachability program: exact insert
/// maintenance, stale deletes, and a BFS recompute closure.
pub fn dir_reach_program() -> DynFoProgram {
    let edge_is_params = eq(v("x"), param(0)) & eq(v("y"), param(1));
    DynFoProgram::builder("dir_reach::muddle")
        .input_relation(E, 2)
        .aux_relation(TC, 2)
        // Dyn-FO⁺ init: the empty graph's closure is the diagonal.
        .precomputed(|vocab, n| {
            let mut st = Structure::empty(std::sync::Arc::clone(vocab), n);
            for x in 0..n {
                st.insert(TC, [x, x]);
            }
            st
        })
        .on(
            RequestKind::ins(E),
            E,
            &["x", "y"],
            rel(E, [v("x"), v("y")]) | edge_is_params.clone(),
        )
        // Insert is exact: with TC reflexive, one join through the new
        // edge closes everything the edge connects.
        .on(
            RequestKind::ins(E),
            TC,
            &["x", "y"],
            rel(TC, [v("x"), v("y")])
                | (rel(TC, [v("x"), param(0)]) & rel(TC, [param(1), v("y")])),
        )
        .on(
            RequestKind::del(E),
            E,
            &["x", "y"],
            rel(E, [v("x"), v("y")]) & !edge_is_params,
        )
        // Delete muddles through: TC is left stale (an over-
        // approximation) until the next recompute.
        .on(RequestKind::del(E), TC, &["x", "y"], rel(TC, [v("x"), v("y")]))
        .recompute(recompute_closure)
        .query(rel(TC, [Term::Min, Term::Max]))
        .named_query("reach", rel(TC, [param(0), param(1)]))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DynFoMachine;
    use crate::request::Request;

    const N: u32 = 8;

    fn oracle_reach(edges: &[(u32, u32)], s: u32, t: u32) -> bool {
        let mut seen = vec![false; N as usize];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(u) = stack.pop() {
            if u == t {
                return true;
            }
            for &(a, b) in edges {
                if a == u && !seen[b as usize] {
                    seen[b as usize] = true;
                    stack.push(b);
                }
            }
        }
        false
    }

    fn assert_exact(m: &mut DynFoMachine, edges: &[(u32, u32)]) {
        for s in 0..N {
            for t in 0..N {
                assert_eq!(
                    m.query_named("reach", &[s, t]).unwrap(),
                    oracle_reach(edges, s, t),
                    "reach({s}, {t}) on {edges:?}"
                );
            }
        }
    }

    #[test]
    fn inserts_are_maintained_exactly() {
        let mut m = DynFoMachine::new(dir_reach_program(), N);
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (4, 5), (2, 4), (5, 0), (3, 6)] {
            m.apply(&Request::ins(E, [a, b])).unwrap();
            edges.push((a, b));
            assert_exact(&mut m, &edges);
        }
    }

    #[test]
    fn deletes_overapproximate_until_recompute() {
        let mut m = DynFoMachine::new(dir_reach_program(), N);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            m.apply(&Request::ins(E, [a, b])).unwrap();
        }
        m.apply(&Request::del(E, [1, 2])).unwrap();
        // Stale: the machine still claims 0 → 3 (over-approximation)…
        assert!(m.query_named("reach", &[0, 3]).unwrap());
        // …and never under-approximates.
        assert!(m.query_named("reach", &[2, 3]).unwrap());
        // Start over: the recompute closure restores exactness.
        assert!(m.recompute().unwrap(), "program carries a recompute fn");
        assert_exact(&mut m, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn recompute_matches_a_cold_rebuild() {
        let mut m = DynFoMachine::new(dir_reach_program(), N);
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 3)] {
            m.apply(&Request::ins(E, [a, b])).unwrap();
        }
        let closed = recompute_closure(m.state());
        // Insert-only traffic is already exact: recompute is a no-op.
        assert_eq!(*m.state(), closed);
    }
}
