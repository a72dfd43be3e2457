//! The library of Dyn-FO update programs from Section 4 of the paper
//! (plus Example 3.2), each expressed as actual first-order formulas
//! executed by the `dynfo-logic` evaluator and differentially tested
//! against independent static oracles from `dynfo-graph`.
//!
//! | module | paper result | problem |
//! |---|---|---|
//! | [`parity`] | Example 3.2 | PARITY of a bit string |
//! | [`reach_u`] | Theorem 4.1 | undirected reachability (spanning forest F + path-via PV) |
//! | [`reach_acyclic`] | Theorem 4.2 | directed reachability promised acyclic |
//! | [`trans_reduction`] | Corollary 4.3 | transitive reduction of a DAG (memoryless) |
//! | [`msf`] | Theorem 4.4 | minimum spanning forest |
//! | [`bipartite`] | Theorem 4.5(1) | bipartiteness (Odd parity on forest paths) |
//! | [`kconn`] | Theorem 4.5(2) | k-edge connectivity for fixed k |
//! | [`matching`] | Theorem 4.5(3) | maximal matching |
//! | [`lca`] | Theorem 4.5(4) | lowest common ancestors in directed forests |
//!
//! Shared conventions:
//!
//! * request parameters are `?0, ?1, …` (e.g. `insert(E, a, b)` binds
//!   `a = ?0`, `b = ?1`);
//! * undirected edges are kept symmetric by the update formulas
//!   themselves (the paper's "interpret insert(E,a,b) as both (a,b) and
//!   (b,a)");
//! * every program maintains its own copy of the input relations by
//!   explicit formulas, exactly as the paper writes them.

pub mod bipartite;
pub mod kconn;
pub mod lca;
pub mod matching;
pub mod msf;
pub mod parity;
pub mod reach_acyclic;
pub mod reach_u;
pub mod dir_reach;
pub mod dyck;
pub mod semi;
pub mod strings;
pub mod trans_reduction;
pub mod vertex_cover;

use dynfo_logic::formula::{eq, param, v, Formula};

/// `Eq(x, y, a, b) ≡ (x=a ∧ y=b) ∨ (x=b ∧ y=a)` — the paper's
/// unordered-pair abbreviation, with `a = ?0`, `b = ?1`.
pub(crate) fn eq_pair(x: &str, y: &str) -> Formula {
    (eq(v(x), param(0)) & eq(v(y), param(1))) | (eq(v(x), param(1)) & eq(v(y), param(0)))
}

/// Ordered tuple equality `x̄ = (?0, ?1, …)`.
pub(crate) fn tuple_is_params(vars: &[&str]) -> Formula {
    Formula::And(
        vars.iter()
            .enumerate()
            .map(|(i, x)| eq(v(x), param(i)))
            .collect(),
    )
}
