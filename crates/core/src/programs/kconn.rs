//! k-edge connectivity for fixed k (Theorem 4.5(2)).
//!
//! Maintains exactly the Theorem 4.1 structure (`E`, `F`, `PV`). The
//! update formulas are unchanged; the novelty is the *query*: following
//! the paper, we universally quantify over k−1 edges and check
//! connectivity in the graph with those edges deleted, "by composing the
//! Dyn-FO formula for a single deletion k times".
//!
//! The composition is done symbolically: the delete-update formulas for
//! `E`, `F`, `PV` (with the request parameters replaced by fresh
//! universally-quantified variables `d_j, e_j`) are substituted into
//! themselves level by level via [`dynfo_logic::subst`]. The level-j
//! formulas define the spanning forest of the graph after deleting j
//! chosen edges, so
//!
//! ```text
//! kconn_k(x, y) ≡ Conn₀(x,y) ∧
//!   ∀d₁e₁…d_{k−1}e_{k−1} [(E(d₁,e₁) ∧ … ) → Conn_{k−1}(x,y)]
//! ```
//!
//! where `Conn_j(x,y) ≡ x=y ∨ PV_j(x,y,x)`. Formula size grows
//! geometrically in k (the price the paper's construction pays); k ≤ 3
//! is provided.

use crate::program::DynFoProgram;
use crate::programs::reach_u::{
    forest_formulas, forest_formulas_with, new_edge_one_block, same_tree,
};
use crate::request::RequestKind;
use dynfo_logic::formula::{param, rel, Formula, Term};
use dynfo_logic::subst::{substitute_relations, RelDef};
use dynfo_logic::Sym;
use std::collections::BTreeMap;

/// The level-j definitions of `E`, `F`, `PV` (free variables `x, y(, z)`
/// plus the deletion variables `d_1..e_j`).
struct Level {
    e: Formula,
    f: Formula,
    pv: Formula,
}

/// Compose the single-deletion update `levels` times. Level 0 is the
/// identity (plain atoms).
fn compose(levels: usize) -> Vec<Level> {
    // Composed, not executed per update: the compact statement of `New`
    // (see [`new_edge_one_block`]) keeps the geometric growth where the
    // paper's construction puts it.
    let ff = forest_formulas_with(new_edge_one_block);
    let mut out = vec![Level {
        e: rel("E", [dynfo_logic::formula::v("x"), dynfo_logic::formula::v("y")]),
        f: rel("F", [dynfo_logic::formula::v("x"), dynfo_logic::formula::v("y")]),
        pv: rel(
            "PV",
            [
                dynfo_logic::formula::v("x"),
                dynfo_logic::formula::v("y"),
                dynfo_logic::formula::v("z"),
            ],
        ),
    }];
    for j in 1..=levels {
        let dj = Sym::new(&format!("d{j}"));
        let ej = Sym::new(&format!("e{j}"));
        // Replace the request parameters with this level's deletion vars.
        let bind = |f: &Formula| {
            f.map_terms(&|t| match t {
                Term::Param(0) => Term::Var(dj),
                Term::Param(1) => Term::Var(ej),
                other => other,
            })
        };
        let (de, df, dpv) = (bind(&ff.del_e), bind(&ff.del_f), bind(&ff.del_pv));
        // Substitute the previous level's definitions for the atoms.
        let prev = out.last().unwrap();
        let mut defs = BTreeMap::new();
        defs.insert(Sym::new("E"), RelDef::new(["x", "y"], prev.e.clone()));
        defs.insert(Sym::new("F"), RelDef::new(["x", "y"], prev.f.clone()));
        defs.insert(Sym::new("PV"), RelDef::new(["x", "y", "z"], prev.pv.clone()));
        // Simplify each level: substitution leaves foldable equalities
        // and degenerate connectives behind, and levels compound.
        out.push(Level {
            e: dynfo_logic::simplify::simplify(&substitute_relations(&de, &defs)),
            f: dynfo_logic::simplify::simplify(&substitute_relations(&df, &defs)),
            pv: dynfo_logic::simplify::simplify(&substitute_relations(&dpv, &defs)),
        });
    }
    out
}

/// The query formula `kconn_k(?0, ?1)` for `k ≥ 1`.
pub fn kconn_query(k: usize) -> Formula {
    assert!(k >= 1, "k must be at least 1");
    let levels = compose(k - 1);
    // Conn_j(?0, ?1) = ?0 = ?1 ∨ PV_j(?0, ?1, ?0).
    let conn_at = |level: &Level| {
        let def = RelDef::new(["x", "y", "z"], level.pv.clone());
        let atom = rel("PV", [param(0), param(1), param(0)]);
        dynfo_logic::formula::eq(param(0), param(1))
            | dynfo_logic::subst::substitute_relation(&atom, "PV", def)
    };
    let mut query = conn_at(&levels[0]);
    if k == 1 {
        return query;
    }
    // ∀ d1 e1 … : (all quantified pairs are edges) → Conn_{k-1}.
    let mut vars: Vec<String> = Vec::new();
    let mut guards: Vec<Formula> = Vec::new();
    for j in 1..k {
        let (d, e) = (format!("d{j}"), format!("e{j}"));
        guards.push(rel(
            "E",
            [
                dynfo_logic::formula::v(&d),
                dynfo_logic::formula::v(&e),
            ],
        ));
        vars.push(d);
        vars.push(e);
    }
    let body = dynfo_logic::formula::implies(Formula::And(guards), conn_at(&levels[k - 1]));
    query = query
        & dynfo_logic::formula::forall(vars.iter().map(String::as_str), body);
    query
}

/// Build the k-edge-connectivity program with named queries `kconn1`,
/// `kconn2`, `kconn3` (each takes the vertex pair as `?0, ?1`).
pub fn program() -> DynFoProgram {
    program_up_to(3)
}

/// Build the program with queries `kconn1..kconn{max_k}`.
pub fn program_up_to(max_k: usize) -> DynFoProgram {
    let ff = forest_formulas();
    let mut b = DynFoProgram::builder("kconn")
        .input_relation("E", 2)
        .aux_relation("F", 2)
        .aux_relation("PV", 3)
        .on(RequestKind::ins("E"), "E", &["x", "y"], ff.ins_e)
        .on(RequestKind::ins("E"), "F", &["x", "y"], ff.ins_f)
        .on(RequestKind::ins("E"), "PV", &["x", "y", "z"], ff.ins_pv)
        .on(RequestKind::del("E"), "E", &["x", "y"], ff.del_e)
        .on(RequestKind::del("E"), "F", &["x", "y"], ff.del_f)
        .on(RequestKind::del("E"), "PV", &["x", "y", "z"], ff.del_pv)
        .query(Formula::True)
        .named_query("connected", same_tree(param(0), param(1)));
    for k in 1..=max_k {
        b = b.named_query(&format!("kconn{k}"), kconn_query(k));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DynFoMachine;
    use crate::request::Request;
    use dynfo_graph::flow::k_edge_connected_pair;
    use dynfo_graph::graph::Graph;
    use dynfo_logic::analysis::{quantifier_depth, size};

    fn load(m: &mut DynFoMachine, g: &mut Graph, edges: &[(u32, u32)]) {
        for &(a, b) in edges {
            m.apply(&Request::ins("E", [a, b])).unwrap();
            g.insert(a, b);
        }
    }

    fn check_pairs(m: &mut DynFoMachine, g: &Graph, max_k: usize) {
        for x in 0..g.num_nodes() {
            for y in 0..g.num_nodes() {
                for k in 1..=max_k {
                    assert_eq!(
                        m.query_named(&format!("kconn{k}"), &[x, y]).unwrap(),
                        k_edge_connected_pair(g, x, y, k),
                        "kconn{k}({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn k1_is_plain_connectivity() {
        let mut m = DynFoMachine::new(program_up_to(1), 5);
        let mut g = Graph::new(5);
        load(&mut m, &mut g, &[(0, 1), (1, 2), (3, 4)]);
        check_pairs(&mut m, &g, 1);
    }

    #[test]
    fn k2_on_cycle_plus_pendant() {
        // Cycle 0-1-2-3-0 (2-edge-connected) plus pendant 4.
        let mut m = DynFoMachine::new(program_up_to(2), 5);
        let mut g = Graph::new(5);
        load(&mut m, &mut g, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        assert!(m.query_named("kconn2", &[0, 2]).unwrap());
        assert!(m.query_named("kconn2", &[1, 3]).unwrap());
        assert!(!m.query_named("kconn2", &[0, 4]).unwrap());
        assert!(m.query_named("kconn1", &[0, 4]).unwrap());
        check_pairs(&mut m, &g, 2);
    }

    #[test]
    fn k2_after_deletion_degrades() {
        let mut m = DynFoMachine::new(program_up_to(2), 4);
        let mut g = Graph::new(4);
        load(&mut m, &mut g, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(m.query_named("kconn2", &[0, 2]).unwrap());
        m.apply(&Request::del("E", [1, 2])).unwrap();
        g.remove(1, 2);
        check_pairs(&mut m, &g, 2);
        assert!(!m.query_named("kconn2", &[0, 2]).unwrap());
        assert!(m.query_named("kconn1", &[0, 2]).unwrap());
    }

    #[test]
    fn k3_on_complete_graph() {
        // K4 is 3-edge-connected.
        let mut m = DynFoMachine::new(program_up_to(3), 4);
        let mut g = Graph::new(4);
        let edges: Vec<(u32, u32)> = (0..4)
            .flat_map(|a| ((a + 1)..4).map(move |b| (a, b)))
            .collect();
        load(&mut m, &mut g, &edges);
        assert!(m.query_named("kconn3", &[0, 3]).unwrap());
        assert!(m.query_named("kconn2", &[1, 2]).unwrap());
    }

    #[test]
    fn composed_queries_run_compiled() {
        // At n = 9 (S = 16) kconn2's plan is ≈ 1.7M words over a few
        // dozen maintained rows: the density gate would decline it and
        // hand the query to the interpreter. Queries do not consult it.
        let mut m = DynFoMachine::new(program_up_to(2), 9);
        let mut g = Graph::new(9);
        load(&mut m, &mut g, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
        for (x, y) in [(0, 2), (0, 4)] {
            let want = k_edge_connected_pair(&g, x, y, 2);
            assert_eq!(m.query_named("kconn2", &[x, y]).unwrap(), want);
        }
        let work = m.stats().query_work;
        assert_eq!((work.plan_compiled, work.plan_fallback, work.rows_built), (2, 0, 0));
    }

    #[test]
    fn composed_query_grows_but_depth_stays_bounded() {
        let q1 = kconn_query(1);
        let q2 = kconn_query(2);
        let q3 = kconn_query(3);
        // Size grows geometrically with k…
        assert!(size(&q2) > 2 * size(&q1));
        assert!(size(&q3) > 2 * size(&q2));
        // …while each added level contributes only O(1) quantifier depth
        // (constant per composition: k is fixed, so this is CRAM O(1)).
        let (d1, d2, d3) = (
            quantifier_depth(&q1),
            quantifier_depth(&q2),
            quantifier_depth(&q3),
        );
        assert!(d2 > d1 && d3 > d2);
        assert!(d3 - d2 <= d2 - d1 + 2);
    }
}
