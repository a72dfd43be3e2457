//! Substitution of *relation symbols* by defining formulas — the
//! composition machinery behind first-order reductions (Definition 2.2)
//! and the k-fold update composition of Theorem 4.5(2) ("compose the
//! Dyn-FO formula for a single deletion k times").
//!
//! `substitute_relations(φ, defs)` replaces every atom `R(t̄)` whose
//! symbol has a definition `(x̄, δ)` by `δ[x̄ ↦ t̄]`. Bound variables of
//! `δ` are freshened per instance, so substitution is capture-avoiding.

use crate::formula::{Formula, Term};
use crate::intern::Sym;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A relation definition: the formal parameter variables, and the body.
#[derive(Clone, Debug)]
pub struct RelDef {
    /// Formal parameters, one per argument position.
    pub vars: Vec<Sym>,
    /// Defining formula; its free variables must be among `vars` (any
    /// other free variable would be captured unpredictably).
    pub body: Formula,
}

impl RelDef {
    /// Build a definition.
    pub fn new<'a>(vars: impl IntoIterator<Item = &'a str>, body: Formula) -> RelDef {
        RelDef {
            vars: vars.into_iter().map(Sym::new).collect(),
            body,
        }
    }
}

static FRESH: AtomicU64 = AtomicU64::new(0);

fn fresh_var(base: Sym) -> Sym {
    let k = FRESH.fetch_add(1, Ordering::Relaxed);
    Sym::new(&format!("{}~{}", base.as_str(), k))
}

/// Replace every atom over a defined relation by its definition, with
/// arguments substituted for the formal parameters and bound variables
/// freshened. Undefined relation symbols are left alone.
///
/// The substitution is *simultaneous*: definitions are not re-expanded
/// inside each other's bodies (apply repeatedly for iterated expansion).
///
/// # Panics
/// Panics if an atom's argument count differs from its definition's
/// parameter count.
pub fn substitute_relations(f: &Formula, defs: &BTreeMap<Sym, RelDef>) -> Formula {
    use Formula::*;
    match f {
        Rel { name, args } => match defs.get(name) {
            None => f.clone(),
            Some(def) => {
                assert_eq!(
                    args.len(),
                    def.vars.len(),
                    "definition of {name} has {} parameters, atom has {} args",
                    def.vars.len(),
                    args.len()
                );
                instantiate(&def.body, &def.vars, args)
            }
        },
        True | False | Eq(..) | Le(..) | Lt(..) | Bit(..) => f.clone(),
        Not(g) => Not(Box::new(substitute_relations(g, defs))),
        And(fs) => And(fs.iter().map(|g| substitute_relations(g, defs)).collect()),
        Or(fs) => Or(fs.iter().map(|g| substitute_relations(g, defs)).collect()),
        Implies(a, b) => Implies(
            Box::new(substitute_relations(a, defs)),
            Box::new(substitute_relations(b, defs)),
        ),
        Iff(a, b) => Iff(
            Box::new(substitute_relations(a, defs)),
            Box::new(substitute_relations(b, defs)),
        ),
        Exists(vs, g) => Exists(vs.clone(), Box::new(substitute_relations(g, defs))),
        Forall(vs, g) => Forall(vs.clone(), Box::new(substitute_relations(g, defs))),
    }
}

/// `body[vars ↦ args]` with bound-variable freshening.
fn instantiate(body: &Formula, vars: &[Sym], args: &[Term]) -> Formula {
    body.rename_vars(
        &|v| vars.iter().position(|&x| x == v).map_or(Term::Var(v), |i| args[i]),
        &mut |v, _| fresh_var(v),
    )
}

/// Convenience: substitute a single relation.
pub fn substitute_relation(f: &Formula, name: &str, def: RelDef) -> Formula {
    let mut defs = BTreeMap::new();
    defs.insert(Sym::new(name), def);
    substitute_relations(f, &defs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::naive::naive_evaluate;
    use crate::formula::*;
    use crate::structure::Structure;
    use crate::vocab::Vocabulary;
    use std::sync::Arc;

    #[test]
    fn simple_expansion() {
        // Define D(x) ≡ E(x, x); expand D(y).
        let f = rel("D", [v("y")]);
        let out = substitute_relation(&f, "D", RelDef::new(["x"], rel("E", [v("x"), v("x")])));
        assert_eq!(out, rel("E", [v("y"), v("y")]));
    }

    #[test]
    fn expansion_is_capture_avoiding() {
        // Define Q(x) ≡ ∃y E(x, y). Expanding Q(y) must NOT produce
        // ∃y E(y, y).
        let def = RelDef::new(["x"], exists(["y"], rel("E", [v("x"), v("y")])));
        let out = substitute_relation(&rel("Q", [v("y")]), "Q", def);
        match out {
            Formula::Exists(vs, body) => {
                assert_eq!(vs.len(), 1);
                assert_ne!(vs[0].as_str(), "y", "bound variable was captured");
                assert_eq!(*body, rel("E", [v("y"), Term::Var(vs[0])]));
            }
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn simultaneous_not_recursive() {
        // A(x) ≡ B(x); substituting {A ↦ B(x), B ↦ C(x)} into A(z) ∧ B(z)
        // gives B(z) ∧ C(z) — A's body is not re-expanded.
        let mut defs = BTreeMap::new();
        defs.insert(Sym::new("A"), RelDef::new(["x"], rel("B", [v("x")])));
        defs.insert(Sym::new("B"), RelDef::new(["x"], rel("C", [v("x")])));
        let out = substitute_relations(&(rel("A", [v("z")]) & rel("B", [v("z")])), &defs);
        assert_eq!(out, rel("B", [v("z")]) & rel("C", [v("z")]));
    }

    #[test]
    fn semantic_correctness_on_structure() {
        // TwoStep(x, z) ≡ ∃y (E(x,y) ∧ E(y,z)); check that evaluating
        // the expansion of TwoStep(u, w) matches direct evaluation.
        let vocab = Arc::new(Vocabulary::new().with_relation("E", 2));
        let mut st = Structure::empty(vocab, 5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4)] {
            st.insert("E", [a, b]);
        }
        let def = RelDef::new(
            ["x", "z"],
            exists(["y"], rel("E", [v("x"), v("y")]) & rel("E", [v("y"), v("z")])),
        );
        let direct = exists(
            ["y"],
            rel("E", [v("u"), v("y")]) & rel("E", [v("y"), v("w")]),
        );
        let expanded = substitute_relation(&rel("TwoStep", [v("u"), v("w")]), "TwoStep", def);
        let a = naive_evaluate(&direct, &st, &[]).unwrap();
        let b = naive_evaluate(&expanded, &st, &[]).unwrap();
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn params_pass_through() {
        let def = RelDef::new(["x"], eq(v("x"), param(0)));
        let out = substitute_relation(&rel("IsParam", [lit(3)]), "IsParam", def);
        assert_eq!(out, eq(lit(3), param(0)));
    }

    #[test]
    #[should_panic(expected = "parameters")]
    fn arity_mismatch_panics() {
        let def = RelDef::new(["x", "y"], rel("E", [v("x"), v("y")]));
        substitute_relation(&rel("D", [v("z")]), "D", def);
    }

    #[test]
    fn iterated_composition_grows_depth() {
        // Compose "one ∃ step" twice.
        let step = RelDef::new(
            ["x", "z"],
            exists(["y"], rel("R", [v("x"), v("y")]) & rel("R", [v("y"), v("z")])),
        );
        let once = substitute_relation(&rel("R", [v("a"), v("b")]), "R", step.clone());
        let twice = substitute_relation(&once, "R", step);
        assert_eq!(crate::analysis::quantifier_depth(&once), 1);
        assert_eq!(crate::analysis::quantifier_depth(&twice), 2);
    }
}
