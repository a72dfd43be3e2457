//! Static analysis of formulas: free variables, quantifier depth, size,
//! and the canonicalization pass the evaluator runs on.
//!
//! **Canonical form.** Evaluation operates on formulas where
//!
//! * `Implies`/`Iff` have been desugared,
//! * `Forall(x̄, φ)` has been rewritten to `¬∃x̄ ¬φ`, and
//! * negation has been pushed inward so `Not` wraps only atoms or
//!   `Exists` subformulas.
//!
//! Keeping `Not(Exists …)` (rather than exploding it) is what lets the
//! conjunction planner implement universally-quantified guards as
//! *antijoins* against a sparsely-computed witness set, instead of
//! materializing complements of high-arity relations. Every update formula
//! in the paper is guarded in this sense.

use crate::formula::{Formula, Term};
use crate::intern::Sym;
use std::collections::BTreeSet;

/// The free variables of a formula, sorted by symbol.
pub fn free_vars(f: &Formula) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    collect_free(f, &mut BTreeSet::new(), &mut out);
    out
}

fn term_var(t: &Term, bound: &BTreeSet<Sym>, out: &mut BTreeSet<Sym>) {
    if let Term::Var(s) = t {
        if !bound.contains(s) {
            out.insert(*s);
        }
    }
}

fn collect_free(f: &Formula, bound: &mut BTreeSet<Sym>, out: &mut BTreeSet<Sym>) {
    use Formula::*;
    match f {
        True | False => {}
        Rel { args, .. } => {
            for t in args {
                term_var(t, bound, out);
            }
        }
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => {
            term_var(a, bound, out);
            term_var(b, bound, out);
        }
        Not(g) => collect_free(g, bound, out),
        And(fs) | Or(fs) => {
            for g in fs {
                collect_free(g, bound, out);
            }
        }
        Implies(a, b) | Iff(a, b) => {
            collect_free(a, bound, out);
            collect_free(b, bound, out);
        }
        Exists(vs, g) | Forall(vs, g) => {
            let newly: Vec<Sym> = vs.iter().filter(|v| bound.insert(**v)).copied().collect();
            collect_free(g, bound, out);
            for v in newly {
                bound.remove(&v);
            }
        }
    }
}

/// Quantifier depth: the deepest nesting of quantifier blocks.
///
/// Under FO = CRAM\[1\] (paper §5, [I89b]) this is — up to a constant —
/// the parallel time of one update step, so Dyn-FO programs report it as
/// their "CRAM depth".
pub fn quantifier_depth(f: &Formula) -> usize {
    use Formula::*;
    match f {
        True | False | Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) => 0,
        Not(g) => quantifier_depth(g),
        And(fs) | Or(fs) => fs.iter().map(quantifier_depth).max().unwrap_or(0),
        Implies(a, b) | Iff(a, b) => quantifier_depth(a).max(quantifier_depth(b)),
        Exists(_, g) | Forall(_, g) => 1 + quantifier_depth(g),
    }
}

/// Number of connectives, quantifier blocks, and atoms.
pub fn size(f: &Formula) -> usize {
    use Formula::*;
    match f {
        True | False | Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) => 1,
        Not(g) => 1 + size(g),
        And(fs) | Or(fs) => 1 + fs.iter().map(size).sum::<usize>(),
        Implies(a, b) | Iff(a, b) => 1 + size(a) + size(b),
        Exists(_, g) | Forall(_, g) => 1 + size(g),
    }
}

/// Total number of distinct variables (free or bound).
///
/// In descriptive complexity the variable count corresponds to space; the
/// paper's programs use at most 5.
pub fn num_variables(f: &Formula) -> usize {
    let mut vars = BTreeSet::new();
    collect_all_vars(f, &mut vars);
    vars.len()
}

fn collect_all_vars(f: &Formula, out: &mut BTreeSet<Sym>) {
    use Formula::*;
    let mut term = |t: &Term| {
        if let Term::Var(s) = t {
            out.insert(*s);
        }
    };
    match f {
        True | False => {}
        Rel { args, .. } => args.iter().for_each(term),
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => {
            term(a);
            term(b);
        }
        Not(g) => collect_all_vars(g, out),
        And(fs) | Or(fs) => fs.iter().for_each(|g| collect_all_vars(g, out)),
        Implies(a, b) | Iff(a, b) => {
            collect_all_vars(a, out);
            collect_all_vars(b, out);
        }
        Exists(vs, g) | Forall(vs, g) => {
            out.extend(vs.iter().copied());
            collect_all_vars(g, out);
        }
    }
}

/// All relation symbols mentioned by atoms of the formula: the read set
/// of an evaluation.
pub fn relation_symbols(f: &Formula) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    collect_relation_symbols(f, &mut out);
    out
}

fn collect_relation_symbols(f: &Formula, out: &mut BTreeSet<Sym>) {
    use Formula::*;
    match f {
        True | False | Eq(..) | Le(..) | Lt(..) | Bit(..) => {}
        Rel { name, .. } => {
            out.insert(*name);
        }
        Not(g) | Exists(_, g) | Forall(_, g) => collect_relation_symbols(g, out),
        And(fs) | Or(fs) => fs.iter().for_each(|g| collect_relation_symbols(g, out)),
        Implies(a, b) | Iff(a, b) => {
            collect_relation_symbols(a, out);
            collect_relation_symbols(b, out);
        }
    }
}

/// All structure-constant symbols appearing as terms of the formula:
/// the constant analogue of [`relation_symbols`].
pub fn constant_symbols(f: &Formula) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    collect_constant_symbols(f, &mut out);
    out
}

fn collect_constant_symbols(f: &Formula, out: &mut BTreeSet<Sym>) {
    use Formula::*;
    let mut term = |t: &Term| {
        if let Term::Const(c) = t {
            out.insert(*c);
        }
    };
    match f {
        True | False => {}
        Rel { args, .. } => args.iter().for_each(term),
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => {
            term(a);
            term(b);
        }
        Not(g) | Exists(_, g) | Forall(_, g) => collect_constant_symbols(g, out),
        And(fs) | Or(fs) => fs.iter().for_each(|g| collect_constant_symbols(g, out)),
        Implies(a, b) | Iff(a, b) => {
            collect_constant_symbols(a, out);
            collect_constant_symbols(b, out);
        }
    }
}

/// True iff any term of the formula is a request parameter `?i` or a
/// structure constant — the parts of an evaluation context that vary
/// between requests independently of the relations.
pub fn mentions_param_or_const(f: &Formula) -> bool {
    use Formula::*;
    let term = |t: &Term| matches!(t, Term::Param(_) | Term::Const(_));
    match f {
        True | False => false,
        Rel { args, .. } => args.iter().any(term),
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => term(a) || term(b),
        Not(g) | Exists(_, g) | Forall(_, g) => mentions_param_or_const(g),
        And(fs) | Or(fs) => fs.iter().any(mentions_param_or_const),
        Implies(a, b) | Iff(a, b) => {
            mentions_param_or_const(a) || mentions_param_or_const(b)
        }
    }
}

/// True iff any term of the formula is a request parameter `?i`.
///
/// Unlike [`mentions_param_or_const`] this ignores structure constants:
/// bulk-change formulas δ(x̄) may read constants (they are part of the
/// structure being queried) but must be parameter-free, because there is
/// no request tuple to bind `?i` against.
pub fn has_params(f: &Formula) -> bool {
    use Formula::*;
    let term = |t: &Term| matches!(t, Term::Param(_));
    match f {
        True | False => false,
        Rel { args, .. } => args.iter().any(term),
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => term(a) || term(b),
        Not(g) | Exists(_, g) | Forall(_, g) => has_params(g),
        And(fs) | Or(fs) => fs.iter().any(has_params),
        Implies(a, b) | Iff(a, b) => has_params(a) || has_params(b),
    }
}

/// True iff every occurrence of a relation in `rels` sits under an even
/// number of negations — the monotonicity precondition for evaluating a
/// definable bulk change as one iterated fixpoint instead of a
/// tuple-at-a-time stream: if the maintained relations only appear
/// positively in an update formula, installing a superset of the
/// single-step result can only grow later rounds toward the same
/// fixpoint the serialized stream reaches.
///
/// `Implies(a, b)` flips polarity on `a`; `Iff` gives both polarities to
/// both sides, so any mention of a target under `Iff` is non-positive.
pub fn positive_in(f: &Formula, rels: &BTreeSet<Sym>) -> bool {
    polarity_ok(f, rels, true)
}

fn polarity_ok(f: &Formula, rels: &BTreeSet<Sym>, positive: bool) -> bool {
    use Formula::*;
    match f {
        True | False | Eq(..) | Le(..) | Lt(..) | Bit(..) => true,
        Rel { name, .. } => positive || !rels.contains(name),
        Not(g) => polarity_ok(g, rels, !positive),
        And(fs) | Or(fs) => fs.iter().all(|g| polarity_ok(g, rels, positive)),
        Implies(a, b) => polarity_ok(a, rels, !positive) && polarity_ok(b, rels, positive),
        Iff(a, b) => {
            [a, b].iter().all(|g| {
                polarity_ok(g, rels, true) && polarity_ok(g, rels, false)
            })
        }
        Exists(_, g) | Forall(_, g) => polarity_ok(g, rels, positive),
    }
}

/// Rewrite to canonical form (see module docs): no `Implies`/`Iff`/
/// `Forall`; `Not` only over atoms and `Exists`.
pub fn canonicalize(f: &Formula) -> Formula {
    use Formula::*;
    match f {
        True => True,
        False => False,
        Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) => f.clone(),
        And(fs) => And(fs.iter().map(canonicalize).collect()),
        Or(fs) => Or(fs.iter().map(canonicalize).collect()),
        Implies(a, b) => Or(vec![negate(a), canonicalize(b)]),
        Iff(a, b) => {
            let (ca, cb) = (canonicalize(a), canonicalize(b));
            let (na, nb) = (negate(a), negate(b));
            Or(vec![And(vec![ca, cb]), And(vec![na, nb])])
        }
        Exists(vs, g) => Exists(vs.clone(), Box::new(canonicalize(g))),
        // ∀x̄ φ  ⇒  ¬∃x̄ ¬φ
        Forall(vs, g) => Not(Box::new(Exists(vs.clone(), Box::new(negate(g))))),
        Not(g) => negate(g),
    }
}

/// Canonical form of `¬f`: pushes the negation inward.
fn negate(f: &Formula) -> Formula {
    use Formula::*;
    match f {
        True => False,
        False => True,
        // Negated atoms stay as Not(atom): the planner turns them into
        // filters or antijoins.
        Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) => Not(Box::new(f.clone())),
        Not(g) => canonicalize(g),
        And(fs) => Or(fs.iter().map(negate).collect()),
        Or(fs) => And(fs.iter().map(negate).collect()),
        Implies(a, b) => And(vec![canonicalize(a), negate(b)]),
        Iff(a, b) => {
            let (ca, cb) = (canonicalize(a), canonicalize(b));
            let (na, nb) = (negate(a), negate(b));
            Or(vec![And(vec![ca, nb]), And(vec![na, cb])])
        }
        // ¬∃x̄ φ stays guarded: evaluated as an antijoin / complement of
        // the (sparse) witness set.
        Exists(vs, g) => Not(Box::new(Exists(vs.clone(), Box::new(canonicalize(g))))),
        // ¬∀x̄ φ ⇒ ∃x̄ ¬φ
        Forall(vs, g) => Exists(vs.clone(), Box::new(negate(g))),
    }
}

/// True iff the formula is in canonical form.
pub fn is_canonical(f: &Formula) -> bool {
    use Formula::*;
    match f {
        True | False | Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) => true,
        Not(g) => matches!(
            **g,
            Rel { .. } | Eq(..) | Le(..) | Lt(..) | Bit(..) | Exists(..)
        ) && is_canonical(g),
        And(fs) | Or(fs) => fs.iter().all(is_canonical),
        Exists(_, g) => is_canonical(g),
        Implies(..) | Iff(..) | Forall(..) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::*;
    use crate::intern::sym;

    fn fv(f: &Formula) -> Vec<&'static str> {
        free_vars(f).into_iter().map(|s| s.as_str()).collect()
    }

    #[test]
    fn free_vars_basic() {
        let f = rel("E", [v("x"), v("y")]) & exists(["y"], rel("E", [v("y"), v("z")]));
        assert_eq!(fv(&f), vec!["x", "y", "z"]);
    }

    #[test]
    fn free_vars_shadowing() {
        // ∃x (E(x,y) ∧ ∃y E(x,y)) — free: y (outer occurrence only).
        let f = exists(
            ["x"],
            rel("E", [v("x"), v("y")]) & exists(["y"], rel("E", [v("x"), v("y")])),
        );
        assert_eq!(fv(&f), vec!["y"]);
    }

    #[test]
    fn quantifier_depth_counts_nesting() {
        let f = exists(["x"], forall(["y"], rel("E", [v("x"), v("y")])));
        assert_eq!(quantifier_depth(&f), 2);
        let g = exists(["x"], rel("A", [v("x")])) & exists(["y"], rel("B", [v("y")]));
        assert_eq!(quantifier_depth(&g), 1);
        assert_eq!(quantifier_depth(&Formula::True), 0);
    }

    #[test]
    fn canonical_forall_becomes_not_exists() {
        let f = forall(["z"], implies(rel("E", [v("x"), v("z")]), eq(v("z"), v("y"))));
        let c = canonicalize(&f);
        assert!(is_canonical(&c));
        // ¬∃z (E(x,z) ∧ z≠y)
        match &c {
            Formula::Not(inner) => match &**inner {
                Formula::Exists(vs, body) => {
                    assert_eq!(vs, &vec![sym("z")]);
                    assert_eq!(
                        **body,
                        rel("E", [v("x"), v("z")]) & not(eq(v("z"), v("y")))
                    );
                }
                other => panic!("expected Exists, got {other:?}"),
            },
            other => panic!("expected Not, got {other:?}"),
        }
    }

    #[test]
    fn canonical_double_negation_vanishes() {
        let f = not(not(rel("A", [v("x")])));
        assert_eq!(canonicalize(&f), rel("A", [v("x")]));
    }

    #[test]
    fn canonical_demorgan() {
        let f = not(rel("A", []) & rel("B", []));
        assert_eq!(
            canonicalize(&f),
            not(rel("A", [])) | not(rel("B", []))
        );
    }

    #[test]
    fn canonical_iff_expansion_is_canonical() {
        let f = iff(
            rel("A", [v("x")]),
            forall(["y"], rel("B", [v("x"), v("y")])),
        );
        assert!(is_canonical(&canonicalize(&f)));
    }

    #[test]
    fn canonicalization_preserves_free_vars() {
        let f = forall(
            ["u", "v"],
            implies(
                rel("P", [v("x"), v("u")]) & rel("E", [v("u"), v("v")]),
                rel("P", [v("v"), v("y")]),
            ),
        );
        assert_eq!(free_vars(&f), free_vars(&canonicalize(&f)));
    }

    #[test]
    fn relation_symbols_collects_atoms() {
        let f = exists(
            ["z"],
            rel("E", [v("x"), v("z")]) & not(rel("F", [v("z")])) & eq(v("x"), v("x")),
        );
        let syms: Vec<&str> = relation_symbols(&f).into_iter().map(|s| s.as_str()).collect();
        assert_eq!(syms, vec!["E", "F"]);
        assert!(relation_symbols(&eq(v("x"), v("y"))).is_empty());
    }

    #[test]
    fn param_and_const_detection() {
        assert!(mentions_param_or_const(&eq(v("x"), param(0))));
        assert!(mentions_param_or_const(&rel("E", [cst("s"), v("y")])));
        assert!(!mentions_param_or_const(&exists(
            ["z"],
            rel("E", [v("z"), lit(3)])
        )));
    }

    #[test]
    fn has_params_ignores_constants() {
        assert!(has_params(&eq(v("x"), param(0))));
        assert!(!has_params(&rel("E", [cst("s"), v("y")])));
        assert!(has_params(&exists(["z"], rel("E", [v("z"), param(1)]))));
        assert!(!has_params(&Formula::True));
    }

    #[test]
    fn positive_in_tracks_negation_depth() {
        let targets: BTreeSet<Sym> = [sym("P")].into_iter().collect();
        assert!(positive_in(&rel("P", [v("x")]), &targets));
        assert!(!positive_in(&not(rel("P", [v("x")])), &targets));
        // Double negation restores positivity.
        assert!(positive_in(&not(not(rel("P", [v("x")]))), &targets));
        // Non-target relations may occur at any polarity.
        assert!(positive_in(&not(rel("E", [v("x"), v("y")])), &targets));
        // ∃z (E(x,z) ∧ P(z)) — positive through quantifiers and ∧.
        assert!(positive_in(
            &exists(["z"], rel("E", [v("x"), v("z")]) & rel("P", [v("z")])),
            &targets
        ));
        // Canonical guarded form ¬∃z(… ∧ ¬P(z)): P at depth 2, positive.
        assert!(positive_in(
            &not(exists(["z"], rel("E", [v("x"), v("z")]) & not(rel("P", [v("z")])))),
            &targets
        ));
        // Implies flips its left side.
        assert!(!positive_in(&implies(rel("P", [v("x")]), Formula::True), &targets));
        assert!(positive_in(&implies(rel("E", [v("x"), v("x")]), rel("P", [v("x")])), &targets));
        // Any target mention under Iff is non-positive.
        assert!(!positive_in(&iff(rel("P", [v("x")]), Formula::True), &targets));
    }

    #[test]
    fn size_and_num_variables() {
        let f = exists(["u", "w"], rel("E", [v("u"), v("w")]) & eq(v("u"), v("x9")));
        assert_eq!(size(&f), 4);
        assert_eq!(num_variables(&f), 3);
    }

    /// `canonicalize` is idempotent and its output always satisfies
    /// `is_canonical` — the contract `Plan::compile_canonical` (and the
    /// `compile_with` fast path that skips re-canonicalizing) rests on.
    #[test]
    fn canonicalize_is_idempotent() {
        let e = || rel("E", [v("x"), v("y")]);
        let cases = [
            e(),
            not(e()),
            not(not(e())),
            implies(e(), rel("M", [v("x")])),
            iff(e(), not(rel("M", [v("y")]))),
            forall(["y"], or([e(), eq(v("x"), v("y"))])),
            not(forall(["x"], implies(e(), exists(["z"], rel("E", [v("y"), v("z")]))))),
            exists(["y"], and([e(), not(exists(["z"], rel("E", [v("y"), v("z")])))])),
            and([not(and([e(), not(e())])), forall(["x"], not(e()))]),
            not(bit(v("x"), lit(1))),
        ];
        for f in cases {
            let c = canonicalize(&f);
            assert!(is_canonical(&c), "canonicalize left non-canonical: {f} -> {c}");
            assert_eq!(canonicalize(&c), c, "canonicalize not idempotent on {f}");
        }
    }
}
