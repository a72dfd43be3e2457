use super::naive::naive_evaluate;
use super::*;
use crate::formula::*;
use crate::vocab::Vocabulary;
use std::sync::Arc;

fn vocab() -> Arc<Vocabulary> {
    Arc::new(
        Vocabulary::new()
            .with_relation("E", 2)
            .with_relation("P", 2)
            .with_relation("U", 1)
            .with_constant("s")
            .with_constant("t"),
    )
}

/// A small structure: path 0→1→2→3 plus U = {1, 3}, s=0, t=3, n=5.
fn path_structure() -> Structure {
    let mut st = Structure::empty(vocab(), 5);
    for (a, b) in [(0, 1), (1, 2), (2, 3)] {
        st.insert("E", [a, b]);
    }
    // P = transitive closure of E (hand-rolled for the tests).
    for a in 0..4u32 {
        for b in (a + 1)..4 {
            st.insert("P", [a, b]);
        }
    }
    st.insert("U", [1u32]);
    st.insert("U", [3u32]);
    st.set_const("t", 3);
    st
}

fn check_against_naive(f: &Formula, st: &Structure, params: &[Elem]) {
    let fast = evaluate(f, st, params).expect("planner evaluation failed");
    let slow = naive_evaluate(f, st, params).expect("naive evaluation failed");
    let fv: Vec<Sym> = slow.vars().to_vec();
    let fast_aligned = if fv.is_empty() {
        fast.clone()
    } else {
        fast.project(&fv)
    };
    assert_eq!(
        fast_aligned.clone().sorted(),
        slow.clone().sorted(),
        "planner and naive evaluation disagree on {f:?}"
    );
}

#[test]
fn atom_scan() {
    let st = path_structure();
    let t = evaluate(&rel("E", [v("x"), v("y")]), &st, &[]).unwrap();
    assert_eq!(t.len(), 3);
}

#[test]
fn atom_with_ground_args() {
    let st = path_structure();
    let t = evaluate(&rel("E", [lit(1), v("y")]), &st, &[]).unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows()[0][0], 2);
}

#[test]
fn atom_with_repeated_var_selects_diagonal() {
    let mut st = path_structure();
    st.insert("E", [2u32, 2]);
    let t = evaluate(&rel("E", [v("x"), v("x")]), &st, &[]).unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows()[0][0], 2);
}

#[test]
fn constants_and_params_resolve() {
    let st = path_structure();
    // E(s, ?0) with ?0 = 1 holds (edge 0→1).
    assert!(satisfies(&rel("E", [cst("s"), param(0)]), &st, &[1]).unwrap());
    assert!(!satisfies(&rel("E", [cst("s"), param(0)]), &st, &[2]).unwrap());
    // min/max
    assert!(satisfies(&eq(cst("s"), Term::Min), &st, &[]).unwrap());
    assert!(satisfies(&eq(lit(4), Term::Max), &st, &[]).unwrap());
}

#[test]
fn unbound_param_errors() {
    let st = path_structure();
    let err = satisfies(&rel("E", [param(0), param(1)]), &st, &[1]).unwrap_err();
    assert_eq!(err, EvalError::UnboundParam(1));
}

#[test]
fn unknown_symbols_error() {
    let st = path_structure();
    assert!(matches!(
        satisfies(&rel("Q", [v("x")]), &st, &[]),
        Err(EvalError::UnknownRelation(_))
    ));
    assert!(matches!(
        satisfies(&eq(cst("nope"), lit(0)), &st, &[]),
        Err(EvalError::UnknownConstant(_))
    ));
    assert!(matches!(
        satisfies(&rel("E", [v("x")]), &st, &[]),
        Err(EvalError::ArityMismatch { .. })
    ));
}

#[test]
fn conjunction_join_path_of_length_two() {
    let st = path_structure();
    // ∃y (E(x,y) ∧ E(y,z)) — pairs at distance exactly 2 along edges.
    let f = exists(["y"], rel("E", [v("x"), v("y")]) & rel("E", [v("y"), v("z")]));
    let t = evaluate(&f, &st, &[]).unwrap().sorted();
    assert_eq!(t.len(), 2); // (0,2), (1,3)
    check_against_naive(&f, &st, &[]);
}

#[test]
fn guarded_negation_is_antijoin() {
    let st = path_structure();
    // E(x,y) ∧ ¬U(y): edges into non-U vertices → (1,2) only.
    let f = rel("E", [v("x"), v("y")]) & not(rel("U", [v("y")]));
    let t = evaluate(&f, &st, &[]).unwrap();
    assert_eq!(t.len(), 1);
    check_against_naive(&f, &st, &[]);
}

#[test]
fn forall_guard_via_not_exists() {
    let st = path_structure();
    // The deterministic-edge formula α from Example 2.1:
    // E(x,y) ∧ x≠t ∧ ∀z (E(x,z) → z = y).
    let f = rel("E", [v("x"), v("y")])
        & neq(v("x"), cst("t"))
        & forall(["z"], implies(rel("E", [v("x"), v("z")]), eq(v("z"), v("y"))));
    let t = evaluate(&f, &st, &[]).unwrap();
    assert_eq!(t.len(), 3); // every path vertex has out-degree 1
    check_against_naive(&f, &st, &[]);
}

#[test]
fn disjunction_extends_uniformly() {
    let st = path_structure();
    // U(x) ∨ E(x,y): free vars {x,y}.
    let f = rel("U", [v("x")]) | rel("E", [v("x"), v("y")]);
    check_against_naive(&f, &st, &[]);
}

#[test]
fn sentence_evaluation() {
    let st = path_structure();
    // ∃x∃y E(x,y) — true; ∀x∀y E(x,y) — false.
    assert!(satisfies(&exists(["x", "y"], rel("E", [v("x"), v("y")])), &st, &[]).unwrap());
    assert!(!satisfies(&forall(["x", "y"], rel("E", [v("x"), v("y")])), &st, &[]).unwrap());
}

#[test]
fn numeric_atoms() {
    let st = path_structure();
    check_against_naive(&le(v("x"), v("y")), &st, &[]);
    check_against_naive(&lt(v("x"), lit(2)), &st, &[]);
    check_against_naive(&bit(v("x"), lit(0)), &st, &[]); // odd numbers
    check_against_naive(&bit(v("x"), v("y")), &st, &[]);
    check_against_naive(&eq(v("x"), v("x")), &st, &[]);
    check_against_naive(&not(eq(v("x"), v("y"))), &st, &[]);
}

#[test]
fn binder_equalities_avoid_enumeration() {
    let st = path_structure();
    // x = t ∧ U(x): binder binds x to 3 directly.
    let f = eq(v("x"), cst("t")) & rel("U", [v("x")]);
    let t = evaluate(&f, &st, &[]).unwrap();
    assert_eq!(t.len(), 1);
    check_against_naive(&f, &st, &[]);
    // var-to-var binder: E(x,y) ∧ z = y ∧ U(z).
    let g = rel("E", [v("x"), v("y")]) & eq(v("z"), v("y")) & rel("U", [v("z")]);
    check_against_naive(&g, &st, &[]);
}

#[test]
fn pure_numeric_conjunction_needs_extension() {
    let st = path_structure();
    // x ≤ y ∧ ¬(x = y) with no relational guard: planner must extend.
    let f = le(v("x"), v("y")) & not(eq(v("x"), v("y")));
    check_against_naive(&f, &st, &[]);
}

#[test]
fn implies_iff_desugar() {
    let st = path_structure();
    check_against_naive(
        &implies(rel("U", [v("x")]), rel("E", [v("x"), v("y")])),
        &st,
        &[],
    );
    check_against_naive(&iff(rel("U", [v("x")]), lt(v("x"), lit(2))), &st, &[]);
}

#[test]
fn complement_budget_guards_unguarded_negation() {
    let st = path_structure();
    let f = not(rel("E", [v("x"), v("y")]));
    // Default budget: fine for n=5.
    assert_eq!(evaluate(&f, &st, &[]).unwrap().len(), 22);
    // Tiny budget: error.
    let c = crate::analysis::canonicalize(&f);
    let mut ev = Evaluator::new(&st, &[]).with_complement_budget(4);
    assert!(matches!(
        ev.eval(&c),
        Err(EvalError::ComplementTooLarge { .. })
    ));
}

#[test]
fn empty_conjunct_columns_are_finalized() {
    let st = path_structure();
    // And with a False conjunct keeps the full column set (empty table).
    let f = rel("E", [v("x"), v("y")]) & Formula::False;
    let t = evaluate(&f, &st, &[]).unwrap();
    assert!(t.is_empty());
    assert_eq!(t.vars().len(), 2);
}

#[test]
fn stats_track_work() {
    let st = path_structure();
    let f = crate::analysis::canonicalize(&exists(
        ["y"],
        rel("E", [v("x"), v("y")]) & rel("E", [v("y"), v("z")]),
    ));
    let mut ev = Evaluator::new(&st, &[]);
    ev.eval(&f).unwrap();
    let s = ev.stats();
    assert!(s.joins >= 1);
    assert!(s.rows_built > 0);
    assert!(s.max_table > 0);
}

#[test]
fn alpha_normalize_renames_binders_by_depth() {
    let key = |f: &Formula| alpha_normalize(f).unwrap().0;
    // Equal up to the names of free and bound variables: one key.
    let hop = |x: &str, z: &str, w: &str| {
        exists([z], rel("E", [v(x), v(z)]) & exists([w], rel("E", [v(z), v(w)])))
    };
    assert_eq!(key(&hop("x", "z", "w")), key(&hop("y", "q", "z")));
    // A shadowing binder is a different variable from the one it hides.
    let back = |z: &str, w: &str| {
        exists([z], rel("E", [v(z), v("y")]) & exists([w], rel("E", [v("y"), v(w)])))
    };
    let (shadow, fresh) = (back("x", "x"), back("a", "b"));
    assert_eq!(key(&shadow), key(&fresh));
    // Which binder an argument refers to is kept.
    let xy = exists(["x"], exists(["y"], rel("E", [v("x"), v("y")])));
    let yx = exists(["y"], exists(["x"], rel("E", [v("x"), v("y")])));
    assert_ne!(key(&xy), key(&yx));
}

#[test]
fn memo_serves_copies_with_renamed_binders() {
    // `subst` freshens every instance's binders; the copies must still
    // share one memo entry (the block is over the memo's size floor).
    let st = path_structure();
    let g = |z: &str| {
        canonicalize(&exists(
            [z],
            rel("E", [v("x"), v(z)])
                & rel("P", [v(z), v("y")])
                & not(rel("U", [v(z)]))
                & not(rel("E", [v(z), v("x")]))
                & le(v("x"), v(z)),
        ))
    };
    assert!(crate::analysis::size(&g("z")) >= MEMO_MIN_SIZE);
    let mut ev = Evaluator::new(&st, &[]);
    let first = ev.eval(&g("z")).unwrap();
    let built = ev.stats().rows_built;
    let second = ev.eval(&g("w")).unwrap();
    assert_eq!(ev.stats().rows_built, built, "a renamed binder missed the memo");
    assert_eq!(first.sorted(), second.sorted());
}

#[test]
fn paper_example_2_1_reduction_formula() {
    // φ_{d-u}(x,y) ≡ α(x,y) ∨ α(y,x) on a graph with a branching vertex.
    let mut st = Structure::empty(vocab(), 5);
    for (a, b) in [(0, 1), (0, 2), (1, 3), (3, 3)] {
        st.insert("E", [a, b]);
    }
    st.set_const("t", 3);
    let alpha = |x: &str, y: &str| {
        rel("E", [v(x), v(y)])
            & neq(v(x), cst("t"))
            & forall(["z"], implies(rel("E", [v(x), v("z")]), eq(v("z"), v(y))))
    };
    let phi = alpha("x", "y") | alpha("y", "x");
    // Vertex 0 branches (two out-edges) so neither (0,1) nor (0,2)
    // survives; vertex 1 → 3 is deterministic; t's self-loop is removed.
    let t = evaluate(&phi, &st, &[]).unwrap().sorted();
    let pairs: Vec<(Elem, Elem)> = t.rows().iter().map(|r| (r[0], r[1])).collect();
    assert_eq!(pairs, vec![(1, 3), (3, 1)]);
    check_against_naive(&phi, &st, &[]);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random small structures over the test vocabulary.
    fn arb_structure() -> impl Strategy<Value = Structure> {
        (2u32..5, proptest::collection::vec((0u32..5, 0u32..5), 0..12))
            .prop_map(|(n, pairs)| {
                let mut st = Structure::empty(vocab(), n);
                for (a, b) in pairs {
                    let (a, b) = (a % n, b % n);
                    st.insert("E", [a, b]);
                    if a % 2 == 0 {
                        st.insert("U", [b]);
                    }
                }
                st.set_const("t", n - 1);
                st
            })
    }

    /// Random formulas of bounded depth over {E, U, s, t}.
    fn arb_formula() -> impl Strategy<Value = Formula> {
        let term = prop_oneof![
            Just(v("x")),
            Just(v("y")),
            Just(v("z")),
            Just(cst("s")),
            Just(cst("t")),
            (0u32..2).prop_map(lit),
        ];
        let leaf = prop_oneof![
            (term.clone(), term.clone()).prop_map(|(a, b)| rel("E", [a, b])),
            term.clone().prop_map(|a| rel("U", [a])),
            (term.clone(), term.clone()).prop_map(|(a, b)| eq(a, b)),
            (term.clone(), term.clone()).prop_map(|(a, b)| le(a, b)),
            Just(Formula::True),
        ];
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a & b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a | b),
                inner.clone().prop_map(not),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| implies(a, b)),
                inner.clone().prop_map(|f| exists(["x"], f)),
                inner.clone().prop_map(|f| forall(["y"], f)),
                inner.clone().prop_map(|f| exists(["z"], f)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The planner agrees with brute-force Tarskian semantics on
        /// random formulas and random structures.
        #[test]
        fn planner_matches_naive(st in arb_structure(), f in arb_formula()) {
            check_against_naive(&f, &st, &[]);
        }

        /// Canonicalization preserves meaning.
        #[test]
        fn canonicalization_preserves_semantics(st in arb_structure(), f in arb_formula()) {
            let c = crate::analysis::canonicalize(&f);
            prop_assert!(crate::analysis::is_canonical(&c));
            let a = naive_evaluate(&f, &st, &[]).unwrap();
            let b = naive_evaluate(&c, &st, &[]).unwrap();
            let fv: Vec<Sym> = a.vars().to_vec();
            let b_aligned = if fv.is_empty() { b.clone() } else { b.project(&fv) };
            prop_assert_eq!(a.sorted(), b_aligned.sorted());
        }
    }
}
