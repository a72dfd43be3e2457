//! Differential property tests for the plan compiler: on every formula
//! it accepts, a compiled bit-parallel plan must produce exactly the
//! interpreter's table — over randomized structures, with parameters
//! bound, and through repeated executions of one arena (stable-slot
//! reuse). Divergence means a kernel, a load path, or the padding
//! discipline is wrong.
//!
//! The compile-execute-compare loop is `dynfo_testutil::assert_plan_matches`,
//! shared with the machine-level differential suites.

use dynfo_logic::analysis::canonicalize;
use dynfo_logic::formula::{
    bit, cst, eq, exists, forall, le, lt, neq, not, param, rel, v, Formula,
};
use dynfo_logic::{evaluate, Elem, Evaluator, Plan, Structure, Sym, Vocabulary};
use dynfo_testutil::assert_plan_matches;
use proptest::prelude::*;
use std::sync::Arc;

/// A structure with a binary `E`, a unary `M`, and a constant `c`.
fn structure(n: Elem, edges: &[(Elem, Elem)], marks: &[Elem], c: Elem) -> Structure {
    let vocab = Arc::new(
        Vocabulary::new()
            .with_relation("E", 2)
            .with_relation("M", 1)
            .with_constant("c"),
    );
    let mut s = Structure::empty(vocab, n);
    for &(a, b) in edges {
        s.insert("E", [a % n, b % n]);
    }
    for &m in marks {
        s.insert("M", [m % n]);
    }
    s.set_const("c", c % n);
    s
}

/// Every connective and quantifier shape the compiler lowers, plus
/// numeric atoms, parameters, and constants. `?0` and `?1` are always
/// bound by the callers.
fn corpus() -> Vec<Formula> {
    vec![
        rel("E", [v("x"), v("y")]),
        rel("E", [v("y"), v("x")]),
        rel("E", [v("x"), v("x")]),
        rel("E", [v("x"), v("y")]) & rel("M", [v("y")]),
        rel("E", [v("x"), v("y")]) | rel("E", [v("y"), v("x")]),
        rel("M", [v("x")]) & not(rel("E", [v("x"), v("y")])),
        not(rel("E", [v("x"), v("y")]) | rel("M", [v("x")])),
        exists(["y"], rel("E", [v("x"), v("y")]) & rel("M", [v("y")])),
        exists(["x", "y"], rel("E", [v("x"), v("y")])),
        forall(["y"], rel("E", [v("x"), v("y")]) | not(rel("M", [v("y")]))),
        exists(["z"], rel("E", [v("x"), v("z")]) & rel("E", [v("z"), v("y")])),
        // Three-hop reachability: the query shape from EXPERIMENTS E20.
        exists(
            ["a", "b"],
            rel("E", [v("x"), v("a")]) & rel("E", [v("a"), v("b")]) & rel("E", [v("b"), v("y")]),
        ),
        lt(v("x"), v("y")) & rel("E", [v("x"), v("y")]),
        le(v("x"), cst("c")) & rel("M", [v("x")]),
        bit(v("x"), v("y")) & rel("E", [v("x"), v("y")]),
        eq(v("x"), param(0)) & rel("E", [v("x"), v("y")]),
        rel("E", [param(0), v("y")]) | rel("E", [v("y"), param(1)]),
        // Parameter guard: a closed conjunct gating a scan.
        rel("E", [param(0), param(1)]) & rel("M", [v("x")]),
        neq(v("x"), param(0)) & rel("M", [v("x")]),
        exists(["y"], rel("E", [v("x"), v("y")]) & neq(v("y"), param(0))),
        // Optimizer-triggering shapes: `assert_plan_matches` compiles
        // every corpus formula with the algebraic optimizer both off and
        // on, so these exercise CSE, absorption, annihilation, and
        // quantifier hoisting against the raw lowering.
        rel("E", [v("x"), v("y")]) & rel("E", [v("x"), v("y")]),
        rel("M", [v("x")]) | (rel("M", [v("x")]) & rel("E", [v("x"), v("y")])),
        rel("E", [v("x"), v("y")]) & not(rel("E", [v("x"), v("y")])),
        rel("M", [v("x")]) | not(rel("M", [v("x")])),
        exists(["z"], rel("E", [v("x"), v("z")]) & rel("M", [v("y")])),
        exists(["z"], rel("M", [v("z")])) & rel("E", [v("x"), v("y")]),
        not(exists(["z"], rel("E", [v("x"), v("z")]) & rel("M", [v("y")]))),
        (rel("E", [v("x"), v("y")]) & rel("M", [v("x")]))
            | (rel("E", [v("x"), v("y")]) & rel("M", [v("x")])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole corpus over random structures and parameters, at
    /// universe sizes covering every kernel regime boundary: in-word
    /// groups, word-straddling groups, and (n = 8 → S = 8) layouts where
    /// padding vanishes.
    #[test]
    fn plan_matches_interpreter_on_corpus(
        n in prop_oneof![Just(3u32), Just(5u32), Just(7u32), Just(8u32), Just(11u32)],
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..24),
        marks in proptest::collection::vec(0u32..16, 0..8),
        c in 0u32..16,
        p0 in 0u32..16,
        p1 in 0u32..16,
    ) {
        let st = structure(n, &edges, &marks, c);
        let params = [p0 % n, p1 % n];
        for f in corpus() {
            assert_plan_matches(&f, &st, &params);
        }
    }

    /// Sentences (boolean answers) reduce to 0-ary tables; the decode
    /// path and the `as_bool` contract must agree with the interpreter.
    #[test]
    fn plan_matches_interpreter_on_sentences(
        n in prop_oneof![Just(4u32), Just(6u32), Just(9u32)],
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..20),
        p0 in 0u32..12,
    ) {
        let st = structure(n, &edges, &[0, 2], 1);
        let params = [p0 % n];
        for f in [
            exists(["x", "y"], rel("E", [v("x"), v("y")])),
            forall(["x"], exists(["y"], rel("E", [v("x"), v("y")]) | rel("E", [v("y"), v("x")]))),
            exists(["x"], rel("M", [v("x")]) & not(rel("E", [v("x"), v("x")]))),
            rel("E", [param(0), param(0)]),
        ] {
            let canonical = canonicalize(&f);
            let Some(plan) = Plan::compile(&canonical, &st) else { continue };
            let mut arena = plan.arena();
            let mut ev = Evaluator::new(&st, &params);
            let got = plan.execute(&mut ev, &mut arena, None).unwrap();
            let expect = evaluate(&canonical, &st, &params).unwrap();
            prop_assert_eq!(got.as_bool(), expect.as_bool(), "{}", canonical);
        }
    }
}

/// Plans complement with a masked word-NOT, so they need no complement
/// budget: where the interpreter refuses an unguarded negation, the
/// compiled plan still answers — and where both answer, they agree.
#[test]
fn plan_ignores_complement_budget() {
    let st = structure(16, &[(0, 1), (3, 4), (7, 7)], &[1], 0);
    let f = canonicalize(&not(rel("E", [v("x"), v("y")])));
    // Budget below n² = 256: the interpreter errors out…
    let mut strict = Evaluator::new(&st, &[]).with_complement_budget(64);
    assert!(strict.eval(&f).is_err(), "budget should trip");
    // …while the plan computes all 253 non-edges.
    let plan = Plan::compile(&f, &st).expect("negation compiles");
    let mut arena = plan.arena();
    let mut ev = Evaluator::new(&st, &[]).with_complement_budget(64);
    let got = plan.execute(&mut ev, &mut arena, None).unwrap();
    assert_eq!(got.len(), 16 * 16 - 3);
    // With a roomy budget the interpreter agrees tuple-for-tuple.
    let expect = evaluate(&f, &st, &[]).unwrap();
    let order: Vec<Sym> = got.vars().to_vec();
    assert_eq!(got.sorted(), expect.project(&order).sorted());
}

/// The word-aligned fast paths (n = 64 ⇒ no padding, whole-word loads)
/// agree with the interpreter — the regime EXPERIMENTS E20 measures.
#[test]
fn plan_matches_interpreter_at_aligned_universe() {
    let edges: Vec<(Elem, Elem)> = (0..63u32)
        .map(|i| (i, (i * 7 + 3) % 64))
        .chain([(5, 5), (63, 0)])
        .collect();
    let st = structure(64, &edges, &[0, 8, 16, 63], 17);
    for f in corpus() {
        assert_plan_matches(&f, &st, &[9, 33]);
    }
}

// ---------------------------------------------------------------------------
// Gather loads, result installs and compose joins on awkward shapes
// ---------------------------------------------------------------------------

mod awkward_shapes {
    use dynfo_logic::analysis::canonicalize;
    use dynfo_logic::formula::{exists, param, rel, v, Formula, Term};
    use dynfo_logic::simd::{force_tier, Tier};
    use dynfo_logic::{
        evaluate, DeltaMode, Elem, EvalStats, Evaluator, Plan, Relation, Structure, Tuple,
        Vocabulary,
    };
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Universe sizes around the word and padding boundaries.
    const SIZES: [Elem; 9] = [1, 2, 7, 31, 32, 33, 63, 64, 65];

    /// Variable names whose sorted order is *not* their index order, so
    /// columns `[0, 1, 2]` already load through a permutation.
    const NAMES: [&str; 4] = ["c", "a", "d", "b"];

    /// Every SIMD tier this host runs.
    fn tiers() -> Vec<Tier> {
        [Tier::Scalar, Tier::Neon, Tier::Avx2]
            .into_iter()
            .filter(|&t| force_tier(t) == t)
            .collect()
    }

    /// Tuple sets at the densities the sweep covers: empty, one tuple,
    /// 1 %, 50 %, full.
    fn densities(n: Elem, k: usize, seed: u64) -> Vec<Vec<Tuple>> {
        let all: Vec<Tuple> = dynfo_logic::tuple::all_tuples(n, k).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = |p: f64, rng: &mut StdRng| -> Vec<Tuple> {
            all.iter().copied().filter(|_| rng.gen_bool(p)).collect()
        };
        vec![
            Vec::new(),
            vec![all[rng.gen_range(0..all.len())]],
            sample(0.01, &mut rng),
            sample(0.5, &mut rng),
            all.clone(),
        ]
    }

    fn structure(n: Elem, k: usize, names: &[&str], sets: &[&[Tuple]]) -> Structure {
        let mut vocab = Vocabulary::new();
        for name in names {
            vocab.add_relation(*name, k);
        }
        let mut st = Structure::empty(Arc::new(vocab), n);
        for (name, set) in names.iter().zip(sets) {
            for t in *set {
                st.insert(name, *t);
            }
        }
        st
    }

    /// All column shapes of arity `k`: each column is one of `k`
    /// variables (a repeat when two columns pick the same one, a
    /// permutation when distinct ones come out of name order) or a
    /// ground request parameter — leading, middle and trailing.
    fn shapes(k: usize) -> Vec<Vec<Term>> {
        let mut out = vec![Vec::new()];
        for col in 0..k {
            out = out
                .into_iter()
                .flat_map(|args: Vec<Term>| {
                    (0..=k).map(move |choice| {
                        let mut args = args.clone();
                        args.push(if choice == k { param(col) } else { v(NAMES[choice]) });
                        args
                    })
                })
                .collect();
        }
        out
    }

    /// The gather load, the scan and the interpreter decode one table
    /// from every atom shape, at every size and density, on every tier.
    #[test]
    fn plan_gather_scan_and_interpreter_agree() {
        let tiers = tiers();
        let mut gathers = 0u64;
        for k in 1..=4usize {
            for n in SIZES {
                let space = u64::from(n).pow(k as u32);
                if space > 1 << 19 {
                    continue; // arity 4 past n = 7: not dense, or minutes of sweep
                }
                // The interpreter materializes rows: hold it to the
                // spaces it walks in milliseconds. Gather and scan are
                // held to each other everywhere.
                let interpret = space <= 40_000;
                let params: Vec<Elem> = (0..k as Elem).map(|i| (i * 5 + 3) % n).collect();
                for (d, tuples) in densities(n, k, 0xA11 + space).iter().enumerate() {
                    if space > 40_000 && d >= 3 {
                        continue;
                    }
                    let st = structure(n, k, &["R"], &[tuples]);
                    for args in shapes(k) {
                        let atom = rel("R", args.clone());
                        let plan = Plan::compile(&atom, &st).expect("dense atom compiles");
                        let mut arena = plan.arena();
                        let mut tables = Vec::new();
                        for &tier in &tiers {
                            force_tier(tier);
                            for gather in [true, false] {
                                let mut ev = Evaluator::new(&st, &params);
                                plan.run_with_loads(&mut ev, &mut arena, gather).unwrap();
                                tables.push(plan.decode_root(&arena).sorted());
                            }
                            let mut ev = Evaluator::new(&st, &params);
                            plan.run(&mut ev, &mut arena).unwrap();
                            tables.push(plan.decode_root(&arena).sorted());
                        }
                        gathers += 1;
                        if interpret {
                            let expect = evaluate(&atom, &st, &params).unwrap();
                            tables.push(expect.project(plan.vars()).sorted());
                        }
                        for t in &tables[1..] {
                            assert_eq!(
                                t, &tables[0],
                                "{atom} at n={n}, density #{d}: load paths disagree"
                            );
                        }
                    }
                }
            }
        }
        assert!(gathers > 1000, "sweep shrank to {gathers} shapes");
    }

    /// A rule target's columns in an order that is not the root's.
    fn column_orders(k: usize) -> Vec<Vec<usize>> {
        match k {
            1 => vec![vec![0]],
            2 => vec![vec![0, 1], vec![1, 0]],
            3 => vec![vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0], vec![0, 2, 1]],
            _ => unreachable!(),
        }
    }

    /// A plan's root ORed into a result relation, and put in place by
    /// `Relation::install` on a target, leaves the target, its `len()`
    /// and the added/removed
    /// counts where set semantics puts them — through column
    /// permutations, columns the root lacks, and universes whose
    /// padding must be dropped. The old/new pairs include no change,
    /// growth only and shrinkage only.
    #[test]
    fn plan_result_install_matches_set_semantics() {
        let tiers = tiers();
        for k in 1..=3usize {
            for n in SIZES {
                if u64::from(n).pow(k as u32) > 40_000 {
                    continue;
                }
                let sets = densities(n, k, 0xB17 + u64::from(n));
                for cols in column_orders(k) {
                    let args: Vec<Term> = cols.iter().map(|&i| v(NAMES[i])).collect();
                    // (old, new) density pairs: growth from nothing,
                    // shrinkage to nothing, overlap, and no change.
                    for (o, w) in [(0, 2), (1, 3), (2, 4), (3, 3), (4, 0), (3, 1), (4, 3), (1, 1)] {
                        let (old, new) = (&sets[o], &sets[w]);
                        let st = structure(n, k, &["R", "N"], &[old, new]);
                        // The new value: N itself, N restricted to the
                        // old value, or — one column short — whatever
                        // the first column allows.
                        let whole = rel("N", args.clone());
                        let restricted = whole.clone() & rel("R", args.clone());
                        let mut cases: Vec<(Formula, &[DeltaMode])> = vec![
                            (whole, &[DeltaMode::Full, DeltaMode::Grow]),
                            (restricted, &[DeltaMode::Shrink]),
                        ];
                        if k == 2 {
                            let first = exists([NAMES[cols[1]]], rel("N", args.clone()));
                            cases.push((first, &[DeltaMode::Full]));
                        }
                        for (f, modes) in cases {
                            check_install(&st, &f, &args, modes, &tiers, (n, o, w));
                        }
                    }
                }
            }
        }
    }

    /// Hold `f`'s root, ORed into a result relation and put in place
    /// under each of `modes` on a target, on every tier, to set
    /// semantics.
    fn check_install(
        st: &Structure,
        f: &Formula,
        columns: &[Term],
        modes: &[DeltaMode],
        tiers: &[Tier],
        at: (Elem, usize, usize),
    ) {
        let n = st.size();
        let k = columns.len();
        let vars: Vec<_> = columns.iter().map(|t| t.as_var().unwrap()).collect();
        let id = st.vocab().relation("R").unwrap();
        // Reference: evaluate and align to the target's columns.
        let mut table = evaluate(f, st, &[]).unwrap();
        for &var in &vars {
            if table.col(var).is_none() {
                table = table.extend(var, n);
            }
        }
        let new: BTreeSet<Tuple> = table.project(&vars).into_rows().into_iter().collect();
        let old: BTreeSet<Tuple> = st.relation(id).iter().collect();
        let plan = Plan::compile(f, st).expect("dense formula compiles");
        let mut arena = plan.arena();
        plan.run(&mut Evaluator::new(st, &[]), &mut arena).unwrap();
        let axes: Vec<Option<usize>> = vars
            .iter()
            .map(|var| plan.vars().iter().position(|r| r == var))
            .collect();
        // Per mode, the new value set semantics gives the target, and
        // the counts `(|want ∖ old|, |old ∖ want|)`.
        let wants: Vec<(DeltaMode, BTreeSet<Tuple>, (usize, usize))> = modes
            .iter()
            .map(|&mode| {
                let want: BTreeSet<Tuple> = match mode {
                    DeltaMode::Grow => old.union(&new).copied().collect(),
                    DeltaMode::Shrink | DeltaMode::Full => new.clone(),
                };
                let counts = (want.difference(&old).count(), old.difference(&want).count());
                (mode, want, counts)
            })
            .collect();
        let target = st.relation(id);
        for &tier in tiers {
            force_tier(tier);
            let mut out = Relation::with_universe(k, n);
            plan.or_root_into(&arena, &axes, &mut out, &mut EvalStats::default());
            let on = format!("{tier:?}");
            assert_eq!(out.len(), new.len(), "{f}, {on} at {at:?}: result len()");
            assert!(out.iter().eq(new.iter().copied()), "{f}, {on} at {at:?}: result");
            for (mode, want, counts) in &wants {
                let mut installed = target.clone();
                assert_eq!(
                    installed.install(*mode, &out),
                    *counts,
                    "{f} as {mode:?}, {on} at (n, old, new) = {at:?}: added/removed counts"
                );
                assert_eq!(installed.len(), want.len(), "{f} as {mode:?}, {on} at {at:?}: len()");
                assert!(installed.iter().eq(want.iter().copied()), "{f} as {mode:?}, {on} at {at:?}");
            }
        }
    }

    /// Two relations of arities `ka` and `kb`.
    fn pair(n: Elem, (ka, a): (usize, &[Tuple]), (kb, b): (usize, &[Tuple])) -> Structure {
        let vocab = Vocabulary::new().with_relation("A", ka).with_relation("B", kb);
        let mut st = Structure::empty(Arc::new(vocab), n);
        for (name, set) in [("A", a), ("B", b)] {
            for t in set {
                st.insert(name, *t);
            }
        }
        st
    }

    /// Compile `f` raw and optimized on `st`, run both on every tier,
    /// and hold every decoded table — and, over small spaces, the
    /// interpreter's — to one another. Returns the optimized plan's
    /// compose joins.
    fn joins_agree(f: &Formula, st: &Structure, interpret: bool, tiers: &[Tier]) -> usize {
        let f = canonicalize(f);
        let off = Plan::compile_with(&f, st, false).expect("raw lowering");
        let on = Plan::compile(&f, st).expect("optimized lowering");
        assert_eq!(off.compose_joins(), 0, "{f}: the raw lowering composed");
        let mut tables = Vec::new();
        for &tier in tiers {
            force_tier(tier);
            for plan in [&off, &on] {
                let mut arena = plan.arena();
                plan.run(&mut Evaluator::new(st, &[]), &mut arena).unwrap();
                tables.push(plan.decode_root(&arena).sorted());
            }
        }
        if interpret {
            tables.push(evaluate(&f, st, &[]).unwrap().project(on.vars()).sorted());
        }
        for t in &tables[1..] {
            assert_eq!(t, &tables[0], "{f} at n={}: compose, broadcast-fold, interpreter", st.size());
        }
        on.compose_joins()
    }

    /// `∃m (A(X, m) ∧ B(m, Y))` over every split with |X|, |Y| ≤ 2: the
    /// optimizer's compose join decodes the raw broadcast–AND–fold
    /// lowering's table and the interpreter's, at every size around the
    /// word and padding boundaries, for an empty, one-tuple, sparse,
    /// half and full α, on every SIMD tier. `m` sorts before every Y
    /// variable and X draws from both sides of it, so `m` sits at every
    /// axis of α; the join composes exactly when β brings an axis of its
    /// own (Y ≠ ∅), or, with Y = ∅, when `m` leads α and the roles swap.
    #[test]
    fn plan_compose_matches_broadcast_fold_and_interpreter() {
        const N: [Elem; 9] = [1, 7, 31, 32, 33, 63, 64, 65, 128];
        let xs: [&[&str]; 6] = [&[], &["a"], &["n"], &["a", "b"], &["a", "n"], &["n", "o"]];
        let ys: [&[&str]; 3] = [&[], &["x"], &["x", "y"]];
        let tiers = tiers();
        let mut composed = 0;
        for x in xs {
            for y in ys {
                let (kx, ky) = (x.len(), y.len());
                let a_args: Vec<Term> = x.iter().chain(&["m"]).map(|&s| v(s)).collect();
                let b_args: Vec<Term> = ["m"].iter().chain(y).map(|&s| v(s)).collect();
                let f = exists(["m"], rel("A", a_args) & rel("B", b_args));
                let composes = ky > 0 || (kx > 0 && x.iter().all(|&s| s > "m"));
                for n in N {
                    // The raw lowering's widest slot is X ∪ {m} ∪ Y.
                    let s = u64::from(n.next_power_of_two());
                    if s.pow((kx + ky + 1) as u32) > 1 << 20 {
                        continue;
                    }
                    let interpret = u64::from(n).pow((kx + ky + 1) as u32) <= 40_000;
                    let seed = 0xC0 + u64::from(n) * 16 + (kx * 4 + ky) as u64;
                    let betas = densities(n, ky + 1, seed + 1);
                    for (d, alpha) in densities(n, kx + 1, seed).iter().enumerate() {
                        let st = pair(n, (kx + 1, alpha), (ky + 1, &betas[3]));
                        let joins = joins_agree(&f, &st, interpret, &tiers);
                        assert_eq!(joins, composes as usize, "{f} at n={n}, α density #{d}");
                        composed += joins;
                    }
                }
            }
        }
        assert!(composed > 150, "sweep shrank to {composed} composed joins");
    }

    /// `∃m (A(a, m, y) ∧ B(m, p))`: the result's columns are `a, p, y`,
    /// so X = {a, y} straddles Y = {p}, and `m` does not lead A either —
    /// neither operand's rows are rows of the result. The join keeps the
    /// broadcast–AND–fold lowering, and still agrees.
    #[test]
    fn plan_compose_declines_interleaved_layouts() {
        let f = exists(
            ["m"],
            rel("A", [v("a"), v("m"), v("y")]) & rel("B", [v("m"), v("p")]),
        );
        let tiers = tiers();
        for n in [2, 7, 33] {
            let alpha = &densities(n, 3, 0xD1)[3];
            let beta = &densities(n, 2, 0xD2)[3];
            let st = pair(n, (3, alpha), (2, beta));
            let interpret = u64::from(n).pow(4) <= 40_000;
            assert_eq!(joins_agree(&f, &st, interpret, &tiers), 0, "n={n}: composed");
        }
    }
}
