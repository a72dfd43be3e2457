//! Which plans the machine admits, pinned at the universe sizes where
//! the shipped constants bind.
//!
//! * **Admission is monotone in n.** Theorem 4.1's request parameters
//!   are constants, so every REACH_u residual is a pass over arity-3
//!   slots at any universe size: no size at which a rule silently
//!   stops compiling (the 5-ary lowering of the PV rules used to trip
//!   the compile ceiling at n = 31–32 and the slot cap at n = 33–64,
//!   and compile again at n = 65), no interpreter island, and kernel
//!   work for one fixed request sequence that only grows with n.
//! * **The density gate** (`BitPlan::profitable`) guards the rules no
//!   guard selects. REACH_a's path delete is the one rule in the
//!   library that crosses it: ≈ 42k kernel words in the S = 64 layout
//!   (within the 2^16-word base budget: always runs), ≈ 333k in the
//!   S = 128 layout (over the base budget, under the compile ceiling),
//!   where the two binary relations it reads cannot hold the ≈ 41.6k
//!   rows that would make an interpreter scan cost as much — so there
//!   the interpreter keeps it at every occupancy. The admitting side
//!   (dense reads carry a plan over the base budget) has no library
//!   instance since REACH_u's PV insert became a 3-ary pass; it is held
//!   on a rule built for it, a ternary self-join at n = 32.

use dynfo_core::{programs, DynFoMachine, Request};
use dynfo_testutil::{churn_stream, edge_requests, rng, run_differential, DiffMode};

#[test]
fn reach_u_plan_admission_is_monotone_in_n() {
    let mut work_by_n: Vec<(u32, u64)> = Vec::new();
    for n in [16u32, 31, 32, 33, 64, 65] {
        let mut m = DynFoMachine::new(programs::reach_u::program(), n);
        assert_eq!(m.plan_interp_islands(), 0, "n={n}: a plan has an interpreter island");
        // Two paths, joined, cut in the middle (a forest delete with no
        // replacement), re-joined through a chord and cut again (one
        // with): every insert rule and both delete residuals run.
        let mut reqs: Vec<Request> = (0..5u32)
            .flat_map(|a| [Request::ins("E", [a, a + 1]), Request::ins("E", [a + 7, a + 8])])
            .collect();
        reqs.extend([
            Request::ins("E", [5, 7]),
            Request::del("E", [2, 3]),
            Request::ins("E", [2, 3]),
            Request::ins("E", [0, 12]),
            Request::del("E", [5, 7]),
            Request::del("E", [0, 12]),
        ]);
        reqs.extend(edge_requests("E", &churn_stream(14, 30, 0.45, true, &mut rng(2217))));
        for req in &reqs {
            let work = m.apply(req).unwrap();
            assert_eq!(work.rows_built, 0, "n={n} {req}: the interpreter ran");
            assert_eq!(work.plan_fallback, 0, "n={n} {req}: a plan declined");
        }
        let installs = m.stats().installs;
        assert!(installs.tuples_removed > 0 && installs.tuples_added > 0, "n={n}: {installs:?}");
        assert_eq!(m.stats().update_work.rows_built, 0);
        work_by_n.push((n, m.stats().update_work.kernel_words));
    }
    // The same requests in a wider layout never cost fewer words: no
    // size at which a rule drops to a cheaper, partial route. (Within
    // one layout the power of two itself is cheapest — its loads and
    // installs are word copies.)
    for (i, &(n0, w0)) in work_by_n.iter().enumerate() {
        for &(n1, w1) in &work_by_n[i + 1..] {
            let wider = n0.next_power_of_two() < n1.next_power_of_two();
            assert!(!wider || w0 <= w1, "kernel words fell from n={n0} ({w0}) to n={n1} ({w1})");
        }
    }
}

/// REACH_a on both sides of the base budget. State and answers equal
/// the interpreter's — and Definition 3.1 — at every step either way.
#[test]
fn density_gate_keeps_the_interpreter_where_reads_stay_sparse() {
    for (n, declined) in [(64u32, false), (65, true)] {
        // A chain with chords: dense enough that P is far from empty.
        let mut reqs: Vec<Request> = (0..24u32).map(|a| Request::ins("E", [a, a + 1])).collect();
        reqs.extend((0..20u32).map(|a| Request::ins("E", [a, a + 3])));
        let deletes: Vec<Request> = (0..8u32).map(|a| Request::del("E", [2 * a, 2 * a + 1])).collect();
        reqs.extend(deletes.iter().cloned());
        let machines = run_differential(
            &programs::reach_acyclic::program,
            n,
            &reqs,
            &[("reaches", &[0, 24]), ("reaches", &[3, 1])],
            &[DiffMode::Interp, DiffMode::Plans],
        );
        let work = machines[1].stats().update_work;
        let expect = if declined { deletes.len() } else { 0 };
        assert_eq!(
            work.plan_fallback, expect,
            "n={n}: exactly the P-delete plan is {}",
            if declined { "declined, once per delete" } else { "within the base budget" }
        );
        assert!(work.plan_compiled >= reqs.len() - expect, "n={n}: {work:?}");
    }
}

/// The admitting side of the gate, on a rule built for it: one
/// unguarded Grow rule joining a ternary relation with itself through a
/// 4-ary slot — over the base budget at n = 32, under the compile
/// ceiling — so whether its plan runs is decided per request by how many
/// rows `T` holds. Declined over a thin `T`, admitted once `T` is dense
/// enough that the interpreter would scan comparable volume; Definition
/// 3.1's state either way.
#[test]
fn density_gate_admits_a_plan_once_its_reads_are_dense() {
    use dynfo_core::{DynFoProgram, RequestKind};
    use dynfo_logic::formula::{eq, exists, not, param, rel, v};
    let t = |a: &str, b: &str, c: &str| rel("T", [v(a), v(b), v(c)]);
    let copy = t("x", "y", "z")
        | (eq(v("x"), param(0)) & eq(v("y"), param(1)) & eq(v("z"), param(2)));
    let psi = exists(
        ["w"],
        t("x", "y", "w") & t("w", "y", "z") & not(t("x", "w", "z")) & not(t("w", "x", "z")),
    );
    let grow = rel("Q", [v("x"), v("y"), v("z")]) | psi.clone();
    let program = DynFoProgram::builder("tri")
        .input_relation("T", 3)
        .aux_relation("Q", 3)
        .on(RequestKind::ins("T"), "T", &["x", "y", "z"], copy)
        .on(RequestKind::ins("T"), "Q", &["x", "y", "z"], grow)
        .query(exists(["x", "y", "z"], rel("Q", [v("x"), v("y"), v("z")])))
        .build();
    let n = 32u32;
    let empty = DynFoMachine::new(program.clone(), n).state().clone();
    let words = dynfo_logic::Plan::compile(&psi, &empty).expect("ψ lowers").work_words();
    assert!((1 << 16) < words && words < (1 << 22), "test premise: {words} words");
    // Admission needs `words / 8` rows in T; n³ = 32 768 is the most it
    // can hold.
    let needed = (words / 8) as usize;
    assert!(3 * needed < 32_768, "test premise: {needed} rows");
    for (stride, admitted) in [(997u32, false), (3, true)] {
        let mut pre = empty.clone();
        for i in (0..n * n * n).step_by(stride as usize) {
            pre.insert("T", [i / (n * n), i / n % n, i % n]);
        }
        assert_eq!(pre.rel("T").len() > needed, admitted, "test premise");
        let mut m = DynFoMachine::from_state(program.clone(), pre).unwrap();
        for req in [Request::ins("T", [1, 2, 3]), Request::ins("T", [3, 2, 5])] {
            let pre = m.state().clone();
            m.apply(&req).unwrap();
            assert_eq!(m.state(), &dynfo_testutil::reference_step(&program, &pre, &req), "{req}");
        }
        let work = m.stats().update_work;
        let (ran, fell) = if admitted { (2, 0) } else { (0, 2) };
        assert_eq!((work.plan_compiled, work.plan_fallback), (ran, fell), "stride {stride}: {work:?}");
        assert_eq!(m.state().rel("Q").is_empty(), !admitted, "stride {stride}: what the join found");
    }
}
