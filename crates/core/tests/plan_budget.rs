//! Which plans the machine admits, pinned at the universe sizes where
//! the shipped constants bind.
//!
//! * **Admission is monotone in n.** Theorem 4.1's request parameters
//!   are constants, so every REACH_u residual is a pass over arity-3
//!   slots at any universe size: no size at which a rule silently
//!   stops compiling (the 5-ary lowering of the PV rules used to trip
//!   the compile ceiling at n = 31–32 and the slot cap at n = 33–64,
//!   and compile again at n = 65), and kernel work for one fixed
//!   request sequence that only grows with n.
//! * **MSF runs on the kernels up to the compile cap.** Theorem 4.4's
//!   extrema are stated as successive minima, so no update block is
//!   wider than 4-ary: at n ≤ 16 no request builds an interpreter row
//!   or declines a plan. From
//!   n = 17 its residuals pass `PLAN_COMPILE_WORDS_CAP` and interpret
//!   (ROADMAP item 3, tiled execution).
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
//! * **The bind join's ceiling.** A guard-selected residual bound once
//!   per witness tuple interprets once `Σ |W| · words(β)` passes the
//!   compile cap; no library program's witness set gets there, so a
//!   rule built for it holds the switch.

use dynfo_core::{programs, DynFoMachine, Request};
use dynfo_testutil::{churn_stream, edge_requests, rng, run_differential, weighted_stream, DiffMode};

#[test]
fn reach_u_plan_admission_is_monotone_in_n() {
    let mut work_by_n: Vec<(u32, u64)> = Vec::new();
    for n in [16u32, 31, 32, 33, 64, 65] {
        let mut m = DynFoMachine::new(programs::reach_u::program(), n);
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

/// MSF's update rules compile whole — no fallback, no
/// interpreter row — at every n up to the compile cap.
#[test]
fn msf_runs_on_the_kernels_up_to_the_compile_cap() {
    for n in [6u32, 12, 16] {
        let mut m = DynFoMachine::new(programs::msf::program(), n);
        for req in weighted_stream(n, 40, 4404) {
            let work = m.apply(&req).unwrap();
            assert_eq!(work.rows_built, 0, "n={n} {req}: the interpreter ran");
            assert_eq!(work.plan_fallback, 0, "n={n} {req}: a plan declined");
        }
        let installs = m.stats().installs;
        assert!(installs.tuples_removed > 0, "n={n}: no forest delete happened: {installs:?}");
    }
    // One past, the layout doubles to S = 32 and the widest residuals
    // pass the cap: the first request that selects one interprets it.
    let n = 17;
    let mut m = DynFoMachine::new(programs::msf::program(), n);
    let fell = weighted_stream(n, 40, 4404).iter().find_map(|req| {
        let work = m.apply(req).unwrap();
        (work.plan_fallback > 0).then_some((req.clone(), work))
    });
    let (req, work) = fell.expect("n=17: every request ran compiled");
    assert!(work.rows_built > 0, "n={n} {req}: {work:?}");
}

/// REACH_a on both sides of the base budget. State and answers equal
/// Definition 3.1 at every step either way.
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
            &[DiffMode::Plans],
        );
        let work = machines[0].stats().update_work;
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

/// The bind join's own ceiling: `Σ |W| · words(β)` past
/// `PLAN_COMPILE_WORDS_CAP` hands the residual to the interpreter. A
/// ternary β at n = 128 is a 2^15-word root, so a witness relation of a
/// few dozen rows crosses it; Definition 3.1's state either way.
#[test]
fn bind_join_past_the_cap_interprets() {
    use dynfo_core::{DynFoProgram, RequestKind};
    use dynfo_logic::formula::{eq, exists, not, param, rel, v};
    let copy = |r: &str, vars: &[&str]| {
        let args: Vec<_> = vars.iter().map(|x| v(x)).collect();
        let hit = vars
            .iter()
            .enumerate()
            .map(|(i, x)| eq(v(x), param(i)))
            .reduce(|a, b| a & b)
            .expect("a column");
        rel(r, args) | hit
    };
    let e = |x: &str| rel("E", [v(x), v("u")]);
    // Guarded by a probe, so the density gate stays out of it.
    let spread = rel("A", [v("x"), v("y"), v("z")])
        | (not(rel("M", [param(0)]))
            & exists(["u"], rel("M", [v("u")]) & e("x") & e("y") & e("z")));
    let program = DynFoProgram::builder("spread")
        .input_relation("M", 1)
        .input_relation("E", 2)
        .aux_relation("A", 3)
        .on(RequestKind::ins("M"), "M", &["x0"], copy("M", &["x0"]))
        .on(RequestKind::ins("M"), "A", &["x", "y", "z"], spread)
        .on(RequestKind::ins("E"), "E", &["x0", "x1"], copy("E", &["x0", "x1"]))
        .query(exists(["x", "y", "z"], rel("A", [v("x"), v("y"), v("z")])))
        .build();
    let mut m = DynFoMachine::new(program.clone(), 128);
    for u in 0..4 {
        m.apply(&Request::ins("E", [u + 1, u])).unwrap();
    }
    let mut routes = Vec::new();
    for u in 0..128 {
        let (req, pre) = (Request::ins("M", [u]), m.state().clone());
        let work = m.apply(&req).unwrap();
        assert_eq!(m.state(), &dynfo_testutil::reference_step(&program, &pre, &req), "{req}");
        routes.push(work.rows_built > 0);
    }
    // Bound while the witness set is small, interpreted once it is not.
    let first = routes.iter().position(|&interp| interp).expect("the bind join never overflowed");
    assert!(first > 0 && routes[first..].iter().all(|&interp| interp), "{routes:?}");
    assert!(m.query().unwrap());
}
