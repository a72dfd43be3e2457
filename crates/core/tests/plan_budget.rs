//! The occupancy side of the density-aware plan budget
//! (`BitPlan::profitable`), pinned where the *shipped* constant binds:
//! REACH_u in the S = 128 layout (65 ≤ n ≤ 128). Its PV insert rule
//! compiles to a plan of ≈ 99k kernel words — over the 2^16-word base
//! budget, under the compile ceiling — so whether it runs is decided
//! per request by the live population of the relation it reads:
//! declined while the forest is small, admitted once PV holds enough
//! rows (≈ 12.3k) that the interpreter would scan comparable volume
//! (E20's REACH_u n = 128 row records the same plan as 94 fallbacks).

use dynfo_core::{programs, Request};
use dynfo_testutil::{run_differential, DiffMode};

/// Build two 18-vertex paths, join them, and extend the joined path by
/// one vertex. PV (the forest's path-vertex relation) holds ≈ L³/3 rows
/// for a path of L vertices: ≈ 2k per half, ≈ 16k once joined. Every
/// insert up to and including the join (evaluated on the sparse
/// pre-state) must decline the PV plan while the smaller plans run; the
/// insert after it must run every plan. State and answers equal the
/// interpreter's — and Definition 3.1 — at every step on both sides of
/// the crossover.
#[test]
fn budget_declines_sparse_reads_and_admits_dense() {
    let path = |from: u32, to: u32| (from..to).map(|a| Request::ins("E", [a, a + 1]));
    let mut reqs: Vec<Request> = path(0, 17).chain(path(18, 35)).collect();
    reqs.push(Request::ins("E", [17, 18]));
    reqs.push(Request::ins("E", [35, 36]));
    let machines = run_differential(
        &programs::reach_u::program,
        65,
        &reqs,
        &[("connected", &[0, 36]), ("connected", &[0, 64])],
        &[DiffMode::Interp, DiffMode::Plans],
    );
    // An insert evaluates three rules that have plans, and only PV's
    // is over the base budget: one fallback per sparse insert, none on
    // the dense one.
    let work = machines[1].stats().update_work;
    assert_eq!(work.plan_compiled + work.plan_fallback, 3 * reqs.len());
    assert_eq!(
        work.plan_fallback,
        reqs.len() - 1,
        "every insert but the last must decline exactly the PV plan"
    );
}
