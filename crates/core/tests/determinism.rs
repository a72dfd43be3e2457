//! Bitwise-deterministic execution: two machines built identically and
//! fed the identical request stream must finish with the identical
//! auxiliary structure *and* the identical work profile — the same
//! number of evaluations served by compiled plans, the same number of
//! interpreter fallbacks, the same number of guard-refined rules. The
//! counters are the stronger claim: they pin the whole control flow
//! (plan admission, guard outcomes, install routing), not just the
//! final answer, so any hidden nondeterminism — iteration over an
//! unordered map, a time- or address-dependent cache policy — fails
//! here even when the states happen to agree.
//!
//! All twelve Section 4 programs plus the string-workload family
//! (compiled DFA membership, Dyck-k levels, muddle-through directed
//! reachability), n = 16, streams from seeded generators re-run from
//! scratch for each machine.

use dynfo_core::programs;
use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_testutil::{
    churn_stream, dag_churn_stream, dyck_edit_requests, edge_requests, rng,
    string_edit_requests, weighted_stream,
};

const N: u32 = 16;
const STEPS: usize = 36;

/// One full run: fresh machine, whole stream applied.
fn run(program: &dyn Fn() -> DynFoProgram, reqs: &[Request]) -> DynFoMachine {
    let mut machine = DynFoMachine::new(program(), N);
    machine.apply_all(reqs).unwrap();
    machine
}

fn assert_deterministic(name: &str, program: &dyn Fn() -> DynFoProgram, reqs: &[Request]) {
    let first = run(program, reqs);
    let second = run(program, reqs);

    assert_eq!(
        first.state(),
        second.state(),
        "{name}: auxiliary structures diverged between identical runs"
    );

    let (a, b) = (first.stats(), second.stats());
    assert_eq!(
        a.update_work.plan_compiled, b.update_work.plan_compiled,
        "{name}: plan_compiled not reproduced"
    );
    assert_eq!(
        a.update_work.plan_fallback, b.update_work.plan_fallback,
        "{name}: plan_fallback not reproduced"
    );
    assert_eq!(
        a.installs.guarded_evals, b.installs.guarded_evals,
        "{name}: guarded_evals not reproduced"
    );
    // The full install profile rides along for free and pins the
    // delta/grow/shrink routing too.
    assert_eq!(a.installs, b.installs, "{name}: install profile not reproduced");
}

fn undirected(seed: u64) -> Vec<Request> {
    edge_requests("E", &churn_stream(N, STEPS, 0.3, true, &mut rng(seed)))
}

fn dag(seed: u64) -> Vec<Request> {
    edge_requests("E", &dag_churn_stream(N, STEPS, 0.3, &mut rng(seed)))
}

fn member_toggles(seed: u64) -> Vec<Request> {
    use rand::Rng;
    let mut rand = rng(seed);
    (0..STEPS)
        .map(|_| {
            let i = rand.gen_range(0..N);
            if rand.gen_bool(0.4) {
                Request::del("M", [i])
            } else {
                Request::ins("M", [i])
            }
        })
        .collect()
}

/// Insert-only stream for the semi-dynamic programs.
fn insert_only(seed: u64, undirected_pairs: bool) -> Vec<Request> {
    edge_requests("E", &churn_stream(N, STEPS / 2, 0.0, undirected_pairs, &mut rng(seed)))
}

type Cell = (&'static str, Box<dyn Fn() -> DynFoProgram>, Vec<Request>);

#[test]
fn all_programs_reproduce_state_and_work_profile() {
    let cells: Vec<Cell> = vec![
        ("parity", Box::new(programs::parity::program), member_toggles(301)),
        ("reach_u", Box::new(programs::reach_u::program), undirected(303)),
        ("reach_acyclic", Box::new(programs::reach_acyclic::program), dag(307)),
        (
            "trans_reduction",
            Box::new(programs::trans_reduction::program),
            dag(311),
        ),
        ("msf", Box::new(programs::msf::program), weighted_stream(N, STEPS, 313)),
        ("bipartite", Box::new(programs::bipartite::program), undirected(317)),
        (
            "kconn(2)",
            Box::new(|| programs::kconn::program_up_to(2)),
            undirected(331),
        ),
        ("matching", Box::new(programs::matching::program), undirected(337)),
        ("lca", Box::new(programs::lca::program), dag(347)),
        (
            "vertex_cover",
            Box::new(programs::vertex_cover::program),
            undirected(349),
        ),
        (
            "semi::reach_u",
            Box::new(programs::semi::reach_u_program),
            insert_only(353, true),
        ),
        (
            "semi::reach",
            Box::new(programs::semi::reach_program),
            insert_only(359, false),
        ),
        (
            "strings::count_mod",
            Box::new(|| programs::strings::count_mod_program(&['a', 'b'], 'a', 3, 1)),
            string_edit_requests(&['a', 'b'], N, STEPS, 0.25, &mut rng(361)),
        ),
        (
            "strings::a_star_b_star",
            Box::new(programs::strings::a_star_b_star_program),
            string_edit_requests(&['a', 'b'], N, STEPS, 0.3, &mut rng(367)),
        ),
        (
            "strings::dyck(2)",
            Box::new(|| programs::dyck::dyck_program(2)),
            dyck_edit_requests(2, N, STEPS, &mut rng(373)),
        ),
        (
            "dir_reach::muddle",
            Box::new(programs::dir_reach::dir_reach_program),
            dag(379),
        ),
    ];
    assert_eq!(
        cells.len(),
        16,
        "the Section 4 library plus the string-workload family is covered"
    );
    for (name, program, reqs) in &cells {
        assert_deterministic(name, program, reqs);
    }
}

/// The counters must also reproduce through `apply_batch`, which
/// validates a whole chunk before applying any of it.
#[test]
fn batched_runs_reproduce_work_profile() {
    let reqs = undirected(367);
    let run_batched = || {
        let mut machine = DynFoMachine::new(programs::reach_u::program(), N);
        for chunk in reqs.chunks(8) {
            machine.apply_batch(chunk).unwrap();
        }
        machine
    };
    let first = run_batched();
    let second = run_batched();
    assert_eq!(first.state(), second.state());
    let (a, b) = (first.stats(), second.stats());
    assert_eq!(a.update_work.plan_compiled, b.update_work.plan_compiled);
    assert_eq!(a.update_work.plan_fallback, b.update_work.plan_fallback);
    assert_eq!(a.installs, b.installs);
    assert!(
        a.update_work.plan_compiled > 0,
        "the determinism claim is vacuous if nothing compiled"
    );
}
