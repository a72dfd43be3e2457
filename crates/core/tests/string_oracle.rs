//! Oracle-differential coverage for the dynamic string workloads
//! (tentpole of the formal-language PR): every compiled DFA program
//! and the Dyck-k level program must track their independent automata
//! oracles — a full [`Dfa::run`] replay, the [`dyck_valid`] stack scan
//! — after **every** edit, under point streams, `apply_batch` chunks,
//! and definable bulk frames.
//!
//! The string programs are *not* memoryless under overwrite semantics
//! (the aux interval table reflects edit history through gaps), so
//! bulk frames route through the machine's per-tuple fallback — which
//! is exactly what [`DiffMode::Bulk`] holds against the expanded
//! stream here.

use dynfo_automata::dfa;
use dynfo_core::programs::{dyck, strings};
use dynfo_core::{DynFoMachine, DynFoProgram, MachineError, Request};
use dynfo_logic::EvalError;
use dynfo_logic::formula::{eq, le, lit, lt, v};
use dynfo_logic::strings::{close_rel, open_rel, sym_rel};
use dynfo_testutil::{
    assert_dfa_oracle, assert_dyck_oracle, dyck_edit_requests, rng, run_differential,
    string_edit_requests, DiffMode,
};

const MODES: &[DiffMode] = &[DiffMode::Plans, DiffMode::Batch(4), DiffMode::Bulk];

/// Oracle check after every edit, then the three-way executor
/// differential (stepwise, batch chunks, native bulk) over the same
/// stream.
fn dfa_suite(program: impl Fn() -> DynFoProgram, oracle: &dfa::Dfa, n: u32, reqs: &[Request]) {
    assert_dfa_oracle(&program, oracle, n, reqs);
    run_differential(&program, n, reqs, &[("in_state", &[0])], MODES);
}

#[test]
fn count_mod_point_stream() {
    let alphabet = ['a', 'b'];
    let oracle = dfa::count_mod(&alphabet, 'a', 3, 1);
    let reqs = string_edit_requests(&alphabet, 12, 60, 0.25, &mut rng(601));
    dfa_suite(
        || strings::count_mod_program(&alphabet, 'a', 3, 1),
        &oracle,
        12,
        &reqs,
    );
}

#[test]
fn contains_substring_point_stream() {
    let alphabet = ['a', 'b'];
    let oracle = dfa::contains_substring(&alphabet, "aba");
    let reqs = string_edit_requests(&alphabet, 12, 60, 0.25, &mut rng(603));
    dfa_suite(
        || strings::contains_substring_program(&alphabet, "aba"),
        &oracle,
        12,
        &reqs,
    );
}

#[test]
fn a_star_b_star_point_stream() {
    let alphabet = ['a', 'b'];
    let oracle = dfa::a_star_b_star();
    let reqs = string_edit_requests(&alphabet, 12, 60, 0.3, &mut rng(605));
    dfa_suite(strings::a_star_b_star_program, &oracle, 12, &reqs);
}

/// Every DFA program runs whole on the word kernels at n = 12 (the
/// other cells' size), 65 and 128:
/// each `INT_q_r` is a binary relation, so every update rule and the
/// query compile — no fallback, no interpreter row.
#[test]
fn dfa_programs_compile_at_every_size() {
    let alphabet = ['a', 'b'];
    type Case = (Box<dyn Fn() -> DynFoProgram>, dfa::Dfa);
    let cases: [Case; 3] = [
        (Box::new(strings::a_star_b_star_program), dfa::a_star_b_star()),
        (
            Box::new(move || strings::count_mod_program(&alphabet, 'a', 3, 1)),
            dfa::count_mod(&alphabet, 'a', 3, 1),
        ),
        (
            Box::new(move || strings::contains_substring_program(&alphabet, "aba")),
            dfa::contains_substring(&alphabet, "aba"),
        ),
    ];
    for n in [12u32, 65, 128] {
        for (program, oracle) in &cases {
            let reqs = string_edit_requests(&alphabet, n, 24, 0.3, &mut rng(615 + u64::from(n)));
            let m = assert_dfa_oracle(program.as_ref(), oracle, n, &reqs);
            let name = m.program().name().to_string();
            for (side, work) in [("updates", m.stats().update_work), ("queries", m.stats().query_work)] {
                assert_eq!(work.plan_fallback, 0, "{name} n={n}: {side} fell back");
                assert_eq!(work.rows_built, 0, "{name} n={n}: {side} built interpreter rows");
            }
            assert!(m.stats().update_work.plan_compiled > 0, "{name} n={n}: nothing compiled");
        }
    }
}

/// Definable bulk edits on the editor buffer: "set every position
/// below 4 to `a`", "clear every `b` in the whole buffer" — spliced
/// between point edits. The oracle driver expands each frame to its
/// live Δ; `DiffMode::Bulk` applies it natively (per-tuple fallback)
/// and must land on the same buffer.
#[test]
fn count_mod_bulk_stream() {
    let alphabet = ['a', 'b'];
    let oracle = dfa::count_mod(&alphabet, 'a', 2, 0);
    let n = 12u32;
    let mut reqs = string_edit_requests(&alphabet, n, 20, 0.2, &mut rng(607));
    reqs.push(Request::bulk_ins(&sym_rel('a'), lt(v("x0"), lit(4))));
    reqs.extend(string_edit_requests(&alphabet, n, 10, 0.2, &mut rng(608)));
    reqs.push(Request::bulk_del(&sym_rel('b'), le(v("x0"), lit(n - 1))));
    reqs.push(Request::bulk_ins(&sym_rel('b'), eq(v("x0"), lit(9))));
    dfa_suite(
        || strings::count_mod_program(&alphabet, 'a', 2, 0),
        &oracle,
        n,
        &reqs,
    );
}

/// Caveat for the bulk-overwrite suite: `bulk_ins(S_a, δ)` *sets*
/// every δ-position to `a`, including positions currently holding `b`
/// — the per-symbol shrink rules fire tuple-by-tuple through the
/// fallback exactly as the expanded point stream does.
#[test]
fn bulk_overwrite_clears_other_symbols() {
    let alphabet = ['a', 'b'];
    let oracle = dfa::count_mod(&alphabet, 'b', 2, 1);
    let n = 10u32;
    let reqs = vec![
        Request::ins(&sym_rel('b'), [2]),
        Request::ins(&sym_rel('b'), [5]),
        Request::ins(&sym_rel('a'), [7]),
        // Overwrites the b's at 2 and 5 and the a at 7 in one frame.
        Request::bulk_ins(&sym_rel('a'), lt(v("x0"), lit(8))),
        Request::ins(&sym_rel('b'), [3]),
    ];
    dfa_suite(
        || strings::count_mod_program(&alphabet, 'b', 2, 1),
        &oracle,
        n,
        &reqs,
    );
}

#[test]
fn dyck_point_stream_k1() {
    let n = 16u32;
    let reqs = dyck_edit_requests(1, n, 50, &mut rng(611));
    assert_dyck_oracle(&|| dyck::dyck_program(1), 1, n, &reqs);
    run_differential(&|| dyck::dyck_program(1), n, &reqs, &[], MODES);
}

#[test]
fn dyck_point_stream_k2() {
    let n = 16u32;
    let reqs = dyck_edit_requests(2, n, 50, &mut rng(613));
    assert_dyck_oracle(&|| dyck::dyck_program(2), 2, n, &reqs);
    run_differential(&|| dyck::dyck_program(2), n, &reqs, &[], MODES);
}

/// Bulk frames against the bracket buffer, capacity-disciplined by
/// hand (≤ ⌊n/2⌋ − 1 occupied at every point).
#[test]
fn dyck_bulk_stream() {
    let n = 16u32;
    let reqs = vec![
        Request::bulk_ins(&open_rel(0), lt(v("x0"), lit(2))), // ((
        Request::ins(&close_rel(0), [5]),
        Request::ins(&close_rel(0), [9]),
        // Overwrite position 1's opener with a type-1 opener.
        Request::bulk_ins(&open_rel(1), eq(v("x0"), lit(1))),
        Request::ins(&close_rel(1), [3]),
        Request::bulk_del(&open_rel(1), le(v("x0"), lit(n - 1))),
    ];
    assert_dyck_oracle(&|| dyck::dyck_program(2), 2, n, &reqs);
    run_differential(&|| dyck::dyck_program(2), n, &reqs, &[], MODES);
}

/// The interpreter refuses a table it cannot allocate with a typed
/// error instead of aborting the process. Dyck(2)'s boolean query at
/// n = 256 does not compile, and after the second edit of this stream
/// the interpreter's universe expansion asks for ≈ 38 GB. Premise: the
/// host refuses an allocation that large (Linux's default heuristic
/// overcommit does on a host with less memory plus swap than that).
/// The machine answers what it can, refuses what it cannot, and keeps
/// applying edits.
#[test]
fn oversized_interpreter_tables_are_errors_not_aborts() {
    let n = 256u32;
    let reqs = dyck_edit_requests(2, n, 12, &mut rng(7));
    let mut m = DynFoMachine::new(dyck::dyck_program(2), n);
    let mut refused = 0;
    for req in &reqs[..2] {
        m.apply(req).unwrap_or_else(|e| panic!("{req}: {e}"));
        match m.query() {
            Ok(_) => {}
            Err(MachineError::Eval(EvalError::TableTooLarge { .. })) => refused += 1,
            Err(e) => panic!("after {req}: {e}"),
        }
    }
    assert!(refused > 0, "test premise: some query needs a table the host refuses");
    m.apply(&reqs[2]).unwrap_or_else(|e| panic!("{}: {e}", reqs[2]));
}
