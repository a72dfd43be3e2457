//! Property test: snapshot/restore round-trips for **every** program in
//! the library.
//!
//! For a random request stream and a random snapshot point: running the
//! head, snapshotting, restoring, and replaying the tail must land on
//! exactly the state of an uninterrupted run, with identical query
//! answers at the end.
//! Streams are generated generically from each program's input
//! vocabulary, so this needs no per-program knowledge (promise
//! violations are fine: update rules are deterministic formulas either
//! way, and determinism is all that replay relies on).

use dynfo_core::programs::{
    bipartite, kconn, lca, matching, msf, parity, reach_acyclic, reach_u, semi, trans_reduction,
    vertex_cover,
};
use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_serve::snapshot::{decode_snapshot, encode_snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random request stream valid for `program`'s input vocabulary:
/// inserts/deletes on every input relation, sets on every input
/// constant, all arguments inside the universe.
fn random_stream(program: &DynFoProgram, n: u32, len: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = program.input_vocab();
    let rels: Vec<(String, usize)> = vocab
        .relations()
        .map(|(_, sym)| (sym.name.as_str().to_string(), sym.arity))
        .collect();
    let consts: Vec<String> = vocab
        .constants()
        .map(|(_, name)| name.as_str().to_string())
        .collect();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let pick_const = !consts.is_empty() && rng.gen_bool(0.15);
        if pick_const {
            let c = &consts[rng.gen_range(0..consts.len())];
            out.push(Request::set(c, rng.gen_range(0..n)));
        } else {
            let (name, arity) = &rels[rng.gen_range(0..rels.len())];
            let args: Vec<u32> = (0..*arity).map(|_| rng.gen_range(0..n)).collect();
            out.push(if rng.gen_bool(0.7) {
                Request::ins(name, args)
            } else {
                Request::del(name, args)
            });
        }
    }
    out
}

/// The invariant: head + snapshot + restore + tail == uninterrupted run.
fn roundtrip(program: &DynFoProgram, n: u32, len: usize, seed: u64) {
    let stream = random_stream(program, n, len, seed);
    let cut = StdRng::seed_from_u64(seed ^ 0xC0FFEE).gen_range(0..stream.len() + 1);

    let mut full = DynFoMachine::new(program.clone(), n);
    for r in &stream {
        full.apply(r).unwrap();
    }

    let mut head = DynFoMachine::new(program.clone(), n);
    for r in &stream[..cut] {
        head.apply(r).unwrap();
    }
    let bytes = encode_snapshot(&head, cut as u64);
    let (mut restored, snap_seq) = decode_snapshot(&bytes, program, n).unwrap();
    prop_assert_eq!(snap_seq as usize, cut);
    prop_assert_eq!(restored.state(), head.state(), "restore diverged at the cut");

    for r in &stream[cut..] {
        restored.apply(r).unwrap();
    }
    prop_assert_eq!(
        restored.state(),
        full.state(),
        "{}: tail replay after restore diverged from the uninterrupted run (cut {}/{})",
        program.name(),
        cut,
        stream.len()
    );
    prop_assert_eq!(restored.query().unwrap(), full.query().unwrap());
}

macro_rules! roundtrip_tests {
    ($($test:ident => ($program:expr, $n:expr, $len:expr, $cases:expr);)*) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            #[test]
            fn $test(seed in 0u64..u64::MAX) {
                roundtrip(&$program, $n, $len, seed);
            }
        }
    )*};
}

// All 12 programs. Universe sizes and case counts are trimmed per
// program cost (msf/kconn/matching updates are the expensive ones).
roundtrip_tests! {
    parity_roundtrip => (parity::program(), 16, 24, 16);
    reach_u_roundtrip => (reach_u::program(), 8, 20, 10);
    reach_acyclic_roundtrip => (reach_acyclic::program(), 8, 20, 10);
    trans_reduction_roundtrip => (trans_reduction::program(), 8, 20, 10);
    msf_roundtrip => (msf::program(), 6, 12, 4);
    bipartite_roundtrip => (bipartite::program(), 7, 16, 6);
    kconn_roundtrip => (kconn::program(), 6, 12, 4);
    matching_roundtrip => (matching::program(), 7, 14, 6);
    lca_roundtrip => (lca::program(), 8, 16, 8);
    vertex_cover_roundtrip => (vertex_cover::program(), 7, 14, 6);
    semi_reach_u_roundtrip => (semi::reach_u_program(), 8, 20, 10);
    semi_reach_roundtrip => (semi::reach_program(), 8, 20, 10);
}
