//! Property tests for the batched delta-propagating update pipeline.
//!
//! Three invariants, each over randomized request streams generated
//! generically from a program's input vocabulary:
//!
//! 1. **Batch ≡ sequential.** `DynFoMachine::apply_batch` over any
//!    chunking of a stream (including chunks that coalesce into
//!    fast-op runs, set requests, and parallel general-rule windows)
//!    reproduces exactly the state, query answers, and request count of
//!    one-at-a-time `apply` — for **every** program in the library.
//! 2. **Delta ≡ Definition 3.1.** The default delta-install pipeline
//!    matches the paper-literal reference executor
//!    (`dynfo_testutil::reference_step`: every rule's stored formula
//!    re-evaluated in full, every target replaced wholesale) on
//!    **every** program, while never materializing a fresh `Relation`
//!    itself (`installs.rebuilds == 0`).
//! 3. **Batches are durable.** Streaming batches through a
//!    `dynfo_serve` session, crashing without shutdown, and recovering
//!    from journal + snapshots lands on the sequential reference state
//!    — including batches that were rejected mid-stream.
//!
//! Rejected frames: streams are salted with requests that fail
//! validation (unknown relation / out-of-universe argument). A batch
//! containing one must be refused atomically — the reference machine
//! simply skips that whole batch.

use dynfo_core::programs::{
    bipartite, kconn, lca, matching, msf, parity, reach_acyclic, reach_u, semi, trans_reduction,
    vertex_cover,
};
use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};
use dynfo_testutil::reference_step;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random request stream valid for `program`'s input vocabulary,
/// optionally salted with frames that must fail validation.
fn random_stream(
    program: &DynFoProgram,
    n: u32,
    len: usize,
    seed: u64,
    invalid_rate: f64,
) -> Vec<Request> {
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
        if invalid_rate > 0.0 && rng.gen_bool(invalid_rate) {
            // Invalid frame: unknown relation or out-of-universe arg.
            let (name, arity) = &rels[rng.gen_range(0..rels.len())];
            out.push(if rng.gen_bool(0.5) {
                Request::ins("no_such_relation", vec![0; *arity])
            } else {
                let mut args: Vec<u32> = (0..*arity).map(|_| rng.gen_range(0..n)).collect();
                let slot = rng.gen_range(0..args.len().max(1));
                args[slot] = n + 3;
                Request::ins(name, args)
            });
            continue;
        }
        let pick_const = !consts.is_empty() && rng.gen_bool(0.15);
        if pick_const {
            let c = &consts[rng.gen_range(0..consts.len())];
            out.push(Request::set(c, rng.gen_range(0..n)));
        } else {
            let (name, arity) = &rels[rng.gen_range(0..rels.len())];
            let args: Vec<u32> = (0..*arity).map(|_| rng.gen_range(0..n)).collect();
            // Bias toward inserts, with enough deletes and repeats to
            // exercise no-op installs and duplicate-skip coalescing.
            out.push(if rng.gen_bool(0.7) {
                Request::ins(name, args)
            } else {
                Request::del(name, args)
            });
        }
    }
    out
}

/// Split `stream` into batches of random size in `1..=max_batch`.
fn random_batches(stream: &[Request], max_batch: usize, seed: u64) -> Vec<&[Request]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let mut out = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        let k = rng.gen_range(1..max_batch + 1).min(stream.len() - i);
        out.push(&stream[i..i + k]);
        i += k;
    }
    out
}

/// Invariant 1: any batching of a stream, on any worker count, equals
/// the sequential run over the batches that validate.
fn batch_matches_sequential(program: &DynFoProgram, n: u32, len: usize, seed: u64) {
    let stream = random_stream(program, n, len, seed, 0.08);
    let batches = random_batches(&stream, 7, seed);
    let parallelism = 1 + (seed % 4) as usize;

    let mut batched = DynFoMachine::new(program.clone(), n).with_parallelism(parallelism);
    let mut reference = DynFoMachine::new(program.clone(), n);
    for batch in &batches {
        match batched.apply_batch(batch) {
            Ok(_) => {
                // The whole batch validated; the reference applies it
                // one request at a time.
                for r in *batch {
                    reference.apply(r).unwrap();
                }
            }
            Err(e) => {
                prop_assert_eq!(
                    e.applied,
                    0,
                    "{}: a rejected batch must apply nothing",
                    program.name()
                );
                prop_assert!(batch[e.index].validate(program.input_vocab(), n).is_err());
            }
        }
    }
    prop_assert_eq!(
        batched.state(),
        reference.state(),
        "{}: batched run diverged (batches {}, workers {})",
        program.name(),
        batches.len(),
        parallelism
    );
    prop_assert_eq!(batched.query().unwrap(), reference.query().unwrap());
    prop_assert_eq!(batched.stats().requests, reference.stats().requests);
}

/// Invariant 2: delta installs equal full re-evaluation with wholesale
/// replacement, without ever rebuilding a relation.
fn delta_matches_reference(program: &DynFoProgram, n: u32, len: usize, seed: u64) {
    let stream = random_stream(program, n, len, seed, 0.0);
    let mut delta = DynFoMachine::new(program.clone(), n);
    let mut reference = program.initial_structure(n);
    for (i, r) in stream.iter().enumerate() {
        delta.apply(r).unwrap();
        reference = reference_step(program, &reference, r);
        prop_assert_eq!(
            delta.state(),
            &reference,
            "{}: delta diverged from Definition 3.1 at request {}",
            program.name(),
            i
        );
    }
    prop_assert_eq!(
        delta.stats().installs.rebuilds,
        0,
        "{}: the machine must never materialize a Relation",
        program.name()
    );
}

/// Invariant 3: batches stream through a serve session, the process
/// crashes, and recovery reproduces the sequential reference.
fn batch_recovery_roundtrip(program: &DynFoProgram, n: u32, len: usize, seed: u64) {
    let stream = random_stream(program, n, len, seed, 0.08);
    let batches = random_batches(&stream, 6, seed);
    let root = scratch_dir(&format!("batch-prop-{}", seed & 0xFFFF));
    let config = StoreConfig {
        recompute_every: 0,
        snapshot_every: 8,
        group_commit: 64, // larger than any batch: durability must come
                          // from the batch-end group commit
    };
    let mut reference = DynFoMachine::new(program.clone(), n);
    {
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("prop", program, n).unwrap();
        for batch in &batches {
            match s.apply_batch(batch) {
                Ok(_) => {
                    for r in *batch {
                        reference.apply(r).unwrap();
                    }
                }
                Err(_) => {
                    // Rejected atomically; the reference skips it too.
                }
            }
        }
        store.crash(); // no shutdown — recovery sees only commits
    }
    let store = SessionStore::open(&root, config).unwrap();
    let s = store.session("prop", program, n).unwrap();
    prop_assert_eq!(
        s.state(),
        reference.state().clone(),
        "{}: recovered state diverged from sequential reference",
        program.name()
    );
    prop_assert_eq!(s.query().unwrap(), reference.query().unwrap());
    drop(s);
    store.shutdown().unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

macro_rules! batch_tests {
    ($($test:ident => ($program:expr, $n:expr, $len:expr, $cases:expr);)*) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            #[test]
            fn $test(seed in 0u64..u64::MAX) {
                batch_matches_sequential(&$program, $n, $len, seed);
            }
        }
    )*};
}

// All 12 programs; universe sizes and case counts trimmed per program
// cost, mirroring the snapshot round-trip suite.
batch_tests! {
    parity_batches => (parity::program(), 16, 30, 12);
    reach_u_batches => (reach_u::program(), 8, 24, 8);
    reach_acyclic_batches => (reach_acyclic::program(), 8, 24, 8);
    trans_reduction_batches => (trans_reduction::program(), 8, 24, 8);
    msf_batches => (msf::program(), 6, 14, 4);
    bipartite_batches => (bipartite::program(), 7, 18, 5);
    kconn_batches => (kconn::program(), 6, 14, 4);
    matching_batches => (matching::program(), 7, 16, 5);
    lca_batches => (lca::program(), 8, 18, 6);
    vertex_cover_batches => (vertex_cover::program(), 7, 16, 5);
    semi_reach_u_batches => (semi::reach_u_program(), 8, 24, 8);
    semi_reach_batches => (semi::reach_program(), 8, 24, 8);
}

macro_rules! delta_tests {
    ($($test:ident => ($program:expr, $n:expr, $len:expr, $cases:expr);)*) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            #[test]
            fn $test(seed in 0u64..u64::MAX) {
                delta_matches_reference(&$program, $n, $len, seed);
            }
        }
    )*};
}

// All 12 programs: delta installs vs the reference executor, sized as
// the batch matrix above.
delta_tests! {
    parity_delta => (parity::program(), 16, 30, 12);
    reach_u_delta => (reach_u::program(), 8, 24, 10);
    reach_acyclic_delta => (reach_acyclic::program(), 8, 24, 8);
    trans_reduction_delta => (trans_reduction::program(), 8, 24, 8);
    msf_delta => (msf::program(), 6, 14, 5);
    bipartite_delta => (bipartite::program(), 7, 18, 5);
    kconn_delta => (kconn::program(), 6, 14, 4);
    matching_delta => (matching::program(), 7, 16, 5);
    lca_delta => (lca::program(), 8, 18, 6);
    vertex_cover_delta => (vertex_cover::program(), 7, 16, 5);
    semi_reach_u_delta => (semi::reach_u_program(), 8, 24, 8);
    semi_reach_delta => (semi::reach_program(), 8, 24, 8);
}

macro_rules! recovery_tests {
    ($($test:ident => ($program:expr, $n:expr, $len:expr, $cases:expr);)*) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            #[test]
            fn $test(seed in 0u64..u64::MAX) {
                batch_recovery_roundtrip(&$program, $n, $len, seed);
            }
        }
    )*};
}

recovery_tests! {
    reach_u_batch_recovery => (reach_u::program(), 8, 24, 6);
    parity_batch_recovery => (parity::program(), 16, 30, 8);
    msf_batch_recovery => (msf::program(), 6, 12, 3);
}
