//! One session under every kind of concurrent caller at once.
//!
//! Writers (`apply`, `apply_batch`), a checkpoint/`seal_segment`
//! thread and readers (`query_named`, `state`, `snapshot_bytes`,
//! `write_weight`) share one REACH(acyclic) session, exercising both of
//! the session's locks (commit → machine) from every entry point. A
//! watchdog turns a deadlock into a failure. Readers only ask about a
//! static backbone chain, so their answers do not depend on how far
//! the writers have got. At the end the session is synced and crashed;
//! the reopened session must encode to the same snapshot bytes as the
//! live one, and its state must equal a Definition 3.1 replay of the
//! journal.

use dynfo_core::programs::reach_acyclic;
use dynfo_core::Request;
use dynfo_logic::formula::{lt, v};
use dynfo_serve::{read_log_after, scratch_dir, Session, SessionStore, StoreConfig};
use dynfo_testutil::reference_step;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const N: u32 = 24;
/// Vertices `0..BACKBONE` carry the chain `i → i+1`, inserted before
/// the run and never touched by a writer.
const BACKBONE: u32 = 8;
/// Requests each writer issues.
const WRITES: usize = 120;
/// How long the whole run may take before it counts as a deadlock.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Writer `part`'s stream: inserts and deletes of edges `a < b` (the
/// graph stays acyclic) with `(a + b) % 2 == part`, so the two writers
/// never touch the same edge, and never a backbone edge.
fn writer_stream(part: u32, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(WRITES);
    while out.len() < WRITES {
        if !live.is_empty() && rng.gen_bool(0.3) {
            let (a, b) = live.swap_remove(rng.gen_range(0..live.len()));
            out.push(Request::del("E", [a, b]));
            continue;
        }
        let a = rng.gen_range(0..N);
        let b = rng.gen_range(0..N);
        let backbone = b == a + 1 && b < BACKBONE;
        if a < b && (a + b) % 2 == part && !backbone && !live.contains(&(a, b)) {
            live.push((a, b));
            out.push(Request::ins("E", [a, b]));
        }
    }
    out
}

/// Run everything against `session` until both writers finish; panics
/// (on its own thread) on a wrong answer or a failed call.
fn drive(session: Arc<Session>) {
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u32)
            .map(|part| {
                let s = &session;
                scope.spawn(move || {
                    let reqs = writer_stream(part, 0xC0DE + part as u64);
                    if part == 0 {
                        for r in &reqs {
                            s.apply(r).unwrap();
                        }
                    } else {
                        for chunk in reqs.chunks(3) {
                            s.apply_batch(chunk).unwrap();
                        }
                    }
                })
            })
            .collect();
        {
            let (s, writing) = (&session, &writing);
            scope.spawn(move || {
                let mut k = 0u64;
                while writing.load(Ordering::Relaxed) {
                    if k.is_multiple_of(2) {
                        s.checkpoint().unwrap();
                    } else {
                        s.seal_segment().unwrap();
                    }
                    k += 1;
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }
        for r in 0..2u64 {
            let (s, writing) = (&session, &writing);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + r);
                let bulk = Request::bulk_ins("E", lt(v("x0"), v("x1")));
                let mut k = 0u64;
                while writing.load(Ordering::Relaxed) {
                    let a = rng.gen_range(0..BACKBONE);
                    let b = (a + 1 + rng.gen_range(0..BACKBONE - 1)) % BACKBONE;
                    assert_eq!(
                        s.query_named("reaches", &[a, b]).unwrap(),
                        a < b,
                        "backbone answer {a} ⇝ {b}"
                    );
                    match k % 4 {
                        0 => {
                            let state = s.state();
                            assert_eq!(state.size(), N);
                        }
                        1 => assert!(!s.snapshot_bytes().is_empty()),
                        2 => assert!(s.write_weight(std::slice::from_ref(&bulk)) >= 1),
                        _ => assert_eq!(s.write_weight(&[Request::ins("E", [0, 2])]), 1),
                    }
                    k += 1;
                }
            });
        }
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        writing.store(false, Ordering::Relaxed);
        for result in joined {
            result.unwrap();
        }
    });
}

fn run(tag: &str, group_commit: usize) {
    let root = scratch_dir(tag);
    let config = StoreConfig {
        recompute_every: 0,
        snapshot_every: 16,
        group_commit,
    };
    let program = reach_acyclic::program();
    let store = SessionStore::open(&root, config).unwrap();
    let session = store.session("mixed", &program, N).unwrap();
    let backbone: Vec<Request> = (1..BACKBONE)
        .map(|b| Request::ins("E", [b - 1, b]))
        .collect();
    session.apply_batch(&backbone).unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let worker = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            drive(session);
            done_tx.send(()).unwrap();
        })
    };
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().unwrap(),
        // A panicking thread drops the sender: surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("deadlock: the run did not finish within {WATCHDOG:?}")
        }
    }

    let total = BACKBONE as u64 - 1 + 2 * WRITES as u64;
    assert_eq!(session.seq(), total);
    session.sync().unwrap();
    assert_eq!(session.durable_seq(), total);
    let live = session.snapshot_bytes();
    drop(session);
    store.crash();

    let store = SessionStore::open(&root, config).unwrap();
    let session = store.session("mixed", &program, N).unwrap();
    assert_eq!(session.seq(), total);
    assert_eq!(
        session.snapshot_bytes(),
        live,
        "recovered ≠ live snapshot bytes"
    );
    let journal = read_log_after(session.dir(), 0, usize::MAX).unwrap();
    assert_eq!(
        journal.len() as u64,
        total,
        "journal holds every applied frame"
    );
    let mut reference = program.initial_structure(N);
    for (k, entry) in journal.iter().enumerate() {
        assert_eq!(entry.seq, k as u64 + 1, "journal order");
        reference = reference_step(&program, &reference, &entry.request);
    }
    assert_eq!(
        session.state(),
        reference,
        "recovered state ≠ journal replay"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn concurrent_callers_fsync_per_write() {
    run("concurrent-gc1", 1);
}

#[test]
fn concurrent_callers_group_commit_four() {
    run("concurrent-gc4", 4);
}
