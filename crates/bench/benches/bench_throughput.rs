//! E19 — batched update throughput: req/s over batch size × worker
//! count, against the sequential baseline.
//!
//! Two workloads:
//!
//! * **REACH** — undirected churn on REACH_u (`E²`, n = 16), the
//!   general-rule-heavy case: every request re-evaluates path/forest
//!   formulas, so the win comes from delta installs (grow/shrink
//!   restricted scans, no full-relation diff) and the parallel rule
//!   scheduler.
//! * **MSF** — weighted churn on MSF (`W³`, n = 8), the widest rule
//!   set in the library, where the parallel scheduler has the most
//!   independent targets per request.
//!
//! The grid is batch {1, 16, 64, 256} × threads {1, 2, 4, 8}. The
//! baseline `seq_t{k}` is sequential `apply_all` at the same thread
//! count as the batched runs.
//!
//! A journal-amortization report prints before the timings: fsyncs per
//! request for a `dynfo-serve` session at each batch size (group
//! commit covers the whole batch, so fsyncs/request = 1/batch until
//! checkpoint rotation adds its own).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynfo_bench::{undirected_workload, weighted_workload};
use dynfo_core::programs::{msf, reach_u};
use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};

const REACH_N: u32 = 16;
const MSF_N: u32 = 8;
const BATCHES: [usize; 4] = [1, 16, 64, 256];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `DYNFO_BENCH_SMOKE=1` shrinks the sweep to a CI-sized smoke run:
/// the grid corners on short streams, enough to catch a pipeline
/// regression without the full measurement budget.
fn smoke() -> bool {
    std::env::var_os("DYNFO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn run_batched(program: &DynFoProgram, n: u32, stream: &[Request], batch: usize, threads: usize) {
    let mut m = DynFoMachine::new(program.clone(), n).with_parallelism(threads);
    for chunk in stream.chunks(batch) {
        m.apply_batch(chunk).expect("batch");
    }
}

fn run_sequential(program: &DynFoProgram, n: u32, stream: &[Request], threads: usize) {
    let mut m = DynFoMachine::new(program.clone(), n).with_parallelism(threads);
    m.apply_all(stream).expect("apply_all");
}

/// Journal amortization: fsyncs per request at each batch size, through
/// a real session (snapshot rotation included). Printed, not timed —
/// the counter, not the clock, is the claim.
fn report_fsyncs(stream: &[Request]) {
    eprintln!("E19 journal group-commit: fsyncs per request (REACH stream, {} requests)", stream.len());
    for &batch in &BATCHES {
        let root = scratch_dir(&format!("bench-throughput-fsync-{batch}"));
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 256,
            group_commit: 1024, // never auto-commits inside a batch
        };
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("sess", &reach_u::program(), REACH_N).unwrap();
        for chunk in stream.chunks(batch) {
            s.apply_batch(chunk).unwrap();
        }
        let fsyncs = s.fsyncs();
        eprintln!(
            "  batch {batch:>4}: {fsyncs:>4} fsyncs  ({:.4} per request)",
            fsyncs as f64 / stream.len() as f64
        );
        drop(s);
        store.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }
}

fn bench(c: &mut Criterion) {
    let smoke = smoke();
    let (reach_len, msf_len) = if smoke { (64, 24) } else { (256, 96) };
    let batches: &[usize] = if smoke { &[1, 64] } else { &BATCHES };
    let threads: &[usize] = if smoke { &[1, 4] } else { &THREADS };
    let reach_stream = undirected_workload(REACH_N, reach_len, 11);
    let msf_stream = weighted_workload(MSF_N, msf_len, 12);

    report_fsyncs(&reach_stream);

    for (tag, program, n, stream) in [
        ("E19_throughput_reach", reach_u::program(), REACH_N, &reach_stream),
        ("E19_throughput_msf", msf::program(), MSF_N, &msf_stream),
    ] {
        let mut group = c.benchmark_group(tag);
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(if smoke { 50 } else { 300 }));
        group.measurement_time(std::time::Duration::from_millis(if smoke { 200 } else { 2000 }));

        for &threads in threads {
            // Sequential apply_all, same threads.
            group.bench_with_input(
                BenchmarkId::new("seq", format!("t{threads}")),
                &threads,
                |b, &t| b.iter(|| run_sequential(&program, n, stream, t)),
            );
            for &batch in batches {
                group.bench_with_input(
                    BenchmarkId::new(format!("batch{batch}"), format!("t{threads}")),
                    &threads,
                    |b, &t| b.iter(|| run_batched(&program, n, stream, batch, t)),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
