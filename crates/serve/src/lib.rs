//! Durable serving layer for Dyn-FO machines.
//!
//! Patnaik–Immerman machines are built to absorb single-tuple updates
//! in constant parallel time, but a process that dies loses its
//! auxiliary relations — and the whole point of Dyn-FO is that
//! recomputing them from scratch is the expensive path. This crate
//! makes the machines durable and serveable:
//!
//! * [`journal`] — an append-only write-ahead log of [`Request`]s with
//!   CRC-checked frames, group commit, and truncation-tolerant reads.
//! * [`snapshot`] — full machine-state serialization with atomic
//!   rename-into-place writes, so recovery replays a bounded journal
//!   tail instead of the whole history.
//! * [`session`] — a [`SessionStore`] of named machines served
//!   concurrently from many threads, with a per-session total order on
//!   updates, queries that wait only for the in-memory apply (never a
//!   journal fsync), snapshot-every-k checkpointing, and crash recovery
//!   on reopen.
//! * [`fault`] — fault injection (torn frames, missing or corrupt
//!   snapshots) used by the crash-recovery test matrix.
//!
//! The layer is instrumented end to end (`dynfo-obs`, behind the
//! default-on `obs` feature): journal append and group-commit fsync
//! latency histograms, frames per commit, snapshot write latency,
//! per-session request counters, and the recovery ladder published as
//! the `serve.recovery.rung` gauge — 0 fresh, 1 newest snapshot,
//! 2 older snapshot after a fallback, 3 full journal replay — so a
//! monitoring system can see a degraded recovery the moment it
//! happens. Tests route metrics to private registries via
//! [`SessionStore::open_with_obs`].
//!
//! The recovery invariant, proved by `tests/crash_recovery.rs`: for
//! every prefix of a request stream that was durably committed, reopen
//! after a crash reproduces *exactly* the machine state an
//! uninterrupted run would have after that prefix, from any surviving
//! combination of snapshot and journal tail.
//!
//! [`Request`]: dynfo_core::Request
//! [`SessionStore`]: session::SessionStore

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod fault;
pub mod journal;
pub mod obs;
pub mod session;
pub mod snapshot;

pub use codec::DecodeError;
pub use error::ServeError;
pub use journal::{read_log_after, read_segment, JournalEntry, JournalWriter, SegmentRead};
pub use obs::JournalObs;
pub use session::{drain_queues, RecoveryReport, Session, SessionStore, StoreConfig};
pub use snapshot::{persist_snapshot, read_snapshot};

/// A fresh scratch directory for tests and examples, unique per process
/// and call, under the system temp dir. The caller removes it.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dynfo-serve-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
