//! Admission control: decide, *before* a write takes the session's
//! commit lock or touches the journal, whether the server is healthy
//! enough to take it — and shed with a typed `Overloaded` response when
//! it is not.
//!
//! Two signals gate a write, both already maintained by the layers
//! below (this module adds no bookkeeping to the hot path):
//!
//! * the server's own in-flight write count (a hard cap, tracked here
//!   with a plain atomic so it works even with `obs` compiled out);
//! * the p99 of `serve.journal.fsync_ns` — when the disk falls behind,
//!   every write holds the commit lock for the fsync, and shedding is
//!   kinder than queueing. The histogram itself is cumulative, so the
//!   controller judges it through a *rolling window*: it snapshots the
//!   bucket counts every [`AdmissionConfig::fsync_window`] and computes
//!   the p99 of only the samples recorded since the previous snapshot.
//!   Without the window the signal would latch: shed writes produce no
//!   fsyncs, no fsyncs means no fresh samples, and a transient disk
//!   stall would freeze the p99 above the limit forever. With it, a
//!   window that saw fewer than [`FSYNC_WARMUP_SAMPLES`] fsyncs is not
//!   judged at all — which also means a sustained stall admits a
//!   bounded trickle of probe writes each window, exactly the traffic
//!   needed to notice the disk recovering.
//!
//! Reads are never shed: the whole point of the replica tier is that
//! query capacity scales out, and a query costs no fsync.

use dynfo_obs::{Gauge, Histogram, ObsHandle, HISTOGRAM_BUCKETS};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimum fsync samples in the current window before the p99 signal is
/// trusted — never judge the disk on a handful of cold writes, and
/// while a stall sheds traffic this is also the per-window probe
/// budget that lets the signal recover.
pub const FSYNC_WARMUP_SAMPLES: u64 = 16;

/// Thresholds for [`Admission`]. `i64::MAX` / `u64::MAX` disable a
/// signal.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Hard cap on writes admitted and not yet completed.
    pub max_inflight_writes: i64,
    /// Ignored: no signal reads it. Retained only because the frozen
    /// `benchmark/` crate sets it.
    pub max_pool_queue_depth: i64,
    /// Shed writes while the journal fsync p99 exceeds this (ns).
    pub max_fsync_p99_ns: u64,
    /// Width of the rolling window the fsync p99 is computed over.
    /// Shorter reacts (and recovers) faster; longer smooths more.
    pub fsync_window: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_inflight_writes: 256,
            max_pool_queue_depth: 4096,
            max_fsync_p99_ns: 50_000_000, // 50 ms: the disk is drowning
            fsync_window: Duration::from_secs(2),
        }
    }
}

/// The admission controller one server owns.
pub struct Admission {
    config: AdmissionConfig,
    /// Writes admitted and not yet finished. A plain atomic, not a
    /// gauge: the cap must hold even in `--no-default-features` builds
    /// where gauge recording compiles away.
    inflight: AtomicI64,
    /// Exporter mirror of `inflight` (`net.server.inflight_writes`).
    inflight_gauge: Arc<Gauge>,
    /// Journal fsync latency (`serve.journal.fsync_ns`), resolved from
    /// the same registry the store's journal writers record to.
    fsync_ns: Arc<Histogram>,
    /// Rolling-window state for the fsync signal: the bucket snapshot
    /// taken at the last window boundary, and when it was taken.
    fsync_window: Mutex<FsyncWindow>,
}

/// The fsync signal's window anchor (see the module docs): everything
/// recorded after `baseline` is "the current window".
struct FsyncWindow {
    baseline: [u64; HISTOGRAM_BUCKETS],
    renewed: Instant,
}

/// Why a write was shed (the `Overloaded` detail string).
pub(crate) enum Overload {
    Inflight(i64),
    FsyncP99(u64),
}

impl Overload {
    pub fn detail(&self, config: &AdmissionConfig) -> String {
        match self {
            Overload::Inflight(v) => format!(
                "{v} writes in flight (limit {})",
                config.max_inflight_writes
            ),
            Overload::FsyncP99(v) => format!(
                "journal fsync p99 {v}ns (limit {}ns)",
                config.max_fsync_p99_ns
            ),
        }
    }
}

impl Admission {
    /// Build a controller reading the fsync histogram from `handle`'s
    /// registry — the same handle the store was opened with, so the
    /// signal is the server's own, not another tenant's.
    pub fn new(config: AdmissionConfig, handle: &ObsHandle) -> Admission {
        let fsync_ns = handle.histogram("serve.journal.fsync_ns");
        let baseline = fsync_ns.bucket_counts();
        Admission {
            config,
            inflight: AtomicI64::new(0),
            inflight_gauge: handle.gauge("net.server.inflight_writes"),
            fsync_ns,
            fsync_window: Mutex::new(FsyncWindow {
                baseline,
                renewed: Instant::now(),
            }),
        }
    }

    /// The active thresholds.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Writes currently in flight.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Admit one write or say why not. On success the returned permit
    /// holds `weight` in-flight slots until dropped.
    ///
    /// `weight` is the write's cost against the in-flight cap: 1 for a
    /// plain tuple write, the live Δ-popcount for a bulk write (its
    /// journal frame is one fsync but its evaluation cost scales with
    /// the defined set). Admission only requires the *current* total to
    /// be under the cap — an oversized bulk is admitted when capacity
    /// exists and then holds the ledger, shedding later writes until it
    /// completes, rather than being unsendable forever.
    pub(crate) fn try_admit(&self, weight: u64) -> Result<WritePermit<'_>, Overload> {
        let weight = (weight.max(1)).min(i64::MAX as u64) as i64;
        if let Some(p99) = self.windowed_fsync_p99_over_limit() {
            return Err(Overload::FsyncP99(p99));
        }
        let prev = self.inflight.fetch_add(weight, Ordering::AcqRel);
        if prev >= self.config.max_inflight_writes {
            self.inflight.fetch_sub(weight, Ordering::AcqRel);
            return Err(Overload::Inflight(prev));
        }
        self.inflight_gauge.set(prev + weight);
        Ok(WritePermit {
            admission: self,
            weight,
        })
    }

    /// The fsync signal, evaluated over the rolling window: `Some(p99)`
    /// when the window holds enough samples *and* its p99 is over the
    /// limit. Rotating the window here (rather than on a timer thread)
    /// is what gives the signal a recovery path: once a window elapses
    /// with every write shed, the next window is empty, the warmup
    /// floor withholds judgement, and probe writes flow again.
    ///
    /// The quantile rank is capped at the second-worst sample: in a
    /// window smaller than ~100 samples a plain p99 *is* the maximum,
    /// and one freak fsync (a compaction hiccup, a noisy neighbor)
    /// would shed every write for a whole window. A genuine stall puts
    /// many samples over the limit and trips regardless.
    fn windowed_fsync_p99_over_limit(&self) -> Option<u64> {
        let mut win = self.fsync_window.lock().unwrap();
        let now = self.fsync_ns.bucket_counts();
        let mut delta = [0u64; HISTOGRAM_BUCKETS];
        for (d, (cur, base)) in delta.iter_mut().zip(now.iter().zip(win.baseline.iter())) {
            *d = cur.saturating_sub(*base);
        }
        if win.renewed.elapsed() >= self.config.fsync_window {
            win.baseline = now;
            win.renewed = Instant::now();
        }
        drop(win);
        let samples: u64 = delta.iter().sum();
        if samples < FSYNC_WARMUP_SAMPLES {
            return None;
        }
        let rank = ((0.99 * samples as f64).ceil() as u64)
            .max(1)
            .min(samples - 1);
        let mut seen = 0u64;
        for (i, &c) in delta.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let p99 = dynfo_obs::bucket_upper_bound(i);
                return (p99 > self.config.max_fsync_p99_ns).then_some(p99);
            }
        }
        None
    }
}

/// An admitted write's in-flight slots; dropping it frees them.
pub(crate) struct WritePermit<'a> {
    admission: &'a Admission,
    weight: i64,
}

impl Drop for WritePermit<'_> {
    fn drop(&mut self) {
        let now = self
            .admission
            .inflight
            .fetch_sub(self.weight, Ordering::AcqRel)
            - self.weight;
        self.admission.inflight_gauge.set(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_cap_is_a_hard_wall() {
        let handle = ObsHandle::with_registry(Arc::new(dynfo_obs::Registry::new()));
        let adm = Admission::new(
            AdmissionConfig {
                max_inflight_writes: 2,
                ..AdmissionConfig::default()
            },
            &handle,
        );
        let a = adm.try_admit(1).ok().unwrap();
        let _b = adm.try_admit(1).ok().unwrap();
        assert!(adm.try_admit(1).is_err(), "third write over the cap");
        assert_eq!(adm.inflight(), 2);
        drop(a);
        assert!(adm.try_admit(1).is_ok(), "slot freed on drop");
    }

    #[test]
    fn bulk_weight_counts_against_the_cap() {
        let handle = ObsHandle::with_registry(Arc::new(dynfo_obs::Registry::new()));
        let adm = Admission::new(
            AdmissionConfig {
                max_inflight_writes: 8,
                ..AdmissionConfig::default()
            },
            &handle,
        );
        // A bulk heavier than the whole cap is admitted while idle …
        let big = adm.try_admit(1_000).ok().unwrap();
        assert_eq!(adm.inflight(), 1_000);
        // … but holds the ledger: nothing else gets in until it ends.
        assert!(adm.try_admit(1).is_err());
        drop(big);
        assert_eq!(adm.inflight(), 0);
        // Moderate weights stack under the cap like plain writes.
        let _a = adm.try_admit(5).ok().unwrap();
        let _b = adm.try_admit(5).ok().unwrap(); // 5 < 8: still admitted
        assert!(adm.try_admit(1).is_err(), "10 in flight is over the cap");
    }

    #[test]
    fn slow_fsyncs_shed_after_warmup() {
        let reg = Arc::new(dynfo_obs::Registry::new());
        let handle = ObsHandle::with_registry(Arc::clone(&reg));
        let adm = Admission::new(
            AdmissionConfig {
                max_fsync_p99_ns: 1_000,
                ..AdmissionConfig::default()
            },
            &handle,
        );
        let h = reg.histogram("serve.journal.fsync_ns");
        for _ in 0..FSYNC_WARMUP_SAMPLES - 1 {
            h.observe(1 << 20); // over the limit, but below warmup count
        }
        assert!(adm.try_admit(1).is_ok(), "not judged before warmup");
        h.observe(1 << 20);
        assert!(adm.try_admit(1).is_err(), "p99 over limit sheds");
    }

    #[test]
    fn fsync_shed_signal_recovers_after_a_quiet_window() {
        let reg = Arc::new(dynfo_obs::Registry::new());
        let handle = ObsHandle::with_registry(Arc::clone(&reg));
        let adm = Admission::new(
            AdmissionConfig {
                max_fsync_p99_ns: 1_000,
                fsync_window: Duration::from_millis(20),
                ..AdmissionConfig::default()
            },
            &handle,
        );
        let h = reg.histogram("serve.journal.fsync_ns");
        for _ in 0..FSYNC_WARMUP_SAMPLES {
            h.observe(1 << 20); // a disk stall, then silence
        }
        assert!(adm.try_admit(1).is_err(), "stalled disk sheds");
        // The stall ends. Shed writes record no fsyncs, so no fresh
        // samples arrive — the signal must still clear on its own.
        std::thread::sleep(Duration::from_millis(25));
        let _ = adm.try_admit(1); // first call past the boundary rotates
        assert!(
            adm.try_admit(1).is_ok(),
            "an empty window must un-latch the shed signal"
        );
    }
}
