//! Concurrent metric registration from real OS threads: many jobs race
//! to register-or-get the same names on one shared registry while
//! recording, and the totals must come out exact. This is the
//! deployment shape — connection threads and `drain_queues` workers all
//! publishing into the process registry mid-evaluation — exercised
//! directly.

use dynfo_obs::{ObsHandle, Registry};
use std::sync::Arc;

/// Run `jobs` jobs, `job(i)` each, spread over `threads` scoped threads.
fn run_on_threads(threads: usize, jobs: usize, job: impl Fn(usize) + Sync) {
    let job = &job;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || (t..jobs).step_by(threads).for_each(job));
        }
    });
}

/// Every job registers the same counter/histogram names (cold registry,
/// so registration itself races) and records a known amount.
#[test]
fn threads_race_registration_to_exact_totals() {
    let registry = Arc::new(Registry::new());
    const JOBS: usize = 64;
    const PER_JOB: u64 = 100;

    run_on_threads(4, JOBS, |i| {
        // Register-or-get under contention; record through the returned
        // handle and through a fresh lookup.
        let c = registry.counter("race.test.ops");
        let h = registry.histogram("race.test.latency_ns");
        for step in 0..PER_JOB {
            if step % 2 == 0 {
                c.inc();
            } else {
                registry.counter("race.test.ops").inc();
            }
            h.observe((i as u64 % 8) + 1);
        }
    });

    assert_eq!(registry.len(), 2, "races must not duplicate registrations");
    if dynfo_obs::ENABLED {
        assert_eq!(registry.counter("race.test.ops").get(), JOBS as u64 * PER_JOB);
        let h = registry.histogram("race.test.latency_ns");
        assert_eq!(h.count(), JOBS as u64 * PER_JOB);
        // Values were 1..=8, so every observation sits in buckets 1..=4.
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1..5].iter().sum::<u64>(), JOBS as u64 * PER_JOB);
    }
}

/// The same race through `ObsHandle` clones — the form machine and
/// session code actually uses — including a detached handle running
/// alongside, whose recordings must never leak into the registry.
#[test]
fn handles_shared_across_threads_stay_consistent() {
    let registry = Arc::new(Registry::new());
    let routed = ObsHandle::with_registry(Arc::clone(&registry));
    let detached = ObsHandle::disabled();
    const JOBS: usize = 30;

    run_on_threads(3, JOBS, |i| {
        let handle = if i % 3 == 0 { &detached } else { &routed };
        handle.counter("race.handle.jobs").add(7);
        handle.gauge("race.handle.depth").add(1);
    });

    if dynfo_obs::ENABLED {
        // 20 of 30 jobs went through the routed handle.
        assert_eq!(registry.counter("race.handle.jobs").get(), 20 * 7);
        assert_eq!(registry.gauge("race.handle.depth").get(), 20);
    }
    assert_eq!(registry.len(), 2, "detached recordings must not register");
}
