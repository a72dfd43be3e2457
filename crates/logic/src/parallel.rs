//! The "parallel" of the paper's title: FO = CRAM[1].
//!
//! A first-order update is a constant-*depth*, polynomial-*work* parallel
//! step (\[I89b\]): quantifier depth is parallel time, tuple assignments are
//! processors. This module holds both halves of that statement:
//!
//! * [`cram_depth`] reports the parallel time of a formula — the number
//!   it is crucial is **independent of n** for every Dyn-FO program;
//! * [`EvalPool`] is the one fork-join mechanism that spreads work over
//!   OS threads: the machine's rule scheduler runs a request's general
//!   rules on it, and compiled queries split their combine passes across
//!   it ([`EvalPool::for_each_chunk`]).
//!
//! Workers are persistent. A Dyn-FO run evaluates a few small formulas
//! per request, thousands of times; spawning OS threads per call would
//! dominate the per-update cost at realistic n. Pools are keyed by size
//! and live for the process (workers block on a shared channel between
//! calls), so repeated updates pay only a channel send.

use crate::analysis::{canonicalize, quantifier_depth};
use crate::formula::Formula;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The CRAM parallel time of evaluating `f`: its quantifier depth after
/// canonicalization (desugaring can change nesting, so measure what is
/// actually evaluated).
pub fn cram_depth(f: &Formula) -> usize {
    quantifier_depth(&canonicalize(f))
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of evaluation workers.
///
/// Workers are OS threads blocked on a shared job channel; they live
/// until the pool is dropped. [`EvalPool::global`] memoizes one pool per
/// size for the whole process — a Dyn-FO machine issuing thousands of
/// updates reuses the same threads throughout instead of spawning per
/// call.
pub struct EvalPool {
    size: usize,
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl EvalPool {
    /// Spawn a pool of `size` workers (at least one).
    pub fn new(size: usize) -> EvalPool {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("dynfo-eval-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while receiving: a blocked
                        // recv must not starve siblings of the queue.
                        let job = receiver.lock().unwrap().recv();
                        match job {
                            // A panicking job must not kill the worker;
                            // the latch guard in `run_scoped` reports it.
                            Ok(job) => {
                                let start = dynfo_obs::clock();
                                if dynfo_obs::ENABLED {
                                    crate::obs::eval_obs().pool_queue_depth.add(-1);
                                }
                                let _ = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(job),
                                );
                                if dynfo_obs::ENABLED {
                                    crate::obs::eval_obs()
                                        .pool_busy_ns
                                        .add(dynfo_obs::elapsed_ns(start));
                                }
                            }
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawn eval worker")
            })
            .collect();
        EvalPool {
            size,
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The process-wide pool with `size` workers, created on first use.
    pub fn global(size: usize) -> Arc<EvalPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<EvalPool>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = pools.lock().unwrap();
        Arc::clone(
            pools
                .entry(size.max(1))
                .or_insert_with(|| Arc::new(EvalPool::new(size))),
        )
    }

    /// Split `data` into one contiguous chunk per worker and run `f` on
    /// each chunk concurrently, passing the chunk's starting offset in
    /// `data`. Blocks until every chunk has been processed.
    pub fn for_each_chunk<F>(&self, data: &mut [u64], f: F)
    where
        F: Fn(usize, &mut [u64]) + Send + Sync,
    {
        if data.is_empty() {
            return;
        }
        let chunk = data.len().div_ceil(self.size.max(1));
        let f = &f;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (i, piece) in data.chunks_mut(chunk).enumerate() {
            jobs.push(Box::new(move || f(i * chunk, piece)));
        }
        self.run_scoped(jobs);
    }

    /// Run `jobs` on the pool and block until every one has finished,
    /// which is what lets them borrow from the caller's stack.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        if dynfo_obs::ENABLED {
            let obs = crate::obs::eval_obs();
            obs.pool_jobs.add(jobs.len() as u64);
            obs.pool_queue_depth.add(jobs.len() as i64);
        }
        let latch = Arc::new((Mutex::new(jobs.len()), Condvar::new()));
        for job in jobs {
            // SAFETY: this function blocks on the latch until every job
            // has run (or unwound — the guard below decrements on drop),
            // so the 'scope borrows inside `job` outlive its execution.
            let job: Job = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'scope>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(job)
            };
            let latch = Arc::clone(&latch);
            let wrapped: Job = Box::new(move || {
                struct Done(Arc<(Mutex<usize>, Condvar)>);
                impl Drop for Done {
                    fn drop(&mut self) {
                        let (left, cvar) = &*self.0;
                        let mut left = left.lock().unwrap();
                        *left -= 1;
                        if *left == 0 {
                            cvar.notify_all();
                        }
                    }
                }
                let _done = Done(latch);
                job();
            });
            self.sender
                .as_ref()
                .expect("pool not shut down")
                .send(wrapped)
                .expect("worker alive");
        }
        let (left, cvar) = &*latch;
        let mut left = left.lock().unwrap();
        while *left > 0 {
            left = cvar.wait(left).unwrap();
        }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        self.sender.take(); // close the channel: workers see Err and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_is_reused_across_calls() {
        let a = EvalPool::global(3);
        let b = EvalPool::global(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.size(), 3);
        // The same pool runs every job of every call, more jobs than
        // workers included, and returns only once they have all run.
        let ran = AtomicUsize::new(0);
        for call in 1..=3 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..7)
                .map(|_| {
                    let ran = &ran;
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            b.run_scoped(jobs);
            assert_eq!(ran.load(Ordering::Relaxed), 7 * call);
        }
    }

    #[test]
    fn for_each_chunk_covers_every_word_once() {
        let pool = EvalPool::global(3);
        let mut data = vec![0u64; 10];
        pool.for_each_chunk(&mut data, |off, piece| {
            for (i, w) in piece.iter_mut().enumerate() {
                *w += (off + i) as u64;
            }
        });
        assert_eq!(data, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn cram_depth_is_canonical_depth() {
        // ∀z (E(x,z) → z=y): canonically ¬∃z(...), depth 1.
        let f = forall(["z"], implies(rel("E", [v("x"), v("z")]), eq(v("z"), v("y"))));
        assert_eq!(cram_depth(&f), 1);
        let g = exists(["u"], forall(["w"], rel("E", [v("u"), v("w")])));
        assert_eq!(cram_depth(&g), 2);
    }
}
