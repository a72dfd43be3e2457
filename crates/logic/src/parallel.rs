//! The "parallel" of the paper's title: FO = CRAM[1].
//!
//! A first-order update is a constant-*depth*, polynomial-*work* parallel
//! step (\[I89b\]): quantifier depth is parallel time, tuple assignments are
//! processors. This module makes both halves of that statement
//! measurable:
//!
//! * [`cram_depth`] reports the parallel time of a formula — the number
//!   it is crucial is **independent of n** for every Dyn-FO program;
//! * [`evaluate_parallel`] actually distributes one update evaluation
//!   over OS threads by slicing one free variable of the formula across
//!   workers, demonstrating the work scaling.
//!
//! Slicing is semantically exact: `φ(x, ȳ) ≡ ⋁_{v} (x = v ∧ φ[x↦v])`,
//! and the slices are disjoint, so the union of slice results is the full
//! table.
//!
//! Two scheduling refinements over the naive version:
//!
//! * **Persistent workers** ([`EvalPool`]). A Dyn-FO run evaluates one
//!   small formula per request, thousands of times; spawning OS threads
//!   per call dominated the per-update cost at realistic n. Pools are
//!   keyed by size and live for the process (workers block on a shared
//!   channel between calls), so repeated updates pay only a channel
//!   send.
//! * **Work stealing + selectivity-based slicing.** Slice values are
//!   handed out one at a time from a shared atomic counter, so a worker
//!   that drew cheap slices (e.g. values absent from every relation)
//!   immediately steals the next value instead of idling at a chunk
//!   barrier. The sliced variable is chosen by estimated selectivity —
//!   the free variable whose smallest containing relation atom has the
//!   fewest tuples — because fixing the most selective variable makes
//!   each slice prune earliest and keeps per-slice cost low and even.

use crate::analysis::{canonicalize, free_vars, quantifier_depth};
use crate::eval::{EvalError, Evaluator, Table};
use crate::formula::{Formula, Term};
use crate::intern::Sym;
use crate::structure::Structure;
use crate::tuple::{Elem, Tuple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
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
/// size for the whole process, which is what [`evaluate_parallel`] uses —
/// a Dyn-FO machine issuing thousands of updates reuses the same threads
/// throughout instead of spawning per call.
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

/// Estimated selectivity slicing: pick the free variable whose smallest
/// containing relation atom has the fewest tuples. Fixing that variable
/// prunes each slice's search space the most, so slices stay cheap and
/// the atomic hand-out in the workers balances them. Variables appearing
/// in no relation atom score worst; ties keep the first (sorted) variable
/// so the choice is deterministic.
fn pick_slice_var(f: &Formula, fv: &[Sym], st: &Structure) -> Sym {
    let mut scores: HashMap<Sym, usize> = HashMap::new();
    collect_atom_scores(f, st, &mut scores);
    let mut best = fv[0];
    let mut best_score = usize::MAX;
    for &var in fv {
        let score = scores.get(&var).copied().unwrap_or(usize::MAX);
        if score < best_score {
            best = var;
            best_score = score;
        }
    }
    best
}

fn collect_atom_scores(f: &Formula, st: &Structure, out: &mut HashMap<Sym, usize>) {
    use Formula::*;
    match f {
        Rel { name, args } => {
            let Some(id) = st.vocab().relation(*name) else {
                return;
            };
            let len = st.relation(id).len();
            for arg in args {
                if let Term::Var(v) = arg {
                    let entry = out.entry(*v).or_insert(usize::MAX);
                    *entry = (*entry).min(len);
                }
            }
        }
        Not(g) => collect_atom_scores(g, st, out),
        And(fs) | Or(fs) => {
            for g in fs {
                collect_atom_scores(g, st, out);
            }
        }
        Implies(a, b) | Iff(a, b) => {
            collect_atom_scores(a, st, out);
            collect_atom_scores(b, st, out);
        }
        // Bound occurrences inside a quantifier shadow the outer
        // variable, so a rebinding subformula contributes nothing for it.
        Exists(vs, g) | Forall(vs, g) => {
            let mut inner = HashMap::new();
            collect_atom_scores(g, st, &mut inner);
            for (var, len) in inner {
                if !vs.contains(&var) {
                    let entry = out.entry(var).or_insert(usize::MAX);
                    *entry = (*entry).min(len);
                }
            }
        }
        True | False | Eq(..) | Le(..) | Lt(..) | Bit(..) => {}
    }
}

/// Evaluate `f` by distributing the values of one free variable across
/// `threads` workers of the process-wide [`EvalPool`] (sentences and
/// n < 2 fall back to plain evaluation).
///
/// Returns the same rows as [`crate::eval::evaluate`]; columns are the
/// free variables with the sliced variable last (a fixed order that is
/// identical whether the result is empty or not).
pub fn evaluate_parallel(
    f: &Formula,
    st: &Structure,
    params: &[Elem],
    threads: usize,
) -> Result<Table, EvalError> {
    let canonical = canonicalize(f);
    let fv: Vec<Sym> = free_vars(&canonical).into_iter().collect();
    if fv.is_empty() || st.size() < 2 {
        return Evaluator::new(st, params).eval(&canonical);
    }
    // Sentences aside, ALWAYS evaluate by slicing — also for
    // threads == 1 — so thread counts compare the same work. (Slicing
    // trades the planner's cross-variable joins for embarrassing
    // parallelism: more total work, perfectly distributable. The CRAM
    // model pays the same trade: n^k processors, constant depth.)
    let n = st.size();
    let threads = threads.max(1).min(n as usize);
    let pool = EvalPool::global(threads);
    let slice_var = pick_slice_var(&canonical, &fv, st);
    let mut out_cols: Vec<Sym> = fv.iter().copied().filter(|&v| v != slice_var).collect();
    out_cols.push(slice_var);

    // Work stealing: slice values are drawn one at a time from a shared
    // counter, so no worker idles while another still has a queue.
    let next = AtomicU32::new(0);
    type Slot = Mutex<Option<Result<Vec<Tuple>, EvalError>>>;
    let slots: Vec<Slot> = (0..threads).map(|_| Mutex::new(None)).collect();

    let worker = |slot: &Slot| {
        // One evaluator, and so one memo, for all of this worker's
        // slices: the subformulas not mentioning the sliced variable
        // (whole conjuncts of a join, typically) are identical across
        // slices, so every slice after the first reuses their tables.
        let mut ev = Evaluator::new(st, params);
        // Rows are accumulated raw, in the fixed `out_cols` order, and
        // turned into a table once at the end: slices are disjoint in
        // the sliced variable, so no cross-slice dedup is needed and
        // the per-slice union/project sorts would be pure overhead.
        let mut local: Vec<Tuple> = Vec::new();
        let result = loop {
            let value = next.fetch_add(1, Ordering::Relaxed);
            if dynfo_obs::ENABLED {
                crate::obs::eval_obs().pool_steal_draws.inc();
            }
            if value >= n {
                break Ok(std::mem::take(&mut local));
            }
            let slice = canonical.substitute(slice_var, Term::Lit(value));
            match ev.eval(&slice) {
                Ok(t) => {
                    let positions: Vec<usize> = out_cols[..out_cols.len() - 1]
                        .iter()
                        .map(|&c| t.col(c).expect("free variable column"))
                        .collect();
                    for r in t.rows() {
                        let mut row = Tuple::empty();
                        for &p in &positions {
                            row = row.push(r[p]);
                        }
                        local.push(row.push(value));
                    }
                }
                Err(e) => break Err(e),
            }
        };
        *slot.lock().unwrap() = Some(result);
    };

    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter()
        .map(|slot| {
            let worker = &worker;
            Box::new(move || worker(slot)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run_scoped(jobs);

    let mut rows: Vec<Tuple> = Vec::new();
    for slot in slots {
        let result = slot
            .into_inner()
            .unwrap()
            .expect("parallel evaluation worker panicked");
        rows.extend(result?);
    }
    // One sort + dedup over the combined rows (Table::new) instead of a
    // re-sorting union per slice.
    Ok(Table::new(out_cols, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::formula::*;
    use crate::vocab::Vocabulary;
    use std::sync::Arc;

    fn structure(n: Elem, edges: &[(Elem, Elem)]) -> Structure {
        let vocab = Arc::new(Vocabulary::new().with_relation("E", 2));
        let mut st = Structure::empty(vocab, n);
        for &(a, b) in edges {
            st.insert("E", [a, b]);
        }
        st
    }

    #[test]
    fn parallel_matches_sequential() {
        let st = structure(16, &[(0, 1), (1, 2), (2, 3), (5, 6), (9, 9)]);
        let f = exists(["z"], rel("E", [v("x"), v("z")]) & rel("E", [v("z"), v("y")]));
        let seq = evaluate(&f, &st, &[]).unwrap().sorted();
        for threads in [1, 2, 4, 8, 32] {
            let par = evaluate_parallel(&f, &st, &[], threads).unwrap();
            let fv: Vec<_> = seq.vars().to_vec();
            assert_eq!(par.project(&fv).sorted(), seq, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let a = EvalPool::global(3);
        let b = EvalPool::global(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.size(), 3);
        // Same pool keeps answering across calls.
        let st = structure(8, &[(1, 2)]);
        let f = rel("E", [v("x"), v("y")]);
        for _ in 0..3 {
            let t = evaluate_parallel(&f, &st, &[], 3).unwrap();
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn parallel_handles_sentences() {
        let st = structure(8, &[(0, 1)]);
        let f = exists(["x", "y"], rel("E", [v("x"), v("y")]));
        let t = evaluate_parallel(&f, &st, &[], 4).unwrap();
        assert!(t.as_bool());
    }

    #[test]
    fn parallel_handles_empty_results() {
        let st = structure(8, &[]);
        let f = rel("E", [v("x"), v("y")]);
        let t = evaluate_parallel(&f, &st, &[], 4).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.vars().len(), 2);
    }

    #[test]
    fn empty_and_nonempty_results_share_column_order() {
        // The empty table must expose the same columns in the same order
        // as a populated result of the same formula, so downstream joins
        // and unions cannot diverge on the empty case.
        let f = rel("E", [v("x"), v("y")]);
        let empty = evaluate_parallel(&f, &structure(8, &[]), &[], 4).unwrap();
        let full = evaluate_parallel(&f, &structure(8, &[(1, 2)]), &[], 4).unwrap();
        assert_eq!(empty.vars(), full.vars());
        assert!(empty.is_empty() && full.len() == 1);
    }

    #[test]
    fn more_threads_than_universe() {
        let st = structure(4, &[(0, 1), (2, 3)]);
        let f = rel("E", [v("x"), v("y")]);
        let seq = evaluate(&f, &st, &[]).unwrap().sorted();
        let fv: Vec<_> = seq.vars().to_vec();
        for threads in [5, 64] {
            let par = evaluate_parallel(&f, &st, &[], threads).unwrap();
            assert_eq!(par.project(&fv).sorted(), seq, "threads={threads}");
        }
    }

    #[test]
    fn tiny_universe_falls_back_to_sequential() {
        for n in [1, 2] {
            let st = structure(n, &[(0, 0)]);
            let f = rel("E", [v("x"), v("y")]);
            let seq = evaluate(&f, &st, &[]).unwrap().sorted();
            let fv: Vec<_> = seq.vars().to_vec();
            let par = evaluate_parallel(&f, &st, &[], 4).unwrap();
            assert_eq!(par.project(&fv).sorted(), seq, "n={n}");
        }
    }

    #[test]
    fn slice_var_prefers_most_selective_atom() {
        // x appears only in the small atom (1 tuple), y also in the big
        // one; fixing x prunes more, so x is sliced.
        let vocab = Arc::new(
            Vocabulary::new()
                .with_relation("Small", 2)
                .with_relation("Big", 1),
        );
        let mut st = Structure::empty(vocab, 8);
        st.insert("Small", [1, 2]);
        for i in 0..8 {
            st.insert("Big", [i]);
        }
        let f = rel("Small", [v("x"), v("y")]) & rel("Big", [v("y")]);
        let canonical = canonicalize(&f);
        let fv: Vec<_> = free_vars(&canonical).into_iter().collect();
        let picked = pick_slice_var(&canonical, &fv, &st);
        assert_eq!(picked, crate::sym("x"));
        // And the full evaluation still matches the sequential answer.
        let seq = evaluate(&f, &st, &[]).unwrap().sorted();
        let cols: Vec<_> = seq.vars().to_vec();
        let par = evaluate_parallel(&f, &st, &[], 4).unwrap();
        assert_eq!(par.project(&cols).sorted(), seq);
    }

    #[test]
    fn parallel_respects_params() {
        let st = structure(8, &[(3, 4)]);
        let f = rel("E", [param(0), v("y")]);
        let t = evaluate_parallel(&f, &st, &[3], 4).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][t.col(crate::sym("y")).unwrap()], 4);
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
