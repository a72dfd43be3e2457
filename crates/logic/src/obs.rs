//! Evaluator instrumentation: process-wide metric handles,
//! resolved once against the global [`dynfo_obs`] registry and cached
//! in a `OnceLock`, so hot-path recording is a single relaxed atomic.
//! Everything here compiles to nothing when `dynfo_obs::ENABLED` is
//! false (call sites guard on it, and the primitives early-return).

use crate::formula::Formula;
use dynfo_obs::Counter;
use std::sync::{Arc, OnceLock};

/// Subformula classes for the memo hit/miss breakdown, in the order
/// of [`CLASS_NAMES`].
pub const CLASS_NAMES: [&str; 6] = ["rel", "and", "or", "not", "exists", "other"];

/// Map a formula to its class index in [`CLASS_NAMES`].
pub fn class_of(f: &Formula) -> usize {
    match f {
        Formula::Rel { .. } => 0,
        Formula::And(..) => 1,
        Formula::Or(..) => 2,
        Formula::Not(..) => 3,
        Formula::Exists(..) => 4,
        _ => 5,
    }
}

/// Cached handles for every metric the evaluator records.
pub struct EvalObs {
    /// `eval.cache_hit.{class}` — per-evaluator memo hits by class.
    pub cache_hit: [Arc<Counter>; 6],
    /// `eval.cache_miss.{class}` — per-evaluator memo misses by class.
    pub cache_miss: [Arc<Counter>; 6],
    /// `eval.plan_compiled` — evaluations served by a compiled plan.
    pub plan_compiled: Arc<Counter>,
    /// `eval.plan_fallback` — planned evaluations that fell back to
    /// the relational-algebra interpreter.
    pub plan_fallback: Arc<Counter>,
    /// `eval.interp_rows` — rows materialized by the interpreter.
    pub interp_rows: Arc<Counter>,
    /// `eval.kernel_words` — 64-bit words touched by plan kernels.
    pub kernel_words: Arc<Counter>,
    /// `eval.load.gather_words` — words moved by atom loads that took
    /// the strided gather (cost fixed by the atom's shape).
    pub load_gather_words: Arc<Counter>,
    /// `eval.load.scan_words` — tuples visited by atom loads that
    /// scanned instead (the relation's popcount was below the gather's
    /// cost). Together the two record what the load path predicted:
    /// each load adds to exactly one.
    pub load_scan_words: Arc<Counter>,
    /// `plan.opt_ops_removed` — SSA plan ops eliminated by the
    /// algebraic optimizer at compile time (vs the raw lowering).
    pub plan_opt_ops_removed: Arc<Counter>,
    /// `plan.opt_kernel_words_saved` — per-execution kernel words the
    /// optimizer shaved off compiled plans (work_words delta at compile
    /// time; multiply by executions for the realized saving).
    pub plan_opt_kernel_words_saved: Arc<Counter>,
    /// `eval.simd_lanes` — u64 words that went through a ≥128-bit
    /// vector path in [`crate::simd`] (0 when the scalar tier runs).
    pub simd_lanes: Arc<Counter>,
}

/// The process-wide evaluator metrics, registered on first use.
pub fn eval_obs() -> &'static EvalObs {
    static OBS: OnceLock<EvalObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = dynfo_obs::global();
        EvalObs {
            cache_hit: CLASS_NAMES.map(|c| reg.counter(&format!("eval.cache_hit.{c}"))),
            cache_miss: CLASS_NAMES.map(|c| reg.counter(&format!("eval.cache_miss.{c}"))),
            plan_compiled: reg.counter("eval.plan_compiled"),
            plan_fallback: reg.counter("eval.plan_fallback"),
            interp_rows: reg.counter("eval.interp_rows"),
            kernel_words: reg.counter("eval.kernel_words"),
            load_gather_words: reg.counter("eval.load.gather_words"),
            load_scan_words: reg.counter("eval.load.scan_words"),
            plan_opt_ops_removed: reg.counter("plan.opt_ops_removed"),
            plan_opt_kernel_words_saved: reg.counter("plan.opt_kernel_words_saved"),
            simd_lanes: reg.counter("eval.simd_lanes"),
        }
    })
}
