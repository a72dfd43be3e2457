//! The Dyn-FO machine: executes a [`DynFoProgram`] against a request
//! stream, maintaining the auxiliary structure (`f_n(r̄)` in §3.1) and
//! answering queries.
//!
//! The machine is the `g_n` of the definition: given the current
//! auxiliary structure and one request, it produces the next auxiliary
//! structure by evaluating every matching update formula against the
//! *pre*-state (simultaneous semantics) and swapping the results in.

use crate::program::{DynFoProgram, UpdateRule};
use crate::request::{apply_to_input, delta_rows, Op, Request, RequestError, RequestKind};
use dynfo_logic::analysis::{canonicalize, positive_in};
use dynfo_logic::eval::delta::{install_plan, DeltaMode, InstallPlan};
use dynfo_logic::eval::{Evaluator, SubformulaCache};
use dynfo_logic::formula::{Formula, Term};
use dynfo_logic::parallel::EvalPool;
use dynfo_logic::{Elem, EvalError, EvalStats, Plan, PlanArena, RelId, Relation, Structure, Sym, Tuple};
use dynfo_obs::{Counter, Histogram, ObsHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Rule-kind labels for the per-rule update latency histograms, in
/// [`MachineObs::rule_ns`] order.
const RULE_KIND_NAMES: [&str; 5] = ["copy", "grow", "shrink", "guarded", "full"];

/// Cached metric handles for one machine, resolved once (per
/// [`ObsHandle`]) at construction so the update path records through
/// plain atomics. Compiled to no-ops when `dynfo-obs` is disabled.
#[derive(Clone, Debug)]
struct MachineObs {
    /// `machine.requests` — update requests applied.
    requests: Arc<Counter>,
    /// `machine.rule_update_ns.{copy,grow,shrink,guarded,full}` —
    /// per-rule update latency by [`RulePlan`] kind (nanoseconds).
    rule_ns: [Arc<Histogram>; 5],
    /// `machine.guard.{noop,grow,shrink,full}` — guard-refinement
    /// outcomes: which install strategy the surviving disjuncts chose.
    guard: [Arc<Counter>; 4],
    /// `machine.batch_size` — requests per `apply_batch` call.
    batch_size: Arc<Histogram>,
    /// `machine.batch_fast_runs` — coalesced fast-only runs executed.
    batch_fast_runs: Arc<Counter>,
    /// `machine.batch_coalesced` — requests skipped inside a fast run
    /// as consecutive duplicates.
    batch_coalesced: Arc<Counter>,
    /// `machine.bulk_tuples` — live Δ tuples materialized by definable
    /// bulk changes (the popcount admission control weighs).
    bulk_tuples: Arc<Counter>,
    /// `machine.bulk_plan_ns` — end-to-end bulk maintenance latency:
    /// δ materialization plus the one-shot fixpoint or the expanded
    /// stream (nanoseconds).
    bulk_plan_ns: Arc<Histogram>,
    /// `machine.bulk_fallback` — bulk requests that expanded to
    /// single-tuple streams (Guarded/Full rules, no memoryless claim
    /// to justify the fixpoint, or a Δ too small to pay the closure's
    /// fixed cost under [`BulkRoute::Auto`]).
    bulk_fallback: Arc<Counter>,
    /// `machine.recomputes` — full "start over" recomputes executed
    /// ([`DynFoMachine::recompute`] calls).
    recomputes: Arc<Counter>,
}

const GUARD_NOOP: usize = 0;
const GUARD_GROW: usize = 1;
const GUARD_SHRINK: usize = 2;
const GUARD_FULL: usize = 3;

impl MachineObs {
    fn new(handle: &ObsHandle) -> MachineObs {
        MachineObs {
            requests: handle.counter("machine.requests"),
            rule_ns: RULE_KIND_NAMES
                .map(|k| handle.histogram(&format!("machine.rule_update_ns.{k}"))),
            guard: ["noop", "grow", "shrink", "full"]
                .map(|o| handle.counter(&format!("machine.guard.{o}"))),
            batch_size: handle.histogram("machine.batch_size"),
            batch_fast_runs: handle.counter("machine.batch_fast_runs"),
            batch_coalesced: handle.counter("machine.batch_coalesced"),
            bulk_tuples: handle.counter("machine.bulk_tuples"),
            bulk_plan_ns: handle.histogram("machine.bulk_plan_ns"),
            bulk_fallback: handle.counter("machine.bulk_fallback"),
            recomputes: handle.counter("machine.recomputes"),
        }
    }

    /// Histogram index for a general rule's plan kind.
    fn kind_index(plan: &GeneralPlan) -> usize {
        match plan {
            GeneralPlan::Grow(_) => 1,
            GeneralPlan::Shrink(_) => 2,
            GeneralPlan::Guarded(_) => 3,
            GeneralPlan::Full => 4,
        }
    }
}

/// Why a machine operation failed.
///
/// Every public machine entry point returns this instead of panicking,
/// so a serving layer can reject a bad frame (or surface a corrupt
/// snapshot) without aborting the process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// The request failed validation against the input vocabulary.
    Request(RequestError),
    /// An update or query formula failed to evaluate.
    Eval(EvalError),
    /// [`DynFoMachine::query_named`] got a name the program lacks.
    UnknownQuery(Sym),
    /// [`DynFoMachine::from_state`] got a structure that does not fit
    /// the program (wrong vocabulary or relation arity).
    StateMismatch(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Request(e) => write!(f, "invalid request: {e}"),
            MachineError::Eval(e) => write!(f, "evaluation failed: {e}"),
            MachineError::UnknownQuery(s) => write!(f, "unknown named query {s}"),
            MachineError::StateMismatch(why) => write!(f, "state does not fit program: {why}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<RequestError> for MachineError {
    fn from(e: RequestError) -> MachineError {
        MachineError::Request(e)
    }
}

impl From<EvalError> for MachineError {
    fn from(e: EvalError) -> MachineError {
        MachineError::Eval(e)
    }
}

/// Why a batch failed, and how much of it took effect first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchError {
    /// Index of the offending request within the batch.
    pub index: usize,
    /// Requests applied before the failure. Validation runs over the
    /// whole batch up front, so a malformed frame has `applied == 0`
    /// and the machine untouched; an evaluation failure mid-batch
    /// leaves the prefix applied, exactly like sequential
    /// [`DynFoMachine::apply_all`].
    pub applied: usize,
    /// The underlying failure.
    pub error: MachineError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch failed at request {} ({} applied): {}",
            self.index, self.applied, self.error
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Cumulative execution statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct MachineStats {
    /// Requests applied.
    pub requests: usize,
    /// Queries answered.
    pub queries: usize,
    /// Evaluator work across all updates.
    pub update_work: EvalStats,
    /// Evaluator work across all queries.
    pub query_work: EvalStats,
    /// How general-rule results reached the auxiliary structure.
    pub installs: InstallStats,
    /// Full "start over" recomputes executed
    /// ([`DynFoMachine::recompute`] calls).
    pub recomputes: usize,
}

/// Counters for the install phase of updates: how each general rule's
/// result reached its target relation. Together they witness the delta
/// pipeline's claim — every install is an in-place delta, and an
/// unchanged target costs no allocation (`unchanged` counts those).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct InstallStats {
    /// General-rule evaluations whose install plan was empty: the
    /// target was already correct, so nothing was written, allocated,
    /// or invalidated.
    pub unchanged: usize,
    /// In-place delta installs (≥ 1 tuple added or removed).
    pub delta: usize,
    /// Always 0: the machine never constructs a full `Relation` and
    /// replaces the slot wholesale. The field is retained because the
    /// frozen `benchmark/` crate reads it.
    pub rebuilds: usize,
    /// Tuples inserted by delta installs.
    pub tuples_added: usize,
    /// Tuples removed by delta installs.
    pub tuples_removed: usize,
    /// Rules evaluated in the restricted grow-only delta mode.
    pub grow_evals: usize,
    /// Rules evaluated in shrink-only mode.
    pub shrink_evals: usize,
    /// Rules routed through per-request guard refinement: closed guards
    /// (params/constants only) evaluated first, then the surviving
    /// disjuncts decide between no-op, grow, shrink, and full diff.
    pub guarded_evals: usize,
    /// Rules evaluated by conservative full evaluation.
    pub full_evals: usize,
}

/// How one update rule is executed (compiled once per machine).
#[derive(Clone, Debug)]
enum RulePlan {
    /// The rule is the standard insert copy `R(x̄) ∨ x̄ = ?̄`: the new
    /// relation is the old plus the request tuple — an O(1) mutation,
    /// no formula evaluation at all.
    InsertCopy,
    /// The standard delete copy `R(x̄) ∧ x̄ ≠ ?̄`: old minus the tuple.
    DeleteCopy,
    /// Evaluation through the (cached) evaluator, with the install
    /// strategy the rule's shape admits.
    General(GeneralPlan),
}

/// The delta strategy compiled for a general rule (see
/// [`dynfo_logic::eval::delta`]). Detection is purely syntactic on the
/// canonical stored formula, so a plan is a *guarantee*, never a guess:
///
/// * `Grow(ψ)` — the formula is `T(x̄) ∨ ψ` with `T` the rule's own
///   target read back exactly (declared variables, declared order, all
///   distinct). The target only grows, so only `ψ` is evaluated and the
///   old relation is never rescanned.
/// * `Shrink(ψ)` — the formula is `T(x̄) ∧ ψ` with the same exact
///   self-atom. The new value is a subset of the old; one sorted merge
///   yields the removals. The stored formula is what evaluates; the
///   residual ψ is kept for the bulk fixpoint's closure.
/// * `Guarded` — the formula is a disjunction whose disjuncts carry
///   *closed* guards (conjuncts with no free variables — only request
///   params and constants, e.g. `F(?0,?1)` in REACH_u's PV-delete).
///   Guards are evaluated first, per request; disjuncts whose guard
///   fails are dropped, and the plan for the *surviving* disjuncts is
///   chosen at runtime: all-identity → no-op without scanning the
///   target, identity + ψ → grow, self-restrictions only → shrink,
///   anything else → full diff of the pruned disjunction. This is the
///   delta pipeline's parameter restriction: the common REACH_u delete
///   of a non-forest edge costs one `F(?0,?1)` probe instead of an
///   O(n³) PV copy.
/// * `Full` — anything else: evaluate the whole formula and diff by
///   sorted merge. Still installs in place; "full" refers to the
///   evaluation, not to any relation rebuild.
#[derive(Clone, Debug)]
enum GeneralPlan {
    Grow(Formula),
    Shrink(Formula),
    Guarded(GuardedPlan),
    Full,
}

/// A disjunction compiled for per-request guard refinement.
#[derive(Clone, Debug)]
struct GuardedPlan {
    disjuncts: Vec<GuardedDisjunct>,
}

/// One disjunct of a [`GuardedPlan`]: `γ₁ ∧ … ∧ γ_g ∧ body`, with every
/// `γᵢ` closed. The disjunct contributes nothing to the request's result
/// unless all its guards hold (γ ∧ body ≡ body when γ is true, ≡ ⊥ when
/// false).
#[derive(Clone, Debug)]
struct GuardedDisjunct {
    /// Closed conjuncts (no free variables; params and constants only).
    guards: Vec<Formula>,
    body: DisjunctBody,
}

/// What a guarded disjunct contributes once its guards hold.
#[derive(Clone, Debug)]
enum DisjunctBody {
    /// Exactly the rule's self-atom `T(x̄)`: every old tuple survives.
    /// No evaluation, no scan.
    SelfIdentity,
    /// A conjunction containing the self-atom positively (`T(x̄) ∧ ρ`,
    /// guards stripped): contributes a *subset* of the old target.
    SelfRestrict(Formula),
    /// Any other residual ψ (guards stripped; `True` if the disjunct
    /// was pure guard).
    Other(Formula),
}

/// A rule or query formula lowered to a bit-parallel kernel plan
/// ([`dynfo_logic::Plan`]), paired with its reusable slot arena.
/// Compiled once per machine; execution falls back to the interpreter
/// when compilation declined, the plan bails at runtime (a relation's
/// backend no longer matches the compiled layout), or the live budget
/// rules the plan unprofitable ([`BitPlan::profitable`]).
#[derive(Debug)]
struct BitPlan {
    plan: Arc<Plan>,
    /// Fixed kernel work per execution (`Plan::work_words`), cached for
    /// the profitability check on every request.
    work_words: u64,
    /// Relations the formula reads, resolved against the structure's
    /// vocabulary at compile time. Their maintained populations are the
    /// live side of the density-aware budget.
    reads: Arc<[RelId]>,
    /// Slot buffers reused across requests. A mutex rather than a cell
    /// because the parallel scheduler executes rule plans from pool
    /// workers; each rule's plan is used by at most one job per request,
    /// so the lock is never contended.
    arena: Mutex<PlanArena>,
}

/// Base work budget for machine-installed plans, in 64-bit
/// words per execution (`Plan::work_words`). A compiled plan always
/// pays its full `S^k`-shaped traversal, while the interpreter's delta
/// pipeline often resolves the same rule from a guard probe or a
/// restricted scan (REACH_a's shrink-shaped delete is microseconds
/// interpreted but megabits as bit-vectors). Below this budget the
/// plan always runs. 2^16 words = 4 Mbit ≈ tens of microseconds of
/// kernel passes — comfortably above every binary-aux program at
/// n ≤ 256. Above it, [`BitPlan::profitable`] consults the read
/// relations' live populations: dense state means the interpreter
/// would scan comparable volume anyway, so the plan still pays;
/// sparse state keeps the adaptive interpreter.
const PLAN_WORK_WORDS_CAP: u64 = 1 << 16;

/// Hard ceiling on compiled-plan size, independent of density. Slot
/// buffers and arity valid-masks materialize at `work_words` scale, so
/// this bounds per-plan memory (2^22 words = 32 MiB) no matter what
/// the live budget would admit.
const PLAN_COMPILE_WORDS_CAP: u64 = 1 << 22;

/// Interpreter cost proxy: kernel words one maintained row is worth.
/// The delta pipeline touches each live row a handful of times per
/// evaluation (probe, scan, diff, install); 8 words/row keeps the
/// estimate conservative — the plan must still be within an order of
/// magnitude of the scan volume its reads imply.
const PLAN_WORDS_PER_ROW: u64 = 8;

impl BitPlan {
    fn compile(f: &Formula, st: &Structure) -> Option<BitPlan> {
        let plan = Plan::compile(f, st)?;
        let work_words = plan.work_words();
        if work_words > PLAN_COMPILE_WORDS_CAP {
            return None;
        }
        let reads: Arc<[RelId]> = dynfo_logic::analysis::relation_symbols(f)
            .into_iter()
            .filter_map(|name| st.vocab().relation(name))
            .collect();
        let arena = Mutex::new(plan.arena());
        Some(BitPlan {
            plan: Arc::new(plan),
            work_words,
            reads,
            arena,
        })
    }

    /// Density-aware routing: run the plan when its fixed work is
    /// within the base budget, or when the read relations' maintained
    /// populations say the interpreter would scan comparable volume
    /// anyway (`rows × PLAN_WORDS_PER_ROW`). Monotone over the old
    /// fixed cap — everything it admitted still runs — while plans
    /// over sparsely populated reads (REACH_a's shrink-shaped delete
    /// against a thin path relation) keep the interpreter.
    fn profitable(&self, st: &Structure) -> bool {
        if self.work_words <= PLAN_WORK_WORDS_CAP {
            return true;
        }
        let rows: u64 = self
            .reads
            .iter()
            .map(|&id| st.relation(id).len() as u64)
            .sum();
        self.work_words <= rows.saturating_mul(PLAN_WORDS_PER_ROW)
    }
}

impl Clone for BitPlan {
    fn clone(&self) -> BitPlan {
        // Fresh arena: buffers re-grow lazily and stable slots recompute
        // once; cloned machines share only the immutable plan.
        BitPlan {
            plan: Arc::clone(&self.plan),
            work_words: self.work_words,
            reads: Arc::clone(&self.reads),
            arena: Mutex::new(self.plan.arena()),
        }
    }
}

/// How a definable bulk change reaches the state (ROADMAP item 1's
/// small-Δ headroom). Routing never affects the final state — both
/// paths land on the expanded stream's result — only which pipeline
/// computes it and what the request counters read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BulkRoute {
    /// Cost-model routing (the default): take the one-shot Δ-fixpoint
    /// only when `|Δ|` per-tuple applies would cost at least the
    /// closure's fixed price, estimated from compiled-plan kernel words
    /// and maintained popcounts ([`DynFoMachine::bulk_one_shot_pays`]).
    Auto,
    /// Always take the one-shot fixpoint when the program is eligible
    /// (memoryless + monotone shapes) — pins the mechanics for tests
    /// and benchmarks regardless of Δ size.
    OneShot,
    /// Always expand to the per-tuple stream.
    Fallback,
}

/// Reusable per-request buffers (satellite of the batched pipeline:
/// `apply` allocates nothing for bookkeeping on the hot path).
#[derive(Clone, Debug, Default)]
struct Scratch {
    params: Vec<Elem>,
    installs: Vec<(RelId, Sym, InstallPlan)>,
    fast_ops: Vec<(RelId, Sym, bool)>,
}

/// One update rule compiled for execution: everything the update path
/// needs, resolved once at construction.
#[derive(Clone, Debug)]
struct CompiledRule {
    /// The target relation's slot in the auxiliary structure.
    target: RelId,
    /// The program's rule: target symbol, declared variables, stored
    /// formula.
    rule: UpdateRule,
    /// How the rule executes.
    route: RulePlan,
    /// The bit-parallel plan for what the interpreter would evaluate
    /// (`None` where compilation declined: input copies, guarded rules,
    /// formulas over sparse-only relations, plans past the size cap).
    bits: Option<BitPlan>,
}

/// The compiled rules of one request kind, in program order.
#[derive(Clone, Debug, Default)]
struct KindTable {
    rules: Vec<CompiledRule>,
    /// Whether a bulk change of this kind may run the one-shot
    /// Δ-fixpoint (see [`bulk_one_shot_eligible`]). Depends only on the
    /// program and the kind, so it is decided here, not per request.
    bulk_one_shot: bool,
}

/// A running instance of a Dyn-FO program.
#[derive(Clone, Debug)]
pub struct DynFoMachine {
    program: DynFoProgram,
    state: Structure,
    stats: MachineStats,
    /// Every rule compiled for execution, by request kind. Each `ins`/
    /// `del` kind of the input vocabulary has an entry, rules or not.
    tables: BTreeMap<RequestKind, KindTable>,
    /// Subformula results kept warm across requests; entries are
    /// invalidated when a relation they read changes (every install is
    /// an explicit delta) or, for entries reading a constant, when that
    /// constant is `set`.
    cache: SubformulaCache,
    /// Compiled plan for the program's boolean query.
    query_plan: Option<BitPlan>,
    /// Plans for named queries, compiled on first use.
    named_plans: BTreeMap<Sym, Option<BitPlan>>,
    /// Execute general rules and queries through compiled plans where
    /// available (the default); off keeps the interpreter everywhere.
    use_plans: bool,
    /// Worker threads for scheduling general rules within one request
    /// (1 = serial).
    parallelism: usize,
    /// Reused per-request buffers; empty between calls.
    scratch: Scratch,
    /// How definable bulk changes are routed (see [`BulkRoute`]).
    bulk_route: BulkRoute,
    /// Where this machine's metrics go (see [`DynFoMachine::with_obs`]).
    obs: MachineObs,
}

impl DynFoMachine {
    /// Initialize for universe size `n` (runs the program's `f(∅)`).
    pub fn new(program: DynFoProgram, n: Elem) -> DynFoMachine {
        let state = program.initial_structure(n);
        DynFoMachine::over(program, state)
    }

    /// Restore a machine from a previously captured auxiliary structure
    /// (the durability path: snapshot + journal-tail replay).
    ///
    /// The structure must interpret exactly the program's auxiliary
    /// vocabulary — same relation names and arities, same constants —
    /// and is adopted as the machine's state verbatim. Statistics start
    /// at zero and the subformula cache starts cold (a freshly restored
    /// machine has done no work), so a restored machine is
    /// indistinguishable from the uninterrupted one in state and
    /// answers, not in counters.
    pub fn from_state(program: DynFoProgram, state: Structure) -> Result<DynFoMachine, MachineError> {
        let vocab = program.aux_vocab();
        let mismatch = |why: String| Err(MachineError::StateMismatch(why));
        if state.vocab().num_relations() != vocab.num_relations()
            || state.vocab().num_constants() != vocab.num_constants()
            || !state.vocab().extends(vocab)
        {
            return mismatch(format!(
                "structure vocabulary {} differs from auxiliary vocabulary {}",
                state.vocab(),
                vocab
            ));
        }
        // `extends` checks names and arities but not symbol *order*;
        // relation ids must line up for the compiled plans to address
        // the right slots.
        for (id, sym) in vocab.relations() {
            let got = state.vocab().relation_sym(id);
            if got.name != sym.name {
                return mismatch(format!(
                    "relation #{} is {} in the structure but {} in the program",
                    id.0, got.name, sym.name
                ));
            }
        }
        for (id, name) in vocab.constants() {
            if state.vocab().constant_name(id) != name {
                return mismatch(format!(
                    "constant #{} is {} in the structure but {name} in the program",
                    id.0,
                    state.vocab().constant_name(id)
                ));
            }
        }
        Ok(DynFoMachine::over(program, state))
    }

    /// The one construction path: compile every rule and the boolean
    /// query against `state`'s layout and start with shipped defaults.
    fn over(program: DynFoProgram, state: Structure) -> DynFoMachine {
        DynFoMachine {
            tables: compile_tables(&program, &state),
            query_plan: BitPlan::compile(program.query(), &state),
            named_plans: BTreeMap::new(),
            use_plans: true,
            program,
            state,
            stats: MachineStats::default(),
            cache: SubformulaCache::new(),
            parallelism: 1,
            scratch: Scratch::default(),
            bulk_route: BulkRoute::Auto,
            obs: MachineObs::new(&ObsHandle::default()),
        }
    }

    /// Route this machine's metrics through `handle` — the global
    /// registry by default, a private registry for embedders and tests,
    /// or nowhere ([`ObsHandle::disabled`]).
    pub fn with_obs(mut self, handle: &ObsHandle) -> DynFoMachine {
        self.obs = MachineObs::new(handle);
        self
    }

    /// Whether compiled bit-parallel plans execute general rules and
    /// queries (the default).
    pub fn use_plans(&self) -> bool {
        self.use_plans
    }

    /// Enable or disable compiled plans. Both settings compute the same
    /// state and answers — the interpreter is the always-available
    /// fallback and the differential suites hold the two against each
    /// other; only `plan_*`/`kernel_words` counters and speed differ.
    pub fn with_use_plans(mut self, on: bool) -> DynFoMachine {
        self.use_plans = on;
        self
    }

    /// Every currently compiled plan: rule plans, the boolean query,
    /// and the named queries compiled so far.
    fn bit_plans(&self) -> impl Iterator<Item = &BitPlan> {
        self.tables
            .values()
            .flat_map(|t| t.rules.iter().filter_map(|r| r.bits.as_ref()))
            .chain(&self.query_plan)
            .chain(self.named_plans.values().flatten())
    }

    /// Total `(ops removed, kernel words saved per execution)` by the
    /// algebraic optimizer across every currently compiled plan (rule
    /// plans, the boolean query, and named queries compiled so far).
    /// All zeros when nothing was reducible.
    pub fn plan_opt_summary(&self) -> (u64, u64) {
        self.bit_plans().fold((0, 0), |(ops, words), bp| {
            (
                ops + bp.plan.opt_ops_removed(),
                words + bp.plan.opt_kernel_words_saved(),
            )
        })
    }

    /// Sum of `work_words` (kernel words one execution touches) across
    /// every currently compiled plan — the static counterpart to the
    /// realized `kernel_words` counters, unaffected by which plans the
    /// per-execution work cap lets the machine actually run. Adding
    /// back [`DynFoMachine::plan_opt_summary`]'s words-saved term gives
    /// the raw-lowering total, so the optimizer's effect can be read
    /// plan-for-plan off one machine.
    pub fn plan_static_words(&self) -> u64 {
        self.bit_plans().map(|bp| bp.work_words).sum()
    }

    /// Worker threads used to schedule general rules within one request.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Schedule general update rules across `threads` pool workers
    /// (clamped to ≥ 1; 1 means the serial loop). Rules of one request
    /// write disjoint targets and read only the pre-state, so the
    /// parallel schedule is deterministic: worker stats and caches are
    /// merged back in rule order.
    pub fn with_parallelism(mut self, threads: usize) -> DynFoMachine {
        self.parallelism = threads.max(1);
        self
    }

    /// Select bulk routing ([`BulkRoute::Auto`] is the default). All
    /// three routes produce the same state — the differential suites
    /// hold them against each other — so [`BulkRoute::OneShot`]/
    /// [`BulkRoute::Fallback`] exist to pin one pipeline for tests and
    /// benchmarks, while [`BulkRoute::Auto`] picks by the cost model.
    pub fn with_bulk_route(mut self, route: BulkRoute) -> DynFoMachine {
        self.bulk_route = route;
        self
    }

    /// Start over now: run the program's recompute closure against the
    /// current state and adopt the result. Returns `Ok(false)` when the
    /// program carries no closure. The rebuilt structure must keep the
    /// same universe and vocabulary — anything else is a
    /// [`MachineError::StateMismatch`].
    pub fn recompute(&mut self) -> Result<bool, MachineError> {
        let Some(f) = self.program.recompute_fn().cloned() else {
            return Ok(false);
        };
        let _span = dynfo_obs::span("machine.recompute");
        let fresh = f(&self.state);
        if fresh.size() != self.state.size() || !Arc::ptr_eq(fresh.vocab(), self.state.vocab()) {
            return Err(MachineError::StateMismatch(
                "recompute closure changed the universe or vocabulary".into(),
            ));
        }
        self.state = fresh;
        // The rebuild may have rewritten anything: start the
        // subformula cache cold rather than diffing.
        self.cache.clear();
        self.stats.recomputes += 1;
        self.obs.recomputes.inc();
        Ok(true)
    }

    /// The cross-request subformula cache (diagnostics, benches).
    pub fn cache(&self) -> &SubformulaCache {
        &self.cache
    }

    /// Drop every cached subformula table. Semantically a no-op — the
    /// cache is delta-invalidated on every update — so this exists for
    /// differential tests and cold-vs-warm benchmarks.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The program being run.
    pub fn program(&self) -> &DynFoProgram {
        &self.program
    }

    /// The current auxiliary structure (`f_n(r̄)`).
    pub fn state(&self) -> &Structure {
        &self.state
    }

    /// Universe size.
    pub fn n(&self) -> Elem {
        self.state.size()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Apply one request: evaluate all matching update rules on the
    /// pre-state, then install the new relations. Returns the evaluator
    /// work for this update.
    ///
    /// Delta-aware execution: input-copy rules mutate their relation in
    /// place (O(1) instead of a full re-evaluation); every installed
    /// update is diffed against the pre-state so the cross-request
    /// subformula cache evicts exactly the entries whose read sets
    /// changed.
    ///
    /// A malformed request (unknown symbol, wrong arity, or an element
    /// outside the universe — e.g. a weight ≥ n) is rejected with
    /// [`MachineError::Request`] *before* any state changes, so a bad
    /// frame leaves the machine untouched.
    pub fn apply(&mut self, req: &Request) -> Result<EvalStats, MachineError> {
        req.validate(self.program.input_vocab(), self.n())?;
        self.apply_validated(req)
    }

    /// [`DynFoMachine::apply`] minus validation (the batch path
    /// validates every frame up front).
    fn apply_validated(&mut self, req: &Request) -> Result<EvalStats, MachineError> {
        if req.is_bulk() {
            return self.apply_bulk(req);
        }
        let mut params = std::mem::take(&mut self.scratch.params);
        req.params_into(&mut params);
        let out = self.update_with_params(req, &params);
        params.clear();
        self.scratch.params = params;
        out
    }

    fn update_with_params(
        &mut self,
        req: &Request,
        params: &[Elem],
    ) -> Result<EvalStats, MachineError> {
        debug_assert!(!matches!(req.kind().op, Op::Set) || !params.is_empty());
        let _span = dynfo_obs::span("machine.update");
        // Scratch buffers are owned by the machine and reused across
        // requests; take them out for the duration of this update and
        // put them back (cleared, capacity intact) on every exit path.
        let mut installs = std::mem::take(&mut self.scratch.installs);
        let mut fast_ops = std::mem::take(&mut self.scratch.fast_ops);
        let evaled = self.eval_rules(req.kind(), params, &mut installs, &mut fast_ops);
        let out = match evaled {
            Ok(work) => {
                self.install(req, params, &mut installs, &fast_ops);
                self.stats.requests += 1;
                self.obs.requests.inc();
                self.stats.update_work.absorb(&work);
                Ok(work)
            }
            Err(e) => Err(e),
        };
        installs.clear();
        fast_ops.clear();
        self.scratch.installs = installs;
        self.scratch.fast_ops = fast_ops;
        out
    }

    /// Evaluate every rule matching `kind` against the pre-state.
    /// Fast-path rules only *read* their own target, so their in-place
    /// mutation is deferred to the install phase together with the
    /// general results (simultaneous semantics).
    fn eval_rules(
        &mut self,
        kind: RequestKind,
        params: &[Elem],
        installs: &mut Vec<(RelId, Sym, InstallPlan)>,
        fast_ops: &mut Vec<(RelId, Sym, bool)>,
    ) -> Result<EvalStats, MachineError> {
        let rules = rules_for(&self.tables, kind);
        let use_plans = self.use_plans;
        for cr in rules {
            match &cr.route {
                RulePlan::InsertCopy => fast_ops.push((cr.target, cr.rule.target, true)),
                RulePlan::DeleteCopy => fast_ops.push((cr.target, cr.rule.target, false)),
                RulePlan::General(_) => {}
            }
        }
        let generals = || {
            rules.iter().filter_map(|cr| match &cr.route {
                RulePlan::General(g) => Some((cr, g)),
                _ => None,
            })
        };

        let mut work = EvalStats::default();
        if self.parallelism > 1 && generals().nth(1).is_some() {
            // One job per general rule. The program builder rejects two
            // rules with the same (kind, target), so rules write
            // disjoint targets; all of them read the shared pre-state
            // and the shared cache read-only. Each worker fills a
            // result slot plus a private overlay cache, and the host
            // merges slots *in rule order*, so stats, cache contents,
            // and installs are identical to the serial schedule.
            type WorkerOut = (Result<InstallPlan, EvalError>, EvalStats, SubformulaCache);
            let pool = EvalPool::global(self.parallelism);
            let slots: Vec<Mutex<Option<WorkerOut>>> =
                generals().map(|_| Mutex::new(None)).collect();
            {
                let state = &self.state;
                let base = &self.cache;
                let obs = &self.obs;
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(slots.len());
                for ((cr, gplan), slot) in generals().zip(&slots) {
                    jobs.push(Box::new(move || {
                        let started = dynfo_obs::clock();
                        let mut local = SubformulaCache::new();
                        let mut ev =
                            Evaluator::with_overlay_cache(state, params, base, &mut local);
                        let res = eval_general(state, cr, gplan, use_plans, obs, &mut ev);
                        let stats = ev.stats();
                        drop(ev);
                        obs.rule_ns[MachineObs::kind_index(gplan)].observe_since(started);
                        *slot.lock().unwrap() = Some((res, stats, local));
                    }));
                }
                pool.run_scoped(jobs);
            }
            for ((cr, gplan), slot) in generals().zip(slots) {
                let (res, stats, local) = slot
                    .into_inner()
                    .unwrap()
                    .expect("eval worker filled its slot");
                work.absorb(&stats);
                self.cache.absorb(local);
                let plan = res?;
                self.stats.installs.note_eval(gplan);
                installs.push((cr.target, cr.rule.target, plan));
            }
        } else {
            for (cr, gplan) in generals() {
                let started = dynfo_obs::clock();
                let mut ev = Evaluator::with_cache(&self.state, params, &mut self.cache);
                let res = eval_general(&self.state, cr, gplan, use_plans, &self.obs, &mut ev);
                work.absorb(&ev.stats());
                self.obs.rule_ns[MachineObs::kind_index(gplan)].observe_since(started);
                let plan = res?;
                self.stats.installs.note_eval(gplan);
                installs.push((cr.target, cr.rule.target, plan));
            }
        }
        Ok(work)
    }

    /// Install evaluated results and fast ops simultaneously, then
    /// bring the cache (and, for `set`, the constant copy) up to date.
    fn install(
        &mut self,
        req: &Request,
        params: &[Elem],
        installs: &mut Vec<(RelId, Sym, InstallPlan)>,
        fast_ops: &[(RelId, Sym, bool)],
    ) {
        let mut changed: BTreeSet<Sym> = BTreeSet::new();
        for (id, target, plan) in installs.drain(..) {
            if plan.is_noop() {
                // The evaluation confirmed the target: no write, no
                // allocation, no cache eviction.
                self.stats.installs.unchanged += 1;
            } else {
                self.stats.installs.delta += 1;
                self.stats.installs.tuples_added += plan.added.len();
                self.stats.installs.tuples_removed += plan.removed.len();
                self.state.apply_delta(id, &plan.added, &plan.removed);
                changed.insert(target);
            }
        }
        if !fast_ops.is_empty() {
            let started = dynfo_obs::clock();
            let tuple = Tuple::from_slice(params);
            for &(id, target, is_insert) in fast_ops {
                let rel = self.state.relation_mut(id);
                let did = if is_insert {
                    rel.insert(tuple)
                } else {
                    rel.remove(&tuple)
                };
                if did {
                    changed.insert(target);
                }
            }
            self.obs.rule_ns[0].observe_since(started);
        }

        // `set` requests update the stored constant copy directly (the
        // auxiliary structure mirrors input constants; programs may add
        // rules on top). Only cached tables that actually read the
        // constant can go stale — parameter dependence is part of the
        // cache key — so eviction is by constant read-set, not a full
        // clear.
        if let Request::Set(sym, value) = req {
            if self.state.vocab().constant(*sym).is_some() {
                self.state.set_const(sym.as_str(), *value);
            }
            let mut consts = BTreeSet::new();
            consts.insert(*sym);
            self.cache.invalidate_consts(&consts);
        }
        if !changed.is_empty() {
            self.cache.invalidate_reads(&changed);
        }
    }

    /// Apply a sequence of requests, stopping at the first failure.
    pub fn apply_all(&mut self, reqs: &[Request]) -> Result<(), MachineError> {
        for r in reqs {
            self.apply(r)?;
        }
        Ok(())
    }

    /// Apply a batch of requests as one pipeline pass.
    ///
    /// The whole batch is validated up front, so a malformed frame
    /// rejects the batch with *nothing* applied (`applied == 0`) and
    /// the machine untouched — a serving layer can refuse the frame
    /// before journaling anything. After validation the batch is
    /// equivalent to sequential [`DynFoMachine::apply_all`], but runs
    /// of consecutive requests whose kinds compile entirely to
    /// input-copy fast paths are coalesced: they mutate tuples directly,
    /// share one cache-invalidation pass at the run boundary (sound
    /// because no formula is evaluated inside the run), and consecutive
    /// duplicate requests are skipped outright — insert/delete copies
    /// are idempotent, so the repeat cannot change state and its tuple
    /// is never even built.
    ///
    /// Returns the summed evaluator work. An evaluation failure
    /// mid-batch leaves the prefix applied and reports both the failing
    /// index and the applied count.
    pub fn apply_batch(&mut self, reqs: &[Request]) -> Result<EvalStats, BatchError> {
        for (index, r) in reqs.iter().enumerate() {
            if let Err(e) = r.validate(self.program.input_vocab(), self.n()) {
                return Err(BatchError {
                    index,
                    applied: 0,
                    error: e.into(),
                });
            }
        }
        self.obs.batch_size.observe(reqs.len() as u64);
        let mut work = EvalStats::default();
        let mut i = 0;
        while i < reqs.len() {
            let run = reqs[i..]
                .iter()
                .take_while(|r| self.is_fast_only(r))
                .count();
            if run > 0 {
                self.obs.batch_fast_runs.inc();
                self.apply_fast_run(&reqs[i..i + run]);
                i += run;
            } else {
                match self.apply_validated(&reqs[i]) {
                    Ok(w) => work.absorb(&w),
                    Err(error) => {
                        return Err(BatchError {
                            index: i,
                            applied: i,
                            error,
                        })
                    }
                }
                i += 1;
            }
        }
        Ok(work)
    }

    /// True iff every rule for this request's kind is an input-copy
    /// fast path — applying it cannot evaluate a formula. (A kind with
    /// no rules at all is vacuously fast: the request is a no-op.)
    fn is_fast_only(&self, req: &Request) -> bool {
        // `set` rebinds a constant and a bulk change runs its own
        // maintenance pipeline; neither is a tuple fast path.
        if matches!(req, Request::Set(..)) || req.is_bulk() {
            return false;
        }
        rules_for(&self.tables, req.kind())
            .iter()
            .all(|cr| !matches!(cr.route, RulePlan::General(_)))
    }

    /// Apply a coalesced run of fast-only requests (see
    /// [`DynFoMachine::apply_batch`]). Infallible: the requests are
    /// pre-validated and no evaluation happens.
    fn apply_fast_run(&mut self, reqs: &[Request]) {
        let mut changed: BTreeSet<Sym> = BTreeSet::new();
        let mut params = std::mem::take(&mut self.scratch.params);
        let mut prev: Option<&Request> = None;
        for req in reqs {
            self.stats.requests += 1;
            self.obs.requests.inc();
            if prev == Some(req) {
                self.obs.batch_coalesced.inc();
                continue;
            }
            prev = Some(req);
            let rules = rules_for(&self.tables, req.kind());
            if rules.is_empty() {
                continue;
            }
            req.params_into(&mut params);
            let tuple = Tuple::from_slice(&params);
            for cr in rules {
                let rel = self.state.relation_mut(cr.target);
                let did = match cr.route {
                    RulePlan::InsertCopy => rel.insert(tuple),
                    RulePlan::DeleteCopy => rel.remove(&tuple),
                    RulePlan::General(_) => unreachable!("fast run contains general rule"),
                };
                if did {
                    changed.insert(cr.rule.target);
                }
            }
        }
        params.clear();
        self.scratch.params = params;
        // Read-set invalidation is monotone, so one pass over the union
        // of changed targets equals the per-request passes it replaces.
        if !changed.is_empty() {
            self.cache.invalidate_reads(&changed);
        }
    }

    /// Apply a validated definable bulk change (Schwentick–Vortmeier–
    /// Zeume: the request carries a formula δ(x̄) defining the whole
    /// changed set instead of one tuple).
    ///
    /// The live Δ — the tuples the change actually toggles — is
    /// materialized first (compiled δ-plan where the budget admits).
    /// Maintenance then dispatches: programs whose rules for this kind
    /// are all copies and `Grow`/`Shrink` shapes with target-positive
    /// residuals run *one* monotone fixpoint over the whole Δ
    /// ([`DynFoMachine::apply_bulk_one_shot`]) — a verdict reached
    /// once, at construction ([`KindTable::bulk_one_shot`]); everything
    /// else replays Δ through the ordinary per-tuple pipeline. Both
    /// paths land on the byte-identical state the expanded single-tuple
    /// stream produces — the `DiffMode::Bulk` differential suites
    /// enforce it.
    fn apply_bulk(&mut self, req: &Request) -> Result<EvalStats, MachineError> {
        let _span = dynfo_obs::span("machine.bulk");
        let started = dynfo_obs::clock();
        let (rel, delta, is_ins) = match req {
            Request::BulkIns { rel, delta } => (*rel, delta, true),
            Request::BulkDel { rel, delta } => (*rel, delta, false),
            _ => unreachable!("apply_bulk takes bulk requests only"),
        };
        let tuples = self.bulk_delta(rel, delta, is_ins)?;
        self.obs.bulk_tuples.add(tuples.len() as u64);
        let kind = req.kind();
        let eligible = self.tables.get(&kind).is_some_and(|t| t.bulk_one_shot);
        let one_shot = match self.bulk_route {
            BulkRoute::OneShot => eligible,
            BulkRoute::Fallback => false,
            BulkRoute::Auto => eligible && self.bulk_one_shot_pays(kind, tuples.len()),
        };
        let out = if one_shot {
            self.apply_bulk_one_shot(kind, &tuples, is_ins)
        } else {
            self.obs.bulk_fallback.inc();
            self.apply_bulk_fallback(rel, &tuples, is_ins)
        };
        self.obs.bulk_plan_ns.observe_since(started);
        out
    }

    /// Materialize a bulk request's *live* Δ: δ evaluated over the
    /// current state (the auxiliary structure mirrors the input
    /// relations), keeping only the tuples the change actually toggles
    /// — absent tuples for an insert, present ones for a delete.
    /// Sorted and duplicate-free; exactly the set the equivalent
    /// single-tuple stream walks.
    fn bulk_delta(
        &self,
        rel: Sym,
        delta: &Formula,
        is_ins: bool,
    ) -> Result<Vec<Tuple>, MachineError> {
        let id = self
            .state
            .vocab()
            .relation(rel)
            .expect("validated bulk target exists in aux vocab");
        let current = self.state.relation(id);
        let defined = self.eval_delta_set(delta, current.arity())?;
        Ok(defined
            .into_iter()
            .filter(|t| current.contains(t) != is_ins)
            .collect())
    }

    /// Evaluate δ to its full defined set, rows in `x0…x_{k−1}` column
    /// order. Compiles δ through the plan pipeline (optimizer included)
    /// when plans are on and the density-aware budget admits it — one
    /// kernel pass materializes the whole set at 64 tuples per word —
    /// else interprets. The evaluation is metered by `bulk_plan_ns`,
    /// not `update_work`, so a fallback expansion's per-request
    /// statistics stay identical to the stream it replays.
    fn eval_delta_set(&self, delta: &Formula, arity: usize) -> Result<Vec<Tuple>, MachineError> {
        let canonical = canonicalize(delta);
        if self.use_plans {
            if let Some(bp) = BitPlan::compile(&canonical, &self.state) {
                if bp.profitable(&self.state) {
                    let mut local = SubformulaCache::new();
                    let mut ev = Evaluator::with_cache(&self.state, &[], &mut local);
                    let mut arena = bp.arena.lock().unwrap();
                    if let Some(table) = bp
                        .plan
                        .execute(&mut ev, &mut arena, None)
                        .map_err(MachineError::Eval)?
                    {
                        return Ok(delta_rows(table, arity, self.n()));
                    }
                }
            }
        }
        let table = dynfo_logic::evaluate(&canonical, &self.state, &[])
            .map_err(MachineError::Eval)?;
        Ok(delta_rows(table, arity, self.n()))
    }

    /// ROADMAP item 1's small-Δ headroom: is the one-shot Δ-fixpoint
    /// worth its fixed cost for this Δ, or should [`BulkRoute::Auto`]
    /// expand to `|Δ|` single-tuple applies?
    ///
    /// The comparison is `|Δ| · per_tuple ≥ closure_fixed`, both sides
    /// in kernel words:
    ///
    /// * **closure_fixed** — each non-copy rule's closed residual is an
    ///   `S^(arity+1)`-shaped pass (the Δ columns join in one extra
    ///   axis), charged for [`BULK_ROUNDS_FLOOR`] fixpoint rounds. A
    ///   program whose rules are all copies has no closure at all and
    ///   always takes the one-shot splice.
    /// * **per_tuple** — the compiled [`BitPlan`]'s exact
    ///   `work_words` where plans are on, else the interpreter proxy:
    ///   [`PLAN_WORDS_PER_ROW`] per maintained row the rule reads
    ///   (live popcounts), capped at the dense pass the plan would do.
    ///
    /// Deliberately closure-pessimistic: a Δ must comfortably cover the
    /// fixed price before the fixpoint runs, so the item-1 regression —
    /// a 2-tuple δ paying a whole-relation closure — cannot recur,
    /// while relation-scale deltas (E25's subgraph δ) keep the
    /// one-shot's order-of-magnitude win. Routing is observable as
    /// `machine.bulk_fallback` and request counts; the state is
    /// identical either way.
    fn bulk_one_shot_pays(&self, kind: RequestKind, delta_len: usize) -> bool {
        /// Fixed rounds the closure is charged up front: converge +
        /// detect, doubled because chain-shaped Δs (path composition)
        /// genuinely iterate.
        const BULK_ROUNDS_FLOOR: u64 = 4;
        let n = self.n() as u64;
        let dense_words = |arity: u32| n.saturating_pow(arity).div_ceil(64).max(1);
        let mut closure_fixed = 0u64;
        let mut per_tuple = 0u64;
        for cr in rules_for(&self.tables, kind) {
            match cr.route {
                RulePlan::InsertCopy | RulePlan::DeleteCopy => {
                    per_tuple = per_tuple.saturating_add(1);
                }
                RulePlan::General(_) => {
                    let arity = cr.rule.vars.len() as u32;
                    closure_fixed = closure_fixed.saturating_add(
                        dense_words(arity)
                            .saturating_mul(n)
                            .saturating_mul(BULK_ROUNDS_FLOOR),
                    );
                    let compiled = cr.bits.as_ref().filter(|_| self.use_plans);
                    let cost = compiled.map(|bp| bp.work_words).unwrap_or_else(|| {
                        let rows: u64 = dynfo_logic::analysis::relation_symbols(&cr.rule.formula)
                            .into_iter()
                            .filter_map(|s| self.state.vocab().relation(s))
                            .map(|id| self.state.relation(id).len() as u64)
                            .sum();
                        PLAN_WORDS_PER_ROW
                            .saturating_mul(rows.max(1))
                            .min(dense_words(arity))
                    });
                    per_tuple = per_tuple.saturating_add(cost);
                }
            }
        }
        if closure_fixed == 0 {
            return true;
        }
        (delta_len as u64).saturating_mul(per_tuple) >= closure_fixed
    }

    /// Execute an eligible bulk change as one fixpoint. The state is
    /// extended with Δ as a scratch relation, every rule's residual is
    /// closed over all of Δ at once —
    /// `ψ′ = ∃p̄. __DELTA(p̄) ∧ ψ[?i := pᵢ]` for a grow,
    /// `∃p̄. __DELTA(p̄) ∧ ¬ψ[?i := pᵢ]` giving the removals of a
    /// shrink — and the rounds iterate with simultaneous installs until
    /// nothing changes. Eligibility guarantees the operator is
    /// monotone (targets only grow, or only shrink), so the loop
    /// terminates and its fixpoint equals the expanded stream's final
    /// state. The converged targets are then diffed against the real
    /// state and installed as one delta per relation.
    fn apply_bulk_one_shot(
        &mut self,
        kind: RequestKind,
        delta: &[Tuple],
        is_ins: bool,
    ) -> Result<EvalStats, MachineError> {
        enum RoundRule<'a> {
            /// Insert/delete copy: the target changes by Δ itself.
            Copy(RelId),
            /// A closed formula whose aligned rows are this round's
            /// additions (bulk insert) or removals (bulk delete).
            Closed(RelId, &'a UpdateRule, Formula),
        }

        let n = self.n();
        let target_id = self
            .state
            .vocab()
            .relation(kind.sym)
            .expect("validated bulk target exists in aux vocab");
        let arity = self.state.relation(target_id).arity();
        let rules = rules_for(&self.tables, kind);

        let dvars: Vec<Sym> = (0..arity).map(|i| Sym::new(&format!("__d{i}"))).collect();
        let delta_atom = Formula::Rel {
            name: Sym::new(BULK_DELTA_REL),
            args: dvars.iter().map(|&v| Term::Var(v)).collect(),
        };
        let close = |psi: &Formula, negate: bool| -> Formula {
            let bound = psi.map_terms(&|t| match t {
                Term::Param(i) => Term::Var(Sym::new(&format!("__d{i}"))),
                other => other,
            });
            let body = if negate {
                Formula::Not(Box::new(bound))
            } else {
                bound
            };
            // Distribute Δ over the residual's top-level disjunction
            // before quantifying: ∃d̄. Δ ∧ (A ∨ B) ≡ (∃d̄. Δ∧A) ∨
            // (∃d̄. Δ∧B). One blanket ∃d̄ over the whole disjunction
            // pins every round evaluation at arity |x̄|+|d̄|; closing
            // per disjunct lets miniscoping sink each dᵢ to the
            // conjuncts that actually mention it — the difference
            // between an S⁴ and an S³ intermediate on the 2-parameter
            // graph programs. Δ stays inside every disjunct so an
            // empty Δ still closes to `false`.
            let close_one = |g: Formula| {
                canonicalize(&Formula::Exists(
                    dvars.clone(),
                    Box::new(Formula::And(vec![delta_atom.clone(), g])),
                ))
            };
            let closed = match canonicalize(&body) {
                Formula::Or(ds) => {
                    canonicalize(&Formula::Or(ds.into_iter().map(close_one).collect()))
                }
                g => close_one(g),
            };
            dynfo_logic::eval::opt::optimize_formula(&closed).unwrap_or(closed)
        };
        let round_rules: Vec<RoundRule> = rules
            .iter()
            .map(|cr| match &cr.route {
                RulePlan::InsertCopy | RulePlan::DeleteCopy => RoundRule::Copy(cr.target),
                RulePlan::General(GeneralPlan::Grow(psi)) => {
                    RoundRule::Closed(cr.target, &cr.rule, close(psi, false))
                }
                RulePlan::General(GeneralPlan::Shrink(psi)) => {
                    RoundRule::Closed(cr.target, &cr.rule, close(psi, true))
                }
                RulePlan::General(_) => unreachable!("eligibility admits copy/grow/shrink only"),
            })
            .collect();

        let delta_rel =
            Relation::from_tuples_with_universe(arity, n, delta.iter().copied());
        let mut ext = self.state.extended(BULK_DELTA_REL, delta_rel);
        // Closed round formulas go through the same plan pipeline as
        // single-tuple rules: compiled once against the extended
        // layout, re-executed every round (the kernels read live
        // relation contents at execution time). Unlike per-request
        // rules there is no density check: the interpreter has no
        // delta-pipeline shortcut for the closure — it must join Δ
        // against the residual's relation atoms outright, so a
        // compiled plan within the budget always wins, even over
        // near-empty reads.
        let compiled: Vec<Option<BitPlan>> = round_rules
            .iter()
            .map(|rr| match rr {
                RoundRule::Closed(_, _, f) if self.use_plans => BitPlan::compile(f, &ext),
                _ => None,
            })
            .collect();
        let mut work = EvalStats::default();
        let mut round_changes: Vec<(RelId, Vec<Tuple>)> = Vec::new();
        loop {
            // Evaluate every rule against the pre-round state, then
            // install together (simultaneous semantics per round).
            round_changes.clear();
            for (rr, bp) in round_rules.iter().zip(&compiled) {
                match rr {
                    RoundRule::Copy(id) => round_changes.push((*id, delta.to_vec())),
                    RoundRule::Closed(id, rule, f) => {
                        let mut local = SubformulaCache::new();
                        let mut ev = Evaluator::with_cache(&ext, &[], &mut local);
                        let table = match bp {
                            Some(bp) => {
                                let mut arena = bp.arena.lock().unwrap();
                                match bp
                                    .plan
                                    .execute(&mut ev, &mut arena, None)
                                    .map_err(MachineError::Eval)?
                                {
                                    Some(t) => t,
                                    // Runtime bail (backend mismatch):
                                    // interpret this round instead.
                                    None => ev.eval(f).map_err(MachineError::Eval)?,
                                }
                            }
                            _ => ev.eval(f).map_err(MachineError::Eval)?,
                        };
                        work.absorb(&ev.stats());
                        if is_ins {
                            self.stats.installs.grow_evals += 1;
                        } else {
                            self.stats.installs.shrink_evals += 1;
                        }
                        round_changes.push((*id, align_to_rule(table, rule, n)));
                    }
                }
            }
            let mut changed = false;
            for (id, rows) in &round_changes {
                let target = ext.relation_mut(*id);
                for t in rows {
                    let did = if is_ins {
                        target.insert(*t)
                    } else {
                        target.remove(t)
                    };
                    changed |= did;
                }
            }
            if !changed {
                break;
            }
        }

        // Diff the converged targets against the real state and install
        // each as one delta.
        let mut changed_syms: BTreeSet<Sym> = BTreeSet::new();
        for cr in rules {
            let (id, target) = (cr.target, cr.rule.target);
            let new_rel = ext.relation(id);
            let old_rel = self.state.relation(id);
            let mut added: Vec<Tuple> = Vec::new();
            let mut removed: Vec<Tuple> = Vec::new();
            if is_ins {
                added = new_rel.iter().filter(|t| !old_rel.contains(t)).collect();
                added.sort_unstable();
            } else {
                removed = old_rel.iter().filter(|t| !new_rel.contains(t)).collect();
                removed.sort_unstable();
            }
            if added.is_empty() && removed.is_empty() {
                self.stats.installs.unchanged += 1;
                continue;
            }
            self.stats.installs.delta += 1;
            self.stats.installs.tuples_added += added.len();
            self.stats.installs.tuples_removed += removed.len();
            self.state.apply_delta(id, &added, &removed);
            changed_syms.insert(target);
        }
        if !changed_syms.is_empty() {
            self.cache.invalidate_reads(&changed_syms);
        }
        // One-shot counts as one request, however many tuples Δ holds —
        // the whole point of the bulk path. (The fallback below counts
        // per expanded tuple, matching the stream it replays.)
        self.stats.requests += 1;
        self.obs.requests.inc();
        self.stats.update_work.absorb(&work);
        Ok(work)
    }

    /// Replay Δ through the ordinary per-request pipeline: state *and*
    /// per-request statistics match the equivalent single-tuple stream
    /// by construction, because each expanded request runs exactly the
    /// apply path a streamed request would.
    fn apply_bulk_fallback(
        &mut self,
        rel: Sym,
        delta: &[Tuple],
        is_ins: bool,
    ) -> Result<EvalStats, MachineError> {
        let mut work = EvalStats::default();
        for t in delta {
            let args: Vec<Elem> = t.iter().collect();
            let single = if is_ins {
                Request::Ins(rel, args)
            } else {
                Request::Del(rel, args)
            };
            work.absorb(&self.apply_validated(&single)?);
        }
        Ok(work)
    }

    /// The single-tuple request stream a bulk change is equivalent to
    /// against this machine's *current* state: one `ins`/`del` per live
    /// Δ tuple, in sorted tuple order. Non-bulk requests come back as
    /// themselves. The differential suites replay this expansion on a
    /// sibling machine to prove the bulk paths byte-identical.
    pub fn expand_bulk(&self, req: &Request) -> Result<Vec<Request>, MachineError> {
        req.validate(self.program.input_vocab(), self.n())?;
        let (rel, delta, is_ins) = match req {
            Request::BulkIns { rel, delta } => (*rel, delta, true),
            Request::BulkDel { rel, delta } => (*rel, delta, false),
            other => return Ok(vec![other.clone()]),
        };
        let tuples = self.bulk_delta(rel, delta, is_ins)?;
        Ok(tuples
            .into_iter()
            .map(|t| {
                let args: Vec<Elem> = t.iter().collect();
                if is_ins {
                    Request::Ins(rel, args)
                } else {
                    Request::Del(rel, args)
                }
            })
            .collect())
    }

    /// A request's admission weight: the live Δ-popcount for a bulk
    /// change (how many tuples it would toggle right now), 1 otherwise.
    /// The serving tier counts this against its inflight-write cap so
    /// one bulk frame cannot slip O(n²) tuples of work past
    /// backpressure.
    pub fn bulk_delta_count(&self, req: &Request) -> Result<usize, MachineError> {
        req.validate(self.program.input_vocab(), self.n())?;
        match req {
            Request::BulkIns { rel, delta } => Ok(self.bulk_delta(*rel, delta, true)?.len()),
            Request::BulkDel { rel, delta } => Ok(self.bulk_delta(*rel, delta, false)?.len()),
            _ => Ok(1),
        }
    }

    /// Answer the program's boolean query.
    pub fn query(&mut self) -> Result<bool, MachineError> {
        let _span = dynfo_obs::span("machine.query");
        // The query runs outside the rule scheduler, so big combine
        // passes may slice across the pool.
        let pool = (self.parallelism > 1).then(|| EvalPool::global(self.parallelism));
        let mut ev = Evaluator::with_cache(&self.state, &[], &mut self.cache);
        let plan = self.query_plan.as_ref();
        let ans = match run_plan(&self.state, plan, self.use_plans, pool.as_deref(), &mut ev)? {
            Some(t) => t.as_bool(),
            None => ev.eval(self.program.query())?.as_bool(),
        };
        self.stats.queries += 1;
        self.stats.query_work.absorb(&ev.stats());
        Ok(ans)
    }

    /// Answer a named query with arguments bound to `?0, ?1, …`.
    ///
    /// An unknown query name is [`MachineError::UnknownQuery`], not a
    /// panic, so a serving layer can reject it per-request.
    pub fn query_named(&mut self, name: &str, args: &[Elem]) -> Result<bool, MachineError> {
        let f = self
            .program
            .named_query(name)
            .ok_or_else(|| MachineError::UnknownQuery(Sym::new(name)))?
            .clone();
        let sym = Sym::new(name);
        if self.use_plans && !self.named_plans.contains_key(&sym) {
            // Plans are parameter-generic (`?i` resolves at execution),
            // so one compilation serves every argument vector.
            let bp = BitPlan::compile(&f, &self.state);
            self.named_plans.insert(sym, bp);
        }
        let pool = (self.parallelism > 1).then(|| EvalPool::global(self.parallelism));
        let mut ev = Evaluator::with_cache(&self.state, args, &mut self.cache);
        let plan = self.named_plans.get(&sym).and_then(|o| o.as_ref());
        let ans = match run_plan(&self.state, plan, self.use_plans, pool.as_deref(), &mut ev)? {
            Some(t) => t.as_bool(),
            None => ev.eval(&f)?.as_bool(),
        };
        self.stats.queries += 1;
        self.stats.query_work.absorb(&ev.stats());
        Ok(ans)
    }

    /// Evaluate an arbitrary formula over the current auxiliary
    /// structure (diagnostics, tests).
    pub fn evaluate(&self, f: &dynfo_logic::Formula, params: &[Elem]) -> Result<dynfo_logic::Table, EvalError> {
        dynfo_logic::evaluate(f, &self.state, params)
    }

    /// Convenience: does auxiliary relation `name` contain `t`?
    pub fn holds(&self, name: &str, t: impl Into<Tuple>) -> bool {
        self.state.holds(name, t)
    }
}

/// The compiled rules for `kind` (none for a kind the program has no
/// rules for). A free function over the table map, not a method, so
/// callers keep mutating the machine's other fields while they hold
/// the slice.
fn rules_for(tables: &BTreeMap<RequestKind, KindTable>, kind: RequestKind) -> &[CompiledRule] {
    tables.get(&kind).map_or(&[], |t| &t.rules)
}

/// Compile every rule of `program` for execution against `st`'s
/// layout: resolve its target slot, classify its shape, and lower what
/// the interpreter would evaluate — a Grow rule's ψ, otherwise the
/// stored formula — to a bit-parallel plan where the lowering succeeds.
/// Guarded rules get no plan: guard refinement already beats
/// whole-formula evaluation, and its surviving disjuncts vary per
/// request, so there is no single formula to compile.
fn compile_tables(program: &DynFoProgram, st: &Structure) -> BTreeMap<RequestKind, KindTable> {
    let mut tables: BTreeMap<RequestKind, KindTable> = BTreeMap::new();
    // A bulk change may target an input relation the program has no
    // rules for (the one-shot splice is then a no-op counted as one
    // request), so every such kind gets its verdict too.
    for (_, rel) in program.input_vocab().relations() {
        for op in [Op::Ins, Op::Del] {
            tables.entry(RequestKind { op, sym: rel.name }).or_default();
        }
    }
    for (&kind, rule) in program.rules() {
        let route = classify_rule(rule);
        let compiled = match &route {
            RulePlan::General(GeneralPlan::Grow(psi)) => Some(psi),
            RulePlan::General(GeneralPlan::Shrink(_) | GeneralPlan::Full) => Some(&rule.formula),
            RulePlan::General(GeneralPlan::Guarded(_))
            | RulePlan::InsertCopy
            | RulePlan::DeleteCopy => None,
        };
        tables.entry(kind).or_default().rules.push(CompiledRule {
            target: st
                .vocab()
                .relation(rule.target)
                .expect("rule target exists in aux vocab"),
            bits: compiled.and_then(|f| BitPlan::compile(f, st)),
            rule: rule.clone(),
            route,
        });
    }
    // The fixpoint extends the state with a scratch Δ relation; a
    // program using the reserved name itself takes the fallback.
    let may_close = program.claims_memoryless()
        && st.vocab().relation(Sym::new(BULK_DELTA_REL)).is_none();
    for (kind, table) in &mut tables {
        table.bulk_one_shot = may_close && bulk_one_shot_eligible(&table.rules, kind.op == Op::Ins);
    }
    tables
}

/// Can these rules — all the rules of one `ins` (`is_ins`) or `del`
/// kind — run the one-shot bulk fixpoint? On top of the program-wide
/// precondition checked by the caller (the program claims
/// memorylessness (§3): the auxiliary structure is a function of the
/// input alone, so any interleaving of Δ's requests — including the
/// simultaneous closure the fixpoint computes — converges to the
/// stream's final state), two conditions, each load-bearing for stream
/// equivalence:
///
/// 1. Every rule is an insert copy or `Grow` (bulk insert), or a delete
///    copy or `Shrink` (bulk delete): the per-request change is a union
///    with (intersection against) a definable set.
/// 2. Every residual ψ mentions the kind's rule targets only at even
///    negation depth, so the per-round operator is monotone and its
///    least (greatest) fixpoint from the pre-state is well-defined.
///    ψ(x;ā) = R(x) with target R shows monotonicity cannot be dropped
///    silently — hence the syntactic check, with the differential
///    suites as the empirical backstop.
fn bulk_one_shot_eligible(rules: &[CompiledRule], is_ins: bool) -> bool {
    let targets: BTreeSet<Sym> = rules.iter().map(|cr| cr.rule.target).collect();
    rules.iter().all(|cr| {
        let monotone = match &cr.route {
            RulePlan::InsertCopy => is_ins,
            RulePlan::DeleteCopy => !is_ins,
            RulePlan::General(GeneralPlan::Grow(psi)) => is_ins && positive_in(psi, &targets),
            RulePlan::General(GeneralPlan::Shrink(psi)) => !is_ins && positive_in(psi, &targets),
            RulePlan::General(_) => false,
        };
        // The fixpoint rewrites params to fresh `__`-prefixed
        // variables; a rule using the reserved prefix itself takes the
        // fallback.
        monotone && !format!("{}", cr.rule.formula).contains("__")
    })
}

/// Decide how an update rule executes: detect the two canonical
/// input-copy shapes (what [`crate::program::input_copy_rules`] produces,
/// after simplification and canonicalization) and compile them to O(1)
/// tuple mutations; detect grow-/shrink-only shapes for the delta
/// planner; everything else evaluates in full.
///
/// * insert: `R(x₀,…,x_{k−1}) ∨ ⋀ᵢ xᵢ = ?ᵢ`
/// * delete: `R(x₀,…,x_{k−1}) ∧ (⋁ᵢ xᵢ ≠ ?ᵢ … negation pushed inward)`
/// * grow:   `T(x̄) ∨ ψ` — target can only gain tuples (see [`GeneralPlan`])
/// * shrink: `T(x̄) ∧ ψ` — target can only lose tuples
fn classify_rule(rule: &UpdateRule) -> RulePlan {
    // Every special shape computes a set operation on the rule's own
    // target; the atom must read exactly the target with the declared
    // variables in declared order, each distinct.
    let k = rule.vars.len();
    let distinct: BTreeSet<Sym> = rule.vars.iter().copied().collect();
    if k == 0 || distinct.len() != k {
        return RulePlan::General(GeneralPlan::Full);
    }
    let is_target_atom = |f: &Formula| -> bool {
        matches!(f, Formula::Rel { name, args }
            if *name == rule.target
                && args.len() == k
                && args.iter().zip(&rule.vars).all(|(a, v)| *a == Term::Var(*v)))
    };
    match &rule.formula {
        Formula::Or(parts) => {
            let Some(self_at) = parts.iter().position(is_target_atom) else {
                return RulePlan::General(classify_guarded(parts, &is_target_atom));
            };
            if parts.len() == 2 && eq_conjunction_matches(&parts[1 - self_at], &rule.vars, false) {
                return RulePlan::InsertCopy;
            }
            // `T(x̄) ∨ ψ`: evaluate only ψ; the old target survives.
            RulePlan::General(GeneralPlan::Grow(without(parts, self_at, Formula::Or)))
        }
        Formula::And(parts) => {
            let Some(self_at) = parts.iter().position(is_target_atom) else {
                return RulePlan::General(GeneralPlan::Full);
            };
            if parts.len() == 2 && eq_conjunction_matches(&parts[1 - self_at], &rule.vars, true) {
                return RulePlan::DeleteCopy;
            }
            // `T(x̄) ∧ ψ`: the result is a subset of the old target.
            RulePlan::General(GeneralPlan::Shrink(without(parts, self_at, Formula::And)))
        }
        _ => RulePlan::General(GeneralPlan::Full),
    }
}

/// Scratch relation name the bulk fixpoint extends the state with —
/// reserved, so programs using a `__`-prefixed symbol take the
/// per-tuple fallback instead.
const BULK_DELTA_REL: &str = "__DELTA";

/// `parts` minus the one at `skip`, rejoined by `join` — the residual ψ
/// of `T(x̄) ∨ ψ` / `T(x̄) ∧ ψ`. The program builder's simplifier
/// collapses singleton connectives, so the rest is never empty.
fn without(parts: &[Formula], skip: usize, join: fn(Vec<Formula>) -> Formula) -> Formula {
    let mut rest: Vec<Formula> = parts.to_vec();
    rest.remove(skip);
    if rest.len() == 1 {
        rest.remove(0)
    } else {
        join(rest)
    }
}

impl InstallStats {
    /// Count which evaluation mode a general rule took.
    fn note_eval(&mut self, plan: &GeneralPlan) {
        match plan {
            GeneralPlan::Grow(_) => self.grow_evals += 1,
            GeneralPlan::Shrink(_) => self.shrink_evals += 1,
            GeneralPlan::Guarded(_) => self.guarded_evals += 1,
            GeneralPlan::Full => self.full_evals += 1,
        }
    }
}

/// Try to compile a self-atom-free disjunction into a [`GuardedPlan`]:
/// split each disjunct into closed guards (no free variables) and a
/// body, and classify the body against the rule's target. Worth doing
/// only when at least one disjunct actually has a guard *and* at least
/// one body reads the target back (identity or restriction) — otherwise
/// runtime refinement can never beat plain full evaluation.
fn classify_guarded(parts: &[Formula], is_target_atom: &dyn Fn(&Formula) -> bool) -> GeneralPlan {
    use dynfo_logic::analysis::free_vars;
    let mut disjuncts = Vec::with_capacity(parts.len());
    let mut any_guard = false;
    let mut any_self = false;
    for part in parts {
        let conjuncts: Vec<&Formula> = match part {
            Formula::And(fs) => fs.iter().collect(),
            single => vec![single],
        };
        let (guards, rest): (Vec<&Formula>, Vec<&Formula>) = conjuncts
            .into_iter()
            .partition(|f| free_vars(f).is_empty());
        any_guard |= !guards.is_empty();
        let body = if rest.len() == 1 && is_target_atom(rest[0]) {
            any_self = true;
            DisjunctBody::SelfIdentity
        } else if rest.iter().any(|f| is_target_atom(f)) {
            // The self-atom is a positive conjunct, so the body denotes
            // a subset of the old target.
            any_self = true;
            DisjunctBody::SelfRestrict(Formula::And(rest.into_iter().cloned().collect()))
        } else {
            DisjunctBody::Other(match rest.len() {
                0 => Formula::True, // pure guard: contributes all tuples
                1 => rest[0].clone(),
                _ => Formula::And(rest.into_iter().cloned().collect()),
            })
        };
        disjuncts.push(GuardedDisjunct {
            guards: guards.into_iter().cloned().collect(),
            body,
        });
    }
    if any_guard && any_self {
        GeneralPlan::Guarded(GuardedPlan { disjuncts })
    } else {
        GeneralPlan::Full
    }
}

/// Execute a rule's or query's compiled plan over the dense backends,
/// provided plans are enabled and the live budget says the fixed
/// kernel work beats the interpreter at the current occupancy
/// ([`BitPlan::profitable`]). `Ok(None)` means the caller interprets
/// instead — plans disabled, compilation or the budget declined, or
/// the plan bailed at runtime (a relation's backend or universe no
/// longer matches the compiled layout) — with `plan_fallback` counted
/// whenever plans were enabled. Real evaluation errors surface exactly
/// like the interpreter's.
fn run_plan(
    st: &Structure,
    plan: Option<&BitPlan>,
    use_plans: bool,
    pool: Option<&EvalPool>,
    ev: &mut Evaluator<'_>,
) -> Result<Option<dynfo_logic::Table>, EvalError> {
    if !use_plans {
        return Ok(None);
    }
    if let Some(bp) = plan.filter(|bp| bp.profitable(st)) {
        let mut arena = bp.arena.lock().unwrap();
        if let Some(t) = bp.plan.execute(ev, &mut arena, pool)? {
            return Ok(Some(t));
        }
    }
    ev.stats_mut().plan_fallback += 1;
    if dynfo_obs::ENABLED {
        dynfo_logic::obs::eval_obs().plan_fallback.inc();
    }
    Ok(None)
}

/// Evaluate one general rule against the pre-state and plan its
/// install. Shared verbatim between the serial loop and the parallel
/// scheduler (which passes an overlay-cache evaluator).
fn eval_general(
    st: &Structure,
    cr: &CompiledRule,
    plan: &GeneralPlan,
    use_plans: bool,
    obs: &MachineObs,
    ev: &mut Evaluator<'_>,
) -> Result<InstallPlan, EvalError> {
    // A Grow rule evaluates only its ψ; Shrink and Full evaluate the
    // stored formula.
    let (formula, delta_mode) = match plan {
        GeneralPlan::Guarded(gp) => return eval_guarded(st, cr, gp, obs, ev),
        GeneralPlan::Grow(psi) => (psi, DeltaMode::Grow),
        GeneralPlan::Shrink(_) => (&cr.rule.formula, DeltaMode::Shrink),
        GeneralPlan::Full => (&cr.rule.formula, DeltaMode::Full),
    };
    // Compiled path first. No pool: rule plans may already be running
    // on pool workers, and pools must not nest.
    let table = match run_plan(st, cr.bits.as_ref(), use_plans, None, ev)? {
        Some(table) => table,
        None => ev.eval(formula)?,
    };
    let rows = align_to_rule(table, &cr.rule, st.size());
    Ok(install_plan(delta_mode, st.relation(cr.target), &rows))
}

/// Project an evaluated table to the rule's declared variables and
/// return its rows sorted and duplicate-free — the merge diff's
/// precondition, re-asserted cheaply (near-linear on sorted input) so
/// it never depends on table internals.
fn align_to_rule(table: dynfo_logic::Table, rule: &UpdateRule, n: Elem) -> Vec<Tuple> {
    let aligned = if rule.vars.is_empty() {
        table
    } else {
        // Simplification may erase a declared variable from the stored
        // formula (e.g. a tautological `x = x` conjunct); such a
        // variable is unconstrained — extend it over the whole universe
        // before projecting to column order.
        let mut t = table;
        for &v in &rule.vars {
            if t.col(v).is_none() {
                t = t.extend(v, n);
            }
        }
        t.project(&rule.vars)
    };
    let mut rows = aligned.into_rows();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Execute a [`GuardedPlan`]: evaluate each disjunct's closed guards
/// against the pre-state (params bound, results cached like any other
/// subformula), drop the disjuncts whose guard fails, and pick the
/// cheapest sound install strategy for the survivors.
fn eval_guarded(
    st: &Structure,
    cr: &CompiledRule,
    gp: &GuardedPlan,
    obs: &MachineObs,
    ev: &mut Evaluator<'_>,
) -> Result<InstallPlan, EvalError> {
    let n = st.size();
    let (rule, id) = (&cr.rule, cr.target);
    let mut live: Vec<&DisjunctBody> = Vec::with_capacity(gp.disjuncts.len());
    'disjuncts: for d in &gp.disjuncts {
        for g in &d.guards {
            if !ev.eval(g)?.as_bool() {
                continue 'disjuncts;
            }
        }
        live.push(&d.body);
    }
    let any_identity = live
        .iter()
        .any(|b| matches!(b, DisjunctBody::SelfIdentity));
    let (formulas, delta_mode): (Vec<&Formula>, DeltaMode) = if any_identity {
        // A live identity disjunct keeps every old tuple, so the target
        // can only grow; restriction bodies (subsets of the old target)
        // are subsumed and skipped entirely.
        let others: Vec<&Formula> = live
            .iter()
            .filter_map(|b| match b {
                DisjunctBody::Other(f) => Some(f),
                _ => None,
            })
            .collect();
        if others.is_empty() {
            // Every surviving disjunct re-reads the target: T′ = T,
            // decided without scanning a single tuple.
            obs.guard[GUARD_NOOP].inc();
            return Ok(InstallPlan::default());
        }
        obs.guard[GUARD_GROW].inc();
        (others, DeltaMode::Grow)
    } else {
        let all_restrict = live
            .iter()
            .all(|b| matches!(b, DisjunctBody::SelfRestrict(_)));
        let fs: Vec<&Formula> = live
            .iter()
            .map(|b| match b {
                DisjunctBody::SelfRestrict(f) | DisjunctBody::Other(f) => f,
                DisjunctBody::SelfIdentity => unreachable!("identity handled above"),
            })
            .collect();
        if fs.is_empty() {
            // Every guard failed: T′ = ∅.
            obs.guard[GUARD_FULL].inc();
            return Ok(install_plan(DeltaMode::Full, st.relation(id), &[]));
        }
        obs.guard[if all_restrict { GUARD_SHRINK } else { GUARD_FULL }].inc();
        (fs, if all_restrict { DeltaMode::Shrink } else { DeltaMode::Full })
    };
    let mut rows: Vec<Tuple> = Vec::new();
    for f in formulas {
        rows.extend(align_to_rule(ev.eval(f)?, rule, n));
    }
    rows.sort_unstable();
    rows.dedup();
    Ok(install_plan(delta_mode, st.relation(id), &rows))
}

/// Does `f` say `⋀ᵢ xᵢ = ?ᵢ` over exactly `vars` (or, for
/// `negated = true`, its canonical negation `⋁ᵢ ¬(xᵢ = ?ᵢ)`)?
fn eq_conjunction_matches(f: &Formula, vars: &[Sym], negated: bool) -> bool {
    // Accept `x = ?i` with the variable on either side.
    let eq_index = |g: &Formula| -> Option<(Sym, usize)> {
        if let Formula::Eq(a, b) = g {
            match (a, b) {
                (Term::Var(v), Term::Param(i)) | (Term::Param(i), Term::Var(v)) => {
                    Some((*v, *i))
                }
                _ => None,
            }
        } else {
            None
        }
    };
    let leaf = |g: &Formula| -> Option<(Sym, usize)> {
        if negated {
            if let Formula::Not(inner) = g {
                eq_index(inner)
            } else {
                None
            }
        } else {
            eq_index(g)
        }
    };
    let parts: Vec<&Formula> = match f {
        Formula::And(fs) if !negated => fs.iter().collect(),
        Formula::Or(fs) if negated => fs.iter().collect(),
        single => vec![single],
    };
    if parts.len() != vars.len() {
        return false;
    }
    let mut seen = vec![false; vars.len()];
    for g in parts {
        match leaf(g) {
            Some((v, i)) if i < vars.len() && vars[i] == v && !seen[i] => seen[i] = true,
            _ => return false,
        }
    }
    seen.iter().all(|&s| s)
}

/// Run the machine and an input-structure replay side by side over a
/// request stream, calling `check` after every step with
/// `(step, machine, current input structure)`. The workhorse of the
/// differential tests.
///
/// An invalid request or failed update surfaces as `Err` with the
/// offending step index, never as a panic.
pub fn run_with_oracle(
    program: DynFoProgram,
    n: Elem,
    reqs: &[Request],
    mut check: impl FnMut(usize, &mut DynFoMachine, &Structure),
) -> Result<DynFoMachine, (usize, MachineError)> {
    let mut machine = DynFoMachine::new(program, n);
    let mut input = Structure::empty(
        std::sync::Arc::clone(machine.program().input_vocab()),
        n,
    );
    check(0, &mut machine, &input);
    for (i, r) in reqs.iter().enumerate() {
        machine.apply(r).map_err(|e| (i, e))?;
        apply_to_input(&mut input, r);
        check(i + 1, &mut machine, &input);
    }
    Ok(machine)
}

/// Empirically check memorylessness (§3): apply two request sequences
/// with the same `eval` result and compare the auxiliary structures.
/// Returns true iff the final states are identical.
pub fn check_memoryless(
    program: &DynFoProgram,
    n: Elem,
    seq_a: &[Request],
    seq_b: &[Request],
) -> Result<bool, MachineError> {
    let mut a = DynFoMachine::new(program.clone(), n);
    a.apply_all(seq_a)?;
    let mut b = DynFoMachine::new(program.clone(), n);
    b.apply_all(seq_b)?;
    Ok(a.state() == b.state())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::input_copy_rules;
    use crate::request::RequestKind;
    use dynfo_logic::formula::{exists, rel, v, Formula};

    /// The toy "is the set nonempty" program.
    fn toy() -> DynFoProgram {
        let (_, ins_m, del_m) = input_copy_rules("M", 1);
        DynFoProgram::builder("nonempty")
            .input_relation("M", 1)
            .on(RequestKind::ins("M"), "M", &["x0"], ins_m)
            .on(RequestKind::del("M"), "M", &["x0"], del_m)
            .query(exists(["x"], rel("M", [v("x")])))
            .memoryless()
            .build()
    }

    #[test]
    fn machine_tracks_input_copy() {
        let mut m = DynFoMachine::new(toy(), 8);
        assert!(!m.query().unwrap());
        m.apply(&Request::ins("M", [3])).unwrap();
        assert!(m.holds("M", [3u32]));
        assert!(m.query().unwrap());
        m.apply(&Request::del("M", [3])).unwrap();
        assert!(!m.query().unwrap());
        assert_eq!(m.stats().requests, 2);
        assert_eq!(m.stats().queries, 3);
    }

    #[test]
    fn simultaneous_semantics_uses_pre_state() {
        // A rule pair that *swaps* two relations must read the pre-state:
        // A' = B, B' = A on every insert into M.
        let p = DynFoProgram::builder("swap")
            .input_relation("M", 1)
            .aux_relation("A", 1)
            .aux_relation("B", 1)
            .on(RequestKind::ins("M"), "A", &["x"], rel("B", [v("x")]))
            .on(
                RequestKind::ins("M"),
                "B",
                &["x"],
                rel("A", [v("x")]) | Formula::Eq(v("x"), dynfo_logic::formula::param(0)),
            )
            .query(Formula::True)
            .build();
        let mut m = DynFoMachine::new(p, 4);
        m.apply(&Request::ins("M", [1])).unwrap();
        // After step 1: A = old B = ∅; B = old A ∪ {1} = {1}.
        assert!(!m.holds("A", [1u32]));
        assert!(m.holds("B", [1u32]));
        m.apply(&Request::ins("M", [2])).unwrap();
        // After step 2: A = {1}; B = {2}.
        assert!(m.holds("A", [1u32]));
        assert!(!m.holds("A", [2u32]));
        assert!(m.holds("B", [2u32]));
        assert!(!m.holds("B", [1u32]));
    }

    #[test]
    fn memoryless_check_on_toy() {
        let p = toy();
        let a = [Request::ins("M", [1]), Request::ins("M", [2])];
        let b = [
            Request::ins("M", [2]),
            Request::ins("M", [3]),
            Request::del("M", [3]),
            Request::ins("M", [1]),
        ];
        assert!(check_memoryless(&p, 8, &a, &b).unwrap());
        let c = [Request::ins("M", [1])];
        assert!(!check_memoryless(&p, 8, &a, &c).unwrap());
    }

    #[test]
    fn run_with_oracle_sees_every_step() {
        let reqs = [
            Request::ins("M", [1]),
            Request::ins("M", [2]),
            Request::del("M", [1]),
        ];
        let mut steps = 0;
        run_with_oracle(toy(), 8, &reqs, |i, m, input| {
            steps += 1;
            // The machine's input copy always matches the replay.
            assert_eq!(m.state().rel("M"), input.rel("M"), "step {i}");
        }).unwrap();
        assert_eq!(steps, 4);
    }

    #[test]
    fn set_requests_update_constant_copy() {
        let p = DynFoProgram::builder("consts")
            .input_relation("M", 1)
            .input_constant("c")
            .query(rel("M", [dynfo_logic::formula::cst("c")]))
            .build();
        let mut m = DynFoMachine::new(p, 8);
        m.apply(&Request::set("c", 5)).unwrap();
        assert_eq!(m.state().const_val("c"), 5);
        // Query reads through the constant; M has no maintenance rules in
        // this toy, so insert M(5) directly into the state for the check.
        assert!(!m.query().unwrap());
    }

    #[test]
    fn named_queries_take_params() {
        let (_, ins_m, _) = input_copy_rules("M", 1);
        let p = DynFoProgram::builder("member")
            .input_relation("M", 1)
            .on(RequestKind::ins("M"), "M", &["x0"], ins_m)
            .query(Formula::True)
            .named_query("member", rel("M", [dynfo_logic::formula::param(0)]))
            .build();
        let mut m = DynFoMachine::new(p, 8);
        m.apply(&Request::ins("M", [6])).unwrap();
        assert!(m.query_named("member", &[6]).unwrap());
        assert!(!m.query_named("member", &[5]).unwrap());
    }

    /// Insert-only transitive closure: T grows by path composition
    /// through the inserted edge — memoryless over insert-only
    /// streams, the one-shot bulk fixpoint's home turf.
    fn closure() -> DynFoProgram {
        use dynfo_logic::formula::param;
        let (_, ins_e, _) = input_copy_rules("E", 2);
        let eq = |a, b| Formula::Eq(a, b);
        let step = rel("T", [v("x"), v("y")])
            | (eq(v("x"), param(0)) & eq(v("y"), param(1)))
            | (rel("T", [v("x"), param(0)]) & eq(v("y"), param(1)))
            | (eq(v("x"), param(0)) & rel("T", [param(1), v("y")]))
            | (rel("T", [v("x"), param(0)]) & rel("T", [param(1), v("y")]));
        DynFoProgram::builder("closure")
            .input_relation("E", 2)
            .aux_relation("T", 2)
            .on(RequestKind::ins("E"), "E", &["x0", "x1"], ins_e)
            .on(RequestKind::ins("E"), "T", &["x", "y"], step)
            .query(exists(["x", "y"], rel("T", [v("x"), v("y")])))
            .memoryless()
            .build()
    }

    #[test]
    fn bulk_one_shot_matches_expanded_stream() {
        // δ = the successor chain 0→1→…→7: forces the fixpoint through
        // multiple rounds (path composition doubles reach per round),
        // the case where a single Δ-substitution would be wrong.
        use dynfo_logic::formula::{forall, lt, not};
        let succ = lt(v("x0"), v("x1"))
            & forall(
                ["z"],
                not(lt(v("x0"), v("z")) & lt(v("z"), v("x1"))),
            );
        let req = Request::bulk_ins("E", succ);
        let n = 8;
        // Pin the one-shot pipeline: at n = 8 a 7-tuple Δ is exactly
        // the small-Δ case `BulkRoute::Auto` routes to the fallback.
        let mut bulk = DynFoMachine::new(closure(), n).with_bulk_route(BulkRoute::OneShot);
        let mut stream = DynFoMachine::new(closure(), n);
        let expanded = bulk.expand_bulk(&req).unwrap();
        assert_eq!(expanded.len(), 7, "seven chain edges");
        for s in &expanded {
            stream.apply(s).unwrap();
        }
        bulk.apply(&req).unwrap();
        assert_eq!(bulk.state(), stream.state());
        assert!(bulk.holds("T", [0u32, 7]), "closure spans the chain");
        assert_eq!(bulk.stats().requests, 1, "one-shot counts one request");
        // A second identical bulk insert is a live-Δ no-op.
        assert_eq!(bulk.expand_bulk(&req).unwrap().len(), 0);
        let before = bulk.state().clone();
        bulk.apply(&req).unwrap();
        assert_eq!(*bulk.state(), before);
    }

    #[test]
    fn bulk_fallback_matches_expanded_stream() {
        // The swap program does not claim memorylessness, so bulk
        // requests take the per-tuple fallback — state *and* request
        // count must match the expanded stream exactly.
        let p = || {
            DynFoProgram::builder("swap")
                .input_relation("M", 1)
                .aux_relation("A", 1)
                .aux_relation("B", 1)
                .on(RequestKind::ins("M"), "A", &["x"], rel("B", [v("x")]))
                .on(
                    RequestKind::ins("M"),
                    "B",
                    &["x"],
                    rel("A", [v("x")]) | Formula::Eq(v("x"), dynfo_logic::formula::param(0)),
                )
                .query(Formula::True)
                .build()
        };
        let delta = dynfo_logic::formula::lt(v("x0"), dynfo_logic::formula::lit(3));
        let req = Request::bulk_ins("M", delta);
        let mut bulk = DynFoMachine::new(p(), 4);
        let mut stream = DynFoMachine::new(p(), 4);
        let expanded = bulk.expand_bulk(&req).unwrap();
        assert_eq!(expanded.len(), 3);
        for s in &expanded {
            stream.apply(s).unwrap();
        }
        bulk.apply(&req).unwrap();
        assert_eq!(bulk.state(), stream.state());
        assert_eq!(bulk.stats().requests, stream.stats().requests);
        assert_eq!(bulk.stats().installs, stream.stats().installs);
    }

    #[test]
    fn bulk_one_shot_delete_shrinks() {
        // Pure copy rules are one-shot eligible in both directions.
        let mut m = DynFoMachine::new(toy(), 8);
        m.apply(&Request::bulk_ins(
            "M",
            dynfo_logic::formula::lt(v("x0"), dynfo_logic::formula::lit(6)),
        ))
        .unwrap();
        assert!(m.query().unwrap());
        // Delete every member below 6 that is even… via M itself: δ may
        // read the input relations.
        m.apply(&Request::bulk_del("M", rel("M", [v("x0")]))).unwrap();
        assert!(!m.query().unwrap(), "deleting δ = M empties M");
        assert_eq!(m.stats().requests, 2);
    }

    #[test]
    fn bulk_in_batch_is_not_coalesced() {
        let mut batch = DynFoMachine::new(toy(), 8);
        let mut seq = DynFoMachine::new(toy(), 8);
        let reqs = [
            Request::ins("M", [7]),
            Request::bulk_ins("M", dynfo_logic::formula::lt(v("x0"), dynfo_logic::formula::lit(2))),
            Request::del("M", [1]),
        ];
        batch.apply_batch(&reqs).unwrap();
        for r in &reqs {
            seq.apply(r).unwrap();
        }
        assert_eq!(batch.state(), seq.state());
        assert!(batch.holds("M", [0u32]));
        assert!(!batch.holds("M", [1u32]));
        assert!(batch.holds("M", [7u32]));
    }

    #[test]
    fn update_work_accumulates() {
        // Input-copy rules compile to O(1) fast paths with zero evaluator
        // work, so measure a rule the planner must actually evaluate.
        let p = DynFoProgram::builder("evaluated")
            .input_relation("M", 1)
            .aux_relation("Twice", 1)
            .on(
                RequestKind::ins("M"),
                "M",
                &["x0"],
                input_copy_rules("M", 1).1,
            )
            .on(
                RequestKind::ins("M"),
                "Twice",
                &["x"],
                rel("M", [v("x")]) | Formula::Eq(v("x"), dynfo_logic::formula::param(0)),
            )
            .query(Formula::True)
            .build();
        // Interpreter work is what's being measured; compiled plans
        // build no intermediate rows.
        let mut m = DynFoMachine::new(p, 16).with_use_plans(false);
        m.apply(&Request::ins("M", [1])).unwrap();
        let w1 = m.stats().update_work.rows_built;
        assert!(w1 > 0);
        m.apply(&Request::ins("M", [2])).unwrap();
        assert!(m.stats().update_work.rows_built > w1);
    }

    #[test]
    fn fast_path_matches_general_evaluation() {
        // The input-copy fast path must produce exactly the relation the
        // formula would: drive a machine through inserts, deletes,
        // re-inserts, and duplicate ops, and replay the same stream on
        // the input structure.
        let (_, ins_e, del_e) = input_copy_rules("E", 2);
        let p = DynFoProgram::builder("copy2")
            .input_relation("E", 2)
            .on(RequestKind::ins("E"), "E", &["x0", "x1"], ins_e)
            .on(RequestKind::del("E"), "E", &["x0", "x1"], del_e)
            .query(exists(["x", "y"], rel("E", [v("x"), v("y")])))
            .build();
        let reqs = [
            Request::ins("E", [0, 1]),
            Request::ins("E", [0, 1]), // duplicate insert
            Request::ins("E", [2, 3]),
            Request::del("E", [0, 1]),
            Request::del("E", [7, 7]), // delete of absent tuple
            Request::ins("E", [0, 1]), // re-insert
        ];
        run_with_oracle(p, 8, &reqs, |i, m, input| {
            assert_eq!(m.state().rel("E"), input.rel("E"), "step {i}");
        }).unwrap();
    }

    #[test]
    fn cache_survives_unrelated_updates_and_invalidates_on_reads() {
        // Two independent input relations; a query reads only A. Updating
        // B must keep the query's cached subformula warm; updating A must
        // evict it.
        let (_, ins_a, _) = input_copy_rules("A", 1);
        let (_, ins_b, _) = input_copy_rules("B", 1);
        let p = DynFoProgram::builder("two-rels")
            .input_relation("A", 1)
            .input_relation("B", 1)
            .on(RequestKind::ins("A"), "A", &["x0"], ins_a)
            .on(RequestKind::ins("B"), "B", &["x0"], ins_b)
            // Size ≥ 8 so the subformula cache keeps it.
            .query(exists(
                ["x", "y", "z"],
                rel("A", [v("x")])
                    & rel("A", [v("y")])
                    & rel("A", [v("z")])
                    & dynfo_logic::formula::le(v("x"), v("y"))
                    & dynfo_logic::formula::le(v("y"), v("z"))
                    & dynfo_logic::formula::le(v("x"), v("z")),
            ))
            .build();
        // The subformula cache is the subject here; compiled plans keep
        // their own (stable-slot) cache and would bypass it.
        let mut m = DynFoMachine::new(p, 8).with_use_plans(false);
        m.apply(&Request::ins("A", [1])).unwrap();
        assert!(m.query().unwrap());
        let cached = m.cache().len();
        assert!(cached > 0, "query result should be cached");

        // Unrelated update: cache intact, second query hits.
        let hits_before = m.cache().hits();
        m.apply(&Request::ins("B", [2])).unwrap();
        assert_eq!(m.cache().len(), cached);
        assert!(m.query().unwrap());
        assert!(m.cache().hits() > hits_before, "warm entry should hit");

        // Update to A: entry evicted, and the answer still correct.
        m.apply(&Request::ins("A", [3])).unwrap();
        assert!(m.query().unwrap());
    }

    /// A small mixed stream exercising general rules on REACH_u.
    fn reach_stream() -> Vec<Request> {
        let mut reqs = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 3)] {
            reqs.push(Request::ins("E", [a, b]));
        }
        reqs.push(Request::del("E", [1, 2]));
        reqs.push(Request::ins("E", [1, 2])); // re-insert: no-op update after
        reqs.push(Request::ins("E", [1, 2])); // exact duplicate
        reqs.push(Request::del("E", [4, 5]));
        reqs
    }

    #[test]
    fn apply_batch_matches_sequential_apply() {
        let reqs = reach_stream();
        let mut seq = DynFoMachine::new(crate::programs::reach_u::program(), 8);
        seq.apply_all(&reqs).unwrap();
        let mut batched = DynFoMachine::new(crate::programs::reach_u::program(), 8);
        batched.apply_batch(&reqs).unwrap();
        assert_eq!(seq.state(), batched.state());
        assert_eq!(seq.stats().requests, batched.stats().requests);
        assert_eq!(
            seq.query_named("connected", &[0, 3]).unwrap(),
            batched.query_named("connected", &[0, 3]).unwrap()
        );
    }

    #[test]
    fn apply_batch_rejects_invalid_frame_atomically() {
        let mut m = DynFoMachine::new(crate::programs::reach_u::program(), 8);
        m.apply(&Request::ins("E", [0, 1])).unwrap();
        let before = m.state().clone();
        let batch = vec![
            Request::ins("E", [1, 2]),
            Request::ins("E", [0, 99]), // outside the universe
            Request::ins("E", [2, 3]),
        ];
        let err = m.apply_batch(&batch).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.applied, 0, "validation failures apply nothing");
        assert!(matches!(err.error, MachineError::Request(_)));
        assert_eq!(*m.state(), before, "machine untouched by rejected batch");
        assert_eq!(m.stats().requests, 1);
    }

    #[test]
    fn fast_run_coalescing_skips_duplicates_and_matches_sequential() {
        // The toy program is all input-copy fast paths, so the whole
        // batch coalesces into one run with one invalidation pass.
        let reqs = vec![
            Request::ins("M", [1]),
            Request::ins("M", [1]), // consecutive duplicate: skipped
            Request::ins("M", [2]),
            Request::del("M", [1]),
            Request::del("M", [1]), // skipped
            Request::ins("M", [3]),
        ];
        let mut seq = DynFoMachine::new(toy(), 8);
        seq.apply_all(&reqs).unwrap();
        let mut batched = DynFoMachine::new(toy(), 8);
        batched.apply_batch(&reqs).unwrap();
        assert_eq!(seq.state(), batched.state());
        assert_eq!(batched.stats().requests, reqs.len(), "duplicates still count");
        assert!(batched.query().unwrap());
    }

    #[test]
    fn delta_installs_detect_unchanged_targets() {
        let mut m = DynFoMachine::new(crate::programs::reach_u::program(), 8);
        m.apply_all(&reach_stream()).unwrap();
        let d = m.stats().installs;
        assert_eq!(d.rebuilds, 0, "the machine never materializes a Relation");
        assert!(
            d.unchanged > 0,
            "the duplicate insert must plan a no-op install: {d:?}"
        );
        assert!(d.delta > 0);
    }

    #[test]
    fn guard_refinement_makes_nonforest_deletes_cheap() {
        // REACH_u's delete updates for F and PV guard their repair
        // disjuncts with the closed formula `F(?̄)`: deleting an edge
        // that is *not* in the spanning forest must resolve to a no-op
        // install from the guard probes alone, never materializing the
        // O(n³) path-segment repair.
        let mut m = DynFoMachine::new(crate::programs::reach_u::program(), 12);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            m.apply(&Request::ins("E", [a, b])).unwrap();
        }
        // The third edge closed a cycle, so exactly one edge is outside
        // the forest; find it rather than assuming insert order.
        let (a, b) = [(0, 1), (1, 2), (0, 2)]
            .into_iter()
            .find(|&(a, b)| !m.holds("F", [a, b]) && !m.holds("F", [b, a]))
            .expect("a triangle has a non-forest edge");
        let installs_before = m.stats().installs;
        let rows_before = m.stats().update_work.rows_built;
        m.apply(&Request::del("E", [a, b])).unwrap();
        let installs = m.stats().installs;
        assert!(
            installs.guarded_evals >= installs_before.guarded_evals + 2,
            "both F and PV delete rules refine through guards: {installs:?}"
        );
        assert!(
            installs.unchanged > installs_before.unchanged,
            "PV survives a non-forest delete as a guard-decided no-op"
        );
        let rows = m.stats().update_work.rows_built - rows_before;
        assert!(
            rows < 500,
            "non-forest delete must not evaluate the repair (rows_built = {rows})"
        );
        // Connectivity is untouched: the forest did not contain the edge.
        assert!(m.query_named("connected", &[0, 2]).unwrap());
        assert!(m.query_named("connected", &[1, 2]).unwrap());
    }

    #[test]
    fn parallel_scheduler_matches_serial_schedule() {
        // MSF has several general rules per request kind; run the same
        // stream serial and with 4 workers and compare everything
        // observable (state, cumulative stats, cache contents by len).
        let mut reqs = Vec::new();
        for (a, b, w) in [(0, 1, 3), (1, 2, 1), (2, 3, 2), (0, 3, 5), (3, 4, 1)] {
            reqs.push(Request::ins("W", [a, b, w]));
        }
        reqs.push(Request::del("W", [0, 1, 3]));
        let mut serial = DynFoMachine::new(crate::programs::msf::program(), 6);
        serial.apply_all(&reqs).unwrap();
        let mut parallel = DynFoMachine::new(crate::programs::msf::program(), 6)
            .with_parallelism(4);
        assert_eq!(parallel.parallelism(), 4);
        parallel.apply_all(&reqs).unwrap();
        assert_eq!(serial.state(), parallel.state());
        // Workers carry private caches, so parallel evaluation may redo
        // work a serial pass would have hit — it never does *less*.
        assert!(
            parallel.stats().update_work.rows_built >= serial.stats().update_work.rows_built,
            "parallel can only add duplicated misses"
        );
        assert_eq!(
            serial.cache().len(),
            parallel.cache().len(),
            "merged overlay caches hold the same entry set"
        );
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(
                    serial.query_named("connected", &[a, b]).unwrap(),
                    parallel.query_named("connected", &[a, b]).unwrap()
                );
            }
        }
    }

    #[test]
    fn set_requests_evict_only_constant_reading_entries() {
        let (_, ins_a, _) = input_copy_rules("A", 1);
        let p = DynFoProgram::builder("const-cache")
            .input_relation("A", 1)
            .input_constant("c")
            .on(RequestKind::ins("A"), "A", &["x0"], ins_a)
            // Big enough for the cache (size >= CACHE_MIN_SIZE); reads
            // constant c through four distinct numeric atoms.
            .named_query(
                "near_c",
                exists(
                    ["x", "y"],
                    rel("A", [v("x")])
                        & rel("A", [v("y")])
                        & dynfo_logic::formula::le(v("x"), dynfo_logic::formula::cst("c"))
                        & dynfo_logic::formula::le(v("y"), dynfo_logic::formula::cst("c"))
                        & dynfo_logic::formula::lt(v("x"), dynfo_logic::formula::cst("c"))
                        & dynfo_logic::formula::lt(v("y"), dynfo_logic::formula::cst("c")),
                ),
            )
            // Same size, no constant anywhere.
            .named_query(
                "pairs",
                exists(
                    ["x", "y", "z"],
                    rel("A", [v("x")])
                        & rel("A", [v("y")])
                        & rel("A", [v("z")])
                        & dynfo_logic::formula::le(v("x"), v("y"))
                        & dynfo_logic::formula::le(v("y"), v("z"))
                        & dynfo_logic::formula::eq(v("x"), v("z")),
                ),
            )
            .query(Formula::True)
            .build();
        // Constant-read eviction is interpreter-cache machinery;
        // compiled plans would answer these queries without filling it.
        let mut m = DynFoMachine::new(p, 8).with_use_plans(false);
        m.apply(&Request::ins("A", [1])).unwrap();
        m.apply(&Request::set("c", 4)).unwrap();
        assert!(m.query_named("near_c", &[]).unwrap());
        assert!(m.query_named("pairs", &[]).is_ok());
        let len_before = m.cache().len();
        assert!(len_before > 0);

        // Reassign the constant: only const-reading entries drop.
        let hits_before = m.cache().hits();
        m.apply(&Request::set("c", 5)).unwrap();
        assert!(
            !m.cache().is_empty(),
            "constant-free entries survive a set request"
        );
        assert!(m.cache().len() < len_before, "constant readers evicted");
        assert!(m.query_named("pairs", &[]).is_ok());
        assert!(m.cache().hits() > hits_before, "surviving entry hits");
        // And correctness: c moved from 4 to 5; query re-resolves.
        assert!(m.query_named("near_c", &[]).unwrap());
        m.apply(&Request::set("c", 0)).unwrap();
        assert!(!m.query_named("near_c", &[]).unwrap(), "A={{1}} is not <= 0");
    }
}
