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
use crate::rules::{
    compile_tables, rules_for, BitPlan, Body, CompiledRule, GeneralPlan, KindTable, Lowered, Part,
    Residual, Round, RulePlan, Witness, WitnessRows, BULK_DELTA_REL,
};
use dynfo_logic::analysis::canonicalize;
use dynfo_logic::eval::{probe, Evaluator};
use dynfo_logic::formula::Formula;
use dynfo_logic::{
    DeltaMode, Elem, EvalError, EvalStats, RelId, Relation, Structure, Sym, Tuple, MAX_ARITY,
};
use dynfo_obs::{Counter, Histogram, ObsHandle};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
    /// `machine.bind_join.{bound,unbound}` — residuals with a bind join,
    /// by the route the request's witness count chose: once per witness
    /// with the witness as extra parameters, or unbound on the
    /// interpreter.
    bind_join: [Arc<Counter>; 2],
    /// `machine.bind_join.witnesses` — tuples in the witness relation
    /// each of those decisions was taken from.
    bind_witnesses: Arc<Histogram>,
    /// `machine.batch_size` — requests per `apply_batch` call.
    batch_size: Arc<Histogram>,
    /// `machine.bulk_tuples` — live Δ tuples materialized by definable
    /// bulk changes (the popcount admission control weighs).
    bulk_tuples: Arc<Counter>,
    /// `machine.bulk_plan_ns` — end-to-end bulk maintenance latency:
    /// δ materialization plus the one-shot fixpoint or the expanded
    /// stream (nanoseconds).
    bulk_plan_ns: Arc<Histogram>,
    /// `machine.bulk_fallback` — bulk requests that expanded to
    /// single-tuple streams because their kind is not one-shot eligible
    /// (Guarded/Full rules, no memoryless claim to justify the
    /// fixpoint, a closure that did not compile).
    bulk_fallback: Arc<Counter>,
    /// `machine.recomputes` — full "start over" recomputes executed
    /// ([`DynFoMachine::recompute`] calls).
    recomputes: Arc<Counter>,
}

const GUARD_NOOP: usize = 0;
const GUARD_GROW: usize = 1;
const GUARD_SHRINK: usize = 2;
const GUARD_FULL: usize = 3;

const BIND_BOUND: usize = 0;
const BIND_UNBOUND: usize = 1;

impl MachineObs {
    fn new(handle: &ObsHandle) -> MachineObs {
        MachineObs {
            requests: handle.counter("machine.requests"),
            rule_ns: RULE_KIND_NAMES
                .map(|k| handle.histogram(&format!("machine.rule_update_ns.{k}"))),
            guard: ["noop", "grow", "shrink", "full"]
                .map(|o| handle.counter(&format!("machine.guard.{o}"))),
            bind_join: ["bound", "unbound"]
                .map(|r| handle.counter(&format!("machine.bind_join.{r}"))),
            bind_witnesses: handle.histogram("machine.bind_join.witnesses"),
            batch_size: handle.histogram("machine.batch_size"),
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
            GeneralPlan::Guarded => 3,
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
    /// The program's relations over the requested universe would take
    /// `bits` bits of bitmap, past the `budget`
    /// ([`DynFoProgram::check_size`]). Nothing was allocated.
    TooLarge {
        /// Bits the relations would take.
        bits: u128,
        /// The most bits one structure may take.
        budget: u128,
    },
    /// A universe of size 0 was requested; a structure has at least one
    /// element ([`DynFoProgram::check_size`]). Nothing was allocated.
    EmptyUniverse,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Request(e) => write!(f, "invalid request: {e}"),
            MachineError::Eval(e) => write!(f, "evaluation failed: {e}"),
            MachineError::UnknownQuery(s) => write!(f, "unknown named query {s}"),
            MachineError::StateMismatch(why) => write!(f, "state does not fit program: {why}"),
            MachineError::TooLarge { bits, budget } => write!(
                f,
                "the program's relations need {bits} bits, past the budget of {budget}"
            ),
            MachineError::EmptyUniverse => write!(f, "the universe must have at least one element"),
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
    /// General-rule evaluations whose install changed nothing: the
    /// target was already correct.
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

/// What guard refinement left of a general rule for one request: the
/// install mode the surviving disjuncts admit and which of them must be
/// evaluated (bit `i` = `disjuncts[i]`); `None` when they are all the
/// identity and the target stands as it is.
type Selected = Option<(DeltaMode, u64)>;

/// Reusable per-request buffers: `apply` allocates nothing for
/// bookkeeping, so a request the guards and a few small plans resolve
/// (REACH_u's within-tree insert, its non-forest delete, any `set`)
/// does not touch the allocator at all.
#[derive(Clone, Debug, Default)]
struct Scratch {
    params: Vec<Elem>,
    /// Per general rule of the kind, in rule order.
    selected: Vec<Selected>,
    /// Per witness of the kind.
    witnesses: Vec<WitnessRows>,
    /// `(index into the kind's rules, how to install)`: the rule's
    /// [`CompiledRule::out`] under its [`DeltaMode`], or nothing where
    /// the guards alone decided the target is already correct.
    installs: Vec<(usize, Option<DeltaMode>)>,
    /// `(target, is_insert)` per input-copy rule of the kind.
    fast_ops: Vec<(RelId, bool)>,
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
    /// Compiled plan for the program's boolean query.
    query_plan: Option<BitPlan>,
    /// Plans for named queries, compiled on first use.
    named_plans: BTreeMap<Sym, Option<BitPlan>>,
    /// Reused per-request buffers; empty between calls.
    scratch: Scratch,
    /// Where this machine's metrics go (see [`DynFoMachine::with_obs`]).
    obs: MachineObs,
}

impl DynFoMachine {
    /// Initialize for universe size `n` (runs the program's `f(∅)`).
    ///
    /// # Panics
    /// Panics if `n == 0`, or if the program's relations over `{0..n}`
    /// pass [`STRUCTURE_BITS_BUDGET`](dynfo_logic::structure::STRUCTURE_BITS_BUDGET)
    /// — [`DynFoProgram::check_size`] says so without panicking, for an
    /// `n` that comes from outside the process.
    pub fn new(program: DynFoProgram, n: Elem) -> DynFoMachine {
        let state = program.initial_structure(n);
        DynFoMachine::over(program, state)
    }

    /// Restore a machine from a previously captured auxiliary structure
    /// (the durability path: snapshot + journal-tail replay).
    ///
    /// The structure must interpret exactly the program's auxiliary
    /// vocabulary — same relation names and arities, same constants —
    /// and is adopted as the machine's state. Statistics start
    /// at zero (a freshly restored machine has done no work), so a
    /// restored machine is indistinguishable from the uninterrupted one
    /// in state and answers, not in counters.
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
    /// query against `state` and start with shipped defaults.
    fn over(program: DynFoProgram, state: Structure) -> DynFoMachine {
        DynFoMachine {
            tables: compile_tables(&program, &state),
            query_plan: BitPlan::compile(program.query(), &state),
            named_plans: BTreeMap::new(),
            program,
            state,
            stats: MachineStats::default(),
            scratch: Scratch::default(),
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

    /// Every currently compiled plan: rule plans, witnesses, bulk
    /// fixpoint rounds, the boolean query, and the named queries
    /// compiled so far.
    fn bit_plans(&self) -> impl Iterator<Item = &BitPlan> {
        self.tables
            .values()
            .flat_map(|t| {
                let rules = t.rules.iter().flat_map(CompiledRule::plans);
                let rounds = t.bulk_one_shot.iter().flatten().filter_map(|r| match r {
                    Round::Closed(l) => Some(&l.bits),
                    Round::Copy => None,
                });
                rules.chain(t.witnesses.iter().map(|w| &w.bits)).chain(rounds)
            })
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

    /// ∃-joins lowered as compose ops across every currently compiled
    /// plan ([`dynfo_logic::Plan::compose_joins`]).
    pub fn plan_compose_joins(&self) -> usize {
        self.bit_plans().map(|bp| bp.plan.compose_joins()).sum()
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
        self.stats.recomputes += 1;
        self.obs.recomputes.inc();
        Ok(true)
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
    /// place (O(1) instead of a full re-evaluation), and every general
    /// rule's result is installed as a delta against the pre-state.
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
        let mut scratch = std::mem::take(&mut self.scratch);
        let evaled = self.eval_rules(req.kind(), params, &mut scratch);
        let out = match evaled {
            Ok(work) => {
                self.install(req, params, &mut scratch);
                self.stats.requests += 1;
                self.obs.requests.inc();
                self.stats.update_work.absorb(&work);
                Ok(work)
            }
            Err(e) => Err(e),
        };
        scratch.selected.clear();
        scratch.installs.clear();
        scratch.fast_ops.clear();
        self.scratch = scratch;
        out
    }

    /// Evaluate every rule matching `kind` against the pre-state.
    /// Fast-path rules only *read* their own target, so their in-place
    /// mutation is deferred to the install phase together with the
    /// general results (simultaneous semantics).
    ///
    /// Three steps: probe every general rule's guards (which decides,
    /// per rule, the install mode and the bodies still to evaluate);
    /// run each witness relation some surviving body binds against,
    /// once, for all rules of the kind; then evaluate the rules one
    /// after another on the caller's thread.
    fn eval_rules(
        &mut self,
        kind: RequestKind,
        params: &[Elem],
        scratch: &mut Scratch,
    ) -> Result<EvalStats, MachineError> {
        let Some(table) = self.tables.get(&kind) else {
            return Ok(EvalStats::default());
        };
        let rules = &table.rules;
        let generals = || {
            rules.iter().enumerate().filter_map(|(i, cr)| match &cr.route {
                RulePlan::General(g) => Some((i, cr, g)),
                _ => None,
            })
        };
        for cr in rules {
            match &cr.route {
                RulePlan::InsertCopy => scratch.fast_ops.push((cr.target, true)),
                RulePlan::DeleteCopy => scratch.fast_ops.push((cr.target, false)),
                RulePlan::General(_) => {}
            }
        }
        for (_, cr, gplan) in generals() {
            scratch
                .selected
                .push(select(&self.state, cr, gplan, params, &self.obs)?);
        }

        // One evaluator for the request: the witnesses and every rule
        // share its memo (Theorem 4.1's four `New`s are one subformula).
        let mut ev = Evaluator::new(&self.state, params);
        // Each witness relation some selected body reads is computed
        // once, here, for every rule of the kind — before the rules,
        // which only read it.
        scratch.witnesses.resize_with(table.witnesses.len(), WitnessRows::default);
        let selected = || {
            generals()
                .zip(&scratch.selected)
                .flat_map(|((_, cr, _), sel)| selected_residuals(cr, sel))
        };
        for (w, witness) in table.witnesses.iter().enumerate() {
            let read = selected().any(|r| r.witnesses().any(|x| x == w));
            run_witness(witness, read, &mut scratch.witnesses[w], &mut ev)?;
        }
        // Its tuples are decoded only if a bind join is going to walk
        // them — a decision that takes every witness's count.
        for (w, witness) in table.witnesses.iter().enumerate() {
            let walked = selected().any(|r| {
                r.route(&scratch.witnesses).is_some_and(|parts| {
                    parts
                        .iter()
                        .any(|p| matches!(p, Part::Bound { witness, .. } if *witness == w))
                })
            });
            if walked {
                let arena = witness.bits.arena.lock().expect("witness arena lock");
                witness.bits.plan.root_rows(&arena, &mut scratch.witnesses[w].rows);
            }
        }
        let ctx = RuleCtx {
            st: &self.state,
            params,
            obs: &self.obs,
            kind_witnesses: &table.witnesses,
            witnesses: &scratch.witnesses,
        };

        for ((i, cr, gplan), sel) in generals().zip(&scratch.selected) {
            let started = dynfo_obs::clock();
            let res = eval_general(&ctx, cr, sel, &mut ev);
            self.obs.rule_ns[MachineObs::kind_index(gplan)].observe_since(started);
            let install = res?;
            self.stats.installs.note_eval(gplan);
            scratch.installs.push((i, install));
        }
        Ok(ev.stats())
    }

    /// Install evaluated results and fast ops simultaneously, then, for
    /// `set`, the constant copy.
    fn install(&mut self, req: &Request, params: &[Elem], scratch: &mut Scratch) {
        let rules = rules_for(&self.tables, req.kind());
        let installs = &mut self.stats.installs;
        for (i, mode) in scratch.installs.drain(..) {
            let cr = &rules[i];
            // No mode: the guards confirmed the target, nothing to write.
            let (added, removed) = mode.map_or((0, 0), |mode| {
                self.state.relation_mut(cr.target).install(mode, &cr.out.lock())
            });
            if added + removed == 0 {
                installs.unchanged += 1;
            } else {
                installs.delta += 1;
                installs.tuples_added += added;
                installs.tuples_removed += removed;
            }
        }
        if !scratch.fast_ops.is_empty() {
            let started = dynfo_obs::clock();
            let tuple = Tuple::from_slice(params);
            for &(id, is_insert) in &scratch.fast_ops {
                let rel = self.state.relation_mut(id);
                if is_insert {
                    rel.insert(tuple);
                } else {
                    rel.remove(&tuple);
                }
            }
            self.obs.rule_ns[0].observe_since(started);
        }

        // `set` requests update the stored constant copy directly (the
        // auxiliary structure mirrors input constants; programs may add
        // rules on top).
        if let Request::Set(sym, value) = req {
            if self.state.vocab().constant(*sym).is_some() {
                self.state.set_const(sym.as_str(), *value);
            }
        }
    }

    /// Apply a sequence of requests, stopping at the first failure.
    pub fn apply_all(&mut self, reqs: &[Request]) -> Result<(), MachineError> {
        for r in reqs {
            self.apply(r)?;
        }
        Ok(())
    }

    /// Apply a batch of requests.
    ///
    /// The whole batch is validated up front, so a malformed frame
    /// rejects the batch with *nothing* applied (`applied == 0`) and
    /// the machine untouched — a serving layer can refuse the frame
    /// before journaling anything. After validation the batch is
    /// sequential [`DynFoMachine::apply_all`].
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
        for (index, r) in reqs.iter().enumerate() {
            let w = self.apply_validated(r).map_err(|error| BatchError {
                index,
                applied: index,
                error,
            })?;
            work.absorb(&w);
        }
        Ok(work)
    }

    /// Apply a validated definable bulk change (Schwentick–Vortmeier–
    /// Zeume: the request carries a formula δ(x̄) defining the whole
    /// changed set instead of one tuple).
    ///
    /// The live Δ — the tuples the change actually toggles — is
    /// materialized first, as a bitmap where the target is densely
    /// backed ([`DynFoMachine::bulk_delta`]). Maintenance then
    /// dispatches on a verdict reached once, at construction
    /// ([`KindTable::bulk_one_shot`]): programs whose rules for this
    /// kind are all copies and `Grow`/`Shrink` shapes with
    /// target-positive residuals run *one* monotone fixpoint over the
    /// whole Δ ([`DynFoMachine::apply_bulk_one_shot`]); everything else
    /// replays Δ through the ordinary per-tuple pipeline. Both paths
    /// land on the byte-identical state the expanded single-tuple
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
        let (live, delta_work) = self.bulk_delta(rel, delta, is_ins)?;
        self.obs.bulk_tuples.add(live.len() as u64);
        let one_shot = self.tables.get(&req.kind()).is_some_and(|t| t.bulk_one_shot.is_some());
        let out = if one_shot {
            self.apply_bulk_one_shot(req.kind(), &live, is_ins, delta_work)
        } else {
            self.obs.bulk_fallback.inc();
            self.apply_bulk_fallback(rel, &live, is_ins)
        };
        self.obs.bulk_plan_ns.observe_since(started);
        out
    }

    /// Materialize a bulk request's *live* Δ: δ evaluated over the
    /// current state (the auxiliary structure mirrors the input
    /// relations), keeping only the tuples the change actually toggles
    /// — absent tuples for an insert, present ones for a delete: one
    /// AND-NOT / AND pass against the target's bitmap. Its tuples, in
    /// sorted order, are exactly the set the equivalent single-tuple
    /// stream walks. Also returns δ's evaluation work.
    fn bulk_delta(
        &self,
        rel: Sym,
        delta: &Formula,
        is_ins: bool,
    ) -> Result<(Relation, EvalStats), MachineError> {
        let id = self
            .state
            .vocab()
            .relation(rel)
            .expect("validated bulk target exists in aux vocab");
        let current = self.state.relation(id);
        let (mut live, work) = self.eval_delta_set(delta, current.arity())?;
        if is_ins {
            live.difference_assign(current);
        } else {
            live.intersection_assign(current);
        }
        Ok((live, work))
    }

    /// Evaluate δ to its full defined set over columns `x0…x_{k−1}`. δ
    /// runs its compiled plan whenever one lowers — there is no density
    /// gate: the interpreter has no delta shortcut for δ, which is a
    /// fresh formula every request — and its root is ORed straight into
    /// the defined set; the interpreter evaluates δ only when no plan
    /// lowers (a plan past the compile cap).
    fn eval_delta_set(
        &self,
        delta: &Formula,
        arity: usize,
    ) -> Result<(Relation, EvalStats), MachineError> {
        let n = self.n();
        let canonical = canonicalize(delta);
        let mut defined = Relation::with_universe(arity, n);
        let mut ev = Evaluator::new(&self.state, &[]);
        if let Some(bp) = BitPlan::compile(&canonical, &self.state) {
            let mut arena = bp.arena.lock().expect("plan arena lock");
            bp.plan.run(&mut ev, &mut arena)?;
            let axes: Vec<Option<usize>> = (0..arity)
                .map(|i| {
                    let x = Sym::new(&format!("x{i}"));
                    bp.plan.vars().iter().position(|&v| v == x)
                })
                .collect();
            bp.plan.or_root_into(&arena, &axes, &mut defined, ev.stats_mut());
            return Ok((defined, ev.stats()));
        }
        let table = ev.eval(&canonical)?;
        defined.insert_all(&delta_rows(table, arity, n));
        Ok((defined, ev.stats()))
    }

    /// Execute a bulk change of an eligible kind as one fixpoint.
    ///
    /// The state is copied and extended with Δ as a scratch relation.
    /// Each round runs every rule's closed residual — compiled once, at
    /// construction ([`Round::Closed`]) — against the pre-round copy
    /// and ORs its root into the rule's `out` relation, then installs
    /// them all together (simultaneous semantics): a Grow rule's
    /// additions by a union, a Shrink rule's removals by a difference,
    /// each counted, and the copies by Δ itself. The loop
    /// stops at the first round that counts no change. Eligibility
    /// guarantees the operator is monotone (targets only grow, or only
    /// shrink), so the loop terminates and its fixpoint equals the
    /// expanded stream's final state. The converged targets are then
    /// moved into the state; the round counts are what changed.
    /// `work` (δ's evaluation) is this request's work, plus the rounds'.
    fn apply_bulk_one_shot(
        &mut self,
        kind: RequestKind,
        delta: &Relation,
        is_ins: bool,
        mut work: EvalStats,
    ) -> Result<EvalStats, MachineError> {
        let table = &self.tables[&kind];
        let rounds = table.bulk_one_shot.as_ref().expect("apply_bulk checked eligibility");
        let rules = &table.rules;
        let closed = || {
            rules.iter().zip(rounds).filter_map(|(cr, round)| match round {
                Round::Closed(l) => Some((cr, l)),
                Round::Copy => None,
            })
        };
        let mut ext = self.state.extended(BULK_DELTA_REL, delta.clone());
        // Tuples each rule's target gained (bulk insert) or lost (delete).
        let mut moved = vec![0usize; rules.len()];
        let mut evals = 0;
        loop {
            for (cr, l) in closed() {
                let mut ev = Evaluator::new(&ext, &[]);
                let mut arena = l.bits.arena.lock().expect("plan arena lock");
                l.bits.plan.run(&mut ev, &mut arena)?;
                let mut out = cr.out.cleared(ext.relation(cr.target));
                l.bits.plan.or_root_into(&arena, &l.axes, &mut out, ev.stats_mut());
                work.absorb(&ev.stats());
                evals += 1;
            }
            let mut round_changes = 0;
            for ((cr, round), moved) in rules.iter().zip(rounds).zip(&mut moved) {
                let target = ext.relation_mut(cr.target);
                let before = target.len();
                match (round, is_ins) {
                    (Round::Copy, true) => target.union_assign(delta),
                    (Round::Copy, false) => target.difference_assign(delta),
                    (Round::Closed(_), true) => target.union_assign(&cr.out.lock()),
                    (Round::Closed(_), false) => target.difference_assign(&cr.out.lock()),
                }
                let changed = target.len().abs_diff(before);
                *moved += changed;
                round_changes += changed;
            }
            if round_changes == 0 {
                break;
            }
        }

        let installs = &mut self.stats.installs;
        if is_ins {
            installs.grow_evals += evals;
        } else {
            installs.shrink_evals += evals;
        }
        for (cr, &moved) in rules.iter().zip(&moved) {
            std::mem::swap(self.state.relation_mut(cr.target), ext.relation_mut(cr.target));
            if moved == 0 {
                installs.unchanged += 1;
                continue;
            }
            installs.delta += 1;
            if is_ins {
                installs.tuples_added += moved;
            } else {
                installs.tuples_removed += moved;
            }
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
    /// apply path a streamed request would (δ's own evaluation is not
    /// counted, as the stream has none).
    fn apply_bulk_fallback(
        &mut self,
        rel: Sym,
        delta: &Relation,
        is_ins: bool,
    ) -> Result<EvalStats, MachineError> {
        let mut work = EvalStats::default();
        for t in delta.iter() {
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
        let (live, _) = self.bulk_delta(rel, delta, is_ins)?;
        Ok(live
            .iter()
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
            Request::BulkIns { rel, delta } => Ok(self.bulk_delta(*rel, delta, true)?.0.len()),
            Request::BulkDel { rel, delta } => Ok(self.bulk_delta(*rel, delta, false)?.0.len()),
            _ => Ok(1),
        }
    }

    /// Answer the program's boolean query.
    ///
    /// Queries run their plan whenever it compiled; the density gate
    /// ([`BitPlan::profitable`]) is for update rules only. The
    /// interpreter has no delta shortcut for a query, and a composed
    /// query costs it far more than the rows it reads suggest: k-edge
    /// connectivity's `kconn2` at n = 16, which the gate would decline,
    /// builds 13.5M interpreter rows (2.4 s) against 6 ms compiled.
    pub fn query(&mut self) -> Result<bool, MachineError> {
        let _span = dynfo_obs::span("machine.query");
        let mut ev = Evaluator::new(&self.state, &[]);
        let ans = run_plan(self.query_plan.as_ref(), self.program.query(), &mut ev)?.as_bool();
        self.stats.queries += 1;
        self.stats.query_work.absorb(&ev.stats());
        Ok(ans)
    }

    /// Answer a named query with arguments bound to `?0, ?1, …`.
    ///
    /// An unknown query name is [`MachineError::UnknownQuery`], not a
    /// panic, so a serving layer can reject it per-request. Like
    /// [`DynFoMachine::query`], the plan runs whenever it compiled.
    pub fn query_named(&mut self, name: &str, args: &[Elem]) -> Result<bool, MachineError> {
        let f = self
            .program
            .named_query(name)
            .ok_or_else(|| MachineError::UnknownQuery(Sym::new(name)))?;
        let sym = Sym::new(name);
        if !self.named_plans.contains_key(&sym) {
            // Plans are parameter-generic (`?i` resolves at execution),
            // so one compilation serves every argument vector.
            let bp = BitPlan::compile(f, &self.state);
            self.named_plans.insert(sym, bp);
        }
        let mut ev = Evaluator::new(&self.state, args);
        let plan = self.named_plans.get(&sym).and_then(|o| o.as_ref());
        let ans = run_plan(plan, f, &mut ev)?.as_bool();
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

impl InstallStats {
    /// Count which evaluation mode a general rule took.
    fn note_eval(&mut self, plan: &GeneralPlan) {
        match plan {
            GeneralPlan::Grow(_) => self.grow_evals += 1,
            GeneralPlan::Shrink(_) => self.shrink_evals += 1,
            GeneralPlan::Guarded => self.guarded_evals += 1,
            GeneralPlan::Full => self.full_evals += 1,
        }
    }
}

/// Evaluate `f` by its compiled plan when there is one, and on the
/// interpreter — with `plan_fallback` counted — when compilation or the
/// caller's gate declined. Evaluation errors surface exactly like the
/// interpreter's.
fn run_plan(
    plan: Option<&BitPlan>,
    f: &Formula,
    ev: &mut Evaluator<'_>,
) -> Result<dynfo_logic::Table, EvalError> {
    if let Some(bp) = plan {
        let mut arena = bp.arena.lock().unwrap();
        return bp.plan.execute(ev, &mut arena, None);
    }
    ev.stats_mut().plan_fallback += 1;
    if dynfo_obs::ENABLED {
        dynfo_logic::obs::eval_obs().plan_fallback.inc();
    }
    ev.eval(f)
}

/// Guard refinement: probe each disjunct's ground guards against the
/// pre-state, drop the disjuncts whose guard fails, and pick the
/// cheapest sound install strategy for the survivors. No evaluator, no
/// table — a guard is a handful of membership tests.
fn select(
    st: &Structure,
    cr: &CompiledRule,
    plan: &GeneralPlan,
    params: &[Elem],
    obs: &MachineObs,
) -> Result<Selected, EvalError> {
    let (mut live, mut identity, mut restricts, mut others) = (0u64, false, 0u64, 0u64);
    'disjuncts: for (i, d) in cr.disjuncts.iter().enumerate() {
        for g in &d.guards {
            if !probe(g, st, params)? {
                continue 'disjuncts;
            }
        }
        live |= 1 << i;
        match d.body {
            Body::SelfIdentity => identity = true,
            Body::SelfRestrict(_) => restricts |= 1 << i,
            Body::Other(_) => others |= 1 << i,
        }
    }
    let (outcome, selected) = if identity {
        // A live identity disjunct keeps every old tuple, so the target
        // can only grow; restriction bodies (subsets of the old target)
        // are subsumed and skipped entirely.
        if others == 0 {
            // Every surviving disjunct re-reads the target: T′ = T,
            // decided without scanning a single tuple.
            (GUARD_NOOP, None)
        } else {
            (GUARD_GROW, Some((DeltaMode::Grow, others)))
        }
    } else if live != 0 && live == restricts {
        (GUARD_SHRINK, Some((DeltaMode::Shrink, live)))
    } else {
        // Anything else — including every guard failing, T′ = ∅.
        (GUARD_FULL, Some((DeltaMode::Full, live)))
    };
    if let GeneralPlan::Guarded = plan {
        obs.guard[outcome].inc();
    }
    Ok(selected)
}

/// The residuals guard refinement left to evaluate.
fn selected_residuals<'a>(
    cr: &'a CompiledRule,
    sel: &Selected,
) -> impl Iterator<Item = &'a Residual> {
    let bodies = sel.map_or(0, |(_, bodies)| bodies);
    cr.disjuncts
        .iter()
        .enumerate()
        .filter(move |(i, _)| bodies >> i & 1 == 1)
        .filter_map(|(_, d)| d.body.residual())
}

/// Compute one witness relation for this request, if some selected body
/// reads it.
fn run_witness(
    witness: &Witness,
    read: bool,
    rows: &mut WitnessRows,
    ev: &mut Evaluator<'_>,
) -> Result<(), EvalError> {
    rows.rows.clear();
    rows.count = 0;
    if read {
        let mut arena = witness.bits.arena.lock().expect("witness arena lock");
        witness.bits.plan.run(ev, &mut arena)?;
        rows.count = witness.bits.plan.root_count(&arena);
    }
    Ok(())
}

/// What a rule evaluation reads besides its own rule and the evaluator:
/// the request's pre-state, parameters and witness relations.
struct RuleCtx<'a> {
    st: &'a Structure,
    params: &'a [Elem],
    obs: &'a MachineObs,
    /// The kind's witness plans (their arenas hold this request's
    /// witness bitmaps) …
    kind_witnesses: &'a [Witness],
    /// … and what this request found in them.
    witnesses: &'a [WitnessRows],
}

/// Evaluate one general rule's selected residuals against the
/// pre-state into the rule's [`CompiledRule::out`] relation and say how
/// to install it (`None`: the guards alone confirmed the target). Each
/// residual is routed on its own: one whose compiled route this request
/// admits ORs its plan roots into `out`, any other is interpreted and
/// its rows inserted.
fn eval_general(
    ctx: &RuleCtx<'_>,
    cr: &CompiledRule,
    sel: &Selected,
    ev: &mut Evaluator<'_>,
) -> Result<Option<DeltaMode>, EvalError> {
    let Some((mode, _)) = *sel else {
        return Ok(None);
    };
    let st = ctx.st;
    let mut out = cr.out.cleared(st.relation(cr.target));
    for r in selected_residuals(cr, sel) {
        match admitted_route(ctx, cr, r) {
            Some(parts) => run_compiled(ctx, parts, &mut out, ev)?,
            None => {
                let table = run_plan(None, &r.formula, ev)?;
                out.insert_all(&align_to_rule(table, &cr.rule, st.size()));
            }
        }
    }
    Ok(Some(mode))
}

/// The parts residual `r` runs compiled for this request, or `None`
/// where the interpreter evaluates it: it has no route
/// ([`Residual::route`]), or the density gate ([`BitPlan::profitable`])
/// declines one of its plans on an unguarded rule. Records the bind-join
/// decision of a residual that has one.
fn admitted_route<'a>(
    ctx: &RuleCtx<'_>,
    cr: &CompiledRule,
    r: &'a Residual,
) -> Option<&'a [Part]> {
    let route = r.route(ctx.witnesses);
    if let Some(w) = r.parts.iter().find_map(|p| match p {
        Part::Bound { witness, .. } => Some(*witness),
        _ => None,
    }) {
        ctx.obs.bind_join[if route.is_some() { BIND_BOUND } else { BIND_UNBOUND }].inc();
        ctx.obs.bind_witnesses.observe(ctx.witnesses[w].count as u64);
    }
    let admitted = |bp: &BitPlan| cr.guarded || bp.profitable(ctx.st);
    route.filter(|parts| {
        parts.iter().all(|p| match p {
            Part::Plain(l) | Part::Bound { body: l, .. } => admitted(&l.bits),
            Part::Witness { .. } => true,
        })
    })
}

/// Run one residual's compiled parts and OR their roots into `out`, in
/// the target's own layout.
fn run_compiled(
    ctx: &RuleCtx<'_>,
    parts: &[Part],
    out: &mut Relation,
    ev: &mut Evaluator<'_>,
) -> Result<(), EvalError> {
    let run = |l: &Lowered, ev: &mut Evaluator<'_>, out: &mut Relation| -> Result<(), EvalError> {
        let mut arena = l.bits.arena.lock().expect("plan arena lock");
        l.bits.plan.run(ev, &mut arena)?;
        l.bits.plan.or_root_into(&arena, &l.axes, out, ev.stats_mut());
        Ok(())
    };
    for part in parts {
        match part {
            Part::Plain(l) => run(l, ev, out)?,
            Part::Witness { witness, axes } => {
                let bits = &ctx.kind_witnesses[*witness].bits;
                let arena = bits.arena.lock().expect("witness arena lock");
                bits.plan.or_root_into(&arena, axes, out, ev.stats_mut());
            }
            Part::Bound { witness, body } => {
                // The witness tuple rides behind the request's own
                // parameters: `?p…` in the bound body.
                let p = ctx.params.len();
                let mut bound = [0 as Elem; 2 * MAX_ARITY];
                bound[..p].copy_from_slice(ctx.params);
                for row in &ctx.witnesses[*witness].rows {
                    bound[p..p + row.len()].copy_from_slice(row.as_slice());
                    let mut inner = Evaluator::new(ctx.st, &bound[..p + row.len()]);
                    run(body, &mut inner, out)?;
                    ev.stats_mut().absorb(&inner.stats());
                }
            }
        }
    }
    Ok(())
}

/// Project an evaluated table to the rule's declared variables, in
/// column order.
fn align_to_rule(table: dynfo_logic::Table, rule: &UpdateRule, n: Elem) -> Vec<Tuple> {
    if rule.vars.is_empty() {
        return table.into_rows();
    }
    // Simplification may erase a declared variable from the stored
    // formula (e.g. a tautological `x = x` conjunct); such a variable is
    // unconstrained — extend it over the whole universe before
    // projecting to column order.
    let mut t = table;
    for &v in &rule.vars {
        if t.col(v).is_none() {
            t = t.extend(v, n);
        }
    }
    t.project(&rule.vars).into_rows()
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
        let mut bulk = DynFoMachine::new(closure(), n);
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
    fn bulk_in_batch_matches_sequential() {
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
        // The rule runs compiled: its work is kernel words.
        let mut m = DynFoMachine::new(p, 16);
        m.apply(&Request::ins("M", [1])).unwrap();
        let w1 = m.stats().update_work.kernel_words;
        assert!(w1 > 0);
        m.apply(&Request::ins("M", [2])).unwrap();
        assert!(m.stats().update_work.kernel_words > w1);
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
        // Input copies only, with consecutive duplicates: every request
        // is applied and counted.
        let reqs = vec![
            Request::ins("M", [1]),
            Request::ins("M", [1]),
            Request::ins("M", [2]),
            Request::del("M", [1]),
            Request::del("M", [1]),
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
        let mut m = DynFoMachine::new(crate::programs::reach_u::program(), 64);
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
        let work = m.apply(&Request::del("E", [a, b])).unwrap();
        let installs = m.stats().installs;
        assert!(
            installs.guarded_evals >= installs_before.guarded_evals + 2,
            "both F and PV delete rules refine through guards: {installs:?}"
        );
        assert!(
            installs.unchanged > installs_before.unchanged,
            "PV survives a non-forest delete as a guard-decided no-op"
        );
        // What is left runs compiled, on the arity-2 rules alone: less
        // than one PV-shaped (S³/64-word) pass, of which the repair
        // makes dozens.
        let s = u64::from(m.n().next_power_of_two());
        assert_eq!(work.rows_built, 0, "the interpreter ran");
        assert!(
            work.kernel_words < s.pow(3) / 64,
            "non-forest delete must not evaluate the repair ({} kernel words)",
            work.kernel_words
        );
        let (c, d) = [(0, 1), (1, 2), (0, 2)]
            .into_iter()
            .find(|&(c, d)| m.holds("F", [c, d]))
            .expect("two forest edges remain");
        let repair = m.apply(&Request::del("E", [c, d])).unwrap();
        assert!(
            repair.kernel_words > 8 * work.kernel_words,
            "a forest delete does evaluate it ({} vs {} kernel words)",
            repair.kernel_words,
            work.kernel_words
        );
        m.apply(&Request::ins("E", [c, d])).unwrap();
        // Connectivity is untouched: the forest did not contain the edge.
        assert!(m.query_named("connected", &[0, 2]).unwrap());
        assert!(m.query_named("connected", &[1, 2]).unwrap());
    }

    #[test]
    fn delete_rules_share_one_witness_evaluation() {
        // Bipartiteness has three delete rules (F, PV, Odd) binding
        // against the same witness relation `New`: the kind compiles it
        // once, and each request evaluates it once, before the rules,
        // which only read it.
        let mut m = DynFoMachine::new(crate::programs::bipartite::program(), 8);
        let del = Request::del("E", [0, 1]).kind();
        let table = &m.tables[&del];
        assert_eq!(table.witnesses.len(), 1, "one shared `New`");
        let readers = table
            .rules
            .iter()
            .filter(|cr| {
                cr.disjuncts
                    .iter()
                    .filter_map(|d| d.body.residual())
                    .any(|r| r.witnesses().any(|w| w == 0))
            })
            .count();
        assert_eq!(readers, 3, "F, PV and Odd all read the one witness");
        let mut reqs: Vec<Request> = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (2, 5)]
            .into_iter()
            .map(|(a, b)| Request::ins("E", [a, b]))
            .collect();
        reqs.extend([(1, 2), (2, 5), (3, 4), (0, 1)].map(|(a, b)| Request::del("E", [a, b])));
        for r in &reqs {
            let work = m.apply(r).unwrap();
            assert_eq!(work.rows_built, 0, "{r}: the interpreter ran");
        }
        assert!(m.stats().installs.tuples_removed > 0, "no forest delete happened");
    }
}
