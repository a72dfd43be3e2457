//! Update rules compiled for execution: what [`DynFoMachine`] builds
//! once, at construction, from a program's rules.
//!
//! Every general rule is held in one shape — a disjunction of
//! [`Disjunct`]s, each a set of *ground* guards (request parameters and
//! constants only, decided by bit probes) in front of a body — and every
//! body that needs evaluating carries its guard-stripped [`Residual`]
//! already lowered to bit-parallel plans. A request's probes therefore
//! *select* which precompiled residuals run (`γ ∧ ψ ≡ ψ` or `⊥`); guard
//! refinement and compiled plans are one mechanism, not alternatives.
//!
//! [`DynFoMachine`]: crate::machine::DynFoMachine

use crate::program::{DynFoProgram, UpdateRule};
use crate::request::{Op, RequestKind};
use dynfo_logic::analysis::{canonicalize, free_vars, positive_in};
use dynfo_logic::eval::opt::optimize_formula;
use dynfo_logic::eval::{alpha_normalize, is_ground};
use dynfo_logic::formula::{Formula, Term};
use dynfo_logic::{Plan, PlanArena, RelId, Relation, Structure, Sym, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// How one update rule is executed (compiled once per machine).
#[derive(Clone, Debug)]
pub(crate) enum RulePlan {
    /// The rule is the standard insert copy `R(x̄) ∨ x̄ = ?̄`: the new
    /// relation is the old plus the request tuple — an O(1) mutation,
    /// no formula evaluation at all.
    InsertCopy,
    /// The standard delete copy `R(x̄) ∧ x̄ ≠ ?̄`: old minus the tuple.
    DeleteCopy,
    /// Evaluation of the rule's [`Disjunct`]s, with the install
    /// strategy the rule's shape admits.
    General(GeneralPlan),
}

/// The shape detected for a general rule (see
/// [`dynfo_logic::DeltaMode`]). Detection is purely syntactic on the
/// canonical stored formula, so a shape is a *guarantee*, never a guess.
/// It labels the rule for [`InstallStats`](crate::InstallStats) and the
/// bulk fixpoint; execution is uniform over [`CompiledRule::disjuncts`].
///
/// * `Grow(ψ)` — the formula is `T(x̄) ∨ ψ` with `T` the rule's own
///   target read back exactly (declared variables, declared order, all
///   distinct). The target only grows, so only `ψ` is evaluated and the
///   old relation is never rescanned.
/// * `Shrink(ψ)` — the formula is `T(x̄) ∧ ψ` with the same exact
///   self-atom. The new value is a subset of the old. The stored
///   formula is what evaluates; the residual ψ is kept for the bulk
///   fixpoint's closure.
/// * `Guarded` — the formula is a disjunction whose disjuncts carry
///   ground guards (e.g. `F(?0,?1)` in REACH_u's PV-delete) and read the
///   target back. Guards are probed first, per request; disjuncts whose
///   guard fails are dropped, and the install for the *surviving*
///   disjuncts is chosen at runtime: all-identity → no-op without
///   scanning the target, identity + ψ → grow, self-restrictions only →
///   shrink, anything else → the pruned disjunction's value. This
///   is the delta pipeline's parameter restriction: the common REACH_u
///   delete of a non-forest edge costs one `F(?0,?1)` probe instead of
///   an O(n³) PV copy.
/// * `Full` — anything else: evaluate the whole formula, whose value
///   replaces the target. Still installs in place; "full" refers to the
///   evaluation, not to any relation rebuild.
#[derive(Clone, Debug)]
pub(crate) enum GeneralPlan {
    Grow(Formula),
    Shrink(Formula),
    Guarded,
    Full,
}

/// One disjunct of a general rule: `γ₁ ∧ … ∧ γ_g ∧ body`, with every
/// `γᵢ` ground ([`is_ground`]). The disjunct contributes nothing to the
/// request's result unless all its guards hold (γ ∧ body ≡ body when γ
/// is true, ≡ ⊥ when false).
#[derive(Clone, Debug)]
pub(crate) struct Disjunct {
    /// Ground conjuncts, decided per request by
    /// [`mod@dynfo_logic::eval::probe`].
    pub guards: Vec<Formula>,
    pub body: Body,
}

/// What a disjunct contributes once its guards hold.
#[derive(Clone, Debug)]
pub(crate) enum Body {
    /// Exactly the rule's self-atom `T(x̄)`: every old tuple survives.
    /// No evaluation, no scan.
    SelfIdentity,
    /// A conjunction containing the self-atom positively (`T(x̄) ∧ ρ`,
    /// guards stripped): contributes a *subset* of the old target.
    SelfRestrict(Residual),
    /// Any other residual ψ (guards stripped; `True` if the disjunct
    /// was pure guard).
    Other(Residual),
}

impl Body {
    pub fn residual(&self) -> Option<&Residual> {
        match self {
            Body::SelfIdentity => None,
            Body::SelfRestrict(r) | Body::Other(r) => Some(r),
        }
    }
}

/// A guard-stripped body and how it runs compiled: the OR of its
/// [`Part`]s' root bitmaps. `parts` is empty where compilation declined
/// (a plan past [`PLAN_COMPILE_WORDS_CAP`]) and the interpreter
/// evaluates `formula` instead.
#[derive(Clone, Debug)]
pub(crate) struct Residual {
    pub formula: Formula,
    pub parts: Vec<Part>,
}

/// A plan and where its root's axes land in the rule's target relation:
/// `axes[c]` is the root axis feeding target column `c`, `None` for a
/// column the formula does not constrain.
#[derive(Clone, Debug)]
pub(crate) struct Lowered {
    pub bits: BitPlan,
    pub axes: Vec<Option<usize>>,
}

/// One operand of a compiled residual.
#[derive(Clone, Debug)]
pub(crate) enum Part {
    /// A plan over the rule's variables and the request parameters.
    Plain(Lowered),
    /// The request's shared witness relation itself: this arm of the
    /// residual is α-equivalent to [`KindTable::witnesses`]`[witness]`
    /// (REACH_u's F-delete installs `New(x,y) ∨ New(y,x)`, which is what
    /// its PV-delete binds `u, w` to).
    Witness { witness: usize, axes: Vec<Option<usize>> },
    /// A bind join: the arm `∃ū (W(ū) ∧ β)` with `β[ū := ?p…]` compiled
    /// once, `ū` as extra request parameters, and run once per tuple of
    /// the witness relation — `|W| · words(β)` instead of a pass two
    /// axes wider than the target.
    Bound { witness: usize, body: Lowered },
}

impl Residual {
    fn interpreted(formula: Formula) -> Residual {
        Residual {
            formula,
            parts: Vec::new(),
        }
    }

    /// The parts to run and OR for this request, or `None` where the
    /// interpreter evaluates [`Residual::formula`] instead: nothing
    /// compiled, or the witness relations are so large that the bind
    /// joins' `Σ |W| · words(β)` passes the ceiling the unbound lowering
    /// is held to.
    pub fn route(&self, witnesses: &[WitnessRows]) -> Option<&[Part]> {
        let bound_words = self
            .parts
            .iter()
            .map(|part| match part {
                Part::Bound { witness, body } => {
                    (witnesses[*witness].count as u64).saturating_mul(body.bits.work_words)
                }
                Part::Plain(_) | Part::Witness { .. } => 0,
            })
            .fold(0u64, u64::saturating_add);
        (!self.parts.is_empty() && bound_words <= PLAN_COMPILE_WORDS_CAP).then_some(&self.parts[..])
    }

    /// Every plan this residual may run.
    pub fn plans(&self) -> impl Iterator<Item = &BitPlan> {
        self.parts.iter().filter_map(|p| match p {
            Part::Plain(l) | Part::Bound { body: l, .. } => Some(&l.bits),
            Part::Witness { .. } => None,
        })
    }

    /// Witnesses this residual reads.
    pub fn witnesses(&self) -> impl Iterator<Item = usize> + '_ {
        self.parts.iter().filter_map(|p| match p {
            Part::Plain(_) => None,
            Part::Witness { witness, .. } | Part::Bound { witness, .. } => Some(*witness),
        })
    }
}

/// A conjunct of an ∃-block over only the block's own variables and the
/// request parameters, α-normalized (free variables renamed to
/// positional slots in first-occurrence order) so every rule of the
/// kind that binds against it — under whatever variable names — shares
/// one plan and one evaluation per request.
#[derive(Clone, Debug)]
pub(crate) struct Witness {
    pub formula: Formula,
    pub bits: BitPlan,
}

/// One request's value of a [`Witness`]: filled once, before the rules
/// run, for each witness some surviving disjunct reads.
#[derive(Clone, Debug, Default)]
pub(crate) struct WitnessRows {
    /// Tuples in the witness relation.
    pub count: usize,
    /// Those tuples, columns in slot order — decoded only when some
    /// bind join will iterate them.
    pub rows: Vec<Tuple>,
}

/// A rule or query formula lowered to a bit-parallel kernel plan
/// ([`dynfo_logic::Plan`]), paired with its reusable slot arena.
/// Compiled once per machine; execution falls back to the interpreter
/// when compilation declined or the live budget rules the plan
/// unprofitable ([`BitPlan::profitable`]).
#[derive(Debug)]
pub(crate) struct BitPlan {
    pub plan: Arc<Plan>,
    /// Fixed kernel work per execution (`Plan::work_words`), cached for
    /// the profitability check on every request.
    pub work_words: u64,
    /// Relations the formula reads, resolved against the structure's
    /// vocabulary at compile time. Their maintained populations are the
    /// live side of the density-aware budget.
    reads: Arc<[RelId]>,
    /// Slot buffers reused across requests. Plans run through the
    /// shared `&CompiledRule`s the machine lends out while it writes,
    /// hence the interior mutability; a request runs its plans one after
    /// another on its caller's thread, so the lock is never contended.
    pub arena: Mutex<PlanArena>,
}

/// Base work budget for machine-installed plans, in 64-bit
/// words per execution (`Plan::work_words`). A compiled plan always
/// pays its full `S^k`-shaped traversal, while the interpreter's delta
/// pipeline often resolves the same rule from a restricted scan
/// (REACH_a's shrink-shaped delete is microseconds interpreted but
/// megabits as bit-vectors). Below this budget the plan always runs.
/// 2^16 words = 4 Mbit ≈ tens of microseconds of kernel passes —
/// comfortably above every binary-aux program at n ≤ 256. Above it,
/// [`BitPlan::profitable`] consults the read relations' live
/// populations: dense state means the interpreter would scan comparable
/// volume anyway, so the plan still pays; sparse state keeps the
/// adaptive interpreter.
const PLAN_WORK_WORDS_CAP: u64 = 1 << 16;

/// Hard ceiling on compiled-plan size, independent of density. Slot
/// buffers and arity valid-masks materialize at `work_words` scale, so
/// this bounds per-plan memory (2^22 words = 32 MiB) no matter what
/// the live budget would admit.
pub(crate) const PLAN_COMPILE_WORDS_CAP: u64 = 1 << 22;

/// Interpreter cost proxy: kernel words one maintained row is worth.
/// The delta pipeline touches each live row a handful of times per
/// evaluation (probe, scan, diff, install); 8 words/row keeps the
/// estimate conservative — the plan must still be within an order of
/// magnitude of the scan volume its reads imply.
const PLAN_WORDS_PER_ROW: u64 = 8;

impl BitPlan {
    pub fn compile(f: &Formula, st: &Structure) -> Option<BitPlan> {
        let plan = Plan::compile_capped(f, st, PLAN_COMPILE_WORDS_CAP)?;
        let work_words = plan.work_words();
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

    /// Density-aware routing for rules no guard selects: run the plan
    /// when its fixed work is within the base budget, or when the read
    /// relations' maintained populations say the interpreter would scan
    /// comparable volume anyway (`rows × PLAN_WORDS_PER_ROW`). Plans
    /// over sparsely populated reads (REACH_a's shrink-shaped delete
    /// against a thin path relation) keep the interpreter, which really
    /// has a shortcut there. A residual a guard selected has none — the
    /// interpreter would materialize the same join row by row — so
    /// guarded rules do not consult this.
    pub fn profitable(&self, st: &Structure) -> bool {
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

/// The relation a rule's selected residuals write their result into —
/// compiled roots ORed in, interpreted rows inserted — and
/// [`Relation::install`] then puts in place. It is sized like the
/// target on first use; until then, and in a cloned machine, it is a
/// one-bit placeholder.
#[derive(Debug)]
pub(crate) struct RuleOut(Mutex<Relation>);

impl Default for RuleOut {
    fn default() -> RuleOut {
        RuleOut(Mutex::new(Relation::with_universe(0, 1)))
    }
}

impl RuleOut {
    /// The result relation, emptied, shaped like `target`.
    pub fn cleared(&self, target: &Relation) -> MutexGuard<'_, Relation> {
        let mut out = self.lock();
        if out.arity() == target.arity() && out.universe() == target.universe() {
            out.clear();
        } else {
            *out = Relation::with_universe(target.arity(), target.universe());
        }
        out
    }

    /// The result relation as the last evaluation left it.
    pub fn lock(&self) -> MutexGuard<'_, Relation> {
        self.0.lock().expect("rule result lock")
    }
}

impl Clone for RuleOut {
    fn clone(&self) -> RuleOut {
        RuleOut::default()
    }
}

/// One update rule compiled for execution: everything the update path
/// needs, resolved once at construction.
#[derive(Clone, Debug)]
pub(crate) struct CompiledRule {
    /// The target relation's slot in the auxiliary structure.
    pub target: RelId,
    /// The program's rule: target symbol, declared variables, stored
    /// formula.
    pub rule: UpdateRule,
    /// How the rule executes.
    pub route: RulePlan,
    /// A general rule's formula as a disjunction of guarded bodies
    /// (empty for the input copies). A rule with no ground conjunct
    /// anywhere is a single unguarded disjunct — preceded, for `Grow`,
    /// by the identity.
    pub disjuncts: Vec<Disjunct>,
    /// Some disjunct carries a guard: the request's probes select what
    /// runs, and what they select runs compiled whenever it compiled.
    /// Unguarded rules keep the density gate ([`BitPlan::profitable`]).
    pub guarded: bool,
    pub out: RuleOut,
}

impl CompiledRule {
    /// Every plan compiled for this rule.
    pub fn plans(&self) -> impl Iterator<Item = &BitPlan> {
        self.disjuncts
            .iter()
            .filter_map(|d| d.body.residual())
            .flat_map(Residual::plans)
    }
}

/// The compiled rules of one request kind, in program order.
#[derive(Clone, Debug, Default)]
pub(crate) struct KindTable {
    pub rules: Vec<CompiledRule>,
    /// Witness relations the kind's bind joins share.
    pub witnesses: Vec<Witness>,
    /// The rules as rounds of the one-shot bulk Δ-fixpoint, one per
    /// rule in rule order, when a bulk change of this kind may run it
    /// ([`bulk_one_shot_eligible`], [`compile_closure`]); `None` replays
    /// bulk changes per tuple. Depends only on the program, the kind and
    /// the state's layout, so it is decided here, not per request.
    pub bulk_one_shot: Option<Vec<Round>>,
}

/// How one rule takes part in a round of the one-shot bulk fixpoint.
#[derive(Clone, Debug)]
pub(crate) enum Round {
    /// An insert or delete copy: the target changes by Δ itself.
    Copy,
    /// The rule's residual closed over the whole change ([`close`]):
    /// a round's additions (Grow) or removals (Shrink), as a plan over
    /// the state extended with [`BULK_DELTA_REL`], ORed into the rule's
    /// `out` relation.
    Closed(Lowered),
}

/// The compiled rules for `kind` (none for a kind the program has no
/// rules for). A free function over the table map, not a method, so
/// callers keep mutating the machine's other fields while they hold
/// the slice.
pub(crate) fn rules_for(
    tables: &BTreeMap<RequestKind, KindTable>,
    kind: RequestKind,
) -> &[CompiledRule] {
    tables.get(&kind).map_or(&[], |t| &t.rules)
}

/// Compile every rule of `program` for execution against `st`'s
/// layout: resolve its target slot, classify its shape, split it into
/// guarded disjuncts, and lower each guard-stripped residual — a Grow
/// rule's ψ, a guarded disjunct's body, otherwise the stored formula —
/// to bit-parallel plans where the lowering succeeds. Residuals are
/// compiled once here and *selected* per request by their guards, so a
/// guarded rule runs on the same kernels as an unguarded one.
pub(crate) fn compile_tables(
    program: &DynFoProgram,
    st: &Structure,
) -> BTreeMap<RequestKind, KindTable> {
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
        let (route, disjuncts) = classify_rule(rule);
        tables.entry(kind).or_default().rules.push(CompiledRule {
            target: st
                .vocab()
                .relation(rule.target)
                .expect("rule target exists in aux vocab"),
            guarded: disjuncts.iter().any(|d| !d.guards.is_empty()),
            rule: rule.clone(),
            route,
            disjuncts,
            out: RuleOut::default(),
        });
    }
    // The fixpoint extends the state with a scratch Δ relation; a
    // program using the reserved name itself takes the fallback.
    let may_close = program.claims_memoryless()
        && st.vocab().relation(Sym::new(BULK_DELTA_REL)).is_none();
    for (kind, table) in &mut tables {
        // Request parameters are `?0 … ?(p−1)`; a bind join's witness
        // columns continue from `?p`.
        let params = match kind.op {
            Op::Set => 1,
            Op::Ins | Op::Del => program
                .input_vocab()
                .relation(kind.sym)
                .map_or(0, |id| program.input_vocab().arity(id)),
        };
        compile_residuals(table, st, params);
        let is_ins = kind.op == Op::Ins;
        if may_close && kind.op != Op::Set && bulk_one_shot_eligible(&table.rules, is_ins) {
            table.bulk_one_shot = compile_closure(&table.rules, st, params);
        }
    }
    tables
}

/// The rounds of an eligible kind's one-shot fixpoint: every residual
/// closed over the change ([`close`]) and compiled once, against `st`
/// extended with an empty Δ relation of the kind's `arity`. `None`
/// when a closed residual does not lower: such a kind replays bulk
/// changes per tuple.
fn compile_closure(rules: &[CompiledRule], st: &Structure, arity: usize) -> Option<Vec<Round>> {
    let n = st.size();
    let template = st.extended(BULK_DELTA_REL, Relation::with_universe(arity, n));
    rules
        .iter()
        .map(|cr| {
            let (psi, negate) = match &cr.route {
                RulePlan::InsertCopy | RulePlan::DeleteCopy => return Some(Round::Copy),
                RulePlan::General(GeneralPlan::Grow(psi)) => (psi, false),
                RulePlan::General(GeneralPlan::Shrink(psi)) => (psi, true),
                RulePlan::General(_) => unreachable!("eligibility admits copy/grow/shrink only"),
            };
            lower(&close(psi, negate, arity), &cr.rule.vars, &template).map(Round::Closed)
        })
        .collect()
}

/// `ψ` closed over a whole change Δ of arity `arity`: request parameter
/// `?i` becomes the bound variable `__di`, and the result is
/// `∃d̄. Δ(d̄) ∧ ψ[?i := dᵢ]` (with `negate`, `∃d̄. Δ(d̄) ∧ ¬ψ[…]` — the
/// tuples some deleted tuple takes out of a Shrink rule's target).
///
/// Δ is distributed over ψ's top-level disjunction before quantifying:
/// `∃d̄. Δ ∧ (A ∨ B) ≡ (∃d̄. Δ∧A) ∨ (∃d̄. Δ∧B)`. One blanket `∃d̄` over
/// the whole disjunction pins every round at arity |x̄|+|d̄|; closing per
/// disjunct lets miniscoping sink each `dᵢ` to the conjuncts that
/// mention it — nested single-variable joins, each of which the plan
/// optimizer lowers as a compose. Δ stays inside every disjunct so an
/// empty Δ still closes to `false`. The `__d` names sort before every
/// program variable, so each `dᵢ` leads the operands it joins.
fn close(psi: &Formula, negate: bool, arity: usize) -> Formula {
    let dvars: Vec<Sym> = (0..arity).map(|i| Sym::new(&format!("__d{i}"))).collect();
    let delta_atom = Formula::Rel {
        name: Sym::new(BULK_DELTA_REL),
        args: dvars.iter().map(|&v| Term::Var(v)).collect(),
    };
    let bound = psi.map_terms(&|t| match t {
        Term::Param(i) => Term::Var(Sym::new(&format!("__d{i}"))),
        other => other,
    });
    let body = if negate {
        Formula::Not(Box::new(bound))
    } else {
        bound
    };
    let close_one = |g: Formula| {
        canonicalize(&Formula::Exists(
            dvars.clone(),
            Box::new(Formula::And(vec![delta_atom.clone(), g])),
        ))
    };
    let closed = match canonicalize(&body) {
        Formula::Or(ds) => canonicalize(&Formula::Or(ds.into_iter().map(close_one).collect())),
        g => close_one(g),
    };
    optimize_formula(&closed).unwrap_or(closed)
}

/// An ∃-block `∃ū (W(ū) ∧ β)` whose conjunct `W` mentions exactly the
/// block's own variables (and request constants): `(W α-normalized, ū in
/// W's slot order, β)`.
fn bind_block(arm: &Formula) -> Option<(Formula, Vec<Sym>, Formula)> {
    let Formula::Exists(vs, body) = arm else {
        return None;
    };
    let Formula::And(conjuncts) = &**body else {
        return None;
    };
    let bound: BTreeSet<Sym> = vs.iter().copied().collect();
    let at = conjuncts.iter().position(|c| free_vars(c) == bound)?;
    let (witness, slots) = alpha_normalize(&conjuncts[at])?;
    Some((witness, slots, without(conjuncts, at, Formula::And)))
}

/// The top-level disjuncts of a residual (itself, if it is not an `∨`).
fn arms(f: &Formula) -> &[Formula] {
    match f {
        Formula::Or(fs) => fs,
        single => std::slice::from_ref(single),
    }
}

/// Lower every residual of one kind's rules: first register the
/// witness relations their ∃-blocks bind against — one plan per
/// α-class, shared by all rules of the kind — then compile each
/// residual against that registry.
fn compile_residuals(table: &mut KindTable, st: &Structure, params: usize) {
    let mut witnesses: Vec<Witness> = Vec::new();
    for_each_residual(&mut table.rules, |_, r| {
        for arm in arms(&r.formula) {
            let Some((formula, _, _)) = bind_block(arm) else {
                continue;
            };
            if witnesses.iter().any(|w| w.formula == formula) {
                continue;
            }
            if let Some(bits) = BitPlan::compile(&formula, st) {
                witnesses.push(Witness { formula, bits });
            }
        }
    });
    for_each_residual(&mut table.rules, |vars, r| {
        compile_residual(r, vars, st, params, &witnesses);
    });
    table.witnesses = witnesses;
}

/// Visit every residual of `rules` with its rule's declared variables.
fn for_each_residual(rules: &mut [CompiledRule], mut f: impl FnMut(&[Sym], &mut Residual)) {
    for cr in rules {
        for d in &mut cr.disjuncts {
            if let Body::SelfRestrict(r) | Body::Other(r) = &mut d.body {
                f(&cr.rule.vars, r);
            }
        }
    }
}

/// Lower `f` and align its root with the target's columns `vars`.
fn lower(f: &Formula, vars: &[Sym], st: &Structure) -> Option<Lowered> {
    let bits = BitPlan::compile(f, st)?;
    let axes = axes_of(bits.plan.vars(), vars)?;
    Some(Lowered { bits, axes })
}

/// For each target column, the position of its variable among a root's
/// axes. `None` overall if the root has an axis no column takes (cannot
/// happen for a residual of a well-formed rule: its free variables are
/// among the declared ones).
fn axes_of(root: &[Sym], vars: &[Sym]) -> Option<Vec<Option<usize>>> {
    root.iter()
        .all(|v| vars.contains(v))
        .then(|| vars.iter().map(|v| root.iter().position(|r| r == v)).collect())
}

/// Fill in `r.parts`: bind joins and witness reads
/// for the arms that have that shape, one plain plan for the rest; or,
/// when no arm does (or a piece declines to compile), the whole formula
/// as a single plain plan; or nothing.
fn compile_residual(
    r: &mut Residual,
    vars: &[Sym],
    st: &Structure,
    params: usize,
    witnesses: &[Witness],
) {
    // `f` read as a witness relation: which one, and where its slots
    // land in the target.
    let as_witness = |f: &Formula| -> Option<Part> {
        let (formula, slots) = alpha_normalize(f)?;
        let witness = witnesses.iter().position(|w| w.formula == formula)?;
        let axes = axes_of(&slots, vars)?;
        Some(Part::Witness { witness, axes })
    };
    if let Some(whole) = as_witness(&r.formula) {
        r.parts = vec![whole];
        return;
    }
    let mut parts: Vec<Part> = Vec::new();
    let mut rest: Vec<Formula> = Vec::new();
    for arm in arms(&r.formula) {
        if let Some((formula, slots, body)) = bind_block(arm) {
            let bound = slots.iter().enumerate().fold(body, |b, (j, &v)| {
                b.substitute(v, Term::Param(params + j))
            });
            let witness = witnesses.iter().position(|w| w.formula == formula);
            if let (Some(witness), Some(body)) = (witness, lower(&bound, vars, st)) {
                parts.push(Part::Bound { witness, body });
                continue;
            }
        } else if let Some(part) = as_witness(arm) {
            parts.push(part);
            continue;
        }
        rest.push(arm.clone());
    }
    let structured = !parts.is_empty();
    if structured && !rest.is_empty() {
        let plain = if rest.len() == 1 {
            rest.pop().expect("one arm")
        } else {
            Formula::Or(rest)
        };
        match lower(&plain, vars, st) {
            Some(l) => parts.insert(0, Part::Plain(l)),
            None => parts.clear(),
        }
    }
    if parts.is_empty() {
        let whole = lower(&r.formula, vars, st);
        r.parts = whole.map(Part::Plain).into_iter().collect();
    } else {
        r.parts = parts;
    }
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

/// Scratch relation name the bulk fixpoint extends the state with —
/// reserved, so programs using a `__`-prefixed symbol take the
/// per-tuple fallback instead.
pub(crate) const BULK_DELTA_REL: &str = "__DELTA";

/// Decide how an update rule executes: detect the two canonical
/// input-copy shapes (what [`crate::program::input_copy_rules`] produces,
/// after simplification and canonicalization) and compile them to O(1)
/// tuple mutations; detect grow-/shrink-only shapes for the delta
/// planner; everything else evaluates in full. Returns the shape and the
/// rule's formula as guarded disjuncts (residuals not yet lowered).
///
/// * insert: `R(x₀,…,x_{k−1}) ∨ ⋀ᵢ xᵢ = ?ᵢ`
/// * delete: `R(x₀,…,x_{k−1}) ∧ (⋁ᵢ xᵢ ≠ ?ᵢ … negation pushed inward)`
/// * grow:   `T(x̄) ∨ ψ` — target can only gain tuples (see [`GeneralPlan`])
/// * shrink: `T(x̄) ∧ ψ` — target can only lose tuples
fn classify_rule(rule: &UpdateRule) -> (RulePlan, Vec<Disjunct>) {
    // Every special shape computes a set operation on the rule's own
    // target; the atom must read exactly the target with the declared
    // variables in declared order, each distinct.
    let k = rule.vars.len();
    let distinct: BTreeSet<Sym> = rule.vars.iter().copied().collect();
    let is_target_atom = |f: &Formula| -> bool {
        k > 0
            && distinct.len() == k
            && matches!(f, Formula::Rel { name, args }
                if *name == rule.target
                    && args.len() == k
                    && args.iter().zip(&rule.vars).all(|(a, v)| *a == Term::Var(*v)))
    };
    let general = |plan: GeneralPlan, f: &Formula| {
        let mut disjuncts = split(f, &is_target_atom);
        if let GeneralPlan::Grow(_) = plan {
            let identity = Disjunct {
                guards: Vec::new(),
                body: Body::SelfIdentity,
            };
            disjuncts.insert(0, identity);
        }
        (RulePlan::General(plan), disjuncts)
    };
    match &rule.formula {
        Formula::Or(parts) => {
            let Some(self_at) = parts.iter().position(is_target_atom) else {
                // A self-atom-free disjunction: worth refining per
                // request only when some disjunct actually has a guard
                // *and* some body reads the target back (identity or
                // restriction) — otherwise the surviving disjuncts can
                // never beat a plain full evaluation.
                let disjuncts = split(&rule.formula, &is_target_atom);
                let any_guard = disjuncts.iter().any(|d| !d.guards.is_empty());
                let any_self = disjuncts.iter().any(|d| !matches!(d.body, Body::Other(_)));
                let plan = if any_guard && any_self {
                    GeneralPlan::Guarded
                } else {
                    GeneralPlan::Full
                };
                return (RulePlan::General(plan), disjuncts);
            };
            if parts.len() == 2 && eq_conjunction_matches(&parts[1 - self_at], &rule.vars, false) {
                return (RulePlan::InsertCopy, Vec::new());
            }
            // `T(x̄) ∨ ψ`: evaluate only ψ; the old target survives.
            let psi = without(parts, self_at, Formula::Or);
            general(GeneralPlan::Grow(psi.clone()), &psi)
        }
        Formula::And(parts) => {
            let Some(self_at) = parts.iter().position(is_target_atom) else {
                return general(GeneralPlan::Full, &rule.formula);
            };
            if parts.len() == 2 && eq_conjunction_matches(&parts[1 - self_at], &rule.vars, true) {
                return (RulePlan::DeleteCopy, Vec::new());
            }
            // `T(x̄) ∧ ψ`: the result is a subset of the old target.
            let psi = without(parts, self_at, Formula::And);
            general(GeneralPlan::Shrink(psi), &rule.formula)
        }
        _ => general(GeneralPlan::Full, &rule.formula),
    }
}

/// `f` as guarded disjuncts: each top-level disjunct split into its
/// ground conjuncts (the guards) and the rest (the body, classified
/// against the rule's self-atom). A formula with no ground conjunct in
/// any disjunct stays whole — one unguarded disjunct, one plan — since
/// there is nothing for a request to select.
fn split(f: &Formula, is_target_atom: &dyn Fn(&Formula) -> bool) -> Vec<Disjunct> {
    let conjuncts = |g: &Formula| -> Vec<Formula> {
        match g {
            Formula::And(fs) => fs.clone(),
            single => vec![single.clone()],
        }
    };
    let disjunct = |guards: Vec<Formula>, mut rest: Vec<Formula>| {
        let body = if rest.len() == 1 && is_target_atom(&rest[0]) {
            Body::SelfIdentity
        } else {
            let reads_self = rest.iter().any(is_target_atom);
            let residual = Residual::interpreted(match rest.len() {
                0 => Formula::True, // pure guard: contributes all tuples
                1 => rest.pop().expect("one conjunct"),
                _ => Formula::And(rest),
            });
            if reads_self {
                // The self-atom is a positive conjunct, so the body
                // denotes a subset of the old target.
                Body::SelfRestrict(residual)
            } else {
                Body::Other(residual)
            }
        };
        Disjunct { guards, body }
    };
    let split: Vec<Disjunct> = arms(f)
        .iter()
        .map(|arm| {
            let (guards, rest) = conjuncts(arm).into_iter().partition(is_ground);
            disjunct(guards, rest)
        })
        .collect();
    // (A request's selection is a 64-bit mask over the disjuncts, with
    // one bit kept for a Grow rule's identity.)
    if split.len() < 64 && split.iter().any(|d| !d.guards.is_empty()) {
        split
    } else {
        vec![disjunct(Vec::new(), conjuncts(f))]
    }
}

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
