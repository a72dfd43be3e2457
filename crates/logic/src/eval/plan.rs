//! One-shot compilation of FO formulas to bit-parallel plans.
//!
//! The tree-walking [`Evaluator`] re-interprets a formula's AST on every
//! request, materializing intermediate [`Table`]s row by row. For the
//! update formulas of Dyn-FO programs — boolean-heavy, shallow quantifier
//! prefixes, evaluated thousands of times against dense relations — that
//! per-row interpretation is the dominant cost. This module compiles such
//! a formula **once** into a flat SSA-style sequence of relational-algebra
//! ops over dense bit-buffers (the padded power-of-two layout of
//! [`kernels`]), then executes the sequence with 64-tuples-per-instruction
//! kernels on every request.
//!
//! A plan is all kernels or nothing: every op is a word pass whose size
//! the compiler knows. A subformula the compiler cannot lower (slot
//! over [`PLAN_SLOT_BITS_CAP`], non-canonical node) makes the whole
//! formula decline — [`Plan::compile`] returns `None` and the caller
//! evaluates the formula whole on the interpreter (counted as
//! `plan_fallback` in [`EvalStats`](super::EvalStats)). A compiled plan
//! is bound to the universe size it was compiled for; running it
//! against another is [`EvalError::LayoutMismatch`].
//!
//! Unguarded negation needs **no complement budget** here: on bit-buffers
//! `¬φ` is a masked NOT over bits that already exist, not an `n^k` row
//! materialization. `∀x̄ φ` (canonicalized to `¬∃x̄ ¬φ`) is peepholed to
//! AND-folds so no complement pass runs at all.
//!
//! Buffers live in a [`PlanArena`] that persists across requests: slots
//! are allocated once and overwritten in place, and slots whose value
//! cannot change between requests (no relation, parameter, or constant
//! reads — e.g. a `x < y` mask) are computed once and kept.

use super::kernels::{self, Layout, Strides};
use super::{alpha_normalize, numeric_pred, numeric_terms, EvalError, Evaluator, Table};
use crate::analysis::{free_vars, is_canonical, mentions_param_or_const};
use crate::formula::{Formula, Term};
use crate::intern::Sym;
use crate::relation::Relation;
use crate::structure::Structure;
use crate::tuple::{Elem, Tuple, MAX_ARITY};
use std::collections::HashMap;

/// Cap on one slot's padded tuple space (`S^k` bits, 32 MiB of bitmap).
/// Padding can double each axis of a slot; anything bigger falls back
/// to the interpreter. This is a *feasibility* bound, not a
/// profitability one — callers that must not regress a cheap
/// interpreter path (the machine's rule plans) apply their own work
/// budget on top via [`Plan::work_words`].
pub const PLAN_SLOT_BITS_CAP: u128 = 1 << 28;

pub(crate) type SlotId = usize;

#[derive(Clone, Debug)]
pub(crate) struct SlotInfo {
    /// Free variables, in sorted `Sym` order — the canonical column
    /// order every buffer shares, so connectives never permute.
    pub(crate) vars: Vec<Sym>,
    pub(crate) words: usize,
    /// True iff the slot reads no relation, parameter, or constant:
    /// its contents are identical for every request and survive in the
    /// arena once computed.
    pub(crate) stable: bool,
}

/// How one atom argument maps into the slot's axes.
#[derive(Clone, Debug)]
pub(crate) enum ColSpec {
    /// First occurrence of a variable: relation column feeds this axis.
    Axis(usize),
    /// Repeated variable: must equal the named axis (a filter).
    Repeat(usize),
    /// Ground term, resolved against structure + params at execute time.
    Ground(Term),
}

/// Specialized execution strategy for a [`Op::Load`], chosen at compile
/// time from the argument shape and the universe geometry.
#[derive(Clone, Debug)]
pub(crate) enum LoadPath {
    /// `n == S`, arguments are the slot variables in order: the base-`n`
    /// and padded layouts coincide — straight word copy.
    WordCopy,
    /// Arguments are a (non-identity) permutation of distinct variables
    /// and `n == S ≥ 64`: per-word bit-scatter — `t_hi[w]` maps source
    /// word `w`'s base index to its destination index, and the low 6
    /// source bits land `b << tshift` above it. `tshift == 0` degrades
    /// to whole-word moves.
    Scatter { t_hi: Vec<usize>, tshift: u32 },
    /// Everything else (ground terms, repeats, unaligned permutations,
    /// in-order arguments with `n < S`): a strided [`kernels::gather`]
    /// over the dense bitmap — `step[a]` is how far slot axis `a`'s
    /// digit moves the base-`n` source index (the sum of the strides of
    /// every column carrying that variable), ground columns offset the
    /// base at execution. O(n^{free axes}) whatever the relation holds;
    /// a relation whose maintained popcount is below that cost is
    /// scanned instead (set tuples with prefix pushdown, O(popcount)).
    Gather { step: [usize; MAX_ARITY] },
}

#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `True`/`False` over the slot's variables.
    Const { dst: SlotId, value: bool },
    /// Scan a dense relation atom into a slot.
    Load { dst: SlotId, rel: Sym, cols: Vec<ColSpec>, path: LoadPath },
    /// Materialize a numeric predicate (`=`, `≤`, `<`, `BIT`) mask.
    Numeric { dst: SlotId, atom: Formula, negated: bool },
    /// Fused n-ary AND/OR with per-source negation.
    Combine { dst: SlotId, srcs: Vec<(SlotId, bool)>, and: bool, masked: bool },
    /// Masked complement.
    Not { dst: SlotId, src: SlotId },
    /// Insert an axis (align a narrower operand to a wider variable set).
    Broadcast { dst: SlotId, src: SlotId, axis: usize, rep: Vec<u64> },
    /// Quantify out an axis: OR-fold (∃) or AND-fold (∀).
    Fold { dst: SlotId, src: SlotId, axis: usize, and: bool, gmask: Vec<u64> },
    /// `∃z (α ∧ β)` with `a` (α) over the result's leading axes and `z`
    /// (its axis `z`), and `b` (β) over `z` followed by the result's
    /// trailing axes: the rows of `b` that `a`'s set bits select, ORed
    /// into the rows those bits name ([`kernels::compose`]). The
    /// optimizer's op stage emits it in place of broadcast–AND–fold.
    Compose { dst: SlotId, a: SlotId, b: SlotId, z: usize },
}

impl Op {
    pub(crate) fn dst(&self) -> SlotId {
        match self {
            Op::Const { dst, .. }
            | Op::Load { dst, .. }
            | Op::Numeric { dst, .. }
            | Op::Combine { dst, .. }
            | Op::Not { dst, .. }
            | Op::Broadcast { dst, .. }
            | Op::Fold { dst, .. }
            | Op::Compose { dst, .. } => *dst,
        }
    }
}

/// A compiled formula: a flat op sequence over bit-buffer slots.
#[derive(Clone, Debug)]
pub struct Plan {
    lay: Layout,
    slots: Vec<SlotInfo>,
    ops: Vec<Op>,
    root: SlotId,
    /// Valid-bit masks per arity, for ops that negate (built only for
    /// arities that need one).
    valids: Vec<Option<Vec<u64>>>,
    /// Ops the optimizer removed relative to the unoptimized lowering
    /// of the same formula (0 when compiled with the optimizer off).
    opt_ops_removed: u64,
    /// Per-execution kernel words the optimizer saved relative to the
    /// unoptimized lowering (`work_words` delta).
    opt_words_saved: u64,
}

/// Per-plan scratch buffers, reused across requests. Holding one arena
/// per rule means zero allocation on the steady-state update path.
#[derive(Debug, Default)]
pub struct PlanArena {
    bufs: Vec<Vec<u64>>,
    /// Which `stable` slots already hold their (request-independent)
    /// value. Never needs invalidation: stable slots read no state.
    stable_done: Vec<bool>,
}

impl Plan {
    /// Compile a canonical formula against the structure it will run on
    /// (its universe size fixes the layout). Returns `None`
    /// when some subformula cannot be lowered — callers interpret the
    /// formula whole.
    /// Runs the algebraic optimizer ([`super::opt`]); use
    /// [`Plan::compile_with`] to compare against the raw lowering.
    pub fn compile(f: &Formula, st: &Structure) -> Option<Plan> {
        Plan::compile_with(f, st, true)
    }

    /// [`Plan::compile`] with the optimizer under caller control:
    /// `optimize = false` emits the direct syntactic lowering (the
    /// differential baseline for the optimizer-off/on suites).
    pub fn compile_with(f: &Formula, st: &Structure, optimize: bool) -> Option<Plan> {
        compile_any(f, st, optimize, u64::MAX)
    }

    /// [`Plan::compile`] refusing plans whose [`Plan::work_words`]
    /// exceed `max_words`. The refusal comes before the per-arity valid
    /// masks are built — they materialize at slot scale, so a caller
    /// probing whether a wide formula fits its budget never pays for
    /// (or holds, even briefly) the masks of a plan it will not keep.
    pub fn compile_capped(f: &Formula, st: &Structure, max_words: u64) -> Option<Plan> {
        compile_any(f, st, true, max_words)
    }

    /// [`Plan::compile_with`] minus the `is_canonical` walk: the caller
    /// guarantees `f` is already canonical (the machine's stored rule
    /// and query formulas are canonicalized once at program build, so
    /// install-time compilation skips the re-check).
    pub fn compile_canonical(f: &Formula, st: &Structure, optimize: bool) -> Option<Plan> {
        compile_within(f, st, optimize, u64::MAX)
    }

    /// The variables of the result table, in slot (sorted) order.
    pub fn vars(&self) -> &[Sym] {
        &self.slots[self.root].vars
    }

    /// A proxy for per-execution kernel work: total buffer words across
    /// every slot (each slot is written by exactly one op, so this is
    /// roughly the plan's write traffic per run). Callers compare it
    /// against what *their* fallback path would cost — the machine
    /// refuses rule plans whose fixed `S^k`-shaped work would dwarf the
    /// delta pipeline's guard-refined scans.
    pub fn work_words(&self) -> u64 {
        self.slots.iter().map(|s| s.words as u64).sum()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Ops the optimizer eliminated relative to the raw lowering of the
    /// same formula (0 when compiled with `optimize = false`).
    pub fn opt_ops_removed(&self) -> u64 {
        self.opt_ops_removed
    }

    /// Per-execution kernel words the optimizer saved relative to the
    /// raw lowering (the `work_words` delta; 0 with the optimizer off).
    pub fn opt_kernel_words_saved(&self) -> u64 {
        self.opt_words_saved
    }

    /// True iff the plan has no ops (never produced by `compile`).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// A fresh arena sized for this plan.
    pub fn arena(&self) -> PlanArena {
        PlanArena {
            bufs: self.slots.iter().map(|_| Vec::new()).collect(),
            stable_done: vec![false; self.slots.len()],
        }
    }

    /// ∃-joins the optimizer lowered as [`Op::Compose`]: each costs what
    /// its driving operand holds instead of a broadcast pass over the
    /// joined variables.
    pub fn compose_joins(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Op::Compose { .. })).count()
    }

    /// Execute against the evaluator's structure and parameters and
    /// decode the result; `ev` accumulates the `kernel_words`/
    /// `plan_compiled` counters. [`Plan::run`] plus [`Plan::decode_root`].
    ///
    /// A structure over another universe size than the one the plan was
    /// compiled for is [`EvalError::LayoutMismatch`]. Other failures
    /// (unbound parameter, unknown symbol) surface exactly as the
    /// interpreter would raise them.
    ///
    /// The third argument has no value but `None`. It is retained only
    /// because the frozen `benchmark/` crate calls `execute` with three
    /// arguments.
    pub fn execute(
        &self,
        ev: &mut Evaluator<'_>,
        arena: &mut PlanArena,
        _retained: Option<std::convert::Infallible>,
    ) -> Result<Table, EvalError> {
        self.run(ev, arena)?;
        Ok(self.decode_root(arena))
    }

    /// Execute and leave the result in the arena's root buffer, where
    /// [`Plan::decode_root`], [`Plan::root_count`] and
    /// [`Plan::or_root_into`] read it — the update path installs from
    /// the bits and never materializes a [`Table`]. Fails as
    /// [`Plan::execute`] does.
    pub fn run(&self, ev: &mut Evaluator<'_>, arena: &mut PlanArena) -> Result<(), EvalError> {
        self.run_choosing(ev, arena, None)
    }

    /// [`Plan::run`] with every [`LoadPath::Gather`] load pinned to the
    /// gather (`true`) or the scan (`false`) instead of choosing by
    /// popcount. Both produce the same bits; this exists so the
    /// equivalence suites can hold each against the other, like
    /// [`crate::simd::force_tier`].
    #[doc(hidden)]
    pub fn run_with_loads(
        &self,
        ev: &mut Evaluator<'_>,
        arena: &mut PlanArena,
        gather: bool,
    ) -> Result<(), EvalError> {
        self.run_choosing(ev, arena, Some(gather))
    }

    fn run_choosing(
        &self,
        ev: &mut Evaluator<'_>,
        arena: &mut PlanArena,
        gather: Option<bool>,
    ) -> Result<(), EvalError> {
        if Layout::new(ev.st.size()) != self.lay {
            return Err(EvalError::LayoutMismatch);
        }
        if arena.bufs.len() != self.slots.len() {
            *arena = self.arena();
        }
        let mut kw = 0u64;
        for op in &self.ops {
            let dst = op.dst();
            if self.slots[dst].stable && arena.stable_done[dst] {
                continue;
            }
            // SSA: every source slot precedes its consumer, so splitting
            // at `dst` gives the written buffer and read-only sources.
            let (lo, hi) = arena.bufs.split_at_mut(dst);
            let buf = &mut hi[0];
            buf.resize(self.slots[dst].words, 0);
            match op {
                Op::Const { value, .. } => {
                    if *value {
                        let k = self.slots[dst].vars.len();
                        buf.copy_from_slice(self.valids[k].as_ref().unwrap());
                    } else {
                        buf.fill(0);
                    }
                    kw += buf.len() as u64;
                }
                Op::Load { rel, cols, path, .. } => {
                    kw += self.load(ev, buf, &self.slots[dst], *rel, cols, path, gather)?;
                }
                Op::Numeric { atom, negated, .. } => {
                    kw += self.numeric(ev, buf, &self.slots[dst], atom, *negated)?;
                }
                Op::Combine { srcs, and, masked, .. } => {
                    let k = self.slots[dst].vars.len();
                    let valid = masked.then(|| self.valids[k].as_ref().unwrap().as_slice());
                    kw += kernels::combine(buf, lo, srcs, *and, valid);
                }
                Op::Not { src, .. } => {
                    let k = self.slots[dst].vars.len();
                    kw += kernels::not(buf, &lo[*src], self.valids[k].as_ref().unwrap());
                }
                Op::Broadcast { src, axis, rep, .. } => {
                    let k_src = self.slots[*src].vars.len();
                    kw += kernels::broadcast(buf, &lo[*src], &self.lay, k_src, *axis, rep);
                }
                Op::Fold { src, axis, and, gmask, .. } => {
                    let k_src = self.slots[*src].vars.len();
                    kw += kernels::fold(buf, &lo[*src], &self.lay, k_src, *axis, *and, gmask);
                }
                Op::Compose { a, b, z, .. } => {
                    let (ka, kb) = (self.slots[*a].vars.len(), self.slots[*b].vars.len());
                    kw += kernels::compose(buf, &lo[*a], &lo[*b], &self.lay, ka, *z, kb - 1);
                }
            }
            if self.slots[dst].stable {
                arena.stable_done[dst] = true;
            }
        }
        ev.stats.kernel_words += kw;
        ev.stats.plan_compiled += 1;
        if dynfo_obs::ENABLED {
            let obs = crate::obs::eval_obs();
            obs.kernel_words.add(kw);
            obs.plan_compiled.inc();
        }
        Ok(())
    }

    /// Decode the root slot the last [`Plan::run`] on `arena` left
    /// behind into a sorted, duplicate-free table over [`Plan::vars`].
    pub fn decode_root(&self, arena: &PlanArena) -> Table {
        let mut rows = Vec::new();
        self.root_rows(arena, &mut rows);
        Table::new(self.vars().to_vec(), rows)
    }

    /// Append the root slot's tuples (columns in [`Plan::vars`] order,
    /// ascending) to `rows`.
    pub fn root_rows(&self, arena: &PlanArena, rows: &mut Vec<Tuple>) {
        let k = self.vars().len();
        let shift = self.lay.shift as usize;
        let smask = (self.lay.stride() - 1) as Elem;
        for (w, &word) in arena.bufs[self.root].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut items = [0 as Elem; MAX_ARITY];
                for (j, item) in items.iter_mut().enumerate().take(k) {
                    *item = (idx >> (shift * (k - 1 - j))) as Elem & smask;
                }
                rows.push(Tuple::from_slice(&items[..k]));
            }
        }
    }

    /// How many tuples the root slot of the last [`Plan::run`] holds.
    pub fn root_count(&self, arena: &PlanArena) -> usize {
        arena.bufs[self.root].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// OR the root slot of the last [`Plan::run`] into `out`: column `c`
    /// of the relation is root axis `axes[c]` (an index into
    /// [`Plan::vars`]), or, for `None`, a column the root does not
    /// constrain — it ranges over the universe. Every root axis must
    /// feed exactly one column. The padding the slot layout carries when
    /// `n` is not a power of two is dropped: only digits below `n` are
    /// visited. `out.len()` stays exact.
    ///
    /// This is how a compiled update lands in its result relation:
    /// `out` takes a fused word-wise OR-and-popcount when the two
    /// layouts coincide, otherwise a gather (`n`-bit runs when the
    /// innermost column is the root's innermost axis, bit probes
    /// otherwise) and a recount; the words the OR or the gather touched
    /// are added to `stats.kernel_words`.
    pub fn or_root_into(
        &self,
        arena: &PlanArena,
        axes: &[Option<usize>],
        out: &mut Relation,
        stats: &mut super::EvalStats,
    ) {
        let root = &arena.bufs[self.root];
        let kr = self.slots[self.root].vars.len();
        let k = axes.len();
        debug_assert!(
            (0..kr).all(|a| axes.iter().filter(|&&x| x == Some(a)).count() == 1),
            "root axes {axes:?} do not cover a {kr}-ary root exactly once"
        );
        debug_assert_eq!(out.arity(), k, "result relation arity");
        let n = self.lay.n as usize;
        let bits = out.bits_mut();
        debug_assert_eq!(bits.universe() as usize, n, "result relation universe");
        let aligned = n == self.lay.stride();
        let words = if aligned && kr == k && axes.iter().enumerate().all(|(c, &a)| a == Some(c)) {
            bits.or_words(root);
            2 * root.len() as u64
        } else {
            let shift = self.lay.shift as usize;
            let (mut d, mut s) = (Strides::default(), Strides::default());
            for (c, axis) in axes.iter().enumerate() {
                d.step[c] = n.pow((k - 1 - c) as u32);
                s.step[c] = axis.map_or(0, |a| 1usize << (shift * (kr - 1 - a)));
            }
            bits.write_words(|words| kernels::gather(words, &d, root, &s, n, k))
        };
        stats.kernel_words += words;
        if dynfo_obs::ENABLED {
            crate::obs::eval_obs().kernel_words.add(words);
        }
    }

    /// Execute one atom load; the words it touched.
    #[allow(clippy::too_many_arguments)]
    fn load(
        &self,
        ev: &Evaluator<'_>,
        buf: &mut [u64],
        info: &SlotInfo,
        name: Sym,
        cols: &[ColSpec],
        path: &LoadPath,
        gather: Option<bool>,
    ) -> Result<u64, EvalError> {
        let id = ev
            .st
            .vocab()
            .relation(name)
            .ok_or(EvalError::UnknownRelation(name))?;
        let rel = ev.st.relation(id);
        if rel.universe() != self.lay.n {
            return Err(EvalError::LayoutMismatch);
        }
        let bits = rel.bits();
        let n = self.lay.n as usize;
        let shift = self.lay.shift as usize;
        let k = info.vars.len();
        Ok(match path {
            LoadPath::WordCopy => {
                buf.copy_from_slice(bits);
                2 * buf.len() as u64
            }
            LoadPath::Scatter { t_hi, tshift } => {
                buf.fill(0);
                for (w, &word) in bits.iter().enumerate() {
                    if word == 0 {
                        continue;
                    }
                    if *tshift == 0 {
                        buf[t_hi[w] / 64] = word;
                    } else {
                        let mut x = word;
                        while x != 0 {
                            let b = x.trailing_zeros() as usize;
                            x &= x - 1;
                            let pos = t_hi[w] + (b << tshift);
                            buf[pos / 64] |= 1 << (pos % 64);
                        }
                    }
                }
                (buf.len() + bits.len()) as u64
            }
            LoadPath::Gather { step } => {
                buf.fill(0);
                // Ground columns resolve once per execution into a fixed
                // array: they offset the gather's source index and are
                // the scan's prefix and filters.
                let arity = cols.len();
                let mut grounds = [0 as Elem; MAX_ARITY];
                let mut s = Strides { base: 0, step: *step };
                for (i, c) in cols.iter().enumerate() {
                    if let ColSpec::Ground(t) = c {
                        grounds[i] = resolve(ev, t)?;
                        if grounds[i] as usize >= n {
                            // A literal outside the universe matches nothing.
                            return Ok(buf.len() as u64);
                        }
                        s.base += grounds[i] as usize * n.pow((arity - 1 - i) as u32);
                    }
                }
                let mut d = Strides::default();
                for a in 0..k {
                    d.step[a] = 1usize << (shift * (k - 1 - a));
                }
                // Gather costs the same whatever the relation holds; a
                // scan costs its popcount. The relation maintains that
                // count, so the cheaper one is known before either runs.
                let cost = kernels::gather_cost(&d, &s, n, k);
                let moved = if gather.unwrap_or(rel.len() as u64 >= cost) {
                    let words = kernels::gather(buf, &d, bits, &s, n, k);
                    if dynfo_obs::ENABLED {
                        crate::obs::eval_obs().load_gather_words.add(words);
                    }
                    words
                } else {
                    let lead = cols.iter().take_while(|c| matches!(c, ColSpec::Ground(_))).count();
                    let mut count = 0u64;
                    'tuples: for t in rel.iter_prefix(&grounds[..lead]) {
                        count += 1;
                        let mut digits = [0 as Elem; MAX_ARITY];
                        for (i, c) in cols.iter().enumerate() {
                            match c {
                                ColSpec::Axis(a) => digits[*a] = t[i],
                                ColSpec::Repeat(a) => {
                                    if digits[*a] != t[i] {
                                        continue 'tuples;
                                    }
                                }
                                ColSpec::Ground(_) => {
                                    if grounds[i] != t[i] {
                                        continue 'tuples;
                                    }
                                }
                            }
                        }
                        let idx = self.lay.index(&digits[..k]);
                        buf[idx / 64] |= 1 << (idx % 64);
                    }
                    if dynfo_obs::ENABLED {
                        crate::obs::eval_obs().load_scan_words.add(count);
                    }
                    count
                };
                buf.len() as u64 + moved
            }
        })
    }

    /// Materialize a numeric-predicate mask.
    fn numeric(
        &self,
        ev: &Evaluator<'_>,
        buf: &mut [u64],
        info: &SlotInfo,
        atom: &Formula,
        negated: bool,
    ) -> Result<u64, EvalError> {
        let (a, b) = numeric_terms(atom);
        let pred = numeric_pred(atom);
        let test = |x: Elem, y: Elem| pred(x, y) != negated;
        let n = self.lay.n;
        let shift = self.lay.shift as usize;
        buf.fill(0);
        let mut set = |idx: usize| buf[idx / 64] |= 1 << (idx % 64);
        match (resolve_opt(ev, a)?, resolve_opt(ev, b)?) {
            (Some(x), Some(y)) => {
                if test(x, y) {
                    set(0);
                }
            }
            (None, Some(y)) => {
                for x in 0..n {
                    if test(x, y) {
                        set(x as usize);
                    }
                }
            }
            (Some(x), None) => {
                for y in 0..n {
                    if test(x, y) {
                        set(y as usize);
                    }
                }
            }
            (None, None) => {
                let (va, vb) = (a.as_var().unwrap(), b.as_var().unwrap());
                if va == vb {
                    for x in 0..n {
                        if test(x, x) {
                            set(x as usize);
                        }
                    }
                } else {
                    // Two distinct variables: axis order follows the
                    // slot's sorted columns.
                    let a_first = info.vars[0] == va;
                    for x in 0..n {
                        for y in 0..n {
                            if test(x, y) {
                                let (d0, d1) = if a_first { (x, y) } else { (y, x) };
                                set(((d0 as usize) << shift) | d1 as usize);
                            }
                        }
                    }
                }
            }
        }
        Ok(buf.len() as u64)
    }
}

/// Resolve a ground term against the evaluator's structure and params.
fn resolve(ev: &Evaluator<'_>, t: &Term) -> Result<Elem, EvalError> {
    resolve_opt(ev, t).map(|v| v.expect("ground term resolved to a variable"))
}

/// Like [`Evaluator::resolve`]: `None` for variables.
fn resolve_opt(ev: &Evaluator<'_>, t: &Term) -> Result<Option<Elem>, EvalError> {
    Ok(match t {
        Term::Var(_) => None,
        Term::Lit(e) => Some(*e),
        Term::Min => Some(0),
        Term::Max => Some(ev.st.size() - 1),
        Term::Param(i) => Some(
            ev.params
                .get(*i)
                .copied()
                .ok_or(EvalError::UnboundParam(*i))?,
        ),
        Term::Const(s) => {
            let id = ev
                .st
                .vocab()
                .constant(*s)
                .ok_or(EvalError::UnknownConstant(*s))?;
            Some(ev.st.constant(id))
        }
    })
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// [`compile_within`] for a formula not known to be canonical.
fn compile_any(f: &Formula, st: &Structure, optimize: bool, max_words: u64) -> Option<Plan> {
    if is_canonical(f) {
        compile_within(f, st, optimize, max_words)
    } else {
        compile_within(&crate::analysis::canonicalize(f), st, optimize, max_words)
    }
}

/// Lower, optimize and seal `f` (canonical), or `None` when some
/// subformula cannot be lowered or the sealed plan would exceed
/// `max_words`.
fn compile_within(f: &Formula, st: &Structure, optimize: bool, max_words: u64) -> Option<Plan> {
    debug_assert!(
        is_canonical(f),
        "compile_canonical caller contract violated: {f}"
    );
    let words = |c: &Compiler<'_>| c.slots.iter().map(|s| s.words as u64).sum::<u64>();
    // What a lowering costs, dearest component first.
    let cost = |c: &Compiler<'_>| (words(c), c.ops.len() as u64);
    let seal = |c: Compiler<'_>, root: SlotId, removed: u64, saved: u64| {
        (words(&c) <= max_words).then(|| finish(c, root, removed, saved))
    };
    let base = lower(f, st);
    if !optimize {
        let (c, root) = base?;
        return seal(c, root, 0, 0);
    }
    let base_cost = base.as_ref().map(|(c, _)| cost(c));
    // Formula stage: vetted rewrite rules, the one-point rule and
    // quantifier pushing. The rewritten formula is re-lowered; if that
    // declines the baseline stands — and the other way round: a formula
    // whose direct lowering declines (a block over the slot cap) may
    // lower once the rewrites have removed its extra axes.
    let rewritten = super::opt::optimize_formula(f).and_then(|g| lower(&g, st));
    let (mut c, mut root) = rewritten.or(base)?;
    // Op stage: CSE, NOT fusion, combine flattening, broadcast/fold
    // cancellation, constant propagation, dead-slot elimination.
    super::opt::optimize_ops(&mut c.slots, &mut c.ops, &mut root);
    // Rewrites may drop variables the result table is still expected
    // to carry (e.g. a conjunct collapsing to `true`); broadcast the
    // root back to the original column set so `Plan::vars()` — and
    // every decoded table — is identical optimizer-on and -off.
    let orig_vars: Vec<Sym> = free_vars(f).into_iter().collect();
    root = c.broadcast_to(root, &orig_vars);
    let (removed, saved) = match base_cost {
        // The optimizer must never ship a costlier plan: a formula-stage
        // rewrite can lower into *larger* intermediates than the direct
        // emission (whose peepholes see the original shape), and
        // work_words is the cost model every profitability gate reads.
        // Anything not strictly cheaper falls back to the baseline.
        Some(base_cost) if cost(&c) >= base_cost => {
            let (c0, root0) = lower(f, st)?;
            return seal(c0, root0, 0, 0);
        }
        Some((base_words, base_ops)) => (
            base_ops.saturating_sub(c.ops.len() as u64),
            base_words.saturating_sub(words(&c)),
        ),
        None => (0, 0),
    };
    if dynfo_obs::ENABLED && (removed > 0 || saved > 0) {
        let obs = crate::obs::eval_obs();
        obs.plan_opt_ops_removed.add(removed);
        obs.plan_opt_kernel_words_saved.add(saved);
    }
    seal(c, root, removed, saved)
}

/// Marker: this subtree cannot be lowered, so neither can the formula.
struct Unsupported;

/// Lower a canonical formula to a raw (unoptimized) op sequence.
fn lower<'a>(f: &Formula, st: &'a Structure) -> Option<(Compiler<'a>, SlotId)> {
    let mut c = Compiler {
        st,
        lay: Layout::new(st.size()),
        slots: Vec::new(),
        ops: Vec::new(),
        memo: HashMap::new(),
    };
    let root = c.emit(f).ok()?;
    Some((c, root))
}

/// Seal a lowered (and possibly optimized) op sequence into a [`Plan`]:
/// build the per-arity valid masks.
fn finish(c: Compiler<'_>, root: SlotId, opt_ops_removed: u64, opt_words_saved: u64) -> Plan {
    let mut valids: Vec<Option<Vec<u64>>> = vec![None; MAX_ARITY + 1];
    for op in &c.ops {
        let arity = match op {
            Op::Combine { dst, masked: true, .. } | Op::Not { dst, .. } => {
                Some(c.slots[*dst].vars.len())
            }
            Op::Const { dst, value: true } => Some(c.slots[*dst].vars.len()),
            _ => None,
        };
        if let Some(k) = arity {
            if valids[k].is_none() {
                valids[k] = Some(kernels::valid_mask(&c.lay, k));
            }
        }
    }
    Plan {
        lay: c.lay,
        slots: c.slots,
        ops: c.ops,
        root,
        valids,
        opt_ops_removed,
        opt_words_saved,
    }
}

struct Compiler<'a> {
    st: &'a Structure,
    lay: Layout,
    slots: Vec<SlotInfo>,
    ops: Vec<Op>,
    /// Structural CSE, keyed by the α-normalized subformula
    /// ([`alpha_normalize`]): the slot computing it and its free
    /// variables in slot order. An occurrence over the same variables
    /// shares the slot, so e.g. Theorem 4.1's fourfold `New(…)` is
    /// computed once per request.
    memo: HashMap<Formula, (SlotId, Vec<Sym>)>,
}

impl Compiler<'_> {
    /// Sorted free variables, if the slot fits the caps.
    fn slot_vars(&self, f: &Formula) -> Result<Vec<Sym>, Unsupported> {
        let fv: Vec<Sym> = free_vars(f).into_iter().collect();
        if fv.len() > MAX_ARITY || self.lay.bits_u128(fv.len()) > PLAN_SLOT_BITS_CAP {
            return Err(Unsupported);
        }
        Ok(fv)
    }

    fn new_slot(&mut self, vars: Vec<Sym>, stable: bool) -> SlotId {
        let words = self.lay.words(vars.len());
        self.slots.push(SlotInfo { vars, words, stable });
        self.slots.len() - 1
    }

    /// Lower `f` to a slot, memoized. `Err` means no kernel lowering
    /// exists for this subtree.
    fn emit(&mut self, f: &Formula) -> Result<SlotId, Unsupported> {
        let key = alpha_normalize(f);
        if let Some((normalized, fv)) = &key {
            if let Some(s) = self.reuse(f, normalized, fv) {
                return Ok(s);
            }
        }
        let s = self.emit_uncached(f)?;
        if let Some((normalized, fv)) = key {
            self.memo.entry(normalized).or_insert((s, fv));
        }
        Ok(s)
    }

    /// A slot for `f` from an α-equivalent subformula already lowered.
    /// Over the same variables it is that slot. Over renamed ones whose
    /// sorted order the renaming keeps, the bit layout is the same, so a
    /// composite subformula costs one copy pass instead of its whole
    /// subplan: k-edge connectivity's query instantiates its level-1
    /// forest formulas once per substitution site, each copy over fresh
    /// variable names.
    fn reuse(&mut self, f: &Formula, normalized: &Formula, fv: &[Sym]) -> Option<SlotId> {
        let (src, src_fv) = self.memo.get(normalized)?;
        let src = *src;
        let renamed: Vec<Sym> = self.slots[src]
            .vars
            .iter()
            .map(|v| fv[src_fv.iter().position(|x| x == v).expect("slot var is free")])
            .collect();
        if renamed == self.slots[src].vars {
            return Some(src);
        }
        let composite = match f {
            Formula::And(_) | Formula::Or(_) | Formula::Exists(..) => true,
            Formula::Not(g) => !matches!(
                &**g,
                Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..) | Formula::Bit(..)
            ),
            _ => false,
        };
        let vars = self.slot_vars(f).ok()?;
        if !composite || renamed != vars {
            return None;
        }
        let stable = self.slots[src].stable;
        let dst = self.new_slot(vars, stable);
        self.ops.push(Op::Combine { dst, srcs: vec![(src, false)], and: true, masked: false });
        Some(dst)
    }

    fn emit_uncached(&mut self, f: &Formula) -> Result<SlotId, Unsupported> {
        use Formula::*;
        let vars = self.slot_vars(f)?;
        match f {
            True | False => {
                let dst = self.new_slot(vars, true);
                self.ops.push(Op::Const { dst, value: matches!(f, True) });
                Ok(dst)
            }
            Rel { name, args } => self.emit_atom(*name, args, vars),
            Eq(..) | Le(..) | Lt(..) | Bit(..) => Ok(self.emit_numeric(f, false, vars)),
            Not(g) => match &**g {
                Eq(..) | Le(..) | Lt(..) | Bit(..) => Ok(self.emit_numeric(g, true, vars)),
                // ∀ peephole: ¬∃x̄ ¬h → AND-folds over h, skipping both
                // complement passes.
                Exists(vs, h) if matches!(&**h, Not(_)) => {
                    let Not(body) = &**h else { unreachable!() };
                    let inner = self.emit(body)?;
                    Ok(self.emit_folds(inner, vs, true))
                }
                _ => {
                    let src = self.emit(g)?;
                    let stable = self.slots[src].stable;
                    let dst = self.new_slot(vars, stable);
                    self.ops.push(Op::Not { dst, src });
                    Ok(dst)
                }
            },
            And(fs) | Or(fs) => self.emit_connective(fs, matches!(f, And(..)), vars),
            Exists(vs, g) => {
                let inner = self.emit(g)?;
                Ok(self.emit_folds(inner, vs, false))
            }
            Implies(..) | Iff(..) | Forall(..) => Err(Unsupported),
        }
    }

    fn emit_atom(
        &mut self,
        name: Sym,
        args: &[Term],
        vars: Vec<Sym>,
    ) -> Result<SlotId, Unsupported> {
        let id = self.st.vocab().relation(name).ok_or(Unsupported)?;
        let rel = self.st.relation(id);
        if args.len() != rel.arity() {
            return Err(Unsupported);
        }
        let mut cols = Vec::with_capacity(args.len());
        let mut seen: Vec<Sym> = Vec::new();
        for t in args {
            match t {
                Term::Var(v) => {
                    let axis = vars.iter().position(|x| x == v).expect("free var in slot");
                    if seen.contains(v) {
                        cols.push(ColSpec::Repeat(axis));
                    } else {
                        seen.push(*v);
                        cols.push(ColSpec::Axis(axis));
                    }
                }
                t => cols.push(ColSpec::Ground(*t)),
            }
        }
        let k = vars.len();
        let axes: Vec<usize> = cols
            .iter()
            .filter_map(|c| match c {
                ColSpec::Axis(a) => Some(*a),
                _ => None,
            })
            .collect();
        let pure = axes.len() == cols.len() && axes.len() == k;
        let identity = pure && axes.iter().enumerate().all(|(i, &a)| a == i);
        let aligned = self.lay.n as usize == self.lay.stride();
        let path = if identity && aligned {
            LoadPath::WordCopy
        } else if pure && aligned && self.lay.shift >= 6 {
            let shift = self.lay.shift as usize;
            let src_words = self.lay.words(k);
            let t_hi = (0..src_words)
                .map(|w| {
                    let idx = w * 64;
                    let mut out = 0usize;
                    for (j, &axis) in axes.iter().enumerate() {
                        let digit = (idx >> (shift * (k - 1 - j))) & (self.lay.stride() - 1);
                        out |= digit << (shift * (k - 1 - axis));
                    }
                    out
                })
                .collect();
            let tshift = (shift * (k - 1 - axes[k - 1])) as u32;
            LoadPath::Scatter { t_hi, tshift }
        } else {
            let n = self.lay.n as usize;
            let mut step = [0usize; MAX_ARITY];
            for (i, c) in cols.iter().enumerate() {
                if let ColSpec::Axis(a) | ColSpec::Repeat(a) = c {
                    step[*a] += n.pow((cols.len() - 1 - i) as u32);
                }
            }
            LoadPath::Gather { step }
        };
        let dst = self.new_slot(vars, false);
        self.ops.push(Op::Load { dst, rel: name, cols, path });
        Ok(dst)
    }

    fn emit_numeric(&mut self, atom: &Formula, negated: bool, vars: Vec<Sym>) -> SlotId {
        let stable = !mentions_param_or_const(atom);
        let dst = self.new_slot(vars, stable);
        self.ops.push(Op::Numeric { dst, atom: atom.clone(), negated });
        dst
    }

    /// Quantify out `vs` (those actually free in the slot) one axis at a
    /// time.
    fn emit_folds(&mut self, mut slot: SlotId, vs: &[Sym], and: bool) -> SlotId {
        for v in vs {
            let cur = &self.slots[slot];
            let Some(axis) = cur.vars.iter().position(|x| x == v) else {
                continue; // quantified variable not free: identity
            };
            let k = cur.vars.len();
            let stable = cur.stable;
            let mut vars = cur.vars.clone();
            vars.remove(axis);
            let gmask = if and {
                kernels::fold_gmasks(&self.lay, k, axis)
            } else {
                Vec::new()
            };
            let dst = self.new_slot(vars, stable);
            self.ops.push(Op::Fold { dst, src: slot, axis, and, gmask });
            slot = dst;
        }
        slot
    }

    /// Lower a connective: emit operands (absorbing top-level negations
    /// into the combine), broadcast each to the full variable set, then
    /// one fused pass.
    fn emit_connective(
        &mut self,
        fs: &[Formula],
        and: bool,
        vars: Vec<Sym>,
    ) -> Result<SlotId, Unsupported> {
        if fs.is_empty() {
            let dst = self.new_slot(vars, true);
            self.ops.push(Op::Const { dst, value: and });
            return Ok(dst);
        }
        let mut srcs: Vec<(SlotId, bool)> = Vec::with_capacity(fs.len());
        for g in fs {
            // Absorb ¬h into the fused pass (ANDNOT/ORNOT lanes) instead
            // of a separate complement op — except numeric atoms, whose
            // negation is free at mask-build time.
            let (h, neg) = match g {
                Formula::Not(h) if !matches!(
                    &**h,
                    Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..) | Formula::Bit(..)
                ) =>
                {
                    (&**h, true)
                }
                _ => (g, false),
            };
            let slot = self.emit(h)?;
            let slot = self.broadcast_to(slot, &vars);
            srcs.push((slot, neg));
        }
        if srcs.len() == 1 && !srcs[0].1 {
            return Ok(srcs[0].0);
        }
        let stable = srcs.iter().all(|&(s, _)| self.slots[s].stable);
        let masked = srcs.iter().any(|&(_, neg)| neg);
        let dst = self.new_slot(vars, stable);
        self.ops.push(Op::Combine { dst, srcs, and, masked });
        Ok(dst)
    }

    /// Insert axes until `slot` covers `target` (both sorted).
    fn broadcast_to(&mut self, mut slot: SlotId, target: &[Sym]) -> SlotId {
        for &v in target {
            if self.slots[slot].vars.contains(&v) {
                continue;
            }
            let cur = &self.slots[slot];
            let axis = cur.vars.partition_point(|&x| x < v);
            let k_src = cur.vars.len();
            let stable = cur.stable;
            let mut vars = cur.vars.clone();
            vars.insert(axis, v);
            let rep = kernels::broadcast_rep(&self.lay, k_src, axis);
            let dst = self.new_slot(vars, stable);
            self.ops.push(Op::Broadcast { dst, src: slot, axis, rep });
            slot = dst;
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{and, bit, eq, exists, forall, le, lit, lt, not, or, param, rel, v};
    use crate::structure::Structure;
    use crate::vocab::Vocabulary;
    use std::sync::Arc;

    fn st(n: Elem, edges: &[(Elem, Elem)]) -> Structure {
        let vocab = Arc::new(
            Vocabulary::new()
                .with_relation("E", 2)
                .with_relation("M", 1)
                .with_constant("c"),
        );
        let mut s = Structure::empty(vocab, n);
        for &(a, b) in edges {
            s.insert("E", [a, b]);
        }
        for i in 0..n {
            if i % 3 == 0 {
                s.insert("M", [i]);
            }
        }
        s
    }

    /// Compile + execute must match the interpreter on the same formula.
    fn check(f: &Formula, s: &Structure, params: &[Elem]) {
        let canonical = crate::analysis::canonicalize(f);
        let plan = Plan::compile(&canonical, s)
            .unwrap_or_else(|| panic!("expected a plan for {canonical}"));
        let mut arena = plan.arena();
        let mut ev = Evaluator::new(s, params);
        let got = plan
            .execute(&mut ev, &mut arena, None)
            .expect("plan execution failed");
        let expect = crate::eval::evaluate(&canonical, s, params).expect("interpreter failed");
        let order: Vec<Sym> = got.vars().to_vec();
        assert_eq!(
            got.clone().sorted(),
            expect.project(&order).sorted(),
            "plan != interpreter for {canonical}"
        );
        // Second execution reuses the arena (stable slots cached).
        let mut ev2 = Evaluator::new(s, params);
        let again = plan.execute(&mut ev2, &mut arena, None).unwrap();
        assert_eq!(again.sorted(), got.sorted());
    }

    #[test]
    fn atoms_and_boolean_connectives() {
        let s = st(6, &[(0, 1), (1, 2), (2, 0), (4, 5)]);
        check(&rel("E", [v("x"), v("y")]), &s, &[]);
        check(&rel("E", [v("y"), v("x")]), &s, &[]);
        check(&rel("E", [v("x"), v("x")]), &s, &[]);
        check(&(rel("E", [v("x"), v("y")]) & rel("M", [v("x")])), &s, &[]);
        check(&(rel("E", [v("x"), v("y")]) | rel("E", [v("y"), v("x")])), &s, &[]);
        check(&not(rel("E", [v("x"), v("y")])), &s, &[]);
        check(
            &(rel("M", [v("x")]) & not(rel("E", [v("x"), v("y")]))),
            &s,
            &[],
        );
    }

    #[test]
    fn quantifiers_and_padding() {
        // n=6 pads to S=8: folds and broadcasts cross garbage lanes.
        let s = st(6, &[(0, 1), (1, 2), (2, 3), (5, 5)]);
        check(&exists(["y"], rel("E", [v("x"), v("y")])), &s, &[]);
        check(&exists(["x"], rel("E", [v("x"), v("y")])), &s, &[]);
        check(&forall(["y"], le(v("x"), v("y"))), &s, &[]);
        check(
            &forall(["y"], or([rel("E", [v("x"), v("y")]), eq(v("x"), v("y")), lt(v("y"), v("x"))])),
            &s,
            &[],
        );
        check(
            &exists(
                ["y", "z"],
                and([rel("E", [v("x"), v("y")]), rel("E", [v("y"), v("z")])]),
            ),
            &s,
            &[],
        );
        // Sentence: two-hop reachability exists anywhere.
        check(
            &exists(
                ["x", "y", "z"],
                and([rel("E", [v("x"), v("y")]), rel("E", [v("y"), v("z")])]),
            ),
            &s,
            &[],
        );
    }

    #[test]
    fn numeric_params_and_constants() {
        let mut s = st(7, &[(0, 1), (3, 4)]);
        s.set_const("c", 4);
        check(&eq(v("x"), param(0)), &s, &[3]);
        check(&(rel("E", [param(0), v("y")]) | eq(v("y"), param(1))), &s, &[3, 5]);
        check(&bit(v("x"), lit(1)), &s, &[]);
        check(&bit(v("x"), v("y")), &s, &[]);
        check(&le(crate::formula::cst("c"), v("x")), &s, &[]);
        check(&eq(param(0), param(1)), &s, &[2, 2]);
        check(&eq(param(0), param(1)), &s, &[2, 3]);
        check(&not(eq(v("x"), param(0))), &s, &[6]);
    }

    #[test]
    fn aligned_universe_uses_word_paths() {
        // n=64 == S: WordCopy and Scatter paths with shift ≥ 6.
        let edges: Vec<(Elem, Elem)> = (0..64).map(|i| (i, (i * 7 + 3) % 64)).collect();
        let s = st(64, &edges);
        check(&rel("E", [v("x"), v("y")]), &s, &[]);
        check(&rel("E", [v("y"), v("x")]), &s, &[]);
        check(
            &exists(["y"], and([rel("E", [v("x"), v("y")]), rel("E", [v("y"), v("x")])])),
            &s,
            &[],
        );
        check(&forall(["y"], or([rel("E", [v("x"), v("y")]), not(rel("E", [v("y"), v("x")]))])), &s, &[]);
    }

    #[test]
    fn unguarded_negation_needs_no_budget() {
        // The interpreter errors under a tiny complement budget; the
        // plan's masked NOT does not touch the budget at all.
        let s = st(16, &[(0, 1), (2, 3)]);
        let f = crate::analysis::canonicalize(&not(rel("E", [v("x"), v("y")])));
        let plan = Plan::compile(&f, &s).expect("plan");
        let mut ev = Evaluator::new(&s, &[]).with_complement_budget(4);
        assert!(matches!(
            ev.eval(&f),
            Err(EvalError::ComplementTooLarge { .. })
        ));
        let mut ev2 = Evaluator::new(&s, &[]).with_complement_budget(4);
        let mut arena = plan.arena();
        let got = plan.execute(&mut ev2, &mut arena, None).unwrap();
        assert_eq!(got.len(), 16 * 16 - 2);
    }

    /// `∃ a b c d e` over the edges of the complete graph on those five
    /// variables: no quantifier moves inward past a conjunct, so some
    /// slot spans all five, and at n = 64 that is 2³⁰ bits — past
    /// [`PLAN_SLOT_BITS_CAP`].
    fn k5(extra: Formula) -> Formula {
        let names = ["a", "b", "c", "d", "e"];
        let mut conj = vec![extra];
        for (i, x) in names.iter().enumerate() {
            for y in &names[i + 1..] {
                conj.push(rel("E", [v(x), v(y)]));
            }
        }
        exists(names, and(conj))
    }

    #[test]
    fn wide_block_declines_the_whole_formula() {
        // Neither the block nor a sentence around it compiles — a plan
        // is all kernels or nothing — and the interpreter answers the
        // sentence whole.
        let mut edges = vec![];
        for a in 0..5 {
            for b in a + 1..5 {
                edges.push((a, b));
            }
        }
        let s = st(64, &edges);
        let block = k5(rel("M", [v("a")]));
        assert!(Plan::compile(&crate::analysis::canonicalize(&block), &s).is_none());
        assert!(crate::eval::satisfies(&block, &s, &[]).unwrap());
        let shifted = k5(not(rel("M", [v("a")])));
        assert!(Plan::compile(&crate::analysis::canonicalize(&shifted), &s).is_none());
        assert!(!crate::eval::satisfies(&shifted, &s, &[]).unwrap());
    }

    #[test]
    fn foreign_layout_is_a_typed_error() {
        // A plan that meets another universe at execution — the whole
        // structure's, or one relation's written in through
        // `relation_mut` — fails with `LayoutMismatch` instead of
        // misreading the bits.
        let mut s = st(6, &[(0, 1), (1, 2), (4, 5)]);
        let f = crate::analysis::canonicalize(&exists(
            ["z"],
            and([rel("E", [v("x"), v("z")]), rel("E", [v("z"), v("y")])]),
        ));
        let plan = Plan::compile(&f, &s).expect("structure compiles");
        let mut arena = plan.arena();
        let before = crate::eval::evaluate(&f, &s, &[]).unwrap().sorted();
        let ran = plan.execute(&mut Evaluator::new(&s, &[]), &mut arena, None).unwrap();
        assert_eq!(ran.sorted(), before);

        let wider = st(40, &[(0, 1)]);
        let err = plan.execute(&mut Evaluator::new(&wider, &[]), &mut arena, None).unwrap_err();
        assert_eq!(err, EvalError::LayoutMismatch);

        let id = s.vocab().relation(Sym::new("E")).unwrap();
        *s.relation_mut(id) = wider.relation(id).clone();
        let err = plan.execute(&mut Evaluator::new(&s, &[]), &mut arena, None).unwrap_err();
        assert_eq!(err, EvalError::LayoutMismatch);
    }

    #[test]
    fn renamed_copies_share_a_subplan_when_column_order_agrees() {
        let s = st(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 4)]);
        let two_hop = |a: &str, b: &str, mid: &str| {
            exists([mid], and([rel("E", [v(a), v(mid)]), rel("E", [v(mid), v(b)])]))
        };
        let loads = |f: &Formula| {
            let plan = Plan::compile_with(&crate::analysis::canonicalize(f), &s, false).unwrap();
            plan.ops.iter().filter(|op| matches!(op, Op::Load { .. })).count()
        };
        // (x, y) ↦ (u, v) keeps the sorted column order: the second
        // two-hop is one copy of the first, no loads of its own.
        let same_order = and([two_hop("x", "y", "z"), two_hop("u", "v", "w")]);
        assert_eq!(loads(&same_order), 2);
        check(&same_order, &s, &[]);
        // (x, y) ↦ (v, u) transposes the layout: lowered afresh.
        let swapped = and([two_hop("x", "y", "z"), two_hop("v", "u", "w")]);
        assert_eq!(loads(&swapped), 4);
        check(&swapped, &s, &[]);
    }

    #[test]
    fn stable_slots_survive_relation_churn() {
        // x<y is request-independent: computed once, reused after the
        // relation changes (only the load is re-run).
        let mut s = st(6, &[(0, 1)]);
        let f = crate::analysis::canonicalize(&and([
            rel("E", [v("x"), v("y")]),
            lt(v("x"), v("y")),
        ]));
        let plan = Plan::compile(&f, &s).unwrap();
        let mut arena = plan.arena();
        let mut ev = Evaluator::new(&s, &[]);
        let first = plan.execute(&mut ev, &mut arena, None).unwrap();
        assert_eq!(first.len(), 1);
        s.insert("E", [2, 5]);
        s.insert("E", [5, 2]);
        let mut ev = Evaluator::new(&s, &[]);
        let second = plan.execute(&mut ev, &mut arena, None).unwrap();
        assert_eq!(second.len(), 2);
        assert!(arena.stable_done.iter().any(|&d| d), "no stable slot cached");
    }

    #[test]
    fn plan_counts_kernel_words() {
        let s = st(8, &[(0, 1), (1, 2)]);
        let f = crate::analysis::canonicalize(&exists(
            ["y"],
            and([rel("E", [v("x"), v("y")]), not(rel("E", [v("y"), v("x")]))]),
        ));
        let plan = Plan::compile(&f, &s).unwrap();
        let mut ev = Evaluator::new(&s, &[]);
        let mut arena = plan.arena();
        plan.execute(&mut ev, &mut arena, None).unwrap();
        let stats = ev.stats();
        assert_eq!(stats.plan_compiled, 1);
        assert!(stats.kernel_words > 0);
    }
}
