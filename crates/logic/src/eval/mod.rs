//! Evaluation of first-order formulas over finite structures.
//!
//! First-order logic *is* the relational calculus, so evaluation is
//! compiled to relational algebra over [`Table`]s:
//!
//! * relation atoms become scans,
//! * conjunction becomes a planned sequence of hash joins, antijoins
//!   (guarded negation — including `¬∃`, which is how the paper's `∀`
//!   guards are executed without materializing complements), binders, and
//!   filters,
//! * disjunction becomes union after uniform extension,
//! * `∃` becomes projection,
//! * an *unguarded* negation falls back to an explicit complement over
//!   the universe, guarded by a budget.
//!
//! The invariant throughout: `eval(φ)` returns a table whose column set is
//! exactly the free variables of `φ`.

pub(crate) mod kernels;
pub mod naive;
pub mod opt;
pub mod plan;
pub mod probe;
mod table;

pub use probe::{is_ground, probe};
pub use table::Table;

use crate::analysis::{canonicalize, free_vars, is_canonical};
use crate::formula::{Formula, Term};
use crate::fxhash::FxHashMap;
use crate::intern::Sym;
use crate::structure::Structure;
use crate::tuple::{Elem, Tuple, MAX_ARITY};
use std::collections::BTreeSet;
use std::fmt;

/// Errors surfaced during evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// The formula mentions a relation symbol the structure lacks.
    UnknownRelation(Sym),
    /// The formula mentions a constant symbol the structure lacks.
    UnknownConstant(Sym),
    /// An atom's argument count differs from the relation's arity.
    ArityMismatch { rel: Sym, expected: usize, got: usize },
    /// A `Param(i)` term had no binding (request supplied too few args).
    UnboundParam(usize),
    /// An unguarded negation would materialize more than the budget.
    ComplementTooLarge { columns: usize, n: Elem },
    /// Extending a table over the universe needs more rows than can be
    /// allocated.
    TableTooLarge { rows: u128 },
    /// A compiled plan met a structure (or one of its relations) over
    /// another universe size than the one it was compiled for.
    LayoutMismatch,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(s) => write!(f, "unknown relation symbol {s}"),
            EvalError::UnknownConstant(s) => write!(f, "unknown constant symbol {s}"),
            EvalError::ArityMismatch { rel, expected, got } => {
                write!(f, "relation {rel} has arity {expected}, got {got} arguments")
            }
            EvalError::UnboundParam(i) => write!(f, "unbound request parameter ?{i}"),
            EvalError::ComplementTooLarge { columns, n } => write!(
                f,
                "unguarded negation over {columns} variables with n={n} exceeds the complement budget"
            ),
            EvalError::TableTooLarge { rows } => {
                write!(f, "a table of {rows} rows cannot be allocated")
            }
            EvalError::LayoutMismatch => {
                write!(f, "the universe size differs from the one the plan was compiled for")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Work counters accumulated during evaluation.
///
/// `rows_built` is the evaluator's total materialized output — the
/// sequential work; combined with the formula's quantifier depth it gives
/// the CRAM work/depth picture the paper's parallel claims are about.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct EvalStats {
    /// Total rows materialized across all intermediate tables.
    pub rows_built: usize,
    /// Number of hash joins performed.
    pub joins: usize,
    /// Number of antijoins (guarded negations) performed.
    pub antijoins: usize,
    /// Number of explicit complements (unguarded negations).
    pub complements: usize,
    /// Largest intermediate table, in rows.
    pub max_table: usize,
    /// Evaluations served by a compiled bit-parallel plan
    /// ([`plan::Plan`]).
    pub plan_compiled: usize,
    /// Evaluations that wanted a plan but fell back to the interpreter
    /// (no plan compiled, or the caller's gate declined it).
    pub plan_fallback: usize,
    /// 64-bit words processed by plan kernels — the bit-parallel
    /// counterpart of `rows_built` (each word covers 64 tuples).
    pub kernel_words: u64,
}

impl EvalStats {
    fn note(&mut self, t: &Table) {
        self.rows_built += t.len();
        self.max_table = self.max_table.max(t.len());
    }

    /// Merge counters from another evaluation.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.rows_built += other.rows_built;
        self.joins += other.joins;
        self.antijoins += other.antijoins;
        self.complements += other.complements;
        self.max_table = self.max_table.max(other.max_table);
        self.plan_compiled += other.plan_compiled;
        self.plan_fallback += other.plan_fallback;
        self.kernel_words += other.kernel_words;
    }
}

/// Default cap on rows a single complement may produce.
pub const DEFAULT_COMPLEMENT_BUDGET: u128 = 1 << 24;

/// Composite subformulas at least this large are memoized.
const MEMO_MIN_SIZE: usize = 8;

/// Reserved column names for α-normalized memo keys. The middle dot
/// cannot appear in parsed identifiers, so these can never collide with
/// (or be captured by) program variables.
fn slots() -> &'static [Sym; MAX_ARITY] {
    static SLOTS: std::sync::OnceLock<[Sym; MAX_ARITY]> = std::sync::OnceLock::new();
    SLOTS.get_or_init(|| std::array::from_fn(|i| crate::sym(&format!("·{i}"))))
}

fn slot_sym(i: usize) -> Sym {
    slots()[i]
}

fn slot_index(s: Sym) -> Option<usize> {
    slots().iter().position(|&slot| slot == s)
}

/// Binder names for α-normalized keys, by binding depth (`·b0` for the
/// outermost bound variable). Disjoint from the free-variable slots.
fn bound_sym(depth: usize) -> Sym {
    static BOUND: std::sync::OnceLock<Vec<Sym>> = std::sync::OnceLock::new();
    let pre = BOUND.get_or_init(|| (0..64).map(|i| crate::sym(&format!("·b{i}"))).collect());
    pre.get(depth)
        .copied()
        .unwrap_or_else(|| crate::sym(&format!("·b{depth}")))
}

/// Rename the free variables of `f` to positional slots, numbered by
/// **first occurrence** in a preorder walk, and every bound variable to
/// its binding depth, so α-equivalent occurrences — same formula up to
/// the names of its variables — produce identical memo keys.
/// First-occurrence numbering (rather than sorted names) also unifies
/// argument-swapped instances of symmetric definitions: Theorem 4.1's
/// delete evaluates `New(x,y)`, `New(y,x)`, `New(u,w)`, `New(w,u)`, and
/// all four normalize to the same key. Renaming binders unifies the
/// copies [`crate::subst`] freshens: every instance of a composed
/// definition (k-edge connectivity's level-1 forest formulas) binds
/// differently named variables. Returns the normalized formula and the
/// original variables in slot order; `None` when the formula has more
/// free variables than a table can hold (never true for paper programs).
pub fn alpha_normalize(f: &Formula) -> Option<(Formula, Vec<Sym>)> {
    let mut fv = Vec::new();
    free_vars_in_order(f, &mut Vec::new(), &mut fv);
    if fv.len() > MAX_ARITY {
        return None;
    }
    let slot = |v: Sym| {
        Term::Var(slot_sym(fv.iter().position(|&x| x == v).expect("free variable collected")))
    };
    Some((f.rename_vars(&slot, &mut |_, depth| bound_sym(depth)), fv))
}

/// Collect free variables in order of first occurrence (preorder,
/// left-to-right), respecting quantifier shadowing.
fn free_vars_in_order(f: &Formula, bound: &mut Vec<Sym>, out: &mut Vec<Sym>) {
    use Formula::*;
    let term = |t: &Term, bound: &Vec<Sym>, out: &mut Vec<Sym>| {
        if let Term::Var(s) = t {
            if !bound.contains(s) && !out.contains(s) {
                out.push(*s);
            }
        }
    };
    match f {
        True | False => {}
        Rel { args, .. } => {
            for a in args {
                term(a, bound, out);
            }
        }
        Eq(s, t) | Le(s, t) | Lt(s, t) | Bit(s, t) => {
            term(s, bound, out);
            term(t, bound, out);
        }
        Not(g) => free_vars_in_order(g, bound, out),
        And(fs) | Or(fs) => {
            for g in fs {
                free_vars_in_order(g, bound, out);
            }
        }
        Implies(a, b) | Iff(a, b) => {
            free_vars_in_order(a, bound, out);
            free_vars_in_order(b, bound, out);
        }
        Exists(vs, g) | Forall(vs, g) => {
            let depth = bound.len();
            bound.extend(vs.iter().copied());
            free_vars_in_order(g, bound, out);
            bound.truncate(depth);
        }
    }
}

/// A formula evaluator bound to one structure and one parameter vector.
pub struct Evaluator<'a> {
    st: &'a Structure,
    params: &'a [Elem],
    stats: EvalStats,
    complement_budget: u128,
    /// Memoized results for repeated subformulas, keyed by the
    /// α-normalized formula alone: the structure and the parameters are
    /// fixed for the evaluator's lifetime (the borrow of `st` rules out
    /// a stale entry), so nothing else can change a result. Update
    /// programs reuse large subformulas — Theorem 4.1's `New` appears
    /// four times in one delete — and a host that evaluates every rule
    /// of a request through one evaluator shares them across rules.
    memo: FxHashMap<Formula, Table>,
}

/// Evaluate `f` over `st` with request parameters `params`.
///
/// Returns the table of satisfying assignments to the free variables.
pub fn evaluate(f: &Formula, st: &Structure, params: &[Elem]) -> Result<Table, EvalError> {
    let mut ev = Evaluator::new(st, params);
    let canonical;
    let g = if is_canonical(f) {
        f
    } else {
        canonical = canonicalize(f);
        &canonical
    };
    ev.eval(g)
}

/// Evaluate a sentence (no free variables) to a boolean.
pub fn satisfies(f: &Formula, st: &Structure, params: &[Elem]) -> Result<bool, EvalError> {
    Ok(evaluate(f, st, params)?.as_bool())
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over `st` with parameters `params`.
    pub fn new(st: &'a Structure, params: &'a [Elem]) -> Evaluator<'a> {
        Evaluator {
            st,
            params,
            stats: EvalStats::default(),
            complement_budget: DEFAULT_COMPLEMENT_BUDGET,
            memo: FxHashMap::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Mutable counter access, for hosts that account work done outside
    /// `eval` against this evaluation (the plan executor, the machine's
    /// fallback bookkeeping).
    pub fn stats_mut(&mut self) -> &mut EvalStats {
        &mut self.stats
    }

    /// Override the complement budget (rows).
    pub fn with_complement_budget(mut self, budget: u128) -> Evaluator<'a> {
        self.complement_budget = budget;
        self
    }

    fn n(&self) -> Elem {
        self.st.size()
    }

    /// Resolve a term to a ground element, or `None` for variables.
    fn resolve(&self, t: &Term) -> Result<Option<Elem>, EvalError> {
        Ok(match t {
            Term::Var(_) => None,
            Term::Lit(e) => Some(*e),
            Term::Min => Some(0),
            Term::Max => Some(self.n() - 1),
            Term::Param(i) => Some(
                self.params
                    .get(*i)
                    .copied()
                    .ok_or(EvalError::UnboundParam(*i))?,
            ),
            Term::Const(s) => {
                let id = self
                    .st
                    .vocab()
                    .constant(*s)
                    .ok_or(EvalError::UnknownConstant(*s))?;
                Some(self.st.constant(id))
            }
        })
    }

    /// Evaluate a canonical-form formula. Public for callers that
    /// pre-canonicalize (Dyn-FO programs do, once, at construction).
    pub fn eval(&mut self, f: &Formula) -> Result<Table, EvalError> {
        use Formula::*;
        // Memoize composite nodes, keyed by the α-normalized formula
        // (free variables renamed to positional slots, so e.g. Theorem
        // 4.1's `New(x,y)` and `New(u,w)` share one entry). Relation
        // atoms are always memo-eligible: a scan's table is often reused
        // verbatim (the same atom appears across rules of one request)
        // and the key is a two-node clone.
        let memoizable = match f {
            Rel { .. } => true,
            And(..) | Or(..) | Exists(..) | Not(..) => {
                crate::analysis::size(f) >= MEMO_MIN_SIZE
            }
            _ => false,
        };
        let key = if memoizable { alpha_normalize(f) } else { None };
        if let Some((normalized, fv)) = &key {
            let hit = self.memo.get(normalized).cloned();
            if dynfo_obs::ENABLED {
                let obs = crate::obs::eval_obs();
                let class = crate::obs::class_of(normalized);
                match hit {
                    Some(_) => obs.cache_hit[class].inc(),
                    None => obs.cache_miss[class].inc(),
                }
            }
            if let Some(table) = hit {
                // Stored columns are slots; rename them back to this
                // occurrence's variables.
                return Ok(table.into_renamed(|c| slot_index(c).map(|i| fv[i])));
            }
        }
        let out = match f {
            True => Table::unit(),
            False => Table::empty(Vec::new()),
            Rel { name, args } => self.scan(*name, args)?,
            Eq(..) | Le(..) | Lt(..) | Bit(..) => self.numeric(f, false)?,
            Not(g) => match &**g {
                Eq(..) | Le(..) | Lt(..) | Bit(..) => self.numeric(g, true)?,
                _ => {
                    // Unguarded negation: complement over free vars.
                    let inner = self.eval(g)?;
                    self.complement(inner)?
                }
            },
            And(fs) => self.eval_and(fs)?,
            Or(fs) => self.eval_or(fs, f)?,
            Exists(vs, g) => {
                let inner = self.eval(g)?;
                inner.project_out(vs)
            }
            Implies(..) | Iff(..) | Forall(..) => {
                // Not canonical; canonicalize locally (slow path).
                let c = canonicalize(f);
                self.eval(&c)?
            }
        };
        self.stats.note(&out);
        if dynfo_obs::ENABLED {
            crate::obs::eval_obs().interp_rows.add(out.len() as u64);
        }
        if let Some((normalized, fv)) = key {
            let table = out.renamed(|c| fv.iter().position(|&v| v == c).map(slot_sym));
            self.memo.insert(normalized, table);
        }
        Ok(out)
    }

    /// `t` with a column `v` ranging over the universe.
    fn extend(&self, t: &Table, v: Sym) -> Result<Table, EvalError> {
        t.try_extend(v, self.n()).map_err(|rows| EvalError::TableTooLarge { rows })
    }

    fn complement(&mut self, t: Table) -> Result<Table, EvalError> {
        let k = t.vars().len();
        let cost = (self.n() as u128).pow(k as u32);
        if cost > self.complement_budget {
            return Err(EvalError::ComplementTooLarge {
                columns: k,
                n: self.n(),
            });
        }
        self.stats.complements += 1;
        Ok(t.complement(self.n()))
    }

    /// Scan a relation atom into a table over its distinct variables.
    fn scan(&mut self, name: Sym, args: &[Term]) -> Result<Table, EvalError> {
        let id = self
            .st
            .vocab()
            .relation(name)
            .ok_or(EvalError::UnknownRelation(name))?;
        let arity = self.st.vocab().arity(id);
        if args.len() != arity {
            return Err(EvalError::ArityMismatch {
                rel: name,
                expected: arity,
                got: args.len(),
            });
        }
        // Per-position constraints: ground value or variable (with the
        // column index of its first occurrence, for repeated variables).
        let mut vars: Vec<Sym> = Vec::new();
        let mut plan: Vec<Pos> = Vec::with_capacity(args.len());
        for t in args {
            match self.resolve(t)? {
                Some(v) => plan.push(Pos::Ground(v)),
                None => {
                    let s = t.as_var().expect("non-ground term must be a variable");
                    match vars.iter().position(|&x| x == s) {
                        Some(i) => plan.push(Pos::Repeat(i)),
                        None => {
                            vars.push(s);
                            plan.push(Pos::Fresh);
                        }
                    }
                }
            }
        }
        // Ground leading arguments (parameters and substituted slice
        // literals are the common case) push down into the relation as a
        // prefix range: O(matching tuples) instead of O(|R|).
        fn select(plan: &[Pos], tuples: impl Iterator<Item = Tuple>) -> Vec<Tuple> {
            let mut rows = Vec::new();
            'tuples: for tuple in tuples {
                let mut row = Tuple::empty();
                for (i, p) in plan.iter().enumerate() {
                    let v = tuple[i];
                    match p {
                        Pos::Ground(g) => {
                            if v != *g {
                                continue 'tuples;
                            }
                        }
                        Pos::Fresh => row = row.push(v),
                        Pos::Repeat(j) => {
                            if row[*j] != v {
                                continue 'tuples;
                            }
                        }
                    }
                }
                rows.push(row);
            }
            rows
        }
        let prefix: Vec<Elem> = plan
            .iter()
            .map_while(|p| match p {
                Pos::Ground(g) => Some(*g),
                _ => None,
            })
            .collect();
        let relation = self.st.relation(id);
        let rows = if prefix.is_empty() {
            select(&plan, relation.iter())
        } else {
            select(&plan, relation.iter_prefix(&prefix))
        };
        Ok(Table::new(vars, rows))
    }

    /// Materialize a (possibly negated) numeric atom as a table over its
    /// variables. Cost ≤ n² (only when both sides are distinct variables).
    fn numeric(&mut self, f: &Formula, negated: bool) -> Result<Table, EvalError> {
        let (a, b) = numeric_terms(f);
        let pred = numeric_pred(f);
        let test = |x: Elem, y: Elem| pred(x, y) != negated;
        let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
        Ok(match (ra, rb) {
            (Some(x), Some(y)) => {
                if test(x, y) {
                    Table::unit()
                } else {
                    Table::empty(Vec::new())
                }
            }
            (None, Some(y)) => {
                let va = a.as_var().unwrap();
                Table::new(
                    vec![va],
                    (0..self.n()).filter(|&x| test(x, y)).map(Tuple::unary).collect(),
                )
            }
            (Some(x), None) => {
                let vb = b.as_var().unwrap();
                Table::new(
                    vec![vb],
                    (0..self.n()).filter(|&y| test(x, y)).map(Tuple::unary).collect(),
                )
            }
            (None, None) => {
                let (va, vb) = (a.as_var().unwrap(), b.as_var().unwrap());
                if va == vb {
                    Table::new(
                        vec![va],
                        (0..self.n()).filter(|&x| test(x, x)).map(Tuple::unary).collect(),
                    )
                } else {
                    let mut rows = Vec::new();
                    for x in 0..self.n() {
                        for y in 0..self.n() {
                            if test(x, y) {
                                rows.push(Tuple::pair(x, y));
                            }
                        }
                    }
                    Table::new(vec![va, vb], rows)
                }
            }
        })
    }

    /// Disjunction: evaluate each disjunct, uniformly extend all to the
    /// union of their columns, and union.
    fn eval_or(&mut self, fs: &[Formula], whole: &Formula) -> Result<Table, EvalError> {
        let target: Vec<Sym> = free_vars(whole).into_iter().collect();
        let mut acc = Table::empty(target.clone());
        for g in fs {
            let mut t = self.eval(g)?;
            for &v in &target {
                if t.col(v).is_none() {
                    t = self.extend(&t, v)?;
                    self.stats.note(&t);
                }
            }
            acc = acc.union(&t.project(&target));
        }
        self.stats.note(&acc);
        Ok(acc)
    }

    /// Conjunction planner. See module docs.
    fn eval_and(&mut self, fs: &[Formula]) -> Result<Table, EvalError> {
        // Flatten nested conjunctions; drop True; short-circuit False.
        let mut conjuncts: Vec<&Formula> = Vec::new();
        let mut stack: Vec<&Formula> = fs.iter().rev().collect();
        let whole_free: BTreeSet<Sym> = {
            let mut s = BTreeSet::new();
            for g in fs {
                s.extend(free_vars(g));
            }
            s
        };
        while let Some(g) = stack.pop() {
            match g {
                Formula::True => {}
                Formula::False => {
                    return Ok(Table::empty(whole_free.into_iter().collect()));
                }
                Formula::And(inner) => stack.extend(inner.iter().rev()),
                _ => conjuncts.push(g),
            }
        }

        // Classify.
        let mut positives: Vec<&Formula> = Vec::new();
        let mut numerics: Vec<(&Formula, bool)> = Vec::new(); // (atom, negated)
        let mut negsubs: Vec<&Formula> = Vec::new(); // inner of Not(...)
        for g in conjuncts {
            match g {
                Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..) | Formula::Bit(..) => {
                    numerics.push((g, false))
                }
                Formula::Not(inner) => match &**inner {
                    Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..) | Formula::Bit(..) => {
                        numerics.push((inner, true))
                    }
                    _ => negsubs.push(inner),
                },
                _ => positives.push(g),
            }
        }

        let mut table = Table::unit();
        loop {
            // Empty-table short-circuit: once the accumulated table has
            // no rows, no further conjunct can add one, so the result
            // is empty regardless of what remains. This is what makes
            // closed guards cheap — `γ(?̄) ∧ big-repair` dies at the
            // guard scan when γ is false instead of materializing the
            // repair subformula.
            if table.is_empty() {
                return Ok(Table::empty(whole_free.iter().copied().collect()));
            }
            let bound: BTreeSet<Sym> = table.vars().iter().copied().collect();

            // 1. Numeric atoms whose variables are all bound → filters;
            //    positive equalities with one unbound side → binders.
            if let Some(idx) = numerics.iter().position(|(g, _)| {
                free_vars(g).iter().all(|v| bound.contains(v))
            }) {
                let (g, negated) = numerics.swap_remove(idx);
                table = self.apply_numeric_filter(&table, g, negated)?;
                self.stats.note(&table);
                continue;
            }
            if let Some(idx) = numerics.iter().position(|(g, negated)| {
                !negated && matches!(g, Formula::Eq(..)) && self.binder_target(g, &bound).is_some()
            }) {
                let (g, _) = numerics.swap_remove(idx);
                table = self.apply_binder(&table, g)?;
                self.stats.note(&table);
                continue;
            }

            // 2. Guarded negations whose free variables are bound → antijoin.
            if let Some(idx) = negsubs
                .iter()
                .position(|g| free_vars(g).iter().all(|v| bound.contains(v)))
            {
                let g = negsubs.swap_remove(idx);
                let witness = self.eval(g)?;
                self.stats.antijoins += 1;
                table = table.antijoin(&witness);
                self.stats.note(&table);
                continue;
            }

            // 3. Join in the best remaining positive conjunct.
            if !positives.is_empty() {
                let idx = self.pick_positive(&positives, &bound);
                let g = positives.swap_remove(idx);
                // Disjunctive conjuncts are joined disjunct-by-disjunct
                // ("join-then-union"): extending a disjunct to the full
                // variable set *before* joining would materialize a
                // cross product over every variable the disjunct does
                // not mention — the accumulated table usually already
                // binds those variables, so joining first is linear in
                // the table instead of exponential in the arity.
                if let Formula::Or(ds) = g {
                    table = self.join_or(&table, ds)?;
                } else {
                    let t = self.eval(g)?;
                    self.stats.joins += 1;
                    table = table.join(&t);
                }
                self.stats.note(&table);
                continue;
            }

            // 4. Remaining negations/numerics mention unbound variables:
            //    extend the table over one of them and retry.
            let unbound: Option<Sym> = numerics
                .iter()
                .flat_map(|(g, _)| free_vars(g))
                .chain(negsubs.iter().flat_map(|g| free_vars(g)))
                .find(|v| !bound.contains(v));
            match unbound {
                Some(v) => {
                    table = self.extend(&table, v)?;
                    self.stats.note(&table);
                }
                None => break,
            }
        }

        // Finalize: all remaining work lists are empty; ensure every free
        // variable of the conjunction is a column (True-dropped vars).
        for v in whole_free {
            if table.col(v).is_none() {
                table = self.extend(&table, v)?;
                self.stats.note(&table);
            }
        }
        Ok(table)
    }

    /// Join a disjunctive conjunct into the accumulated table:
    /// `T ⋈ (d₁ ∨ … ∨ d_m) = ⋃ᵢ extend(T ⋈ dᵢ)`, where the extension
    /// only covers variables of the disjunction that neither `T` nor the
    /// disjunct binds.
    fn join_or(&mut self, table: &Table, disjuncts: &[Formula]) -> Result<Table, EvalError> {
        let or_free: BTreeSet<Sym> = disjuncts.iter().flat_map(free_vars).collect();
        let mut target: Vec<Sym> = table.vars().to_vec();
        for &v in &or_free {
            if table.col(v).is_none() {
                target.push(v);
            }
        }
        let mut acc = Table::empty(target.clone());
        for d in disjuncts {
            let t = self.eval(d)?;
            self.stats.joins += 1;
            let mut joined = table.join(&t);
            for &v in &target {
                if joined.col(v).is_none() {
                    joined = self.extend(&joined, v)?;
                }
            }
            acc = acc.union(&joined.project(&target));
            self.stats.note(&acc);
        }
        Ok(acc)
    }

    /// If `g` is an equality with exactly one unbound variable and the
    /// other side ground or bound, return that variable.
    fn binder_target(&self, g: &Formula, bound: &BTreeSet<Sym>) -> Option<(Sym, Term)> {
        if let Formula::Eq(a, b) = g {
            let a_unbound = a.as_var().map(|v| !bound.contains(&v)).unwrap_or(false);
            let b_unbound = b.as_var().map(|v| !bound.contains(&v)).unwrap_or(false);
            match (a_unbound, b_unbound) {
                (true, false) => Some((a.as_var().unwrap(), *b)),
                (false, true) => Some((b.as_var().unwrap(), *a)),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Apply an `x = t` binder: add column `x` computed from `t`.
    fn apply_binder(&mut self, table: &Table, g: &Formula) -> Result<Table, EvalError> {
        let bound: BTreeSet<Sym> = table.vars().iter().copied().collect();
        let (var, src) = self
            .binder_target(g, &bound)
            .expect("apply_binder called on non-binder");
        match self.resolve(&src)? {
            Some(value) => Ok(table.extend_const(var, value)),
            None => {
                let other = src.as_var().unwrap();
                let col = table
                    .col(other)
                    .expect("binder source variable must be bound");
                Ok(table.extend_with(var, |row| row[col]))
            }
        }
    }

    /// Filter the table by a numeric atom whose variables are all columns.
    fn apply_numeric_filter(
        &mut self,
        table: &Table,
        g: &Formula,
        negated: bool,
    ) -> Result<Table, EvalError> {
        let (a, b) = numeric_terms(g);
        let pred = numeric_pred(g);
        let fetch = |t: &Term, table: &Table| -> Result<Fetch, EvalError> {
            Ok(match self.resolve(t)? {
                Some(v) => Fetch::Ground(v),
                None => Fetch::Col(table.col(t.as_var().unwrap()).expect("var must be bound")),
            })
        };
        let fa = fetch(a, table)?;
        let fb = fetch(b, table)?;
        Ok(table.filter(|row| {
            let x = fa.get(row);
            let y = fb.get(row);
            pred(x, y) != negated
        }))
    }

    /// Heuristic choice of the next conjunct to join: prefer conjuncts
    /// sharing bound variables (selective joins), then relation atoms by
    /// ascending size; complex subformulas last.
    fn pick_positive(&self, positives: &[&Formula], bound: &BTreeSet<Sym>) -> usize {
        let mut best = 0;
        let mut best_score = (usize::MAX, usize::MAX);
        for (i, g) in positives.iter().enumerate() {
            let fv = free_vars(g);
            let shares = fv.iter().any(|v| bound.contains(v));
            // Lower is better: sharing beats not sharing (unless nothing
            // is bound yet), small relations beat big subformulas.
            let share_rank = if bound.is_empty() || shares { 0 } else { 1 };
            let size_rank = match g {
                // A fully ground atom (every argument a param or
                // constant) is a one-probe membership test — and a
                // *guard*: if it fails, the empty-table short-circuit
                // skips every remaining conjunct. Always take it first.
                Formula::Rel { args, .. }
                    if args.iter().all(|a| !matches!(a, Term::Var(_))) =>
                {
                    0
                }
                Formula::Rel { name, .. } => self
                    .st
                    .vocab()
                    .relation(*name)
                    .map(|id| self.st.relation(id).len())
                    .unwrap_or(usize::MAX - 1),
                _ => usize::MAX - 1,
            };
            if (share_rank, size_rank) < best_score {
                best_score = (share_rank, size_rank);
                best = i;
            }
        }
        best
    }
}

enum Pos {
    Ground(Elem),
    Fresh,
    Repeat(usize),
}

enum Fetch {
    Ground(Elem),
    Col(usize),
}

impl Fetch {
    fn get(&self, row: &Tuple) -> Elem {
        match self {
            Fetch::Ground(v) => *v,
            Fetch::Col(i) => row[*i],
        }
    }
}

fn numeric_terms(f: &Formula) -> (&Term, &Term) {
    match f {
        Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) | Formula::Bit(a, b) => (a, b),
        _ => panic!("not a numeric atom"),
    }
}

fn numeric_pred(f: &Formula) -> fn(Elem, Elem) -> bool {
    match f {
        Formula::Eq(..) => |x, y| x == y,
        Formula::Le(..) => |x, y| x <= y,
        Formula::Lt(..) => |x, y| x < y,
        // BIT(x, y): bit y of x (paper §2). Shifts ≥ 32 are 0.
        Formula::Bit(..) => |x, y| y < 32 && (x >> y) & 1 == 1,
        _ => panic!("not a numeric atom"),
    }
}

#[cfg(test)]
mod tests;
