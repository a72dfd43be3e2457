//! Algebraic optimizer for compiled bit-parallel plans.
//!
//! [`Plan::compile`](super::plan::Plan::compile) lowers canonical FO
//! formulas to flat SSA op sequences purely syntactically, so the word
//! kernels execute whatever redundancy the formula carries: repeated
//! subterms get separate slots, ∃-folds run at the full combined arity
//! even when most conjuncts never mention the folded variable, and
//! `Combine`/`Not` chains that are a single fused ANDNOT still cost two
//! buffer passes. This module sits between lowering and op emission and
//! removes that redundancy in two stages:
//!
//! 1. **Formula stage** ([`optimize_formula`]): a vetted rewrite-rule
//!    table over a small plan-term algebra — the canonical fragment
//!    `{∧, ∨, ¬, ∃}` with metavariable atoms — applied by a peephole
//!    pattern matcher, plus quantifier pushing ([`miniscope`]): ∃/∀-fold
//!    hoisting past conjuncts/disjuncts that do not mention the folded
//!    variable. Hoisting is the n-ary generalization of the table's
//!    binary quantifier rules and is usually the biggest `kernel_words`
//!    win: folding before broadcasting turns an `S^{k+1}` pass into an
//!    `S^k` one per hoisted operand.
//!
//! 2. **Op stage** ([`optimize_ops`]): structural passes over the
//!    emitted SSA ops — value-numbering CSE (hash-consing on op shape +
//!    resolved source slots), ¬¬ elimination and NOT fusion into
//!    `Combine` lanes (ANDNOT), same-connective `Combine` flattening,
//!    `Broadcast`/`Fold` cancellation, constant propagation, and
//!    dead-slot elimination with a dense topological renumber (the
//!    executor's `src < dst` split borrows survive unchanged).
//!
//! **Rule table provenance.** [`VETTED_RULES`] is synthesized offline,
//! ruler-style, by the `dynfo-testutil` enumerator: candidate terms are
//! built by `plug`-ing operator shapes over metavariable atoms,
//! fingerprinted by evaluation on a battery of seeded random structures,
//! and same-fingerprint pairs are kept only if both sides still agree on
//! a fresh battery at sizes the synthesis never saw. The checked-in
//! table is the hand-curated subset the matcher can execute; the
//! differential suites re-vet every entry on every run (see
//! `crates/logic/tests/opt_rules.rs`).
//!
//! Every rewrite preserves the interpreter equivalence contract: the
//! optimizer-on plan decodes the same table as the optimizer-off plan
//! and the interpreter, for every structure and parameter vector. The
//! `plan_equivalence` suites in dynfo-logic and dynfo-core hold all
//! three against each other across the 12 update programs.

use super::plan::{Op, SlotId, SlotInfo};
use crate::analysis::{canonicalize, free_vars};
use crate::formula::Formula;
use crate::intern::Sym;
use std::collections::HashMap;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Vetted rewrite-rule table
// ---------------------------------------------------------------------------

/// The vetted rewrite rules, in parser syntax (see [`crate::parser`]).
///
/// Relation atoms are **metavariables**: `A(x,y)` matches any canonical
/// subformula, and a repeated metavariable must match the syntactically
/// identical subformula again. The argument list carries the quantifier
/// side condition: a metavariable may not capture a pattern-bound
/// variable absent from its arguments (so `B(y)` under `exists x (…)`
/// only matches subformulas in which the peeled variable is not free).
/// Binary `&`/`|` patterns match any two operands of an n-ary connective
/// (remaining operands are carried along unchanged at the top level, or
/// collected by a trailing bare metavariable in nested position).
///
/// The propositional rules are executed verbatim by the peephole
/// matcher; the quantifier rules are executed by [`miniscope`], which
/// generalizes them to n-ary connectives by partitioning operands on
/// whether they mention the folded variable, and by [`one_point`], which
/// performs the substitution the one-point entries spell with a shared
/// metavariable (`A(u,y)` ↦ `A(t,y)`).
pub const VETTED_RULES: &[(&str, &str)] = &[
    // Idempotence and absorption.
    ("A(x,y) & A(x,y)", "A(x,y)"),
    ("A(x,y) | A(x,y)", "A(x,y)"),
    ("A(x,y) & (A(x,y) | B(x,y))", "A(x,y)"),
    ("A(x,y) | (A(x,y) & B(x,y))", "A(x,y)"),
    // Complement annihilation.
    ("A(x,y) & !A(x,y)", "false"),
    ("A(x,y) | !A(x,y)", "true"),
    // Negative absorption (unit propagation).
    ("A(x,y) & (!A(x,y) | B(x,y))", "A(x,y) & B(x,y)"),
    ("A(x,y) | (!A(x,y) & B(x,y))", "A(x,y) | B(x,y)"),
    // Quantifier pushing: B(y) cannot mention the peeled variable x.
    ("exists x (A(x,y) & B(y))", "(exists x (A(x,y))) & B(y)"),
    ("exists x (A(x,y) | B(y))", "(exists x (A(x,y))) | B(y)"),
    // Unused quantifier elimination.
    ("exists x (B(y))", "B(y)"),
    // One-point rule: a bound variable pinned by an equality is that
    // term (the universe is non-empty and every term denotes an element
    // of it), directly or under a disjunction of pins.
    ("exists u (u = t & A(u,y))", "A(t,y)"),
    ("exists u ((u = s | u = t) & A(u,y))", "A(s,y) | A(t,y)"),
];

/// The table parsed into formula patterns, once per process.
pub fn vetted_rules() -> &'static [(Formula, Formula)] {
    static RULES: OnceLock<Vec<(Formula, Formula)>> = OnceLock::new();
    RULES.get_or_init(|| {
        VETTED_RULES
            .iter()
            .map(|&(l, r)| {
                let lhs = crate::parser::parse(l).expect("vetted rule lhs parses");
                let rhs = crate::parser::parse(r).expect("vetted rule rhs parses");
                (lhs, rhs)
            })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Formula stage
// ---------------------------------------------------------------------------

/// Bound on rewrite rounds. Every rule strictly shrinks the term and
/// every hoist strictly shrinks a quantifier scope, so fixpoints arrive
/// quickly; the bound only guards against pathological inputs.
const MAX_ROUNDS: usize = 8;

/// Rewrite a canonical formula with the vetted rule table and quantifier
/// pushing, to fixpoint. Returns `None` when nothing applied (the
/// common case — the caller keeps its lowering). The result is again
/// canonical and agrees with the input on every structure; its free
/// variables may shrink (a conjunct collapsing to `true`), which the
/// plan compiler repairs by re-broadcasting the root.
pub fn optimize_formula(f: &Formula) -> Option<Formula> {
    let mut cur = f.clone();
    let mut changed = false;
    for _ in 0..MAX_ROUNDS {
        let next = rewrite_pass(&cur);
        if next == cur {
            break;
        }
        cur = next;
        changed = true;
    }
    changed.then_some(cur)
}

/// One bottom-up traversal: rewrite children, then constant-fold, apply
/// the rule table, and miniscope at this node.
fn rewrite_pass(f: &Formula) -> Formula {
    use Formula::*;
    let f = match f {
        And(fs) => And(fs.iter().map(rewrite_pass).collect()),
        Or(fs) => Or(fs.iter().map(rewrite_pass).collect()),
        // A `¬∃x̄ …` block is the shape the emitter's ∀-peephole folds
        // into one AND-reduce; miniscoping the inner ∃ splits the block
        // into nested quantifiers the peephole cannot see, and lowering
        // then materializes the full-arity intermediate (orders of
        // magnitude larger on universally-quantified rules such as
        // REACH_u's PV updates). Keep the block intact and rewrite only
        // strictly inside it.
        Not(g) => Not(Box::new(rewrite_pass(g))),
        Exists(vs, g) => Exists(vs.clone(), Box::new(rewrite_pass(g))),
        _ => f.clone(),
    };
    let f = const_fold(f);
    let f = apply_rules(f);
    miniscope(const_fold(f))
}

/// Structural cleanup after rewrites: flatten nested same connectives,
/// drop neutral elements, propagate absorbing elements, and fold
/// constants through `¬` and `∃`. (`∃x̄ φ` is the identity when `x̄` is
/// not free in `φ` — the convention the fold emitter and the
/// interpreter's projection already share.)
fn const_fold(f: Formula) -> Formula {
    use Formula::*;
    match f {
        And(fs) => fold_connective(fs, true),
        Or(fs) => fold_connective(fs, false),
        Not(g) => match *g {
            True => False,
            False => True,
            g => Not(Box::new(g)),
        },
        Exists(vs, g) => match *g {
            True => True,
            False => False,
            g => Exists(vs, Box::new(g)),
        },
        f => f,
    }
}

/// Flatten nested same connectives and apply unit/absorber laws.
fn fold_connective(fs: Vec<Formula>, and: bool) -> Formula {
    use Formula::*;
    let mut out: Vec<Formula> = Vec::with_capacity(fs.len());
    for g in fs {
        match g {
            And(inner) if and => out.extend(inner),
            Or(inner) if !and => out.extend(inner),
            True if and => {}
            False if !and => {}
            True => return True,   // absorber of ∨
            False => return False, // absorber of ∧
            g => out.push(g),
        }
    }
    match out.len() {
        0 => {
            if and {
                True
            } else {
                False
            }
        }
        1 => out.into_iter().next().unwrap(),
        _ => {
            if and {
                And(out)
            } else {
                Or(out)
            }
        }
    }
}

/// Apply the first matching propositional rule at this node, repeatedly
/// (bounded — each application shrinks the term).
fn apply_rules(mut f: Formula) -> Formula {
    'outer: for _ in 0..MAX_ROUNDS {
        for (lhs, rhs) in vetted_rules() {
            // Quantifier rules are executed by `miniscope`.
            if matches!(lhs, Formula::Exists(..)) {
                continue;
            }
            if let Some(g) = apply_rule_at(&f, lhs, rhs) {
                f = const_fold(g);
                continue 'outer;
            }
        }
        break;
    }
    f
}

/// Quantifier pushing at one node: `∃v (α ∧ β)` → `α ∧ ∃v β` and
/// `∃v (α ∨ β)` → `α ∨ ∃v β` when `v` is not free in `α`, generalized
/// to n-ary connectives by partitioning; `¬∃` (the canonical `∀`) is
/// pushed through the inner `∃` and re-canonicalized.
///
/// Pushing under `¬∃` is a gamble: hoisting a big independent conjunct
/// out of a ∀-block is the single largest win in the library (MSF's
/// 5-ary cycle rules), but a *partial* hoist splits the block into
/// nested quantifiers the emitter's `¬∃x̄¬` ∀-peephole cannot fold, and
/// lowering then materializes the full-arity intermediate (20–40×
/// growth on REACH_u's PV updates). The gamble is safe because
/// `Plan::compile` keeps the baseline lowering and discards any rewrite
/// that does not strictly shrink `work_words`.
fn miniscope(f: Formula) -> Formula {
    use Formula::*;
    let tighten =
        |vs: &[Sym], body: Formula| one_point(vs, &body).unwrap_or_else(|| push_exists(vs, body));
    match f {
        Exists(vs, body) => tighten(&vs, *body),
        Not(g) => match *g {
            Exists(vs, body) => {
                let pushed = tighten(&vs, (*body).clone());
                if matches!(&pushed, Exists(pvs, pbody) if *pvs == vs && **pbody == *body) {
                    Not(Box::new(Exists(vs, body)))
                } else {
                    // The hoisted form is no longer a bare ∃, so ¬ must
                    // be re-pushed inward to stay canonical.
                    canonicalize(&Not(Box::new(pushed)))
                }
            }
            g => Not(Box::new(g)),
        },
        f => f,
    }
}

/// The one-point rule at one `∃v̄ body` node. A conjunct `u = t` with
/// `u ∈ v̄` pins `u`: the conjunct and the quantifier go, and `t` takes
/// `u`'s place in the rest (`∃u (u = t ∧ φ) ≡ φ[t/u]`). A conjunct that
/// is a disjunction *every* arm of which pins some bound variable is
/// distributed first — `∃v̄ ((α ∨ β) ∧ φ) ≡ ∃v̄ (α ∧ φ) ∨ ∃v̄ (β ∧ φ)` —
/// so each copy of `φ` loses a quantifier on the next round. That is
/// what turns Theorem 4.1's `∃u,w (Eq(u,w,?0,?1) ∧ …)` from a 5-ary
/// block into two 3-ary ones: request parameters are constants, and a
/// variable equal to a constant needs no axis. `None` when nothing is
/// pinned.
fn one_point(vs: &[Sym], body: &Formula) -> Option<Formula> {
    use crate::formula::Term;
    use Formula::*;
    // `u = t` (either way round) with `u` bound here and `t` another
    // term that denotes a universe element. A literal may not (`Lit(e)`
    // with `e ≥ n`): then `∃u (u = e ∧ ¬R(u))` is false but `¬R(e)` true,
    // so literals never pin. Request parameters are validated against
    // the universe before any rule runs.
    let pin = |g: &Formula| -> Option<(Sym, Term)> {
        let Eq(a, b) = g else { return None };
        match (a, b) {
            (Term::Var(u), t) | (t, Term::Var(u))
                if vs.contains(u) && t != &Term::Var(*u) && !matches!(t, Term::Lit(_)) =>
            {
                Some((*u, *t))
            }
            _ => None,
        }
    };
    let conjuncts: Vec<&Formula> = match body {
        And(fs) => fs.iter().collect(),
        single => vec![single],
    };
    let without = |skip: usize| {
        conjuncts.iter().enumerate().filter(move |&(j, _)| j != skip).map(|(_, g)| *g)
    };
    for (i, c) in conjuncts.iter().enumerate() {
        let Some((u, t)) = pin(c) else { continue };
        // `Formula::substitute` does not rename: a variable term must
        // not be captured by a quantifier inside what it is put into.
        if let Term::Var(w) = t {
            if without(i).any(|g| binds(g, w)) {
                continue;
            }
        }
        let rest: Vec<Formula> = without(i).map(|g| g.substitute(u, t)).collect();
        let kept: Vec<Sym> = vs.iter().copied().filter(|&v| v != u).collect();
        let inner = fold_connective(rest, true);
        return Some(if kept.is_empty() {
            inner
        } else {
            Exists(kept, Box::new(inner))
        });
    }
    for (i, c) in conjuncts.iter().enumerate() {
        let Or(arms) = c else { continue };
        let pins = |arm: &Formula| match arm {
            And(fs) => fs.iter().any(|g| pin(g).is_some()),
            g => pin(g).is_some(),
        };
        if !arms.iter().all(pins) {
            continue;
        }
        return Some(Or(arms
            .iter()
            .map(|arm| {
                let mut fs = vec![arm.clone()];
                fs.extend(without(i).cloned());
                Exists(vs.to_vec(), Box::new(fold_connective(fs, true)))
            })
            .collect()));
    }
    None
}

/// Does `f` contain a quantifier binding `v`?
fn binds(f: &Formula, v: Sym) -> bool {
    use Formula::*;
    match f {
        Not(g) => binds(g, v),
        And(fs) | Or(fs) => fs.iter().any(|g| binds(g, v)),
        Implies(a, b) | Iff(a, b) => binds(a, v) || binds(b, v),
        Exists(vs, g) | Forall(vs, g) => vs.contains(&v) || binds(g, v),
        _ => false,
    }
}

/// Quantify `vs` over `body`, pushing each variable (innermost first) as
/// deep as the connective structure admits. Variables that cannot move
/// stay together in one block in their original order, so a formula with
/// no pushable structure is returned *verbatim* — miniscope is a no-op
/// there, which both guarantees a fixpoint and keeps the emitter's
/// `¬∃x̄¬` ∀-peephole intact (it needs the block unsplit).
fn push_exists(vs: &[Sym], body: Formula) -> Formula {
    use Formula::*;
    let mut cur = body;
    let mut kept: Vec<Sym> = Vec::new();
    // Innermost first; ∃ blocks commute freely, so a kept (not yet
    // wrapped) variable does not stop an outer one from sinking.
    for &v in vs.iter().rev() {
        match push_one(v, &cur) {
            Some(g) => cur = g,
            None => kept.insert(0, v),
        }
    }
    if kept.is_empty() {
        cur
    } else {
        Exists(kept, Box::new(cur))
    }
}

/// Push one existential variable into `body`. `Some(g)` means progress —
/// `∃v body ≡ g` with the quantifier dropped, hoisted past at least one
/// v-independent operand, or sunk under an inner ∃ block; `None` means
/// `∃v body` is already as tight as this pass can make it.
fn push_one(v: Sym, body: &Formula) -> Option<Formula> {
    use Formula::*;
    if !free_vars(body).contains(&v) {
        return Some(body.clone()); // identity quantifier: drop it
    }
    match body {
        // Partition the operands on whether they mention `v`; hoist the
        // independent ones out. Sound for both ∧ and ∨: ∃ distributes
        // over ∨ outright and commutes with v-independent conjuncts
        // (the universe is non-empty — the same convention that makes
        // the identity quantifier droppable).
        And(fs) | Or(fs) if fs.len() > 1 => {
            let and = matches!(body, And(..));
            let (dep, indep): (Vec<Formula>, Vec<Formula>) =
                fs.iter().cloned().partition(|g| free_vars(g).contains(&v));
            if indep.is_empty() {
                return None;
            }
            debug_assert!(!dep.is_empty(), "v free in connective but in no operand");
            let rebuilt = |mut fs: Vec<Formula>| -> Formula {
                if fs.len() == 1 {
                    fs.pop().unwrap()
                } else if and {
                    And(fs)
                } else {
                    Or(fs)
                }
            };
            let dep_f = rebuilt(dep);
            let dep_f = push_one(v, &dep_f)
                .unwrap_or_else(|| Exists(vec![v], Box::new(dep_f)));
            let mut out = indep;
            out.push(dep_f);
            Some(rebuilt(out))
        }
        // ∃v ∃v̄₂ φ = ∃v̄₂ ∃v φ (v ∉ v̄₂, else v would not be free here):
        // commute only when v keeps sinking below — a bare swap would
        // oscillate between rounds.
        Exists(vs2, g) => {
            push_one(v, g).map(|pg| Exists(vs2.clone(), Box::new(pg)))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pattern matcher
// ---------------------------------------------------------------------------

/// Metavariable and object-variable bindings accumulated during a match.
#[derive(Clone, Default)]
struct Binding {
    /// Metavariable name → matched subformula (syntactic equality on
    /// repeats).
    metas: Vec<(Sym, Formula)>,
    /// Pattern object variable (bound by a pattern quantifier) →
    /// concrete variable.
    vars: Vec<(Sym, Sym)>,
}

impl Binding {
    fn meta(&self, name: Sym) -> Option<&Formula> {
        self.metas.iter().find(|(n, _)| *n == name).map(|(_, f)| f)
    }
    fn var(&self, name: Sym) -> Option<Sym> {
        self.vars.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }
}

/// Match `pat` against `f`. Connective patterns use collector
/// semantics (see [`VETTED_RULES`]): the first operand matches one
/// operand of the subject, the second collects the rest.
fn match_pat(pat: &Formula, f: &Formula, b: &mut Binding) -> bool {
    use Formula::*;
    match pat {
        True => matches!(f, True),
        False => matches!(f, False),
        Rel { name, args } => {
            // A metavariable atom: matches any subformula, constrained
            // by (1) repeat consistency and (2) the quantifier side
            // condition encoded in its argument list.
            if let Some(bound) = b.meta(*name) {
                return bound == f;
            }
            let fv = free_vars(f);
            for &(pv, cv) in &b.vars {
                let listed = args
                    .iter()
                    .any(|t| matches!(t, crate::formula::Term::Var(s) if *s == pv));
                if !listed && fv.contains(&cv) {
                    return false;
                }
            }
            b.metas.push((*name, f.clone()));
            true
        }
        Not(p) => match f {
            Not(g) => match_pat(p, g, b),
            _ => false,
        },
        And(ps) | Or(ps) => {
            let want_and = matches!(pat, And(..));
            let fs = match (want_and, f) {
                (true, And(fs)) | (false, Or(fs)) => fs,
                _ => return false,
            };
            debug_assert_eq!(ps.len(), 2, "vetted patterns are binary");
            // Collector semantics: ps[0] matches one operand, ps[1]
            // collects the rest (absorption stays valid for any
            // superset connective).
            if fs.len() < 2 {
                return false;
            }
            for i in 0..fs.len() {
                let mut trial = b.clone();
                if !match_pat(&ps[0], &fs[i], &mut trial) {
                    continue;
                }
                let rest: Vec<Formula> = fs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, g)| g.clone())
                    .collect();
                let rest_f = if rest.len() == 1 {
                    rest.into_iter().next().unwrap()
                } else if want_and {
                    And(rest)
                } else {
                    Or(rest)
                };
                if match_pat(&ps[1], &rest_f, &mut trial) {
                    *b = trial;
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

/// Try one propositional rule at `f`'s root. The rule's lhs is a binary
/// connective pattern; it is matched against every ordered operand pair
/// of the same n-ary connective, and the instantiated rhs replaces the
/// matched pair (remaining operands ride along).
fn apply_rule_at(f: &Formula, lhs: &Formula, rhs: &Formula) -> Option<Formula> {
    use Formula::*;
    let (ps, fs, want_and) = match (lhs, f) {
        (And(ps), And(fs)) => (ps, fs, true),
        (Or(ps), Or(fs)) => (ps, fs, false),
        _ => return None,
    };
    if ps.len() != 2 || fs.len() < 2 {
        return None;
    }
    for i in 0..fs.len() {
        for j in 0..fs.len() {
            if i == j {
                continue;
            }
            let mut b = Binding::default();
            if !match_pat(&ps[0], &fs[i], &mut b) || !match_pat(&ps[1], &fs[j], &mut b) {
                continue;
            }
            let mut out: Vec<Formula> = vec![instantiate(rhs, &b)];
            out.extend(
                fs.iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, g)| g.clone()),
            );
            return Some(if out.len() == 1 {
                out.into_iter().next().unwrap()
            } else if want_and {
                And(out)
            } else {
                Or(out)
            });
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Op stage
// ---------------------------------------------------------------------------

/// Value-numbering key: the shape of an op plus its (resolved) sources
/// and the destination's variable set. Two ops with equal keys compute
/// bit-identical buffers *with the same column meaning* — the `vars`
/// component keeps CSE from merging slots whose bits coincide but whose
/// axes name different variables (the root decode reads axis names).
#[derive(PartialEq, Eq, Hash)]
enum OpKey {
    Const(bool, Vec<Sym>),
    Load(Sym, String, Vec<Sym>),
    Numeric(Formula, bool, Vec<Sym>),
    Combine(Vec<(SlotId, bool)>, bool, Vec<Sym>),
    Not(SlotId, Vec<Sym>),
    Broadcast(SlotId, usize, Vec<Sym>),
    Fold(SlotId, usize, bool, Vec<Sym>),
    Compose(SlotId, SlotId, usize, Vec<Sym>),
}

fn op_key(op: &Op, vars: &[Sym]) -> OpKey {
    match op {
        Op::Const { value, .. } => OpKey::Const(*value, vars.to_vec()),
        Op::Load { rel, cols, .. } => OpKey::Load(*rel, format!("{cols:?}"), vars.to_vec()),
        Op::Numeric { atom, negated, .. } => {
            OpKey::Numeric(atom.clone(), *negated, vars.to_vec())
        }
        Op::Combine { srcs, and, .. } => {
            let mut s = srcs.clone();
            s.sort_unstable();
            OpKey::Combine(s, *and, vars.to_vec())
        }
        Op::Not { src, .. } => OpKey::Not(*src, vars.to_vec()),
        Op::Broadcast { src, axis, .. } => OpKey::Broadcast(*src, *axis, vars.to_vec()),
        Op::Fold { src, axis, and, .. } => OpKey::Fold(*src, *axis, *and, vars.to_vec()),
        Op::Compose { a, b, z, .. } => OpKey::Compose(*a, *b, *z, vars.to_vec()),
    }
}

/// Bound on op-stage rounds. Each rewrite strictly reduces lane count,
/// op count, or chain depth, so two rounds usually converge; the bound
/// is a backstop.
const MAX_OP_ROUNDS: usize = 4;

/// Producer summary consulted by the rewrite rules — cloned out of the
/// op list so the rules can rewrite `ops` without holding a borrow.
enum Prod {
    Not(SlotId),
    Const(bool),
    Broadcast(SlotId, usize),
    Combine(Vec<(SlotId, bool)>, bool),
    Other,
}

fn prod_of(producer: &[Option<usize>], ops: &[Op], s: SlotId) -> Prod {
    match producer[s].map(|p| &ops[p]) {
        Some(Op::Not { src, .. }) => Prod::Not(*src),
        Some(Op::Const { value, .. }) => Prod::Const(*value),
        Some(Op::Broadcast { src, axis, .. }) => Prod::Broadcast(*src, *axis),
        Some(Op::Combine { srcs, and, .. }) => Prod::Combine(srcs.clone(), *and),
        _ => Prod::Other,
    }
}

/// Structural optimization of the emitted SSA ops: NOT fusion, combine
/// flattening and lane algebra, broadcast/fold cancellation, constant
/// propagation, value-numbering CSE, then dead-slot elimination with a
/// dense renumber. All rewrites alias a dst to a strictly *earlier*
/// slot, so the executor's `split_at_mut(dst)` borrow (every src below
/// its consumer) survives, and the op order never changes — only ops
/// drop out.
pub(crate) fn optimize_ops(slots: &mut Vec<SlotInfo>, ops: &mut Vec<Op>, root: &mut SlotId) {
    let n = slots.len();
    // Union-find-lite: repl[s] == s means live; otherwise s is an alias
    // of an earlier slot.
    let mut repl: Vec<SlotId> = (0..n).collect();

    for _ in 0..MAX_OP_ROUNDS {
        let mut changed = false;
        // Producer map and use counts over the *resolved* graph.
        let mut producer: Vec<Option<usize>> = vec![None; n];
        let mut uses: Vec<usize> = vec![0; n];
        for (i, op) in ops.iter().enumerate() {
            let dst = op.dst();
            if repl[dst] != dst {
                continue;
            }
            producer[dst] = Some(i);
            for_each_src(op, |s| uses[resolve(&repl, s)] += 1);
        }
        uses[resolve(&repl, *root)] += 1;

        let mut seen: HashMap<OpKey, SlotId> = HashMap::new();
        for i in 0..ops.len() {
            let dst = ops[i].dst();
            if repl[dst] != dst {
                continue;
            }
            // Resolve sources, then apply the local rewrite rules.
            match &mut ops[i] {
                Op::Not { src, .. } => *src = resolve(&repl, *src),
                Op::Broadcast { src, .. } | Op::Fold { src, .. } => {
                    *src = resolve(&repl, *src)
                }
                Op::Combine { srcs, .. } => {
                    for (s, _) in srcs.iter_mut() {
                        *s = resolve(&repl, *s);
                    }
                }
                Op::Compose { a, b, .. } => {
                    *a = resolve(&repl, *a);
                    *b = resolve(&repl, *b);
                }
                _ => {}
            }
            match ops[i].clone() {
                Op::Not { dst, src } => match prod_of(&producer, ops, src) {
                    // ¬¬φ = φ.
                    Prod::Not(t) => {
                        repl[dst] = resolve(&repl, t);
                        changed = true;
                    }
                    // ¬const.
                    Prod::Const(v) => {
                        ops[i] = Op::Const { dst, value: !v };
                        slots[dst].stable = true;
                        changed = true;
                    }
                    _ => {}
                },
                Op::Combine { dst, mut srcs, and, .. } => {
                    let before = srcs.clone();
                    // NOT fusion: a lane fed by a complement flips its
                    // negation bit instead (garbage bits are zero in
                    // every slot, so `(¬t, neg)` ≡ `(t, ¬neg)` under the
                    // valid mask the masked pass applies).
                    for lane in srcs.iter_mut() {
                        if let Prod::Not(t) = prod_of(&producer, ops, lane.0) {
                            *lane = (resolve(&repl, t), !lane.1);
                        }
                    }
                    // Flattening: splice a single-use, non-negated child
                    // combine of the same connective into this one.
                    let mut flat: Vec<(SlotId, bool)> = Vec::with_capacity(srcs.len());
                    for (s, neg) in srcs {
                        match prod_of(&producer, ops, s) {
                            Prod::Combine(inner, ia) if !neg && ia == and && uses[s] == 1 => {
                                flat.extend(
                                    inner.iter().map(|&(t, tn)| (resolve(&repl, t), tn)),
                                )
                            }
                            _ => flat.push((s, neg)),
                        }
                    }
                    // Constant lanes: units drop, absorbers decide.
                    let mut result: Option<bool> = None;
                    flat.retain(|&(s, neg)| {
                        if let Prod::Const(v) = prod_of(&producer, ops, s) {
                            if (v ^ neg) != and {
                                result = Some(!and); // absorber
                            }
                            false // unit (or absorbed — result set)
                        } else {
                            true
                        }
                    });
                    // Duplicate and complementary lanes.
                    flat.sort_unstable();
                    flat.dedup();
                    for w in flat.windows(2) {
                        if w[0].0 == w[1].0 {
                            result = Some(!and); // (s, false) and (s, true)
                        }
                    }
                    if let Some(value) = result {
                        ops[i] = Op::Const { dst, value };
                        slots[dst].stable = true;
                        changed = true;
                    } else if flat.is_empty() {
                        ops[i] = Op::Const { dst, value: and };
                        slots[dst].stable = true;
                        changed = true;
                    } else if flat.len() == 1 && !flat[0].1 && slots[flat[0].0].vars == slots[dst].vars
                    {
                        repl[dst] = flat[0].0;
                        changed = true;
                    } else if flat.len() == 1 && flat[0].1 && slots[flat[0].0].vars == slots[dst].vars
                    {
                        ops[i] = Op::Not { dst, src: flat[0].0 };
                        slots[dst].stable = slots[flat[0].0].stable;
                        changed = true;
                    } else {
                        let masked = flat.iter().any(|&(_, neg)| neg);
                        changed |= flat != before;
                        slots[dst].stable = flat.iter().all(|&(s, _)| slots[s].stable);
                        ops[i] = Op::Combine { dst, srcs: flat, and, masked };
                    }
                }
                Op::Fold { dst, src, axis, and, .. } => match prod_of(&producer, ops, src) {
                    // Fold of the axis a broadcast just inserted: the
                    // replicated planes are identical, so both the
                    // OR-fold and the (garbage-masked) AND-fold give
                    // back the broadcast source.
                    Prod::Broadcast(b, ba) if ba == axis => {
                        repl[dst] = resolve(&repl, b);
                        changed = true;
                    }
                    // ∃/∀-fold of a constant plane is that constant
                    // (the universe is non-empty).
                    Prod::Const(v) => {
                        ops[i] = Op::Const { dst, value: v };
                        slots[dst].stable = true;
                        changed = true;
                    }
                    Prod::Combine(lanes, true) if !and => {
                        let vars = &slots[src].vars;
                        if let Some((a, b, z)) =
                            split_join(&producer, ops, slots, &repl, &lanes, vars, axis)
                        {
                            ops[i] = Op::Compose { dst, a, b, z };
                            slots[dst].stable = slots[a].stable && slots[b].stable;
                            changed = true;
                        }
                    }
                    _ => {}
                },
                Op::Broadcast { dst, src, .. } => {
                    if let Prod::Const(v) = prod_of(&producer, ops, src) {
                        ops[i] = Op::Const { dst, value: v };
                        slots[dst].stable = true;
                        changed = true;
                    }
                }
                _ => {}
            }
            // CSE on whatever the op became (unless it was aliased away).
            if repl[dst] == dst {
                let key = op_key(&ops[i], &slots[dst].vars);
                match seen.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        repl[dst] = *e.get();
                        changed = true;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(dst);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Liveness from the (resolved) root, following resolved sources.
    *root = resolve(&repl, *root);
    let mut live = vec![false; n];
    let producer: Vec<Option<usize>> = {
        let mut p = vec![None; n];
        for (i, op) in ops.iter().enumerate() {
            let dst = op.dst();
            if repl[dst] == dst {
                p[dst] = Some(i);
            }
        }
        p
    };
    let mut stack = vec![*root];
    while let Some(s) = stack.pop() {
        if live[s] {
            continue;
        }
        live[s] = true;
        if let Some(p) = producer[s] {
            for_each_src(&ops[p], |t| stack.push(resolve(&repl, t)));
        }
    }

    // Dense renumber: keep live ops in their original order (sources
    // only ever alias downward, so topological order is preserved).
    let mut map: Vec<Option<SlotId>> = vec![None; n];
    let mut new_slots: Vec<SlotInfo> = Vec::new();
    let mut new_ops: Vec<Op> = Vec::new();
    for op in ops.iter() {
        let dst = op.dst();
        if repl[dst] != dst || !live[dst] {
            continue;
        }
        let nd = new_slots.len();
        map[dst] = Some(nd);
        new_slots.push(slots[dst].clone());
        let mut op = op.clone();
        renumber(&mut op, nd, |s| {
            map[resolve(&repl, s)].expect("live op reads dead slot")
        });
        new_ops.push(op);
    }
    *root = map[*root].expect("root slot survived");
    *slots = new_slots;
    *ops = new_ops;
}

/// The live slot `s` is an alias of.
fn resolve(repl: &[SlotId], mut s: SlotId) -> SlotId {
    while repl[s] != s {
        s = repl[s];
    }
    s
}

/// `∃z (α ∧ β)` as an [`Op::Compose`]: `(a, b, z's axis in a)` when the
/// folded combine (over `vars`, `z = vars[axis]`) ANDs exactly two
/// un-negated lanes that are broadcasts of an α and a β sharing only
/// `z` and covering `vars` between them, β leads with `z` and brings at
/// least one axis Y of its own, and every other axis of α sorts before
/// Y — so Y trails both β and the result, and a row of β is a row of
/// the result. Either lane may play α. Anything else — a third
/// conjunct, a negated lane, interleaved X and Y, a semijoin (Y = ∅,
/// which would cost a probe per set bit of α where the fold costs a
/// word pass) — keeps the broadcast–AND–fold lowering.
fn split_join(
    producer: &[Option<usize>],
    ops: &[Op],
    slots: &[SlotInfo],
    repl: &[SlotId],
    lanes: &[(SlotId, bool)],
    vars: &[Sym],
    axis: usize,
) -> Option<(SlotId, SlotId, usize)> {
    let &[(p, false), (q, false)] = lanes else {
        return None;
    };
    let unbroadcast = |mut s: SlotId| {
        while let Prod::Broadcast(t, _) = prod_of(producer, ops, s) {
            s = resolve(repl, t);
        }
        s
    };
    let (p, q) = (unbroadcast(p), unbroadcast(q));
    let z = vars[axis];
    let (vp, vq) = (&slots[p].vars, &slots[q].vars);
    let shared: Vec<Sym> = vp.iter().copied().filter(|v| vq.contains(v)).collect();
    if shared != [z] || vars.iter().any(|v| !vp.contains(v) && !vq.contains(v)) {
        return None;
    }
    [(p, q), (q, p)].into_iter().find_map(|(a, b)| {
        let (va, vb) = (&slots[a].vars, &slots[b].vars);
        let splits = vb.len() > 1 && vb[0] == z && va.iter().all(|&x| x == z || x < vb[1]);
        splits.then(|| (a, b, va.iter().position(|&x| x == z).expect("z is shared")))
    })
}

/// Visit every source slot of `op`.
fn for_each_src(op: &Op, mut f: impl FnMut(SlotId)) {
    match op {
        Op::Const { .. } | Op::Load { .. } | Op::Numeric { .. } => {}
        Op::Combine { srcs, .. } => srcs.iter().for_each(|&(s, _)| f(s)),
        Op::Not { src, .. } | Op::Broadcast { src, .. } | Op::Fold { src, .. } => f(*src),
        Op::Compose { a, b, .. } => {
            f(*a);
            f(*b);
        }
    }
}

/// Rewrite `op`'s dst to `nd` and its sources through `m`.
fn renumber(op: &mut Op, nd: SlotId, mut m: impl FnMut(SlotId) -> SlotId) {
    match op {
        Op::Const { dst, .. } | Op::Load { dst, .. } | Op::Numeric { dst, .. } => *dst = nd,
        Op::Combine { dst, srcs, .. } => {
            *dst = nd;
            for (s, _) in srcs.iter_mut() {
                *s = m(*s);
            }
        }
        Op::Not { dst, src } => {
            *dst = nd;
            *src = m(*src);
        }
        Op::Broadcast { dst, src, .. } | Op::Fold { dst, src, .. } => {
            *dst = nd;
            *src = m(*src);
        }
        Op::Compose { dst, a, b, .. } => {
            *dst = nd;
            *a = m(*a);
            *b = m(*b);
        }
    }
}

/// Build the rhs with metavariables replaced by their matches and
/// pattern-bound quantifier variables renamed to their images.
fn instantiate(rhs: &Formula, b: &Binding) -> Formula {
    use Formula::*;
    match rhs {
        Rel { name, .. } => b
            .meta(*name)
            .cloned()
            .unwrap_or_else(|| rhs.clone()),
        Not(g) => Not(Box::new(instantiate(g, b))),
        And(fs) => And(fs.iter().map(|g| instantiate(g, b)).collect()),
        Or(fs) => Or(fs.iter().map(|g| instantiate(g, b)).collect()),
        Exists(vs, g) => Exists(
            vs.iter().map(|v| b.var(*v).unwrap_or(*v)).collect(),
            Box::new(instantiate(g, b)),
        ),
        _ => rhs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::Plan;
    use crate::eval::Evaluator;
    use crate::formula::{and, eq, exists, forall, not, or, rel, v};
    use crate::structure::Structure;
    use crate::tuple::Elem;
    use crate::vocab::Vocabulary;
    use std::sync::Arc;

    fn st(n: Elem, edges: &[(Elem, Elem)]) -> Structure {
        let vocab = Arc::new(
            Vocabulary::new()
                .with_relation("E", 2)
                .with_relation("M", 1),
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

    /// Compile optimizer-off and optimizer-on, check both against the
    /// interpreter, and return the pair for stat assertions.
    fn check_both(f: &Formula, s: &Structure) -> (Plan, Plan) {
        let canonical = canonicalize(f);
        let run = |plan: &Plan| {
            let mut arena = plan.arena();
            let mut ev = Evaluator::new(s, &[]);
            let t = plan
                .execute(&mut ev, &mut arena, None)
                .expect("plan execution failed");
            let order: Vec<Sym> = t.vars().to_vec();
            (t.sorted(), order)
        };
        let off = Plan::compile_with(&canonical, s, false)
            .unwrap_or_else(|| panic!("no baseline plan for {canonical}"));
        let on = Plan::compile_with(&canonical, s, true)
            .unwrap_or_else(|| panic!("no optimized plan for {canonical}"));
        let (t_off, order) = run(&off);
        let (t_on, order_on) = run(&on);
        assert_eq!(order, order_on, "optimizer changed root columns for {canonical}");
        assert_eq!(t_off, t_on, "optimizer diverged for {canonical}");
        let expect = crate::eval::evaluate(&canonical, s, &[]).expect("interpreter failed");
        assert_eq!(
            t_on,
            expect.project(&order).sorted(),
            "optimized plan != interpreter for {canonical}"
        );
        (off, on)
    }

    #[test]
    fn rule_table_parses_and_rhs_metavars_are_bound() {
        let rules = vetted_rules();
        assert_eq!(rules.len(), VETTED_RULES.len());
        for (lhs, rhs) in rules {
            let lhs_metas: std::collections::BTreeSet<Sym> = metas(lhs);
            for m in metas(rhs) {
                assert!(
                    lhs_metas.contains(&m),
                    "rhs metavariable unbound in lhs: {lhs} => {rhs}"
                );
            }
        }
        fn metas(f: &Formula) -> std::collections::BTreeSet<Sym> {
            use Formula::*;
            match f {
                Rel { name, .. } => std::iter::once(*name).collect(),
                Not(g) => metas(g),
                And(fs) | Or(fs) => fs.iter().flat_map(metas).collect(),
                Exists(_, g) => metas(g),
                _ => Default::default(),
            }
        }
    }

    #[test]
    fn miniscope_hoists_independent_conjuncts() {
        // ∃z (E(x,z) ∧ M(x)) → M(x) ∧ ∃z E(x,z).
        let f = exists(["z"], and([rel("E", [v("x"), v("z")]), rel("M", [v("x")])]));
        let g = optimize_formula(&f).expect("miniscope should fire");
        let want = and([rel("M", [v("x")]), exists(["z"], rel("E", [v("x"), v("z")]))]);
        assert_eq!(g, want, "got {g}");
    }

    #[test]
    fn miniscope_drops_unused_quantifier() {
        let f = exists(["z"], rel("M", [v("x")]));
        assert_eq!(optimize_formula(&f).expect("drop"), rel("M", [v("x")]));
    }

    #[test]
    fn miniscope_leaves_tight_blocks_verbatim() {
        // Both conjuncts mention z and w: nothing to hoist, and the
        // block must not be split or reordered (the ∀-peephole and
        // fixpoint detection depend on it).
        let f = exists(
            ["z", "w"],
            and([rel("E", [v("z"), v("w")]), rel("E", [v("w"), v("z")])]),
        );
        assert_eq!(optimize_formula(&f), None);
    }

    #[test]
    fn one_point_rule_substitutes_pinned_variables() {
        use crate::formula::{lit, param};
        // ∃z (z = ?0 ∧ E(x,z)) → E(x,?0).
        let f = exists(["z"], and([eq(v("z"), param(0)), rel("E", [v("x"), v("z")])]));
        assert_eq!(optimize_formula(&f).expect("pin"), rel("E", [v("x"), param(0)]));
        // Pinned to a free variable, either way round.
        let g = exists(["z"], and([eq(v("y"), v("z")), rel("E", [v("x"), v("z")])]));
        assert_eq!(optimize_formula(&g).expect("pin"), rel("E", [v("x"), v("y")]));
        // A disjunction of pins distributes, then each arm substitutes:
        // Theorem 4.1's ∃u,w (Eq(u,w,?0,?1) ∧ …) loses both axes.
        let pair = or([
            and([eq(v("u"), param(0)), eq(v("w"), param(1))]),
            and([eq(v("u"), param(1)), eq(v("w"), param(0))]),
        ]);
        let h = exists(
            ["u", "w"],
            and([pair, rel("E", [v("x"), v("u")]), rel("E", [v("w"), v("y")])]),
        );
        let want = or([
            and([rel("E", [v("x"), param(0)]), rel("E", [param(1), v("y")])]),
            and([rel("E", [v("x"), param(1)]), rel("E", [param(0), v("y")])]),
        ]);
        assert_eq!(optimize_formula(&h).expect("distribute and pin"), want);
        // A literal may lie outside the universe, where `z = 9` has no
        // witness but `¬E(x,9)` holds of every x: no pin, and at n below
        // the literal the plan keeps the Tarskian reading (held to the
        // naive evaluator; the interpreter's planner binds `z := 9`
        // itself, so `evaluate` is no oracle for this formula).
        let l = exists(["z"], and([eq(v("z"), lit(9)), not(rel("E", [v("x"), v("z")]))]));
        assert_eq!(optimize_formula(&l), None);
        let s = st(5, &[(0, 1)]);
        let plan = Plan::compile(&l, &s).expect("lowers");
        let got = plan.execute(&mut Evaluator::new(&s, &[]), &mut plan.arena(), None);
        let want = crate::eval::naive::naive_evaluate(&l, &s, &[]).unwrap();
        assert!(want.is_empty());
        assert_eq!(got.unwrap().sorted(), want.sorted());
        // No capture: y is bound again inside, so z := y must not fire.
        let inner = exists(["y"], rel("E", [v("z"), v("y")]));
        let k = exists(["z"], and([eq(v("z"), v("y")), inner.clone()]));
        let out = optimize_formula(&k).unwrap_or(k.clone());
        let reads_z = |f: &Formula| free_vars(f).contains(&crate::sym("z"));
        assert!(
            matches!(&out, Formula::Exists(vs, body) if vs == &[crate::sym("z")] && reads_z(body)),
            "captured: {out}"
        );
    }

    #[test]
    fn one_point_rule_lowers_past_the_slot_cap() {
        // n = 33 pads to S = 64: the 5-ary block is over the slot cap and
        // the direct lowering has nothing to offer; pinned, the same
        // formula is two 3-ary conjunctions.
        use crate::formula::param;
        let vocab = Arc::new(Vocabulary::new().with_relation("T", 3));
        let mut s = Structure::empty(vocab, 33);
        s.insert("T", [1, 2, 3]);
        s.insert("T", [4, 2, 9]);
        let pair = or([
            and([eq(v("u"), param(0)), eq(v("w"), param(1))]),
            and([eq(v("u"), param(1)), eq(v("w"), param(0))]),
        ]);
        let f = canonicalize(&exists(
            ["u", "w"],
            and([pair, rel("T", [v("x"), v("u"), v("z")]), rel("T", [v("w"), v("y"), v("z")])]),
        ));
        assert!(Plan::compile_with(&f, &s, false).is_none(), "test premise: raw lowering declines");
        let plan = Plan::compile(&f, &s).expect("one-point rewrite lowers");
        let mut ev = Evaluator::new(&s, &[2, 4]);
        let got = plan.execute(&mut ev, &mut plan.arena(), None).unwrap();
        let expect = crate::eval::evaluate(&f, &s, &[2, 4]).unwrap();
        assert_eq!(got.clone().sorted(), expect.project(got.vars()).sorted());
        assert!(!got.is_empty());
    }

    #[test]
    fn absorption_and_annihilation_fold() {
        let a = rel("E", [v("x"), v("y")]);
        let b = rel("M", [v("x")]);
        let f = and([a.clone(), or([a.clone(), b.clone()])]);
        assert_eq!(optimize_formula(&f).expect("absorption"), a);
        let g = and([a.clone(), not(a.clone())]);
        assert_eq!(optimize_formula(&g).expect("annihilation"), Formula::False);
        let h = or([a.clone(), not(a.clone())]);
        assert_eq!(optimize_formula(&h).expect("excluded middle"), Formula::True);
    }

    #[test]
    fn optimizer_reduces_three_hop_join() {
        // ∃y∃z (E(x,y) ∧ E(y,z) ∧ E(z,w)): quantifier pushing folds y
        // and z early, so the big combine never runs at arity 4.
        let s = st(16, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (7, 7)]);
        let f = exists(
            ["y", "z"],
            and([
                rel("E", [v("x"), v("y")]),
                rel("E", [v("y"), v("z")]),
                rel("E", [v("z"), v("w")]),
            ]),
        );
        let (off, on) = check_both(&f, &s);
        assert!(on.opt_kernel_words_saved() > 0, "no words saved");
        assert!(
            on.work_words() < off.work_words(),
            "optimized plan not cheaper: {} vs {}",
            on.work_words(),
            off.work_words()
        );
        assert_eq!(off.opt_ops_removed(), 0);
        assert_eq!(off.opt_kernel_words_saved(), 0);
    }

    #[test]
    fn optimizer_dedups_repeated_subplans() {
        // The same ∃-subterm appears under both disjuncts with
        // different surrounding structure; lowering memoizes syntactic
        // repeats, and the op pass must not undo or break that.
        let s = st(12, &[(0, 1), (1, 2), (2, 0), (4, 5), (6, 6)]);
        let hop = exists(["y"], rel("E", [v("x"), v("y")]));
        let f = or([
            and([hop.clone(), rel("M", [v("x")])]),
            and([hop.clone(), not(rel("M", [v("x")]))]),
        ]);
        check_both(&f, &s);
    }

    #[test]
    fn optimizer_noop_on_tight_plans() {
        let s = st(9, &[(0, 1), (2, 3), (8, 0)]);
        let (_, on) = check_both(&rel("E", [v("x"), v("y")]), &s);
        assert_eq!(on.opt_ops_removed(), 0);
        assert_eq!(on.opt_kernel_words_saved(), 0);
    }

    #[test]
    fn universal_quantifier_still_matches() {
        // ∀ lowers through ¬∃¬; the optimizer must preserve both the
        // peephole's AND-fold form and the semantics.
        let s = st(10, &[(0, 1), (1, 2), (3, 3), (9, 9)]);
        check_both(&forall(["y"], or([rel("E", [v("x"), v("y")]), eq(v("x"), v("y"))])), &s);
        check_both(
            &forall(
                ["y"],
                or([
                    not(rel("E", [v("x"), v("y")])),
                    exists(["z"], rel("E", [v("y"), v("z")])),
                    rel("M", [v("x")]),
                ]),
            ),
            &s,
        );
    }

    #[test]
    fn constant_collapse_keeps_root_columns() {
        // A ∧ ¬A drops every variable at the formula stage; the root
        // broadcast must restore the original column set so decode
        // still yields binary tuples (here: none).
        // n=64 so the collapsed Const + re-broadcast (≈S²/64 + ε words)
        // is strictly cheaper than the Load + masked-Combine baseline
        // (2·S²/64 words) — at tiny n the rebroadcast overhead ties.
        let s = st(64, &[(0, 1), (2, 3)]);
        let a = rel("E", [v("x"), v("y")]);
        let (_, on) = check_both(&and([a.clone(), not(a)]), &s);
        assert!(on.opt_kernel_words_saved() > 0);
    }
}
