//! First-order formulas over a vocabulary, with the numeric predicates
//! `=`, `≤`, `<`, `BIT` and the numeric constants `min`, `max` (paper §2).
//!
//! Formulas are plain ASTs. Request parameters (the `a, b` in
//! `insert(E, a, b)`) appear as [`Term::Param`] and are bound at
//! evaluation time, so one formula serves every concrete request.
//!
//! The module also provides builder functions ([`rel`], [`and`], [`or`],
//! [`not`], [`exists`], [`forall`], …) and operator overloads (`&`, `|`,
//! `!`) so programs read close to the paper's notation.

use crate::intern::Sym;
use crate::tuple::Elem;
use std::fmt;
use std::ops;

/// A first-order term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable.
    Var(Sym),
    /// A vocabulary constant symbol, resolved against the structure.
    Const(Sym),
    /// The `i`-th request parameter, bound at evaluation time.
    Param(usize),
    /// A literal universe element (produced by substitution).
    Lit(Elem),
    /// The minimum universe element, 0.
    Min,
    /// The maximum universe element, n−1.
    Max,
}

/// A first-order formula.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The true sentence.
    True,
    /// The false sentence.
    False,
    /// `R(t̄)` for a vocabulary relation symbol `R`.
    Rel { name: Sym, args: Vec<Term> },
    /// `s = t`.
    Eq(Term, Term),
    /// `s ≤ t` (the built-in total order on the universe).
    Le(Term, Term),
    /// `s < t`. Derived, kept primitive for readable output.
    Lt(Term, Term),
    /// `BIT(s, t)`: bit `t` of the (log n)-bit encoding of `s` is 1.
    Bit(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction. `And(vec![])` is `True`.
    And(Vec<Formula>),
    /// N-ary disjunction. `Or(vec![])` is `False`.
    Or(Vec<Formula>),
    /// Implication (desugared before evaluation).
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication (desugared before evaluation).
    Iff(Box<Formula>, Box<Formula>),
    /// `∃ x̄ φ`.
    Exists(Vec<Sym>, Box<Formula>),
    /// `∀ x̄ φ`.
    Forall(Vec<Sym>, Box<Formula>),
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// Variable term.
pub fn v(name: &str) -> Term {
    Term::Var(Sym::new(name))
}

/// Constant-symbol term.
pub fn cst(name: &str) -> Term {
    Term::Const(Sym::new(name))
}

/// Request-parameter term `p_i`.
pub fn param(i: usize) -> Term {
    Term::Param(i)
}

/// Literal universe element term.
pub fn lit(e: Elem) -> Term {
    Term::Lit(e)
}

/// Atomic formula `R(args…)`.
pub fn rel(name: &str, args: impl IntoIterator<Item = Term>) -> Formula {
    Formula::Rel {
        name: Sym::new(name),
        args: args.into_iter().collect(),
    }
}

/// `s = t`.
pub fn eq(s: Term, t: Term) -> Formula {
    Formula::Eq(s, t)
}

/// `s ≠ t`.
pub fn neq(s: Term, t: Term) -> Formula {
    Formula::Not(Box::new(Formula::Eq(s, t)))
}

/// `s ≤ t`.
pub fn le(s: Term, t: Term) -> Formula {
    Formula::Le(s, t)
}

/// `s < t`.
pub fn lt(s: Term, t: Term) -> Formula {
    Formula::Lt(s, t)
}

/// `BIT(s, t)`.
pub fn bit(s: Term, t: Term) -> Formula {
    Formula::Bit(s, t)
}

/// N-ary conjunction (empty = true).
pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
    Formula::And(fs.into_iter().collect())
}

/// N-ary disjunction (empty = false).
pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
    Formula::Or(fs.into_iter().collect())
}

/// Negation.
pub fn not(f: Formula) -> Formula {
    Formula::Not(Box::new(f))
}

/// Implication.
pub fn implies(a: Formula, b: Formula) -> Formula {
    Formula::Implies(Box::new(a), Box::new(b))
}

/// Bi-implication.
pub fn iff(a: Formula, b: Formula) -> Formula {
    Formula::Iff(Box::new(a), Box::new(b))
}

/// `∃ vars φ`.
pub fn exists<'a>(vars: impl IntoIterator<Item = &'a str>, f: Formula) -> Formula {
    Formula::Exists(vars.into_iter().map(Sym::new).collect(), Box::new(f))
}

/// `∀ vars φ`.
pub fn forall<'a>(vars: impl IntoIterator<Item = &'a str>, f: Formula) -> Formula {
    Formula::Forall(vars.into_iter().map(Sym::new).collect(), Box::new(f))
}

impl ops::BitAnd for Formula {
    type Output = Formula;
    fn bitand(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), f) => {
                a.push(f);
                Formula::And(a)
            }
            (f, Formula::And(mut b)) => {
                b.insert(0, f);
                Formula::And(b)
            }
            (f, g) => Formula::And(vec![f, g]),
        }
    }
}

impl ops::BitOr for Formula {
    type Output = Formula;
    fn bitor(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), f) => {
                a.push(f);
                Formula::Or(a)
            }
            (f, Formula::Or(mut b)) => {
                b.insert(0, f);
                Formula::Or(b)
            }
            (f, g) => Formula::Or(vec![f, g]),
        }
    }
}

impl ops::Not for Formula {
    type Output = Formula;
    fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
}

// ---------------------------------------------------------------------------
// Term / formula utilities
// ---------------------------------------------------------------------------

impl Term {
    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Sym> {
        match self {
            Term::Var(s) => Some(*s),
            _ => None,
        }
    }

    /// Substitute variable `x` by `replacement` (used by the one-point
    /// rule and to bind witness slots to parameters).
    pub fn substitute(&self, x: Sym, replacement: Term) -> Term {
        match self {
            Term::Var(s) if *s == x => replacement,
            t => *t,
        }
    }
}

impl Formula {
    /// Substitute every free occurrence of variable `x` by `replacement`.
    ///
    /// Occurrences bound by a quantifier over `x` are left alone.
    pub fn substitute(&self, x: Sym, replacement: Term) -> Formula {
        use Formula::*;
        match self {
            True => True,
            False => False,
            Rel { name, args } => Rel {
                name: *name,
                args: args.iter().map(|t| t.substitute(x, replacement)).collect(),
            },
            Eq(a, b) => Eq(a.substitute(x, replacement), b.substitute(x, replacement)),
            Le(a, b) => Le(a.substitute(x, replacement), b.substitute(x, replacement)),
            Lt(a, b) => Lt(a.substitute(x, replacement), b.substitute(x, replacement)),
            Bit(a, b) => Bit(a.substitute(x, replacement), b.substitute(x, replacement)),
            Not(f) => Not(Box::new(f.substitute(x, replacement))),
            And(fs) => And(fs.iter().map(|f| f.substitute(x, replacement)).collect()),
            Or(fs) => Or(fs.iter().map(|f| f.substitute(x, replacement)).collect()),
            Implies(a, b) => Implies(
                Box::new(a.substitute(x, replacement)),
                Box::new(b.substitute(x, replacement)),
            ),
            Iff(a, b) => Iff(
                Box::new(a.substitute(x, replacement)),
                Box::new(b.substitute(x, replacement)),
            ),
            Exists(vs, f) => {
                if vs.contains(&x) {
                    Exists(vs.clone(), f.clone())
                } else {
                    Exists(vs.clone(), Box::new(f.substitute(x, replacement)))
                }
            }
            Forall(vs, f) => {
                if vs.contains(&x) {
                    Forall(vs.clone(), f.clone())
                } else {
                    Forall(vs.clone(), Box::new(f.substitute(x, replacement)))
                }
            }
        }
    }

    /// Bind request parameters to literal elements: `Param(i) ↦ args[i]`.
    ///
    /// Parameters beyond `args.len()` are left unresolved.
    pub fn bind_params(&self, args: &[Elem]) -> Formula {
        self.map_terms(&|t| match t {
            Term::Param(i) if i < args.len() => Term::Lit(args[i]),
            t => t,
        })
    }

    /// Apply `f` to every term in the formula.
    pub fn map_terms(&self, f: &impl Fn(Term) -> Term) -> Formula {
        use Formula::*;
        match self {
            True => True,
            False => False,
            Rel { name, args } => Rel {
                name: *name,
                args: args.iter().map(|&t| f(t)).collect(),
            },
            Eq(a, b) => Eq(f(*a), f(*b)),
            Le(a, b) => Le(f(*a), f(*b)),
            Lt(a, b) => Lt(f(*a), f(*b)),
            Bit(a, b) => Bit(f(*a), f(*b)),
            Not(g) => Not(Box::new(g.map_terms(f))),
            And(fs) => And(fs.iter().map(|g| g.map_terms(f)).collect()),
            Or(fs) => Or(fs.iter().map(|g| g.map_terms(f)).collect()),
            Implies(a, b) => Implies(Box::new(a.map_terms(f)), Box::new(b.map_terms(f))),
            Iff(a, b) => Iff(Box::new(a.map_terms(f)), Box::new(b.map_terms(f))),
            Exists(vs, g) => Exists(vs.clone(), Box::new(g.map_terms(f))),
            Forall(vs, g) => Forall(vs.clone(), Box::new(g.map_terms(f))),
        }
    }

    /// Rename every variable in one simultaneous pass: a free variable
    /// `v` becomes `free(v)`, and each quantified variable becomes
    /// `bound(v, depth)`, `depth` counting the variables bound above it.
    /// Every binder is renamed, so a term `free` introduces is never
    /// captured as long as `bound` picks names used nowhere else
    /// (capture-avoiding substitution; α-normal keys).
    pub fn rename_vars(
        &self,
        free: &impl Fn(Sym) -> Term,
        bound: &mut impl FnMut(Sym, usize) -> Sym,
    ) -> Formula {
        self.rename_scoped(free, bound, &mut Vec::new())
    }

    /// [`Formula::rename_vars`] under `scope`: the binders in force,
    /// innermost last, as (name, new name).
    fn rename_scoped(
        &self,
        free: &impl Fn(Sym) -> Term,
        bound: &mut impl FnMut(Sym, usize) -> Sym,
        scope: &mut Vec<(Sym, Sym)>,
    ) -> Formula {
        use Formula::*;
        let term = |t: &Term, scope: &[(Sym, Sym)]| match t {
            Term::Var(s) => match scope.iter().rev().find(|(v, _)| v == s) {
                Some(&(_, b)) => Term::Var(b),
                None => free(*s),
            },
            t => *t,
        };
        let mut sub =
            |g: &Formula, scope: &mut Vec<(Sym, Sym)>| g.rename_scoped(free, bound, scope);
        match self {
            True => True,
            False => False,
            Rel { name, args } => Rel {
                name: *name,
                args: args.iter().map(|t| term(t, scope)).collect(),
            },
            Eq(a, b) => Eq(term(a, scope), term(b, scope)),
            Le(a, b) => Le(term(a, scope), term(b, scope)),
            Lt(a, b) => Lt(term(a, scope), term(b, scope)),
            Bit(a, b) => Bit(term(a, scope), term(b, scope)),
            Not(g) => Not(Box::new(sub(g, scope))),
            And(fs) => And(fs.iter().map(|g| sub(g, scope)).collect()),
            Or(fs) => Or(fs.iter().map(|g| sub(g, scope)).collect()),
            Implies(a, b) => Implies(Box::new(sub(a, scope)), Box::new(sub(b, scope))),
            Iff(a, b) => Iff(Box::new(sub(a, scope)), Box::new(sub(b, scope))),
            Exists(vs, g) | Forall(vs, g) => {
                let depth = scope.len();
                for &v in vs {
                    let b = bound(v, scope.len());
                    scope.push((v, b));
                }
                let names = scope[depth..].iter().map(|&(_, b)| b).collect();
                let inner = g.rename_scoped(free, bound, scope);
                scope.truncate(depth);
                if matches!(self, Exists(..)) {
                    Exists(names, Box::new(inner))
                } else {
                    Forall(names, Box::new(inner))
                }
            }
        }
    }

    /// Rename a relation symbol throughout (used by reductions when
    /// re-targeting formulas from one vocabulary to another).
    pub fn rename_relation(&self, from: Sym, to: Sym) -> Formula {
        use Formula::*;
        match self {
            Rel { name, args } if *name == from => Rel {
                name: to,
                args: args.clone(),
            },
            Rel { name, args } => Rel {
                name: *name,
                args: args.clone(),
            },
            True => True,
            False => False,
            Eq(a, b) => Eq(*a, *b),
            Le(a, b) => Le(*a, *b),
            Lt(a, b) => Lt(*a, *b),
            Bit(a, b) => Bit(*a, *b),
            Not(f) => Not(Box::new(f.rename_relation(from, to))),
            And(fs) => And(fs.iter().map(|f| f.rename_relation(from, to)).collect()),
            Or(fs) => Or(fs.iter().map(|f| f.rename_relation(from, to)).collect()),
            Implies(a, b) => Implies(
                Box::new(a.rename_relation(from, to)),
                Box::new(b.rename_relation(from, to)),
            ),
            Iff(a, b) => Iff(
                Box::new(a.rename_relation(from, to)),
                Box::new(b.rename_relation(from, to)),
            ),
            Exists(vs, f) => Exists(vs.clone(), Box::new(f.rename_relation(from, to))),
            Forall(vs, f) => Forall(vs.clone(), Box::new(f.rename_relation(from, to))),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(s) => write!(f, "{s}"),
            // The explicit form, so printing round-trips without a
            // vocabulary (bare identifiers parse as variables).
            Term::Const(s) => write!(f, "${s}"),
            Term::Param(i) => write!(f, "?{i}"),
            Term::Lit(e) => write!(f, "#{e}"),
            Term::Min => write!(f, "min"),
            Term::Max => write!(f, "max"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::sym;

    #[test]
    fn operator_overloads_flatten() {
        let f = rel("A", []) & rel("B", []) & rel("C", []);
        match f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        let g = rel("A", []) | rel("B", []) | rel("C", []);
        match g {
            Formula::Or(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn substitute_respects_binding() {
        // ∃x E(x,y) — substituting x does nothing, substituting y works.
        let f = exists(["x"], rel("E", [v("x"), v("y")]));
        assert_eq!(f.substitute(sym("x"), lit(3)), f);
        let g = f.substitute(sym("y"), lit(3));
        assert_eq!(g, exists(["x"], rel("E", [v("x"), lit(3)])));
    }

    #[test]
    fn bind_params() {
        let f = rel("E", [param(0), param(1)]) & eq(v("x"), param(0));
        let g = f.bind_params(&[4, 7]);
        assert_eq!(g, rel("E", [lit(4), lit(7)]) & eq(v("x"), lit(4)));
    }

    #[test]
    fn bind_params_leaves_excess_unresolved() {
        let f = eq(param(2), v("x"));
        assert_eq!(f.bind_params(&[1]), f);
    }

    #[test]
    fn rename_relation() {
        let f = rel("E", [v("x")]) & not(rel("E", [v("y")])) & rel("F", [v("x")]);
        let g = f.rename_relation(sym("E"), sym("E0"));
        assert_eq!(
            g,
            rel("E0", [v("x")]) & not(rel("E0", [v("y")])) & rel("F", [v("x")])
        );
    }

    #[test]
    fn display_terms() {
        assert_eq!(v("x").to_string(), "x");
        assert_eq!(param(1).to_string(), "?1");
        assert_eq!(lit(9).to_string(), "#9");
        assert_eq!(Term::Min.to_string(), "min");
    }
}
