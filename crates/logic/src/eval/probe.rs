//! Ground formulas as bit probes.
//!
//! A *ground* formula — no variables at all, free or bound: request
//! parameters, constants and literals under `∧ ∨ ¬` — denotes one truth
//! value per request. The update formulas of Dyn-FO programs carry such
//! conjuncts as guards (`F(?0, ?1)`: "the deleted edge was a forest
//! edge"; `?0 ≠ ?1 ∧ ¬PV(?0, ?1, ?0)`: "the inserted edge joins two
//! trees"), and deciding them needs no relational algebra: each atom is
//! one membership test on the pre-state. [`probe`] does exactly that —
//! no table, no memo entry, no allocation — and raises the errors the
//! interpreter would raise on the same formula.

use super::{numeric_pred, numeric_terms, EvalError};
use crate::formula::{Formula, Term};
use crate::structure::Structure;
use crate::tuple::{Elem, Tuple, MAX_ARITY};

/// True iff `f` mentions no variable, free or bound — the formulas
/// [`probe`] decides.
pub fn is_ground(f: &Formula) -> bool {
    use Formula::*;
    let ground = |t: &Term| !matches!(t, Term::Var(_));
    match f {
        True | False => true,
        Rel { args, .. } => args.iter().all(ground),
        Eq(a, b) | Le(a, b) | Lt(a, b) | Bit(a, b) => ground(a) && ground(b),
        Not(g) => is_ground(g),
        And(fs) | Or(fs) => fs.iter().all(is_ground),
        Implies(a, b) | Iff(a, b) => is_ground(a) && is_ground(b),
        Exists(..) | Forall(..) => false,
    }
}

/// Decide a ground formula ([`is_ground`]) over `st` with request
/// parameters `params`.
///
/// # Panics
/// Panics if `f` mentions a variable.
pub fn probe(f: &Formula, st: &Structure, params: &[Elem]) -> Result<bool, EvalError> {
    use Formula::*;
    let value = |t: &Term| -> Result<Elem, EvalError> {
        Ok(match t {
            Term::Var(v) => panic!("probe of a non-ground formula: variable {v}"),
            Term::Lit(e) => *e,
            Term::Min => 0,
            Term::Max => st.size() - 1,
            Term::Param(i) => *params.get(*i).ok_or(EvalError::UnboundParam(*i))?,
            Term::Const(c) => {
                let id = st.vocab().constant(*c).ok_or(EvalError::UnknownConstant(*c))?;
                st.constant(id)
            }
        })
    };
    Ok(match f {
        True => true,
        False => false,
        Rel { name, args } => {
            let id = st
                .vocab()
                .relation(*name)
                .ok_or(EvalError::UnknownRelation(*name))?;
            let arity = st.vocab().arity(id);
            if args.len() != arity {
                return Err(EvalError::ArityMismatch {
                    rel: *name,
                    expected: arity,
                    got: args.len(),
                });
            }
            let mut items = [0 as Elem; MAX_ARITY];
            for (item, t) in items.iter_mut().zip(args) {
                *item = value(t)?;
            }
            // A literal outside the universe is in no relation.
            items[..arity].iter().all(|&e| e < st.size())
                && st.relation(id).contains(&Tuple::from_slice(&items[..arity]))
        }
        Eq(..) | Le(..) | Lt(..) | Bit(..) => {
            let (a, b) = numeric_terms(f);
            numeric_pred(f)(value(a)?, value(b)?)
        }
        Not(g) => !probe(g, st, params)?,
        And(fs) => {
            for g in fs {
                if !probe(g, st, params)? {
                    return Ok(false);
                }
            }
            true
        }
        Or(fs) => {
            for g in fs {
                if probe(g, st, params)? {
                    return Ok(true);
                }
            }
            false
        }
        Implies(a, b) => !probe(a, st, params)? || probe(b, st, params)?,
        Iff(a, b) => probe(a, st, params)? == probe(b, st, params)?,
        Exists(..) | Forall(..) => panic!("probe of a non-ground formula: {f}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{cst, eq, lit, lt, not, param, rel, v};
    use crate::vocab::Vocabulary;
    use std::sync::Arc;

    #[test]
    fn probes_agree_with_the_interpreter() {
        let vocab = Arc::new(Vocabulary::new().with_relation("E", 2).with_constant("c"));
        let mut st = Structure::empty(vocab, 6);
        st.insert("E", [1, 2]);
        st.set_const("c", 2);
        let cases = [
            rel("E", [param(0), param(1)]),
            rel("E", [param(1), param(0)]),
            rel("E", [param(0), cst("c")]),
            not(rel("E", [lit(1), lit(2)])),
            // Literal outside the universe: false, not a panic.
            rel("E", [lit(9), lit(2)]),
            eq(param(0), param(1)) | lt(param(0), cst("c")),
            not(eq(param(0), param(1))) & not(rel("E", [param(0), param(1)])),
        ];
        for f in cases {
            assert!(is_ground(&f), "{f}");
            let expect = crate::eval::satisfies(&f, &st, &[1, 2]).unwrap();
            assert_eq!(probe(&f, &st, &[1, 2]).unwrap(), expect, "{f}");
        }
        assert!(!is_ground(&rel("E", [v("x"), param(0)])));
        assert!(!is_ground(&crate::formula::exists(["x"], rel("E", [v("x"), v("x")]))));
        assert_eq!(
            probe(&rel("E", [param(0), param(3)]), &st, &[1, 2]),
            Err(EvalError::UnboundParam(3))
        );
    }
}
