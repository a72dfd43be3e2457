//! # dynfo-logic
//!
//! First-order logic over finite relational structures: the substrate of
//! the Dyn-FO reproduction. Provides vocabularies, structures (relational
//! databases over `{0..n}` with the numeric predicates ≤, BIT, min, max),
//! a formula AST with builders and a text parser, and an evaluator that
//! compiles FO to relational algebra.

pub mod analysis;
pub mod bitrel;
pub mod ef;
pub mod eval;
pub mod formula;
pub mod fxhash;
pub mod intern;
pub mod obs;
pub mod parallel;
pub mod parser;
pub mod printer;
pub mod relation;
pub mod simd;
pub mod simplify;
pub mod strings;
pub mod structure;
pub mod subst;
pub mod tuple;
pub mod vocab;

pub use eval::plan::{Plan, PlanArena};
pub use eval::{evaluate, satisfies, EvalError, EvalStats, Evaluator, Table};
pub use formula::{Formula, Term};
pub use intern::{sym, Sym};
pub use bitrel::BitRel;
pub use relation::{DeltaMode, Relation};
pub use structure::Structure;
pub use tuple::{Elem, Tuple, MAX_ARITY};
pub use vocab::{ConstId, RelId, Vocabulary};
