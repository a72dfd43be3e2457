//! Dyn-FO programs: the objects the paper's Section 3 defines.
//!
//! A program for a problem `S ⊆ STRUC[σ]` consists of
//!
//! * the input vocabulary `σ`,
//! * an auxiliary vocabulary `τ` (the data-structure schema, usually
//!   containing a copy of `σ`),
//! * an initialization: the empty structure (`Dyn-FO`) or an arbitrary
//!   precomputed structure (`Dyn-FO⁺`, §3.1 condition (4) relaxed),
//! * for each request kind, FO **update formulas** defining each changed
//!   auxiliary relation from the pre-state, with request parameters as
//!   `?0, ?1, …`, and
//! * an FO **query sentence** answering `∈ S`, plus optional named,
//!   parameterized queries (Note 3.3's general operations).
//!
//! All update formulas for one request evaluate against the *pre*-state
//! simultaneously; relations with no rule for a request kind are copied
//! unchanged.

use crate::machine::MachineError;
use crate::request::RequestKind;
use dynfo_logic::analysis::{canonicalize, free_vars, quantifier_depth};
use dynfo_logic::formula::{eq, or, param, rel, v, Formula};
use dynfo_logic::structure::STRUCTURE_BITS_BUDGET;
use dynfo_logic::{Elem, Structure, Sym, Vocabulary};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One update rule: after a matching request, `target` is redefined as
/// the set of tuples satisfying `formula` (free variables in `var_order`)
/// over the pre-state.
#[derive(Clone, Debug)]
pub struct UpdateRule {
    /// The auxiliary relation being redefined.
    pub target: Sym,
    /// Free variables of the formula, in the target's column order.
    pub vars: Vec<Sym>,
    /// The (canonicalized) update formula.
    pub formula: Formula,
}

/// Precomputation for a Dyn-FO⁺ initial structure.
pub type InitFn = Arc<dyn Fn(&Arc<Vocabulary>, Elem) -> Structure + Send + Sync>;

/// Full recompute for "start over and muddle through" executors
/// (Datta–Mukherjee–Schwentick–Vortmeier–Zeume): rebuild the auxiliary
/// structure from the maintained input copies inside the current
/// state. Must be deterministic — the serving tier replays it at fixed
/// journal sequence numbers and requires byte-identical recovery.
pub type RecomputeFn = Arc<dyn Fn(&Structure) -> Structure + Send + Sync>;

/// [`RecomputeFn`] wrapped for `Debug`/`Clone` derives on the program.
#[derive(Clone)]
pub struct Recompute(pub RecomputeFn);

impl std::fmt::Debug for Recompute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recompute(..)")
    }
}

/// How the auxiliary structure is initialized.
#[derive(Clone)]
pub enum Init {
    /// `f(∅)` is the empty structure — plain Dyn-FO.
    Empty,
    /// `f(∅)` is precomputed by arbitrary (polynomial) work — Dyn-FO⁺.
    Precomputed(InitFn),
}

impl std::fmt::Debug for Init {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Init::Empty => write!(f, "Init::Empty"),
            Init::Precomputed(_) => write!(f, "Init::Precomputed(..)"),
        }
    }
}

/// A complete Dyn-FO (or Dyn-FO⁺) program.
#[derive(Clone, Debug)]
pub struct DynFoProgram {
    name: String,
    input_vocab: Arc<Vocabulary>,
    aux_vocab: Arc<Vocabulary>,
    init: Init,
    rules: BTreeMap<RequestKind, Vec<UpdateRule>>,
    query: Formula,
    named_queries: BTreeMap<Sym, Formula>,
    memoryless: bool,
    recompute: Option<Recompute>,
}

/// Builder for [`DynFoProgram`].
pub struct ProgramBuilder {
    name: String,
    input_vocab: Vocabulary,
    aux_vocab: Vocabulary,
    init: Init,
    rules: BTreeMap<RequestKind, Vec<UpdateRule>>,
    query: Formula,
    named_queries: BTreeMap<Sym, Formula>,
    memoryless: bool,
    recompute: Option<Recompute>,
}

impl DynFoProgram {
    /// Start building a program.
    pub fn builder(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            input_vocab: Vocabulary::new(),
            aux_vocab: Vocabulary::new(),
            init: Init::Empty,
            rules: BTreeMap::new(),
            query: Formula::False,
            named_queries: BTreeMap::new(),
            memoryless: false,
            recompute: None,
        }
    }

    /// Program name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input vocabulary σ.
    pub fn input_vocab(&self) -> &Arc<Vocabulary> {
        &self.input_vocab
    }

    /// The auxiliary vocabulary τ.
    pub fn aux_vocab(&self) -> &Arc<Vocabulary> {
        &self.aux_vocab
    }

    /// The initialization mode.
    pub fn init(&self) -> &Init {
        &self.init
    }

    /// `Ok` iff `n ≥ 1` and the program's relations fit
    /// [`STRUCTURE_BITS_BUDGET`] as bitmaps over `{0..n}`;
    /// [`MachineError::EmptyUniverse`] or [`MachineError::TooLarge`]
    /// otherwise. Allocates nothing; every path that takes `n` from
    /// outside the process asks this before it builds a structure.
    pub fn check_size(&self, n: Elem) -> Result<(), MachineError> {
        if n == 0 {
            return Err(MachineError::EmptyUniverse);
        }
        let bits = Structure::bits_needed(&self.aux_vocab, n);
        if bits > STRUCTURE_BITS_BUDGET {
            return Err(MachineError::TooLarge {
                bits,
                budget: STRUCTURE_BITS_BUDGET,
            });
        }
        Ok(())
    }

    /// Build the initial auxiliary structure for universe size `n`.
    pub fn initial_structure(&self, n: Elem) -> Structure {
        match &self.init {
            Init::Empty => Structure::empty(Arc::clone(&self.aux_vocab), n),
            Init::Precomputed(f) => f(&self.aux_vocab, n),
        }
    }

    /// True iff this is a Dyn-FO⁺ program (nontrivial precomputation).
    pub fn has_precomputation(&self) -> bool {
        matches!(self.init, Init::Precomputed(_))
    }

    /// The rules for a request kind (empty slice if none).
    pub fn rules_for(&self, kind: RequestKind) -> &[UpdateRule] {
        self.rules.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All rules.
    pub fn rules(&self) -> impl Iterator<Item = (&RequestKind, &UpdateRule)> {
        self.rules.iter().flat_map(|(k, rs)| rs.iter().map(move |r| (k, r)))
    }

    /// The boolean query sentence.
    pub fn query(&self) -> &Formula {
        &self.query
    }

    /// A named, parameterized query.
    pub fn named_query(&self, name: &str) -> Option<&Formula> {
        self.named_queries.get(&Sym::new(name))
    }

    /// Names of all named queries.
    pub fn named_queries(&self) -> impl Iterator<Item = Sym> + '_ {
        self.named_queries.keys().copied()
    }

    /// Whether the program claims memorylessness (§3: `f(r̄)` depends
    /// only on `eval(r̄)`, not the request history). Verified empirically
    /// by [`crate::machine::check_memoryless`].
    pub fn claims_memoryless(&self) -> bool {
        self.memoryless
    }

    /// The program's full-recompute function, if it opts into the
    /// muddle-through executor mode ([`ProgramBuilder::recompute`]).
    pub fn recompute_fn(&self) -> Option<&RecomputeFn> {
        self.recompute.as_ref().map(|r| &r.0)
    }

    /// The CRAM parallel time of one update: the maximum quantifier depth
    /// over all update formulas (constant per program — the paper's
    /// headline parallel claim).
    pub fn update_depth(&self) -> usize {
        self.rules
            .values()
            .flatten()
            .map(|r| quantifier_depth(&r.formula))
            .max()
            .unwrap_or(0)
    }

    /// Quantifier depth of the query sentence.
    pub fn query_depth(&self) -> usize {
        quantifier_depth(&self.query)
    }
}

impl ProgramBuilder {
    /// Add an input relation (also added to the auxiliary vocabulary:
    /// the data structure keeps a copy of the input).
    pub fn input_relation(mut self, name: &str, arity: usize) -> Self {
        self.input_vocab.add_relation(name, arity);
        self.aux_vocab.add_relation(name, arity);
        self
    }

    /// Add an input constant (mirrored into the auxiliary vocabulary).
    pub fn input_constant(mut self, name: &str) -> Self {
        self.input_vocab.add_constant(name);
        self.aux_vocab.add_constant(name);
        self
    }

    /// Add an auxiliary relation (data structure only).
    pub fn aux_relation(mut self, name: &str, arity: usize) -> Self {
        self.aux_vocab.add_relation(name, arity);
        self
    }

    /// Add an auxiliary constant.
    pub fn aux_constant(mut self, name: &str) -> Self {
        self.aux_vocab.add_constant(name);
        self
    }

    /// Use Dyn-FO⁺ precomputation for the initial structure.
    pub fn precomputed(
        mut self,
        f: impl Fn(&Arc<Vocabulary>, Elem) -> Structure + Send + Sync + 'static,
    ) -> Self {
        self.init = Init::Precomputed(Arc::new(f));
        self
    }

    /// Declare the program memoryless.
    pub fn memoryless(mut self) -> Self {
        self.memoryless = true;
        self
    }

    /// Install a "start over" full-recompute function: given the
    /// current auxiliary structure (whose input copies are by
    /// construction exact), rebuild every auxiliary relation from
    /// scratch. Programs with cheap almost-everywhere update rules and
    /// one stale direction (muddle-through) pair this with
    /// [`crate::machine::DynFoMachine::recompute`] calls on a cadence —
    /// the serving tier's `recompute_every`.
    pub fn recompute(
        mut self,
        f: impl Fn(&Structure) -> Structure + Send + Sync + 'static,
    ) -> Self {
        self.recompute = Some(Recompute(Arc::new(f)));
        self
    }

    /// Add an update rule: after requests of `kind`, `target(vars…)` is
    /// redefined by `formula` (free vars must be exactly `vars`).
    ///
    /// # Panics
    /// Panics if `target` is unknown, the variable count mismatches the
    /// target's arity, or the formula's free variables differ from
    /// `vars`.
    pub fn on(mut self, kind: RequestKind, target: &str, vars: &[&str], formula: Formula) -> Self {
        let target_sym = Sym::new(target);
        let id = self
            .aux_vocab
            .relation(target_sym)
            .unwrap_or_else(|| panic!("unknown update target {target}"));
        assert_eq!(
            self.aux_vocab.arity(id),
            vars.len(),
            "update rule for {target}: wrong variable count"
        );
        let vars: Vec<Sym> = vars.iter().map(|s| Sym::new(s)).collect();
        // Simplify first (drops foldable atoms, degenerate connectives),
        // then rewrite to the evaluator's canonical form. Simplification
        // could erase a free variable (e.g. `x = x`); the builder's
        // free-variable check below uses the ORIGINAL formula so that
        // declared columns always match what the author wrote.
        let canonical = canonicalize(&dynfo_logic::simplify::simplify(&formula));
        let fv = free_vars(&canonicalize(&formula));
        let declared: std::collections::BTreeSet<Sym> = vars.iter().copied().collect();
        assert_eq!(
            fv, declared,
            "update rule for {target}: free variables {fv:?} differ from declared {declared:?}"
        );
        self.rules.entry(kind).or_default().push(UpdateRule {
            target: target_sym,
            vars,
            formula: canonical,
        });
        self
    }

    /// Set the boolean query sentence.
    ///
    /// # Panics
    /// Panics if the query has free variables.
    pub fn query(mut self, formula: Formula) -> Self {
        let canonical = canonicalize(&formula);
        assert!(
            free_vars(&canonical).is_empty(),
            "query must be a sentence"
        );
        self.query = canonical;
        self
    }

    /// Add a named, parameterized query (`?0, ?1, …` for arguments).
    ///
    /// # Panics
    /// Panics if the query has free variables (bind positions with
    /// params).
    pub fn named_query(mut self, name: &str, formula: Formula) -> Self {
        let canonical = canonicalize(&formula);
        assert!(
            free_vars(&canonical).is_empty(),
            "named query {name} must have no free variables (use ?i params)"
        );
        self.named_queries.insert(Sym::new(name), canonical);
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if a rule's target duplicates another rule for the same
    /// request kind (each relation gets at most one definition per
    /// request).
    pub fn build(self) -> DynFoProgram {
        for (kind, rules) in &self.rules {
            let mut seen = std::collections::BTreeSet::new();
            for r in rules {
                assert!(
                    seen.insert(r.target),
                    "duplicate rule for {:?} target {}",
                    kind,
                    r.target
                );
            }
        }
        DynFoProgram {
            name: self.name,
            input_vocab: Arc::new(self.input_vocab),
            aux_vocab: Arc::new(self.aux_vocab),
            init: self.init,
            rules: self.rules,
            query: self.query,
            named_queries: self.named_queries,
            recompute: self.recompute,
            memoryless: self.memoryless,
        }
    }
}

/// The standard input-copy maintenance formulas: `R'(x̄) ≡ R(x̄) ∨ x̄ = ā`
/// on insert and `R'(x̄) ≡ R(x̄) ∧ x̄ ≠ ā` on delete, with `ā = (?0, …)`.
///
/// Returns `(vars, insert_formula, delete_formula)` for an arity-`k`
/// relation named `name`, using variables `x0..x{k-1}`.
pub fn input_copy_rules(name: &str, k: usize) -> (Vec<String>, Formula, Formula) {
    let vars: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let var_terms: Vec<_> = vars.iter().map(|s| v(s)).collect();
    let atom = rel(name, var_terms.clone());
    let tuple_eq = Formula::And(
        (0..k).map(|i| eq(var_terms[i], param(i))).collect(),
    );
    let ins = or([atom.clone(), tuple_eq.clone()]);
    let del = atom & !tuple_eq;
    (vars, ins, del)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfo_logic::formula::{and, exists, not};

    /// REACH_u and MSF build at n = 512, the size the budget is chosen
    /// for, and n = 0 and the first size past the budget are refused
    /// without allocating.
    #[test]
    fn the_size_budget_admits_n_512_and_refuses_one_past_it() {
        use crate::programs::{msf, reach_u};
        use crate::DynFoMachine;
        for program in [reach_u::program(), msf::program()] {
            assert_eq!(program.check_size(0), Err(MachineError::EmptyUniverse));
            assert_eq!(program.check_size(512), Ok(()), "{}", program.name());
            assert_eq!(DynFoMachine::new(program.clone(), 512).n(), 512);
            let past = (512..)
                .find(|&n| Structure::bits_needed(program.aux_vocab(), n) > STRUCTURE_BITS_BUDGET)
                .unwrap();
            assert_eq!(program.check_size(past - 1), Ok(()), "{}", program.name());
            match program.check_size(past) {
                Err(MachineError::TooLarge { bits, budget }) => {
                    assert_eq!(budget, STRUCTURE_BITS_BUDGET);
                    assert!(bits > budget, "{} n={past}: {bits} bits", program.name());
                }
                other => panic!("{} n={past}: expected TooLarge, got {other:?}", program.name()),
            }
        }
    }

    fn toy_program() -> DynFoProgram {
        // Membership bit: maintain M (unary input copy) and query ∃x M(x).
        let (_, ins_m, del_m) = input_copy_rules("M", 1);
        DynFoProgram::builder("toy")
            .input_relation("M", 1)
            .aux_relation("NonEmpty", 0)
            .on(RequestKind::ins("M"), "M", &["x0"], ins_m)
            .on(RequestKind::del("M"), "M", &["x0"], del_m)
            .on(
                RequestKind::ins("M"),
                "NonEmpty",
                &[],
                Formula::True,
            )
            .on(
                RequestKind::del("M"),
                "NonEmpty",
                &[],
                exists(["x"], rel("M", [v("x")]) & not(eq(v("x"), param(0)))),
            )
            .query(rel("NonEmpty", []))
            .build()
    }

    #[test]
    fn builder_produces_vocabularies() {
        let p = toy_program();
        assert!(p.input_vocab().relation("M").is_some());
        assert!(p.aux_vocab().relation("NonEmpty").is_some());
        assert!(p.aux_vocab().extends(p.input_vocab()));
        assert!(!p.has_precomputation());
    }

    #[test]
    fn rules_dispatch_by_kind() {
        let p = toy_program();
        assert_eq!(p.rules_for(RequestKind::ins("M")).len(), 2);
        assert_eq!(p.rules_for(RequestKind::del("M")).len(), 2);
        assert_eq!(p.rules_for(RequestKind::set("M")).len(), 0);
    }

    #[test]
    fn update_depth_is_max_over_rules() {
        let p = toy_program();
        assert_eq!(p.update_depth(), 1); // the ∃x in the delete rule
        assert_eq!(p.query_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "free variables")]
    fn rule_free_var_mismatch_panics() {
        DynFoProgram::builder("bad")
            .input_relation("M", 1)
            .on(
                RequestKind::ins("M"),
                "M",
                &["x0"],
                rel("M", [v("y")]), // wrong variable
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "must be a sentence")]
    fn open_query_panics() {
        DynFoProgram::builder("bad")
            .input_relation("M", 1)
            .query(rel("M", [v("x")]))
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate rule")]
    fn duplicate_target_panics() {
        DynFoProgram::builder("bad")
            .input_relation("M", 1)
            .on(RequestKind::ins("M"), "M", &["x0"], rel("M", [v("x0")]))
            .on(RequestKind::ins("M"), "M", &["x0"], rel("M", [v("x0")]))
            .build();
    }

    #[test]
    fn input_copy_rules_shape() {
        let (vars, ins, del) = input_copy_rules("E", 2);
        assert_eq!(vars, vec!["x0", "x1"]);
        assert_eq!(
            ins,
            rel("E", [v("x0"), v("x1")])
                | and([eq(v("x0"), param(0)), eq(v("x1"), param(1))])
        );
        assert_eq!(
            del,
            rel("E", [v("x0"), v("x1")])
                & not(and([eq(v("x0"), param(0)), eq(v("x1"), param(1))]))
        );
    }
}
