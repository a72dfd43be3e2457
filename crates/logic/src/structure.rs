//! Finite relational structures (= relational databases).
//!
//! A structure `A = ⟨{0,…,n−1}, R₁^A … R_r^A, c₁^A … c_s^A⟩` (paper §2)
//! interprets each relation symbol of its vocabulary as a finite relation
//! and each constant symbol as a universe element. The universe is always
//! an initial segment of the naturals, which gives meaning to the numeric
//! predicates `≤`, `BIT`, `min`, `max`.

use crate::bitrel::capacity_bits;
use crate::relation::Relation;
use crate::tuple::{Elem, Tuple};
use crate::vocab::{ConstId, RelId, Vocabulary};
use std::fmt;
use std::sync::Arc;

/// Most bits one structure's relations may take together: 2³⁰, or
/// 128 MiB of bitmaps. Every relation is an `n^arity`-bit bitmap, so
/// this bounds a structure's memory before it is built. It admits
/// REACH_u and MSF at n = 512 (MSF's two ternary relations there are
/// 2 × 2²⁷ bits).
pub const STRUCTURE_BITS_BUDGET: u128 = 1 << 30;

/// A finite structure over a fixed vocabulary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Structure {
    vocab: Arc<Vocabulary>,
    size: Elem,
    relations: Vec<Relation>,
    constants: Vec<Elem>,
}

impl Structure {
    /// The structure over `{0..n}` with all relations empty and all
    /// constants set to 0.
    ///
    /// This matches the paper's initial structure `A₀ⁿ` except that the
    /// paper additionally puts element 0 in the active-domain relation
    /// `R₁` when one is used; callers that follow that convention insert
    /// it explicitly.
    ///
    /// # Panics
    /// Panics if `n == 0` (universes are nonempty by definition), or if
    /// the relations' bitmaps together pass [`STRUCTURE_BITS_BUDGET`]
    /// (check [`Structure::bits_needed`] first where `n` comes from
    /// outside the process).
    pub fn empty(vocab: Arc<Vocabulary>, n: Elem) -> Structure {
        assert!(n > 0, "universe must be nonempty");
        let bits = Structure::bits_needed(&vocab, n);
        assert!(
            bits <= STRUCTURE_BITS_BUDGET,
            "a structure over n = {n} needs {bits} bits, past the budget of {STRUCTURE_BITS_BUDGET}"
        );
        let relations = vocab
            .relations()
            .map(|(_, sym)| Relation::with_universe(sym.arity, n))
            .collect();
        let constants = vec![0; vocab.num_constants()];
        Structure {
            vocab,
            size: n,
            relations,
            constants,
        }
    }

    /// Bits the relations of `vocab` take as bitmaps over `{0..n}`:
    /// `Σ n^arity`, saturating instead of overflowing.
    pub fn bits_needed(vocab: &Vocabulary, n: Elem) -> u128 {
        vocab
            .relations()
            .map(|(_, sym)| capacity_bits(n, sym.arity))
            .fold(0, u128::saturating_add)
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// Universe size `n` (the universe is `{0, …, n−1}`); `‖A‖` in the paper.
    pub fn size(&self) -> Elem {
        self.size
    }

    /// Interpretation of relation `id`.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Mutable interpretation of relation `id`. What is written through
    /// it must stay over this structure's universe.
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        &mut self.relations[id.0 as usize]
    }

    /// Look up a relation by name and return its interpretation.
    ///
    /// # Panics
    /// Panics if the name is not in the vocabulary; use
    /// [`Structure::try_rel`] when the name is untrusted.
    pub fn rel(&self, name: &str) -> &Relation {
        self.try_rel(name)
            .unwrap_or_else(|| panic!("unknown relation {name}"))
    }

    /// Non-panicking [`Structure::rel`]: `None` if the vocabulary lacks
    /// the name. The lookup for untrusted input (snapshot restore,
    /// decoded frames).
    pub fn try_rel(&self, name: &str) -> Option<&Relation> {
        self.vocab.relation(name).map(|id| self.relation(id))
    }

    /// Mutable variant of [`Structure::rel`].
    ///
    /// # Panics
    /// Panics if the name is not in the vocabulary; use
    /// [`Structure::try_rel_mut`] when the name is untrusted.
    pub fn rel_mut(&mut self, name: &str) -> &mut Relation {
        self.try_rel_mut(name)
            .unwrap_or_else(|| panic!("unknown relation {name}"))
    }

    /// Non-panicking [`Structure::rel_mut`].
    pub fn try_rel_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let id = self.vocab.relation(name)?;
        Some(self.relation_mut(id))
    }

    /// Interpretation of constant `id`.
    pub fn constant(&self, id: ConstId) -> Elem {
        self.constants[id.0 as usize]
    }

    /// Set constant `id` to `v`.
    ///
    /// # Panics
    /// Panics if `v` is outside the universe.
    pub fn set_constant(&mut self, id: ConstId, v: Elem) {
        assert!(v < self.size, "constant value {v} outside universe");
        self.constants[id.0 as usize] = v;
    }

    /// Look up a constant by name.
    ///
    /// # Panics
    /// Panics if the name is not in the vocabulary; use
    /// [`Structure::try_const_val`] when the name is untrusted.
    pub fn const_val(&self, name: &str) -> Elem {
        self.try_const_val(name)
            .unwrap_or_else(|| panic!("unknown constant {name}"))
    }

    /// Non-panicking [`Structure::const_val`].
    pub fn try_const_val(&self, name: &str) -> Option<Elem> {
        self.vocab.constant(name).map(|id| self.constant(id))
    }

    /// Set a constant by name; panics if unknown or out of range.
    pub fn set_const(&mut self, name: &str, v: Elem) {
        let id = self
            .vocab
            .constant(name)
            .unwrap_or_else(|| panic!("unknown constant {name}"));
        self.set_constant(id, v);
    }

    /// Non-panicking [`Structure::set_const`]: `Err` names the failure
    /// (unknown constant, or value outside the universe) instead of
    /// panicking, so corrupt snapshot bytes surface as decode errors.
    pub fn try_set_const(&mut self, name: &str, v: Elem) -> Result<(), String> {
        let id = self
            .vocab
            .constant(name)
            .ok_or_else(|| format!("unknown constant {name}"))?;
        if v >= self.size {
            return Err(format!(
                "constant {name} value {v} outside universe of size {}",
                self.size
            ));
        }
        self.constants[id.0 as usize] = v;
        Ok(())
    }

    /// Insert tuple `t` into relation `name`. Convenience for tests and
    /// structure construction.
    ///
    /// # Panics
    /// Panics if the name is unknown or `t` lies outside the universe.
    pub fn insert(&mut self, name: &str, t: impl Into<Tuple>) -> bool {
        self.rel_mut(name).insert(t.into())
    }

    /// Remove tuple `t` from relation `name`.
    pub fn remove(&mut self, name: &str, t: impl Into<Tuple>) -> bool {
        self.rel_mut(name).remove(&t.into())
    }

    /// Membership in relation `name`.
    pub fn holds(&self, name: &str, t: impl Into<Tuple>) -> bool {
        self.rel(name).contains(&t.into())
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Number of tuples + constants differing from `other`.
    ///
    /// Both structures must share vocabulary and size. This is the change
    /// count that bounded-expansion reductions bound per request.
    pub fn hamming(&self, other: &Structure) -> usize {
        assert_eq!(self.vocab, other.vocab, "vocabulary mismatch");
        assert_eq!(self.size, other.size, "size mismatch");
        let rels: usize = self
            .relations
            .iter()
            .zip(&other.relations)
            .map(|(a, b)| a.hamming(b))
            .sum();
        let consts = self
            .constants
            .iter()
            .zip(&other.constants)
            .filter(|(a, b)| a != b)
            .count();
        rels + consts
    }

    /// A copy of this structure whose vocabulary gains one extra
    /// relation `name` (arity taken from `rel`) interpreted as `rel`.
    ///
    /// This is the scratch-structure constructor of the bulk-change
    /// path: the machine clones its auxiliary state, adjoins the
    /// materialized change set Δ as a first-class relation, and runs
    /// the Δ-closed update formulas against the extension until they
    /// converge — without ever widening the real state's vocabulary.
    ///
    /// # Panics
    /// Panics if `name` is already in the vocabulary or `rel` is over
    /// another universe.
    pub fn extended(&self, name: &str, rel: Relation) -> Structure {
        assert!(
            self.vocab.relation(name).is_none(),
            "relation {name} already in the vocabulary"
        );
        assert_eq!(rel.universe(), self.size, "extension relation {name} universe");
        let mut vocab = (*self.vocab).clone();
        vocab.add_relation(name, rel.arity());
        let mut relations = self.relations.clone();
        relations.push(rel);
        Structure {
            vocab: Arc::new(vocab),
            size: self.size,
            relations,
            constants: self.constants.clone(),
        }
    }

    /// Replace the interpretation of relation `id` wholesale.
    ///
    /// # Panics
    /// Panics if `rel`'s arity or universe differs from the slot's.
    pub fn set_relation(&mut self, id: RelId, rel: Relation) {
        assert_eq!(
            rel.arity(),
            self.vocab.arity(id),
            "arity mismatch replacing relation"
        );
        assert_eq!(rel.universe(), self.size, "universe mismatch replacing relation");
        self.relations[id.0 as usize] = rel;
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure over {} (n={})", self.vocab, self.size)?;
        for (id, sym) in self.vocab.relations() {
            writeln!(f, "  {} = {}", sym.name, self.relation(id))?;
        }
        for (id, name) in self.vocab.constants() {
            writeln!(f, "  {} = {}", name, self.constant(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_vocab() -> Arc<Vocabulary> {
        Arc::new(
            Vocabulary::new()
                .with_relation("E", 2)
                .with_constant("s")
                .with_constant("t"),
        )
    }

    #[test]
    fn empty_structure() {
        let s = Structure::empty(graph_vocab(), 5);
        assert_eq!(s.size(), 5);
        assert!(s.rel("E").is_empty());
        assert_eq!(s.const_val("s"), 0);
        assert_eq!(s.total_tuples(), 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_universe_panics() {
        Structure::empty(graph_vocab(), 0);
    }

    #[test]
    fn insert_and_query() {
        let mut s = Structure::empty(graph_vocab(), 4);
        assert!(s.insert("E", [0, 1]));
        assert!(!s.insert("E", [0, 1]));
        assert!(s.holds("E", [0, 1]));
        assert!(!s.holds("E", [1, 0]));
        s.set_const("t", 3);
        assert_eq!(s.const_val("t"), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_tuple_panics() {
        let mut s = Structure::empty(graph_vocab(), 4);
        s.insert("E", [0, 4]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_constant_panics() {
        let mut s = Structure::empty(graph_vocab(), 4);
        s.set_const("s", 9);
    }

    #[test]
    fn hamming_counts_all_differences() {
        let mut a = Structure::empty(graph_vocab(), 4);
        let mut b = a.clone();
        assert_eq!(a.hamming(&b), 0);
        a.insert("E", [0, 1]);
        b.insert("E", [1, 2]);
        b.set_const("t", 2);
        assert_eq!(a.hamming(&b), 3);
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        let s = Structure::empty(graph_vocab(), 4);
        s.rel("Q");
    }

    #[test]
    fn try_lookups_return_options_not_panics() {
        let mut s = Structure::empty(graph_vocab(), 4);
        assert!(s.try_rel("E").is_some());
        assert!(s.try_rel("Q").is_none());
        assert!(s.try_rel_mut("Q").is_none());
        s.try_rel_mut("E").unwrap().insert(Tuple::pair(1, 2));
        assert!(s.holds("E", [1, 2]));
        assert_eq!(s.try_const_val("s"), Some(0));
        assert_eq!(s.try_const_val("nope"), None);
        assert!(s.try_set_const("s", 3).is_ok());
        assert_eq!(s.const_val("s"), 3);
        assert!(s.try_set_const("s", 9).is_err());
        assert!(s.try_set_const("nope", 0).is_err());
        assert_eq!(s.const_val("s"), 3, "failed try_set_const must not write");
    }
}
