//! Finite relations: sets of [`Tuple`]s of a fixed arity.
//!
//! Relations are the stored state of a structure. Two interchangeable
//! backends sit behind one value type:
//!
//! * **Sparse** — a `BTreeSet<Tuple>`: no universe bound, memory
//!   proportional to the tuple count. The default for free-standing
//!   relations and for relations whose tuple space is too large to map.
//! * **Dense** — a [`BitRel`] bitmap of all `n^arity` tuples: set algebra
//!   (union/intersection/difference/complement/hamming) runs word-parallel,
//!   64 tuples per instruction, and membership is O(1). Chosen per relation
//!   by the `arity × n` threshold [`fits_dense`] when the universe is known
//!   (see [`Relation::with_universe`]).
//!
//! Both backends iterate in lexicographic tuple order, so benchmarks,
//! printed tables, and memorylessness checks (which compare whole
//! structures) are deterministic and backend-independent; `PartialEq`
//! compares tuple *sets*, never representations.

use crate::bitrel::{capacity_bits, BitRel};
use crate::tuple::{all_tuples, Elem, Tuple};
use std::collections::BTreeSet;
use std::fmt;

/// Largest tuple-space a relation maps densely: `n^arity` bits ≤ 2^24
/// (2 MiB of bitmap). Covers e.g. binary relations to n = 4096 and
/// ternary to n = 256; anything bigger stays sparse.
pub const DENSE_BITS_CAP: u128 = 1 << 24;

/// True iff an arity-`arity` relation over `{0..n}` is allowed the dense
/// backend under [`DENSE_BITS_CAP`].
pub fn fits_dense(arity: usize, n: Elem) -> bool {
    capacity_bits(n, arity) <= DENSE_BITS_CAP
}

/// What an update rule's syntactic shape guarantees about the
/// direction of change, and so what [`Relation::install`] does with
/// the rule's result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaMode {
    /// The rule is `T(x̄) ∨ ψ`: the result holds ψ's tuples, and the
    /// target only gains them.
    Grow,
    /// The rule is `T(x̄) ∧ ψ`: the result is the new value, a subset of
    /// the old one.
    Shrink,
    /// No guarantee: the result is the new value.
    Full,
}

#[derive(Clone, Eq, PartialEq, Debug)]
enum Repr {
    Sparse(BTreeSet<Tuple>),
    Dense(BitRel),
}

/// A finite relation of fixed arity over universe elements.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    repr: Repr,
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::new(0)
    }
}

impl Relation {
    /// The empty sparse relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            repr: Repr::Sparse(BTreeSet::new()),
        }
    }

    /// The empty dense relation of the given arity over `{0..n}`.
    ///
    /// # Panics
    /// Panics if `n^arity` overflows `usize`; gate with [`fits_dense`].
    pub fn dense(arity: usize, n: Elem) -> Relation {
        Relation {
            arity,
            repr: Repr::Dense(BitRel::new(arity, n)),
        }
    }

    /// The empty relation of the given arity, dense over `{0..n}` when the
    /// tuple space fits [`DENSE_BITS_CAP`], sparse otherwise. This is the
    /// one place a backend is chosen.
    pub fn with_universe(arity: usize, n: Elem) -> Relation {
        if fits_dense(arity, n) {
            Relation::dense(arity, n)
        } else {
            Relation::new(arity)
        }
    }

    /// Build a sparse relation from an iterator of tuples.
    ///
    /// # Panics
    /// Panics if any tuple's length differs from `arity`.
    pub fn from_tuples(arity: usize, iter: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new(arity);
        for t in iter {
            r.insert(t);
        }
        r
    }

    /// Build a backend-selected relation (see [`Relation::with_universe`])
    /// from an iterator of tuples over `{0..n}`.
    pub fn from_tuples_with_universe(
        arity: usize,
        n: Elem,
        iter: impl IntoIterator<Item = Tuple>,
    ) -> Relation {
        let mut r = Relation::with_universe(arity, n);
        for t in iter {
            r.insert(t);
        }
        r
    }

    /// `Some(n)` iff this relation is densely mapped over `{0..n}`.
    pub fn dense_universe(&self) -> Option<Elem> {
        match &self.repr {
            Repr::Sparse(_) => None,
            Repr::Dense(b) => Some(b.universe()),
        }
    }

    /// Backend name, for benches and tables: `"sparse"` or `"dense"`.
    pub fn backend_kind(&self) -> &'static str {
        match &self.repr {
            Repr::Sparse(_) => "sparse",
            Repr::Dense(_) => "dense",
        }
    }

    /// The same tuple set on the dense backend over `{0..n}`.
    ///
    /// # Panics
    /// Panics (in debug) if a tuple lies outside `{0..n}`, or if the
    /// bitmap would overflow `usize`.
    pub fn to_dense(&self, n: Elem) -> Relation {
        match &self.repr {
            Repr::Dense(b) if b.universe() == n => self.clone(),
            _ => {
                let mut b = BitRel::new(self.arity, n);
                for t in self.iter() {
                    b.insert(t);
                }
                Relation {
                    arity: self.arity,
                    repr: Repr::Dense(b),
                }
            }
        }
    }

    /// The same tuple set on the sparse backend.
    pub fn to_sparse(&self) -> Relation {
        match &self.repr {
            Repr::Sparse(_) => self.clone(),
            _ => Relation {
                arity: self.arity,
                repr: Repr::Sparse(self.iter().collect()),
            },
        }
    }

    /// The same tuple set on the backend of `template` (dense over the
    /// same universe iff `template` is).
    pub fn to_backend_of(&self, template: &Relation) -> Relation {
        match &template.repr {
            Repr::Dense(b) if self.dense_universe() != Some(b.universe()) => {
                self.to_dense(b.universe())
            }
            Repr::Sparse(_) if !matches!(self.repr, Repr::Sparse(_)) => self.to_sparse(),
            _ => self.clone(),
        }
    }

    /// Raw bitmap words when densely backed (base-`n` index order), for
    /// same-crate kernels that re-stride or scatter the bits wholesale.
    pub(crate) fn dense_bits(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Sparse(_) => None,
            Repr::Dense(b) => Some(b.words()),
        }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(s) => s.len(),
            Repr::Dense(b) => b.len(),
        }
    }

    /// True iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        debug_assert_eq!(t.len(), self.arity);
        match &self.repr {
            Repr::Sparse(s) => s.contains(t),
            Repr::Dense(b) => b.contains(t),
        }
    }

    /// Insert a tuple; returns true if newly added.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the arity.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.len(),
            self.arity,
            "tuple arity {} != relation arity {}",
            t.len(),
            self.arity
        );
        match &mut self.repr {
            Repr::Sparse(s) => s.insert(t),
            Repr::Dense(b) => b.insert(t),
        }
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        debug_assert_eq!(t.len(), self.arity);
        match &mut self.repr {
            Repr::Sparse(s) => s.remove(t),
            Repr::Dense(b) => b.remove(t),
        }
    }

    /// Bulk in-place insert; returns how many tuples were newly added.
    /// The relation stays on its backend; an empty `BTreeSet` is built
    /// in one sorted pass instead of tuple by tuple.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from the arity.
    pub fn insert_all(&mut self, tuples: &[Tuple]) -> usize {
        match &mut self.repr {
            Repr::Sparse(s) if s.is_empty() => {
                assert!(tuples.iter().all(|t| t.len() == self.arity), "tuple arity != relation arity");
                *s = tuples.iter().copied().collect();
                s.len()
            }
            _ => tuples.iter().filter(|t| self.insert(**t)).count(),
        }
    }

    /// Bulk in-place remove; returns how many tuples were present.
    pub fn remove_all(&mut self, tuples: &[Tuple]) -> usize {
        tuples.iter().filter(|t| self.remove(t)).count()
    }

    /// Put a rule's result `new` in place: this relation becomes
    /// `self ∪ new` under [`DeltaMode::Grow`] and exactly `new`
    /// otherwise. Returns `(added, removed)` — the sizes of `new ∖ old`
    /// and `old ∖ new`. Both are read off the counted set operations the
    /// install is built from: `Grow` is a union (one fused
    /// OR-and-popcount pass when both sides are dense over one
    /// universe), anything else an intersection then a union (an AND
    /// pass, then an OR pass). Two `BTreeSet`s instead count both
    /// differences by one sorted walk each and, if they differ, take
    /// `new` wholesale — a per-tuple intersection and union would look
    /// every tuple up twice.
    pub fn install(&mut self, mode: DeltaMode, new: &Relation) -> (usize, usize) {
        let old = self.len();
        if mode == DeltaMode::Grow {
            self.union_assign(new);
            return (self.len() - old, 0);
        }
        let (added, removed) = match (&mut self.repr, &new.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let counts = (b.difference(a).count(), a.difference(b).count());
                if counts != (0, 0) {
                    a.clone_from(b);
                }
                counts
            }
            _ => {
                // old ∩ new survives; OR-ing `new` back in then leaves
                // exactly `new`, and the two counts give both sides of
                // the difference.
                self.intersection_assign(new);
                let kept = self.len();
                self.union_assign(new);
                (self.len() - kept, old - kept)
            }
        };
        debug_assert!(
            mode != DeltaMode::Shrink || added == 0,
            "shrink rule produced tuples outside the old relation"
        );
        (added, removed)
    }

    /// The dense bitmap, for same-crate kernels that write it in place.
    pub(crate) fn bits_mut(&mut self) -> Option<&mut BitRel> {
        match &mut self.repr {
            Repr::Sparse(_) => None,
            Repr::Dense(b) => Some(b),
        }
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Sparse(s) => s.clear(),
            Repr::Dense(b) => b.clear(),
        }
    }

    /// Iterate in sorted (lexicographic) order on either backend.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        match &self.repr {
            Repr::Sparse(s) => RelIter::Sparse(s.iter()),
            Repr::Dense(b) => RelIter::Dense(b.iter()),
        }
    }

    /// Iterate (in the same lexicographic order as [`Relation::iter`])
    /// only the tuples whose leading components equal `prefix` — a
    /// contiguous bit range on the dense backend, a `BTreeSet` range
    /// query on the sparse one. This is the pushdown that turns a scan
    /// with bound leading arguments from O(|R|) into O(matching).
    ///
    /// # Panics
    /// Panics if `prefix` is longer than the arity.
    pub fn iter_prefix<'a>(&'a self, prefix: &[Elem]) -> impl Iterator<Item = Tuple> + 'a {
        assert!(prefix.len() <= self.arity, "prefix longer than arity");
        match &self.repr {
            Repr::Sparse(s) => {
                let mut lo = [0 as Elem; crate::tuple::MAX_ARITY];
                let mut hi = [0 as Elem; crate::tuple::MAX_ARITY];
                lo[..prefix.len()].copy_from_slice(prefix);
                hi[..prefix.len()].copy_from_slice(prefix);
                hi[prefix.len()..self.arity].fill(Elem::MAX);
                let lo = Tuple::from_slice(&lo[..self.arity]);
                let hi = Tuple::from_slice(&hi[..self.arity]);
                PrefixIter::Sparse(s.range(lo..=hi))
            }
            Repr::Dense(b) => PrefixIter::Dense(b.iter_prefix(prefix)),
        }
    }

    /// The complement of this relation over universe `{0..n}`.
    ///
    /// Word-parallel NOT on a dense relation over the same `n`; otherwise
    /// cost is `n^arity` membership tests. Callers (the evaluator) guard
    /// arity with a budget.
    pub fn complement(&self, n: Elem) -> Relation {
        match &self.repr {
            Repr::Dense(b) if b.universe() == n => Relation {
                arity: self.arity,
                repr: Repr::Dense(b.complement()),
            },
            _ => {
                let mut out = Relation::with_universe(self.arity, n);
                for t in all_tuples(n, self.arity) {
                    if !self.contains(&t) {
                        out.insert(t);
                    }
                }
                out
            }
        }
    }

    /// Word-op when both sides are dense over the same universe;
    /// otherwise merge by (sorted) iteration onto `self`'s backend.
    fn zip(
        &self,
        other: &Relation,
        word_op: impl Fn(&BitRel, &BitRel) -> BitRel,
        keep: impl Fn(bool, bool) -> bool,
    ) -> Relation {
        assert_eq!(self.arity, other.arity);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                return Relation {
                    arity: self.arity,
                    repr: Repr::Dense(word_op(a, b)),
                };
            }
            _ => {}
        }
        let mut out = Relation {
            arity: self.arity,
            repr: match &self.repr {
                Repr::Sparse(_) => Repr::Sparse(BTreeSet::new()),
                Repr::Dense(b) => Repr::Dense(BitRel::new(self.arity, b.universe())),
            },
        };
        for t in self.iter() {
            if keep(true, other.contains(&t)) {
                out.insert(t);
            }
        }
        for t in other.iter() {
            if !self.contains(&t) && keep(false, true) {
                out.insert(t);
            }
        }
        out
    }

    /// Set union. Panics if arities differ.
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip(other, BitRel::union, |a, b| a || b)
    }

    /// Set intersection. Panics if arities differ.
    pub fn intersection(&self, other: &Relation) -> Relation {
        self.zip(other, BitRel::intersection, |a, b| a && b)
    }

    /// Set difference. Panics if arities differ.
    pub fn difference(&self, other: &Relation) -> Relation {
        self.zip(other, BitRel::difference, |a, b| a && !b)
    }

    /// In-place union: `self ← self ∪ other`. Word-parallel when both
    /// sides are dense over the same universe; no fresh relation is
    /// allocated on any backend. Panics if arities differ.
    pub fn union_assign(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                a.union_assign(b);
                return;
            }
            _ => {}
        }
        for t in other.iter() {
            self.insert(t);
        }
    }

    /// In-place intersection: `self ← self ∩ other`. Panics if arities
    /// differ.
    pub fn intersection_assign(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                a.intersection_assign(b);
                return;
            }
            _ => {}
        }
        let gone: Vec<Tuple> = self.iter().filter(|t| !other.contains(t)).collect();
        for t in &gone {
            self.remove(t);
        }
    }

    /// In-place difference: `self ← self ∖ other`. Panics if arities
    /// differ.
    pub fn difference_assign(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                a.difference_assign(b);
                return;
            }
            _ => {}
        }
        let gone: Vec<Tuple> = self.iter().filter(|t| other.contains(t)).collect();
        for t in &gone {
            self.remove(t);
        }
    }

    /// Symmetric-difference cardinality: how many tuples differ.
    ///
    /// This is the "number of affected tuples" that bounded-expansion
    /// reductions (Definition 5.1) bound by a constant. XOR-popcount on
    /// same-universe dense pairs.
    pub fn hamming(&self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                return a.hamming(b);
            }
            _ => {}
        }
        let in_self_only = self.iter().filter(|t| !other.contains(t)).count();
        let in_other_only = other.iter().filter(|t| !self.contains(t)).count();
        in_self_only + in_other_only
    }
}

enum RelIter<'a> {
    Sparse(std::collections::btree_set::Iter<'a, Tuple>),
    Dense(crate::bitrel::BitRelIter<'a>),
}

impl Iterator for RelIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match self {
            RelIter::Sparse(it) => it.next().copied(),
            RelIter::Dense(it) => it.next(),
        }
    }
}

enum PrefixIter<'a> {
    Sparse(std::collections::btree_set::Range<'a, Tuple>),
    Dense(crate::bitrel::BitRelIter<'a>),
}

impl Iterator for PrefixIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match self {
            PrefixIter::Sparse(it) => it.next().copied(),
            PrefixIter::Dense(it) => it.next(),
        }
    }
}

/// Semantic equality: same arity and same tuple set, independent of
/// backend. Both backends iterate sorted, so a zip comparison suffices.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => self.arity == other.arity && a == b,
            (Repr::Dense(a), Repr::Dense(b)) if a.universe() == b.universe() => {
                self.arity == other.arity && a == b
            }
            _ => {
                self.arity == other.arity
                    && self.len() == other.len()
                    && self.iter().eq(other.iter())
            }
        }
    }
}

impl Eq for Relation {}

impl FromIterator<Tuple> for Relation {
    /// Collect tuples into a sparse relation, inferring the arity from the
    /// first tuple. An empty iterator yields an empty 0-ary relation.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map(|t| t.len()).unwrap_or(0);
        Relation::from_tuples(arity, it)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Pairs = Vec<(Elem, Elem)>;

    fn rel(pairs: &[(Elem, Elem)]) -> Relation {
        Relation::from_tuples(2, pairs.iter().map(|&(a, b)| Tuple::pair(a, b)))
    }

    fn drel(n: Elem, pairs: &[(Elem, Elem)]) -> Relation {
        Relation::from_tuples_with_universe(2, n, pairs.iter().map(|&(a, b)| Tuple::pair(a, b)))
    }

    /// ~`density·n²` distinct pairs over `{0..n}`.
    fn sample(n: Elem, density: f64, seed: u64) -> Pairs {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let space = n * n;
        let target = (f64::from(space) * density).round() as usize;
        let mut picked = BTreeSet::new();
        if target >= space as usize {
            picked.extend(0..space);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        while picked.len() < target {
            picked.insert(rng.gen_range(0..space));
        }
        picked.into_iter().map(|i| (i / n, i % n)).collect()
    }

    /// Operand pairs `(n, a, b)` every dense-vs-sparse check runs over:
    /// one hand-written case, then n = 300 (90 000 bits, so the last
    /// bitmap word is partial) at occupancies from empty through 0.1 %,
    /// 5 %, 50 % to full.
    fn operand_pairs() -> Vec<(Elem, Pairs, Pairs)> {
        let mut out = vec![(5, vec![(0, 1), (1, 2), (4, 4)], vec![(1, 2), (2, 3)])];
        for d in [0.0, 0.001, 0.05, 0.5, 1.0] {
            out.push((300, sample(300, d, 31), sample(300, d * 0.7, 32)));
        }
        out
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::pair(1, 2)));
        assert!(!r.insert(Tuple::pair(1, 2)));
        assert!(r.contains(&Tuple::pair(1, 2)));
        assert!(r.remove(&Tuple::pair(1, 2)));
        assert!(!r.remove(&Tuple::pair(1, 2)));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn arity_mismatch_panics() {
        Relation::new(2).insert(Tuple::unary(0));
    }

    #[test]
    fn complement_partitions_universe() {
        let r = rel(&[(0, 0), (1, 2)]);
        let c = r.complement(3);
        assert_eq!(r.len() + c.len(), 9);
        assert!(c.contains(&Tuple::pair(2, 2)));
        assert!(!c.contains(&Tuple::pair(0, 0)));
        assert_eq!(r.intersection(&c).len(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = rel(&[(0, 1), (1, 2)]);
        let b = rel(&[(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersection(&b), rel(&[(1, 2)]));
        assert_eq!(a.difference(&b), rel(&[(0, 1)]));
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn assign_ops_match_allocating_ops() {
        for (n, pa, pb) in operand_pairs() {
            let mk = |dense: bool, pairs: &[(Elem, Elem)]| {
                if dense {
                    drel(n, pairs)
                } else {
                    rel(pairs)
                }
            };
            // The sparse-only answers every backend mix must reproduce.
            let (sa, sb) = (rel(&pa), rel(&pb));
            let (su, si, sd) = (sa.union(&sb), sa.intersection(&sb), sa.difference(&sb));
            for &da in &[false, true] {
                for &db in &[false, true] {
                    let a = mk(da, &pa);
                    let b = mk(db, &pb);
                    let mut u = a.clone();
                    u.union_assign(&b);
                    assert_eq!(u, su);
                    let mut i = a.clone();
                    i.intersection_assign(&b);
                    assert_eq!(i, si);
                    let mut d = a.clone();
                    d.difference_assign(&b);
                    assert_eq!(d, sd);
                    // Backend of the mutated side is preserved.
                    for r in [&u, &i, &d] {
                        assert_eq!(r.backend_kind(), if da { "dense" } else { "sparse" });
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_iteration_order() {
        let r = rel(&[(2, 0), (0, 1), (1, 1)]);
        let order: Vec<Tuple> = r.iter().collect();
        assert_eq!(
            order,
            vec![Tuple::pair(0, 1), Tuple::pair(1, 1), Tuple::pair(2, 0)]
        );
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![Tuple::triple(0, 1, 2)].into_iter().collect();
        assert_eq!(r.arity(), 3);
        let empty: Relation = std::iter::empty().collect();
        assert_eq!(empty.arity(), 0);
    }

    #[test]
    fn backend_selection_respects_cap() {
        assert_eq!(Relation::with_universe(2, 64).backend_kind(), "dense");
        // 4096^2 = 2^24 bits: exactly at the cap, still dense.
        let at_cap = Relation::with_universe(2, 4096);
        assert_eq!(at_cap.backend_kind(), "dense");
        assert_eq!(at_cap.dense_universe(), Some(4096));
        // Anything past the cap is sparse, however far past: 4097^2 is
        // just over, 16^8 = 2^32 and 4096^3 = 2^36 are far over.
        for (arity, n) in [(2, 4097), (3, 1024), (4, 128), (8, 16), (3, 4096)] {
            let r = Relation::with_universe(arity, n);
            assert_eq!(r.backend_kind(), "sparse", "arity {arity}, n {n}");
            assert_eq!(r.dense_universe(), None);
        }
    }

    #[test]
    fn backends_are_semantically_equal() {
        let s = rel(&[(0, 1), (3, 3), (7, 2)]);
        let d = drel(8, &[(0, 1), (3, 3), (7, 2)]);
        assert_eq!(s, d);
        assert_eq!(d, s);
        assert_ne!(d, rel(&[(0, 1)]));
        // Same set, different dense universes: still equal.
        assert_eq!(d, drel(11, &[(0, 1), (3, 3), (7, 2)]));
        // Round trips preserve equality and order.
        assert_eq!(d.to_sparse(), d);
        assert_eq!(s.to_dense(8), s);
        let order_s: Vec<Tuple> = s.iter().collect();
        let order_d: Vec<Tuple> = d.iter().collect();
        assert_eq!(order_s, order_d);
    }

    #[test]
    fn mixed_backend_set_algebra() {
        let s = rel(&[(0, 1), (1, 2)]);
        let d = drel(6, &[(1, 2), (2, 3)]);
        assert_eq!(s.union(&d), d.union(&s));
        assert_eq!(s.union(&d).len(), 3);
        assert_eq!(s.intersection(&d), rel(&[(1, 2)]));
        assert_eq!(d.difference(&s), drel(6, &[(2, 3)]));
        assert_eq!(s.hamming(&d), 2);
        assert_eq!(d.hamming(&s), 2);
        // Result backend follows the left operand.
        assert!(s.union(&d).dense_universe().is_none());
        assert_eq!(d.union(&s).dense_universe(), Some(6));

        // Every op, same- and mixed-backend, against the sparse answer.
        for (n, pa, pb) in operand_pairs() {
            let (sa, sb) = (rel(&pa), rel(&pb));
            let (da, db) = (sa.to_dense(n), sb.to_dense(n));
            assert_eq!(da.backend_kind(), "dense");
            assert_eq!(da.len(), sa.len());
            assert_eq!(da, sa);
            assert!(da.iter().eq(sa.iter()), "iteration order (n {n})");
            let (su, si, sd) = (sa.union(&sb), sa.intersection(&sb), sa.difference(&sb));
            for (name, got, want) in [
                ("union", da.union(&db), &su),
                ("intersection", da.intersection(&db), &si),
                ("difference", da.difference(&db), &sd),
                ("union mixed", da.union(&sb), &su),
                ("intersection mixed", sa.intersection(&db), &si),
                ("difference mixed", da.difference(&sb), &sd),
            ] {
                assert_eq!(&got, want, "{name} (n {n}, |a| {})", sa.len());
            }
            for (x, y) in [(&da, &db), (&da, &sb), (&sa, &db)] {
                assert_eq!(x.hamming(y), sa.hamming(&sb), "hamming (n {n})");
            }
            assert_eq!(da.complement(n), sa.complement(n), "complement (n {n})");
            let back = da.to_sparse().to_dense(n);
            assert_eq!(back.backend_kind(), "dense");
            assert_eq!(back, sa, "round trip (n {n})");
        }
    }

    #[test]
    fn dense_complement_is_word_parallel_and_exact() {
        let d = drel(5, &[(0, 0), (4, 4)]);
        let c = d.complement(5);
        assert_eq!(c.len(), 23);
        assert_eq!(c, rel(&[(0, 0), (4, 4)]).complement(5));
        assert_eq!(c.dense_universe(), Some(5));
    }

    #[test]
    fn to_backend_of_matches_template() {
        let s = rel(&[(0, 1)]);
        let d = drel(4, &[(2, 2)]);
        assert_eq!(s.to_backend_of(&d).dense_universe(), Some(4));
        assert_eq!(d.to_backend_of(&s).dense_universe(), None);
        assert_eq!(s.to_backend_of(&d), s);
        assert_eq!(d.to_backend_of(&s), d);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Universes the streams are folded onto: a handful of words,
        /// and n = 300 whose last bitmap word is partial. Both divide
        /// [`op_stream`]'s element range, so `%` keeps it uniform.
        const UNIVERSES: [Elem; 2] = [6, 300];

        /// Apply the same insert/remove stream to both backends.
        fn mirrored(n: Elem, ops: &[(Elem, Elem, bool)]) -> (Relation, Relation) {
            let mut sparse = Relation::new(2);
            let mut dense = Relation::dense(2, n);
            for &(a, b, ins) in ops {
                let t = Tuple::pair(a % n, b % n);
                if ins {
                    sparse.insert(t);
                    dense.insert(t);
                } else {
                    sparse.remove(&t);
                    dense.remove(&t);
                }
            }
            (sparse, dense)
        }

        fn op_stream() -> impl Strategy<Value = Vec<(Elem, Elem, bool)>> {
            proptest::collection::vec((0u32..300, 0u32..300, proptest::bool::ANY), 0..120)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Same insert/delete stream ⇒ same tuples, same length,
            /// same (lexicographic) iteration order, equal relations.
            #[test]
            fn backends_agree_under_churn(ops in op_stream()) {
                for n in UNIVERSES {
                    let (sparse, dense) = mirrored(n, &ops);
                    prop_assert_eq!(sparse.len(), dense.len());
                    let s: Vec<Tuple> = sparse.iter().collect();
                    let d: Vec<Tuple> = dense.iter().collect();
                    prop_assert_eq!(s, d);
                    prop_assert_eq!(&sparse, &dense);
                    // Every touched tuple, plus an even spread of the rest
                    // (all of them at n = 6).
                    let touched = ops.iter().map(|&(a, b, _)| (a % n, b % n));
                    let spread = (0..n * n).step_by((n * n / 64).max(1) as usize);
                    for (a, b) in touched.chain(spread.map(|i| (i / n, i % n))) {
                        let t = Tuple::pair(a, b);
                        prop_assert_eq!(sparse.contains(&t), dense.contains(&t));
                    }
                }
            }

            /// Word-parallel set algebra on dense pairs matches the
            /// BTreeSet implementation on the same inputs.
            #[test]
            fn set_algebra_agrees(xs in op_stream(), ys in op_stream()) {
                for n in UNIVERSES {
                    let (sx, dx) = mirrored(n, &xs);
                    let (sy, dy) = mirrored(n, &ys);
                    prop_assert_eq!(sx.union(&sy), dx.union(&dy));
                    prop_assert_eq!(sx.intersection(&sy), dx.intersection(&dy));
                    prop_assert_eq!(sx.difference(&sy), dx.difference(&dy));
                    prop_assert_eq!(sx.complement(n), dx.complement(n));
                    prop_assert_eq!(sx.hamming(&sy), dx.hamming(&dy));
                    // Mixed-backend calls agree too (iteration fallback).
                    prop_assert_eq!(sx.union(&dy), dx.union(&sy));
                    prop_assert_eq!(sx.difference(&dy), dx.difference(&sy));
                }
            }
        }
    }
}
