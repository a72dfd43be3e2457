//! Finite relations: sets of [`Tuple`]s of a fixed arity over a
//! universe `{0..n}`.
//!
//! Relations are the stored state of a structure. The paper's universes
//! are `{0..n−1}` and its relations have fixed arity, so every relation
//! has a known `n^arity`-tuple space, and every relation is a [`BitRel`]
//! bitmap of it: set algebra (union/intersection/difference/complement/
//! hamming) runs word-parallel, 64 tuples per instruction, and
//! membership is O(1). How many bits a structure may spend on its
//! relations is [`STRUCTURE_BITS_BUDGET`](crate::structure::STRUCTURE_BITS_BUDGET),
//! checked once before anything is allocated.
//!
//! Iteration is in lexicographic tuple order, so benchmarks, printed
//! tables and memorylessness checks (which compare whole structures)
//! are deterministic. Two relations are equal when they have the same
//! arity and universe and hold the same tuples.

use crate::bitrel::{BitRel, BitRelIter};
use crate::tuple::{Elem, Tuple};
use std::fmt;

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

/// A finite relation of fixed arity over universe elements `{0..n}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    bits: BitRel,
}

impl Relation {
    /// The empty relation of the given arity over `{0..n}`.
    ///
    /// # Panics
    /// Panics if `n^arity` bits overflow `usize`. A structure checks its
    /// relations against
    /// [`STRUCTURE_BITS_BUDGET`](crate::structure::STRUCTURE_BITS_BUDGET)
    /// before it builds them.
    pub fn with_universe(arity: usize, n: Elem) -> Relation {
        Relation {
            bits: BitRel::new(arity, n),
        }
    }

    /// Build a relation over `{0..n}` from an iterator of tuples.
    ///
    /// # Panics
    /// Panics as [`Relation::insert`] does.
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

    /// The universe size `n`: this relation is a bitmap over `{0..n}`.
    pub fn universe(&self) -> Elem {
        self.bits.universe()
    }

    /// Raw bitmap words (base-`n` index order), for same-crate kernels
    /// that re-stride or scatter the bits wholesale.
    pub(crate) fn bits(&self) -> &[u64] {
        self.bits.words()
    }

    /// The bitmap, for same-crate kernels that write it in place.
    pub(crate) fn bits_mut(&mut self) -> &mut BitRel {
        &mut self.bits
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.bits.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        debug_assert_eq!(t.len(), self.arity());
        self.bits.contains(t)
    }

    /// Insert a tuple; returns true if newly added.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the arity or an element
    /// lies outside the universe.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.len(),
            self.arity(),
            "tuple arity {} != relation arity {}",
            t.len(),
            self.arity()
        );
        let n = self.universe();
        assert!(t.iter().all(|v| v < n), "tuple {t} outside universe of size {n}");
        self.bits.insert(t)
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        debug_assert_eq!(t.len(), self.arity());
        self.bits.remove(t)
    }

    /// Bulk in-place insert; returns how many tuples were newly added.
    ///
    /// # Panics
    /// Panics as [`Relation::insert`] does.
    pub fn insert_all(&mut self, tuples: &[Tuple]) -> usize {
        tuples.iter().filter(|t| self.insert(**t)).count()
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
    /// OR-and-popcount pass), anything else an intersection then a
    /// union (an AND pass, then an OR pass).
    pub fn install(&mut self, mode: DeltaMode, new: &Relation) -> (usize, usize) {
        let old = self.len();
        if mode == DeltaMode::Grow {
            self.union_assign(new);
            return (self.len() - old, 0);
        }
        // old ∩ new survives; OR-ing `new` back in then leaves exactly
        // `new`, and the two counts give both sides of the difference.
        self.intersection_assign(new);
        let kept = self.len();
        self.union_assign(new);
        let (added, removed) = (self.len() - kept, old - kept);
        debug_assert!(
            mode != DeltaMode::Shrink || added == 0,
            "shrink rule produced tuples outside the old relation"
        );
        (added, removed)
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Iterate in sorted (lexicographic) order.
    pub fn iter(&self) -> BitRelIter<'_> {
        self.bits.iter()
    }

    /// Iterate (in the same lexicographic order as [`Relation::iter`])
    /// only the tuples whose leading components equal `prefix` — a
    /// contiguous bit range. This is the pushdown that turns a scan with
    /// bound leading arguments from O(|R|) into O(matching).
    ///
    /// # Panics
    /// Panics if `prefix` is longer than the arity.
    pub fn iter_prefix<'a>(&'a self, prefix: &[Elem]) -> BitRelIter<'a> {
        self.bits.iter_prefix(prefix)
    }

    /// The complement of this relation over its universe: one
    /// word-parallel NOT.
    pub fn complement(&self) -> Relation {
        Relation {
            bits: self.bits.complement(),
        }
    }

    /// Set union. Panics if arities or universes differ.
    pub fn union(&self, other: &Relation) -> Relation {
        Relation {
            bits: self.bits.union(&other.bits),
        }
    }

    /// Set intersection. Panics if arities or universes differ.
    pub fn intersection(&self, other: &Relation) -> Relation {
        Relation {
            bits: self.bits.intersection(&other.bits),
        }
    }

    /// Set difference. Panics if arities or universes differ.
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation {
            bits: self.bits.difference(&other.bits),
        }
    }

    /// In-place union: `self ← self ∪ other`, word-parallel, allocating
    /// nothing. Panics if arities or universes differ.
    pub fn union_assign(&mut self, other: &Relation) {
        self.bits.union_assign(&other.bits);
    }

    /// In-place intersection: `self ← self ∩ other`. Panics if arities
    /// or universes differ.
    pub fn intersection_assign(&mut self, other: &Relation) {
        self.bits.intersection_assign(&other.bits);
    }

    /// In-place difference: `self ← self ∖ other`. Panics if arities or
    /// universes differ.
    pub fn difference_assign(&mut self, other: &Relation) {
        self.bits.difference_assign(&other.bits);
    }

    /// Symmetric-difference cardinality: how many tuples differ.
    ///
    /// This is the "number of affected tuples" that bounded-expansion
    /// reductions (Definition 5.1) bound by a constant. One XOR-popcount
    /// pass. Panics if arities or universes differ.
    pub fn hamming(&self, other: &Relation) -> usize {
        self.bits.hamming(&other.bits)
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
    use std::collections::BTreeSet;

    type Pairs = Vec<(Elem, Elem)>;

    fn rel(n: Elem, pairs: &[(Elem, Elem)]) -> Relation {
        Relation::from_tuples_with_universe(2, n, pairs.iter().map(|&(a, b)| Tuple::pair(a, b)))
    }

    /// The tuple set `r` holds, in iteration order.
    fn pairs_of(r: &Relation) -> Pairs {
        r.iter().map(|t| (t[0], t[1])).collect()
    }

    /// ~`density·n²` distinct pairs over `{0..n}`, sorted.
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

    /// Operand pairs `(n, a, b)` the set-algebra checks run over: one
    /// hand-written case, then n = 300 (90 000 bits, so the last bitmap
    /// word is partial) at occupancies from empty through 0.1 %, 5 %,
    /// 50 % to full.
    fn operand_pairs() -> Vec<(Elem, Pairs, Pairs)> {
        let mut out = vec![(5, vec![(0, 1), (1, 2), (4, 4)], vec![(1, 2), (2, 3)])];
        for d in [0.0, 0.001, 0.05, 0.5, 1.0] {
            out.push((300, sample(300, d, 31), sample(300, d * 0.7, 32)));
        }
        out
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::with_universe(2, 4);
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
        Relation::with_universe(2, 4).insert(Tuple::unary(0));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_insert_panics() {
        Relation::with_universe(2, 4).insert(Tuple::pair(0, 4));
    }

    #[test]
    fn complement_partitions_universe() {
        let r = rel(3, &[(0, 0), (1, 2)]);
        let c = r.complement();
        assert_eq!(r.len() + c.len(), 9);
        assert!(c.contains(&Tuple::pair(2, 2)));
        assert!(!c.contains(&Tuple::pair(0, 0)));
        assert_eq!(r.intersection(&c).len(), 0);
        assert_eq!(c.universe(), 3);
    }

    #[test]
    fn set_algebra() {
        let a = rel(4, &[(0, 1), (1, 2)]);
        let b = rel(4, &[(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersection(&b), rel(4, &[(1, 2)]));
        assert_eq!(a.difference(&b), rel(4, &[(0, 1)]));
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    /// Every operation against a `BTreeSet` model of the same pairs, at
    /// each occupancy of [`operand_pairs`]: the allocating and in-place
    /// forms, complement and hamming, and the popcount each keeps.
    #[test]
    fn set_algebra_matches_a_tuple_set_model() {
        for (n, pa, pb) in operand_pairs() {
            let (a, b) = (rel(n, &pa), rel(n, &pb));
            let (sa, sb): (BTreeSet<_>, BTreeSet<_>) =
                (pa.iter().copied().collect(), pb.iter().copied().collect());
            assert_eq!(pairs_of(&a), pa, "iteration order (n {n})");
            let want = |s: BTreeSet<(Elem, Elem)>| s.into_iter().collect::<Pairs>();
            let cases = [
                ("union", a.union(&b), want(&sa | &sb)),
                ("intersection", a.intersection(&b), want(&sa & &sb)),
                ("difference", a.difference(&b), want(&sa - &sb)),
            ];
            for (name, got, want) in cases {
                assert_eq!(pairs_of(&got), want, "{name} (n {n}, |a| {})", pa.len());
                assert_eq!(got.len(), want.len(), "{name} popcount (n {n})");
            }
            let mut u = a.clone();
            u.union_assign(&b);
            assert_eq!(u, a.union(&b));
            let mut i = a.clone();
            i.intersection_assign(&b);
            assert_eq!(i, a.intersection(&b));
            let mut d = a.clone();
            d.difference_assign(&b);
            assert_eq!(d, a.difference(&b));
            assert_eq!(a.hamming(&b), (&sa ^ &sb).len(), "hamming (n {n})");
            let all = (0..n).flat_map(|x| (0..n).map(move |y| (x, y)));
            let comp: Pairs = all.filter(|p| !sa.contains(p)).collect();
            assert_eq!(pairs_of(&a.complement()), comp, "complement (n {n})");
        }
    }

    #[test]
    fn install_counts_both_sides_of_the_change() {
        let mut r = rel(6, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(r.install(DeltaMode::Grow, &rel(6, &[(1, 2), (4, 4)])), (1, 0));
        assert_eq!(r, rel(6, &[(0, 1), (1, 2), (2, 3), (4, 4)]));
        assert_eq!(r.install(DeltaMode::Shrink, &rel(6, &[(0, 1), (4, 4)])), (0, 2));
        assert_eq!(r.install(DeltaMode::Full, &rel(6, &[(4, 4), (5, 0)])), (1, 1));
        assert_eq!(r, rel(6, &[(4, 4), (5, 0)]));
    }

    #[test]
    fn deterministic_iteration_order() {
        let r = rel(3, &[(2, 0), (0, 1), (1, 1)]);
        let order: Vec<Tuple> = r.iter().collect();
        assert_eq!(
            order,
            vec![Tuple::pair(0, 1), Tuple::pair(1, 1), Tuple::pair(2, 0)]
        );
    }

    #[test]
    fn prefix_iteration_is_the_matching_range() {
        let pa = sample(300, 0.05, 33);
        let r = rel(300, &pa);
        for x in [0, 7, 299] {
            let got: Pairs = r.iter_prefix(&[x]).map(|t| (t[0], t[1])).collect();
            let want: Pairs = pa.iter().copied().filter(|&(a, _)| a == x).collect();
            assert_eq!(got, want, "prefix {x}");
        }
        assert_eq!(r.iter_prefix(&[]).count(), pa.len());
    }

    #[test]
    fn equality_needs_one_universe_and_one_tuple_set() {
        let d = rel(8, &[(0, 1), (3, 3), (7, 2)]);
        assert_eq!(d, rel(8, &[(7, 2), (3, 3), (0, 1)]));
        assert_ne!(d, rel(8, &[(0, 1)]));
        assert_ne!(d, rel(11, &[(0, 1), (3, 3), (7, 2)]));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Universes the streams are folded onto: a handful of words,
        /// and n = 300 whose last bitmap word is partial. Both divide
        /// [`op_stream`]'s element range, so `%` keeps it uniform.
        const UNIVERSES: [Elem; 2] = [6, 300];

        /// Apply an insert/remove stream to a relation and to a
        /// `BTreeSet` model of it.
        fn mirrored(n: Elem, ops: &[(Elem, Elem, bool)]) -> (BTreeSet<(Elem, Elem)>, Relation) {
            let mut model = BTreeSet::new();
            let mut r = Relation::with_universe(2, n);
            for &(a, b, ins) in ops {
                let (a, b) = (a % n, b % n);
                let (got, want) = if ins {
                    (r.insert(Tuple::pair(a, b)), model.insert((a, b)))
                } else {
                    (r.remove(&Tuple::pair(a, b)), model.remove(&(a, b)))
                };
                assert_eq!(got, want, "insert/remove report for ({a}, {b})");
            }
            (model, r)
        }

        fn op_stream() -> impl Strategy<Value = Vec<(Elem, Elem, bool)>> {
            proptest::collection::vec((0u32..300, 0u32..300, proptest::bool::ANY), 0..120)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// An insert/delete stream leaves the model's tuples, length,
            /// (lexicographic) iteration order and membership.
            #[test]
            fn bitmap_tracks_a_tuple_set_under_churn(ops in op_stream()) {
                for n in UNIVERSES {
                    let (model, r) = mirrored(n, &ops);
                    prop_assert_eq!(r.len(), model.len());
                    let want: Pairs = model.iter().copied().collect();
                    prop_assert_eq!(pairs_of(&r), want);
                    // Every touched tuple, plus an even spread of the rest
                    // (all of them at n = 6).
                    let touched = ops.iter().map(|&(a, b, _)| (a % n, b % n));
                    let spread = (0..n * n).step_by((n * n / 64).max(1) as usize);
                    for (a, b) in touched.chain(spread.map(|i| (i / n, i % n))) {
                        prop_assert_eq!(r.contains(&Tuple::pair(a, b)), model.contains(&(a, b)));
                    }
                }
            }
        }
    }
}
