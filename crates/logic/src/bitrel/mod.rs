//! Dense bitset-backed relations.
//!
//! An arity-`k` relation over universe `{0..n}` is a subset of `n^k`
//! tuples; encoding tuple `(t₀, …, t_{k−1})` as the base-`n` index
//! `t₀·n^{k−1} + … + t_{k−1}` turns the relation into a bitmap of
//! `n^k` bits. Set algebra then runs 64 tuples per instruction —
//! union/intersection/difference are single-pass word operations and
//! complement is bitwise NOT. This is the literal "polynomial hardware"
//! of the paper's CRAM picture: one processor per tuple, here time-sliced
//! 64-at-a-time through ALU words.
//!
//! The base-`n` index order equals the lexicographic tuple order, so
//! iteration is sorted — deterministic benchmarks and whole-structure
//! comparisons (memorylessness checks) follow from it.

use crate::tuple::{Elem, Tuple};
use std::fmt;

/// A dense bitset relation of fixed arity over universe `{0..n}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitRel {
    arity: usize,
    n: Elem,
    /// Number of set bits (maintained incrementally).
    len: usize,
    words: Vec<u64>,
}

/// Number of tuple slots (`n^arity`) as a u128, saturating at
/// `u128::MAX` instead of overflowing.
pub fn capacity_bits(n: Elem, arity: usize) -> u128 {
    (n as u128).saturating_pow(arity as u32)
}

impl BitRel {
    /// The empty dense relation of the given arity over `{0..n}`.
    ///
    /// # Panics
    /// Panics if `n^arity` overflows `usize` — structures gate on
    /// [`capacity_bits`] before they build their relations.
    pub fn new(arity: usize, n: Elem) -> BitRel {
        let bits = usize::try_from(capacity_bits(n, arity))
            .expect("BitRel capacity exceeds usize");
        BitRel {
            arity,
            n,
            len: 0,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Universe size this relation is dense over.
    pub fn universe(&self) -> Elem {
        self.n
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base-`n` index of a tuple.
    #[inline]
    fn index(&self, t: &Tuple) -> usize {
        debug_assert_eq!(t.len(), self.arity);
        let mut idx = 0usize;
        for v in t.iter() {
            debug_assert!(v < self.n, "element {v} outside universe {}", self.n);
            idx = idx * self.n as usize + v as usize;
        }
        idx
    }

    /// Decode a base-`n` index back to its tuple.
    #[inline]
    fn decode(&self, mut idx: usize) -> Tuple {
        let mut items = [0 as Elem; crate::tuple::MAX_ARITY];
        for i in (0..self.arity).rev() {
            items[i] = (idx % self.n as usize) as Elem;
            idx /= self.n as usize;
        }
        Tuple::from_slice(&items[..self.arity])
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: &Tuple) -> bool {
        let i = self.index(t);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Insert a tuple; returns true if newly added.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let i = self.index(&t);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let i = self.index(t);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        self.len -= present as usize;
        present
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterate set tuples in lexicographic (sorted) order.
    pub fn iter(&self) -> BitRelIter<'_> {
        self.iter_range(0, self.words.len() * 64)
    }

    /// Iterate tuples whose leading components equal `prefix`. Base-n
    /// indexing makes those tuples one contiguous bit range, so only
    /// ⌈n^(k−m)/64⌉ words are visited — the pushdown behind O(n)
    /// bound-argument scans. A prefix component outside the universe
    /// yields nothing.
    pub fn iter_prefix(&self, prefix: &[Elem]) -> BitRelIter<'_> {
        assert!(prefix.len() <= self.arity, "prefix longer than arity");
        if prefix.iter().any(|&p| p >= self.n) {
            return self.iter_range(0, 0);
        }
        let span = (self.n as usize).pow((self.arity - prefix.len()) as u32);
        let mut base = 0usize;
        for &p in prefix {
            base = base * self.n as usize + p as usize;
        }
        self.iter_range(base * span, base * span + span)
    }

    fn iter_range(&self, start: usize, end: usize) -> BitRelIter<'_> {
        let word_idx = start / 64;
        let current = if word_idx < self.words.len() {
            self.words[word_idx] & (!0u64 << (start % 64))
        } else {
            0
        };
        BitRelIter {
            rel: self,
            word_idx,
            current,
            end,
        }
    }

    /// Out-of-place word combine through the tiered fused
    /// combine-and-popcount pass (`dst = self op (other ^ fb)`): the
    /// cardinality is counted while each result word is still in a
    /// register — vectorized with the combine under AVX2 — instead of a
    /// second whole-vector sweep re-reading what was just written.
    fn zip_words(&self, other: &BitRel, and: bool, fb: u64) -> BitRel {
        assert_eq!(self.arity, other.arity, "arity mismatch");
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut words = vec![0u64; self.words.len()];
        let len = crate::simd::combine2_count(&mut words, &self.words, &other.words, and, fb);
        BitRel {
            arity: self.arity,
            n: self.n,
            len: len as usize,
            words,
        }
    }

    fn zip_words_assign(&mut self, other: &BitRel, and: bool, fb: u64) {
        assert_eq!(self.arity, other.arity, "arity mismatch");
        assert_eq!(self.n, other.n, "universe mismatch");
        self.len = crate::simd::fold_count(&mut self.words, &other.words, and, fb) as usize;
    }

    /// Set union (word-parallel OR).
    pub fn union(&self, other: &BitRel) -> BitRel {
        self.zip_words(other, false, 0)
    }

    /// In-place union: `self ∪= other` without allocating a result.
    pub fn union_assign(&mut self, other: &BitRel) {
        self.zip_words_assign(other, false, 0)
    }

    /// Set intersection (word-parallel AND).
    pub fn intersection(&self, other: &BitRel) -> BitRel {
        self.zip_words(other, true, 0)
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersection_assign(&mut self, other: &BitRel) {
        self.zip_words_assign(other, true, 0)
    }

    /// Set difference (word-parallel AND-NOT).
    pub fn difference(&self, other: &BitRel) -> BitRel {
        self.zip_words(other, true, !0)
    }

    /// In-place difference: `self ∖= other`.
    pub fn difference_assign(&mut self, other: &BitRel) {
        self.zip_words_assign(other, true, !0)
    }

    /// Complement over the full `n^arity` tuple space (word-parallel NOT
    /// with a masked final word).
    pub fn complement(&self) -> BitRel {
        let bits = capacity_bits(self.n, self.arity) as usize;
        let mut words: Vec<u64> = self.words.iter().map(|&w| !w).collect();
        if let Some(last) = words.last_mut() {
            let used = bits % 64;
            if used != 0 {
                *last &= (1u64 << used) - 1;
            }
        }
        BitRel {
            arity: self.arity,
            n: self.n,
            len: bits - self.len,
            words,
        }
    }

    /// Counted OR of `src`, a bitmap in this relation's own base-`n`
    /// layout with no bit past `n^arity` set: one fused
    /// combine-and-popcount pass.
    pub(crate) fn or_words(&mut self, src: &[u64]) {
        assert_eq!(src.len(), self.words.len(), "bitmap length mismatch");
        self.len = crate::simd::fold_count(&mut self.words, src, false, 0) as usize;
    }

    /// Hand the words to a same-crate kernel that writes them in place
    /// (in base-`n` layout, no bit past `n^arity` set), then recount.
    pub(crate) fn write_words<R>(&mut self, write: impl FnOnce(&mut [u64]) -> R) -> R {
        let out = write(&mut self.words);
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
        out
    }

    /// Word slice access for same-crate kernels: when the universe is a
    /// power of two the base-`n` layout coincides with the compiled
    /// plans' padded power-of-two layout, so atom loads become straight
    /// word copies.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Existential quantification along one tuple axis: the arity-(k−1)
    /// relation `{ t∖axis | ∃v. t ∈ self }`, computed as an OR block-fold
    /// over the `n` sub-spans the axis contributes. In base-`n` layout
    /// the bits for fixed values of the axes before `axis` are `n`
    /// consecutive spans of `n^(k−1−axis)` bits each, so the fold is a
    /// word pass with two shifts per word — 64 tuples per instruction —
    /// rather than a per-tuple projection.
    ///
    /// # Panics
    /// Panics if `axis ≥ arity`.
    pub fn exists_axis(&self, axis: usize) -> BitRel {
        self.fold_axis(axis, false)
    }

    /// Universal quantification along one axis: the arity-(k−1) relation
    /// `{ t∖axis | ∀v. t ∈ self }` — the AND block-fold dual of
    /// [`BitRel::exists_axis`].
    pub fn forall_axis(&self, axis: usize) -> BitRel {
        self.fold_axis(axis, true)
    }

    fn fold_axis(&self, axis: usize, universal: bool) -> BitRel {
        assert!(axis < self.arity, "axis {axis} out of range for arity {}", self.arity);
        let n = self.n as usize;
        let mut out = BitRel::new(self.arity - 1, self.n);
        // Block = bits per value of the folded axis; group = the n
        // blocks sharing one prefix assignment.
        let block = n.pow((self.arity - 1 - axis) as u32);
        let outer = n.pow(axis as u32);
        let mut len = 0usize;
        for hi in 0..outer {
            let dst0 = hi * block;
            let src0 = hi * block * n;
            span_copy(&mut out.words, dst0, &self.words, src0, block);
            for d in 1..n {
                span_op(
                    &mut out.words,
                    dst0,
                    &self.words,
                    src0 + d * block,
                    block,
                    universal,
                );
            }
            // Count this span while its words are still hot in cache,
            // instead of a cold whole-vector rescan at the end. Spans
            // are disjoint bit ranges, so the per-span counts sum to
            // the exact total.
            len += popcount_span(&out.words, dst0, block);
        }
        out.len = len;
        out
    }

    /// Reorder tuple components: the relation `{ (t[perm[0]], …,
    /// t[perm[k−1]]) | t ∈ self }`, where `perm` is a permutation of
    /// `0..arity`. Cost is O(len · arity) decode/re-encode — column
    /// permutation has no base-`n` word trick; compiled plans avoid it
    /// by keeping every buffer in one canonical column order and only
    /// permuting at atom-load time through precomputed scatter tables.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..arity`.
    pub fn permute(&self, perm: &[usize]) -> BitRel {
        assert_eq!(perm.len(), self.arity, "permutation length != arity");
        let mut seen = [false; crate::tuple::MAX_ARITY];
        for &p in perm {
            assert!(p < self.arity && !seen[p], "not a permutation of 0..{}", self.arity);
            seen[p] = true;
        }
        let mut out = BitRel::new(self.arity, self.n);
        let mut items = [0 as Elem; crate::tuple::MAX_ARITY];
        for t in self.iter() {
            for (i, &p) in perm.iter().enumerate() {
                items[i] = t[p];
            }
            out.insert(Tuple::from_slice(&items[..self.arity]));
        }
        out
    }

    /// Symmetric-difference cardinality (word-parallel XOR popcount).
    pub fn hamming(&self, other: &BitRel) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch");
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a ^ b).count_ones() as usize)
            .sum()
    }
}

/// Bit-addressed span primitives shared by [`BitRel`]'s axis folds and
/// the compiled-plan kernels (`eval::kernels`). All three walk the
/// *destination* a word at a time — 64 tuples per instruction even when
/// the span offsets are not word-aligned (two shifts realign the source).
///
/// Read 64 bits of `src` starting at bit `pos`; bits past the end read 0.
#[inline]
pub(crate) fn read_bits(src: &[u64], pos: usize) -> u64 {
    let w = pos / 64;
    let b = pos % 64;
    let lo = src.get(w).copied().unwrap_or(0);
    if b == 0 {
        lo
    } else {
        let hi = src.get(w + 1).copied().unwrap_or(0);
        (lo >> b) | (hi << (64 - b))
    }
}

/// Popcount of the bit range `words[start .. start+len)`.
#[inline]
pub(crate) fn popcount_span(words: &[u64], start: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let (w0, w1) = (start / 64, (end - 1) / 64);
    if w0 == w1 {
        return (words[w0] & mask_range(start % 64, (end - 1) % 64 + 1)).count_ones() as usize;
    }
    let mut count = (words[w0] >> (start % 64)).count_ones() as usize;
    for w in &words[w0 + 1..w1] {
        count += w.count_ones() as usize;
    }
    count + (words[w1] & mask_range(0, (end - 1) % 64 + 1)).count_ones() as usize
}

/// A mask of bits `[a, b)` within one word (`0 ≤ a < b ≤ 64`).
#[inline]
pub(crate) fn mask_range(a: usize, b: usize) -> u64 {
    let width = b - a;
    let m = if width == 64 { !0u64 } else { (1u64 << width) - 1 };
    m << a
}

/// Visit every destination word overlapping `dst[d0 .. d0+len)`, handing
/// the callback the word, the source chunk realigned to it, and the mask
/// of span bits inside it.
#[inline]
fn for_span(
    dst: &mut [u64],
    d0: usize,
    src: &[u64],
    s0: usize,
    len: usize,
    mut f: impl FnMut(&mut u64, u64, u64),
) {
    if len == 0 {
        return;
    }
    let end_bit = d0 + len;
    let words = d0 / 64..=(end_bit - 1) / 64;
    for (w, d) in dst.iter_mut().enumerate().take(*words.end() + 1).skip(*words.start()) {
        let word_lo = w * 64;
        let lo = d0.max(word_lo);
        let hi = end_bit.min(word_lo + 64);
        let mask = mask_range(lo - word_lo, hi - word_lo);
        let pos = s0 as isize + word_lo as isize - d0 as isize;
        let chunk = if pos >= 0 {
            read_bits(src, pos as usize)
        } else {
            // Only the first word can sit before the source start
            // (`-pos ≤ 63`); bits below the mask are garbage and masked
            // off by the callback.
            read_bits(src, 0) << (-pos as usize)
        };
        f(d, chunk, mask);
    }
}

/// `dst[d0..d0+len) = src[s0..s0+len)` (bit addressed).
pub(crate) fn span_copy(dst: &mut [u64], d0: usize, src: &[u64], s0: usize, len: usize) {
    for_span(dst, d0, src, s0, len, |d, chunk, mask| {
        *d = (*d & !mask) | (chunk & mask)
    });
}

/// `dst[d0..) op= src[s0..)` over `len` bits: AND when `universal`
/// (bits outside the span are untouched), OR otherwise.
pub(crate) fn span_op(
    dst: &mut [u64],
    d0: usize,
    src: &[u64],
    s0: usize,
    len: usize,
    universal: bool,
) {
    if universal {
        for_span(dst, d0, src, s0, len, |d, chunk, mask| *d &= chunk | !mask);
    } else {
        for_span(dst, d0, src, s0, len, |d, chunk, mask| *d |= chunk & mask);
    }
}

/// Iterator over set tuples in index (= lexicographic) order.
pub struct BitRelIter<'a> {
    rel: &'a BitRel,
    word_idx: usize,
    current: u64,
    /// Exclusive upper bit index (for prefix ranges).
    end: usize,
}

impl Iterator for BitRelIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                let idx = self.word_idx * 64 + bit;
                if idx >= self.end {
                    return None;
                }
                self.current &= self.current - 1;
                return Some(self.rel.decode(idx));
            }
            self.word_idx += 1;
            if self.word_idx >= self.rel.words.len() || self.word_idx * 64 >= self.end {
                return None;
            }
            self.current = self.rel.words[self.word_idx];
        }
    }
}

impl fmt::Display for BitRel {
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

    fn rel(n: Elem, pairs: &[(Elem, Elem)]) -> BitRel {
        let mut r = BitRel::new(2, n);
        for &(a, b) in pairs {
            r.insert(Tuple::pair(a, b));
        }
        r
    }

    #[test]
    fn insert_remove_contains_len() {
        let mut r = BitRel::new(2, 5);
        assert!(r.insert(Tuple::pair(1, 2)));
        assert!(!r.insert(Tuple::pair(1, 2)));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::pair(1, 2)));
        assert!(r.remove(&Tuple::pair(1, 2)));
        assert!(!r.remove(&Tuple::pair(1, 2)));
        assert!(r.is_empty());
    }

    #[test]
    fn iteration_is_lexicographic() {
        let r = rel(4, &[(3, 1), (0, 2), (1, 1), (0, 0)]);
        let order: Vec<Tuple> = r.iter().collect();
        assert_eq!(
            order,
            vec![
                Tuple::pair(0, 0),
                Tuple::pair(0, 2),
                Tuple::pair(1, 1),
                Tuple::pair(3, 1)
            ]
        );
    }

    #[test]
    fn word_ops_match_set_algebra() {
        let a = rel(6, &[(0, 1), (1, 2), (5, 5)]);
        let b = rel(6, &[(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).len(), 4);
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![Tuple::pair(1, 2)]);
        let d = a.difference(&b);
        assert!(d.contains(&Tuple::pair(0, 1)));
        assert!(!d.contains(&Tuple::pair(1, 2)));
        assert_eq!(a.hamming(&b), 3);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn complement_masks_tail_word() {
        // 5^2 = 25 bits: the last word has 25 used bits; the complement
        // must not set any of the 39 slack bits (len would drift).
        let r = rel(5, &[(0, 0), (4, 4)]);
        let c = r.complement();
        assert_eq!(c.len(), 23);
        assert_eq!(c.iter().count(), 23);
        assert_eq!(c.complement(), r);
    }

    #[test]
    fn large_arity3_round_trip() {
        let mut r = BitRel::new(3, 17);
        let tuples = [
            Tuple::triple(0, 0, 0),
            Tuple::triple(16, 16, 16),
            Tuple::triple(3, 9, 12),
        ];
        for t in tuples {
            r.insert(t);
        }
        assert_eq!(r.iter().collect::<Vec<_>>(), {
            let mut v = tuples.to_vec();
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn zero_arity_is_a_bit() {
        let mut r = BitRel::new(0, 9);
        assert!(r.is_empty());
        assert!(r.insert(Tuple::empty()));
        assert!(r.contains(&Tuple::empty()));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![Tuple::empty()]);
        let c = r.complement();
        assert!(c.is_empty());
    }

    #[test]
    fn assign_ops_match_allocating_ops() {
        let a = rel(6, &[(0, 1), (1, 2), (5, 5)]);
        let b = rel(6, &[(1, 2), (2, 3)]);
        let mut u = a.clone();
        u.union_assign(&b);
        assert_eq!(u, a.union(&b));
        assert_eq!(u.len(), a.union(&b).len());
        let mut i = a.clone();
        i.intersection_assign(&b);
        assert_eq!(i, a.intersection(&b));
        let mut d = a.clone();
        d.difference_assign(&b);
        assert_eq!(d, a.difference(&b));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn exists_axis_is_projection() {
        // 7 is not a multiple of 64, so spans are unaligned on purpose.
        let r = rel(7, &[(0, 1), (0, 5), (3, 3), (6, 2)]);
        // ∃y R(x,y): fold axis 1.
        let xs = r.exists_axis(1);
        assert_eq!(
            xs.iter().collect::<Vec<_>>(),
            vec![Tuple::unary(0), Tuple::unary(3), Tuple::unary(6)]
        );
        // ∃x R(x,y): fold axis 0.
        let ys = r.exists_axis(0);
        assert_eq!(
            ys.iter().collect::<Vec<_>>(),
            vec![
                Tuple::unary(1),
                Tuple::unary(2),
                Tuple::unary(3),
                Tuple::unary(5)
            ]
        );
    }

    #[test]
    fn forall_axis_is_universal() {
        let mut r = BitRel::new(2, 5);
        // Row 2 is full; row 4 misses one value.
        for y in 0..5 {
            r.insert(Tuple::pair(2, y));
        }
        for y in 0..4 {
            r.insert(Tuple::pair(4, y));
        }
        let all = r.forall_axis(1);
        assert_eq!(all.iter().collect::<Vec<_>>(), vec![Tuple::unary(2)]);
        // Dual check: ∀x R(x,y) is empty here.
        assert!(r.forall_axis(0).is_empty());
    }

    #[test]
    fn fold_axis_middle_of_arity3() {
        let mut r = BitRel::new(3, 5);
        for &(a, b, c) in &[(1, 0, 2), (1, 3, 2), (1, 4, 4), (0, 2, 2)] {
            r.insert(Tuple::triple(a, b, c));
        }
        let folded = r.exists_axis(1);
        let mut expect: Vec<Tuple> =
            vec![Tuple::pair(1, 2), Tuple::pair(1, 4), Tuple::pair(0, 2)];
        expect.sort_unstable();
        assert_eq!(folded.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn permute_reorders_columns() {
        let mut r = BitRel::new(3, 6);
        r.insert(Tuple::triple(1, 2, 3));
        r.insert(Tuple::triple(4, 4, 0));
        let p = r.permute(&[2, 0, 1]);
        assert!(p.contains(&Tuple::triple(3, 1, 2)));
        assert!(p.contains(&Tuple::triple(0, 4, 4)));
        assert_eq!(p.len(), 2);
        // Identity permutation is a no-op.
        assert_eq!(r.permute(&[0, 1, 2]), r);
        // Swapping twice round-trips.
        let swap = rel(9, &[(1, 7), (2, 2)]);
        assert_eq!(swap.permute(&[1, 0]).permute(&[1, 0]), swap);
    }

    #[test]
    fn span_helpers_bit_exact() {
        // Unaligned copy/or/and across word boundaries.
        let mut src = vec![0u64; 3];
        for b in [3usize, 64, 70, 127, 130] {
            src[b / 64] |= 1 << (b % 64);
        }
        let mut dst = vec![!0u64; 3];
        super::span_copy(&mut dst, 5, &src, 3, 128);
        // dst bit 5 ↔ src bit 3 (set), dst bit 4 untouched (still 1).
        assert_eq!(dst[0] & (1 << 5), 1 << 5);
        assert_eq!(dst[0] & (1 << 4), 1 << 4);
        // dst bit 6 ↔ src bit 4 (clear).
        assert_eq!(dst[0] & (1 << 6), 0);
        // dst bit 5+61=66 ↔ src bit 64 (set).
        assert_eq!(dst[1] & (1 << 2), 1 << 2);
        // Bits past the span (≥ 133) untouched.
        assert_eq!(dst[2] >> 5, !0u64 >> 5);
        // OR then AND against known spans.
        let mut acc = vec![0u64; 3];
        super::span_op(&mut acc, 5, &src, 3, 128, false);
        assert_eq!(acc[0] & (1 << 5), 1 << 5);
        let mut all = vec![!0u64; 3];
        super::span_op(&mut all, 5, &src, 3, 128, true);
        assert_eq!(all[0] & (1 << 5), 1 << 5);
        assert_eq!(all[0] & (1 << 6), 0);
        assert_eq!(all[0] & (1 << 4), 1 << 4); // outside span: kept
    }

    #[test]
    fn capacity_math() {
        assert_eq!(capacity_bits(10, 3), 1000);
        assert_eq!(capacity_bits(2, 0), 1);
        // Would overflow usize on 64-bit: still computable as u128.
        assert!(capacity_bits(u32::MAX, 3) > u64::MAX as u128);
    }
}
