//! Bit-parallel kernels for compiled relational-algebra plans.
//!
//! A plan slot stores the satisfying assignments of a subformula over its
//! `k` free variables (in sorted [`Sym`](crate::intern::Sym) order) as a
//! bitmap in a **padded power-of-two layout**: with `S = n.next_power_of_
//! two()` and `shift = log2 S`, tuple `(t₀,…,t_{k−1})` lives at bit
//! `Σ tᵢ << (shift·(k−1−i))`. Unlike [`BitRel`](crate::bitrel::BitRel)'s
//! base-`n` packing, every digit occupies its own bit-field, so
//!
//! * boolean connectives are single fused word passes (64 tuples per
//!   instruction, adjacent AND/OR/ANDNOT folded into one traversal that
//!   the compiler autovectorizes),
//! * quantification along *any* axis is an OR/AND block-fold whose block
//!   sizes are powers of two — word loops when blocks span words,
//!   in-word halving shifts when they don't — with no column permutes,
//! * inserting an axis (aligning a subformula to a wider variable set)
//!   is a broadcast: word copies for wide blocks, a single integer
//!   multiply by a precomputed replication constant for narrow ones.
//!
//! The price is padding: bit positions where any digit is ≥ `n` are
//! **garbage** and every kernel maintains the invariant that garbage bits
//! are zero. Negation therefore masks with a [`valid_mask`]; AND-folds
//! neutralize the folded axis's garbage with a precomputed
//! [`fold_gmasks`] so padded digits don't zero real results.
//!
//! Every kernel returns the number of words it touched; the plan executor
//! accumulates that into `EvalStats::kernel_words`.

use crate::bitrel::{read_bits, span_op};
use crate::tuple::{Elem, MAX_ARITY};

/// The padded power-of-two geometry shared by all slots of one plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Layout {
    /// Universe size; digits `n..S` are padding.
    pub n: Elem,
    /// `log2` of the padded stride `S = n.next_power_of_two()`.
    pub shift: u32,
}

impl Layout {
    pub fn new(n: Elem) -> Layout {
        assert!(n >= 1, "empty universe");
        Layout {
            n,
            shift: n.next_power_of_two().trailing_zeros(),
        }
    }

    /// Padded stride `S`.
    #[inline]
    pub fn stride(&self) -> usize {
        1usize << self.shift
    }

    /// Capacity of an arity-`k` slot in bits (`S^k`), overflow-safe.
    pub fn bits_u128(&self, k: usize) -> u128 {
        1u128 << (self.shift as usize * k)
    }

    /// Capacity in bits; callers gate on [`Layout::bits_u128`] first.
    #[inline]
    pub fn bits(&self, k: usize) -> usize {
        1usize << (self.shift as usize * k)
    }

    /// Buffer length in words for an arity-`k` slot.
    #[inline]
    pub fn words(&self, k: usize) -> usize {
        self.bits(k).div_ceil(64)
    }

    /// Bit index of a tuple given as a digit slice.
    #[inline]
    pub fn index(&self, digits: &[Elem]) -> usize {
        let mut idx = 0usize;
        for &d in digits {
            debug_assert!(d < self.n);
            idx = (idx << self.shift) | d as usize;
        }
        idx
    }
}

/// Fused n-ary boolean combine: `dst[w] = op(src₀', src₁', …)` where each
/// `srcᵢ'` is `bufs[srcs[i].0]` or (flag set) its complement, `op` is
/// AND or OR, and `valid` (when given) re-zeroes garbage bits that
/// complementing set. One traversal regardless of operand count. All
/// operands share `dst`'s arity; the plan compiler broadcasts narrower
/// ones first. Operands are named by index into `bufs` — the plan's own
/// slot table — so the executor builds no operand list per request.
pub(crate) fn combine<B: AsRef<[u64]>>(
    dst: &mut [u64],
    bufs: &[B],
    srcs: &[(usize, bool)],
    and: bool,
    valid: Option<&[u64]>,
) -> u64 {
    debug_assert!(!srcs.is_empty());
    debug_assert!(srcs.iter().all(|&(s, _)| bufs[s].as_ref().len() == dst.len()));
    let vmask = |w: usize| valid.map(|v| v[w]).unwrap_or(!0u64);
    let flip = |neg: bool| if neg { !0u64 } else { 0 };
    // The 1- and 2-source widths (the overwhelming majority after the
    // compiler's connective fusion) go through the runtime-dispatched
    // SIMD passes; wider combines keep the scalar loop, which the
    // compiler autovectorizes.
    match *srcs {
        [(a, na)] => crate::simd::combine1(dst, bufs[a].as_ref(), flip(na), valid),
        [(a, na), (b, nb)] => crate::simd::combine2(
            dst,
            bufs[a].as_ref(),
            bufs[b].as_ref(),
            and,
            flip(na),
            flip(nb),
            valid,
        ),
        _ => {
            for (w, d) in dst.iter_mut().enumerate() {
                let mut acc = if and { !0u64 } else { 0u64 };
                for &(s, neg) in srcs {
                    let x = bufs[s].as_ref()[w] ^ flip(neg);
                    acc = if and { acc & x } else { acc | x };
                }
                *d = acc & vmask(w);
            }
        }
    }
    (dst.len() * (srcs.len() + 1)) as u64
}

/// Masked complement: `dst = ¬src ∧ valid`. Unlike the interpreter's
/// row-materializing complement this needs no budget — it is one pass
/// over bits that already exist.
pub(crate) fn not(dst: &mut [u64], src: &[u64], valid: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    crate::simd::not_masked(dst, src, valid);
    (dst.len() * 2) as u64
}

/// Destination-tile size for the wide fold/broadcast regimes: 4096
/// words = 32 KiB, half a typical L1d, leaving room for the streaming
/// source lines.
const FOLD_TILE_WORDS: usize = 1 << 12;

/// Geometry of one fold/broadcast axis: position `axis` in a relation
/// whose *wider* side has arity `k` (fold input / broadcast output).
struct AxisGeom {
    /// Bits per value of the axis: `S^(k−1−axis)`.
    block: usize,
    /// Bits per full axis run: `block · S`.
    group: usize,
    /// Number of runs: `S^axis`.
    outer: usize,
}

impl AxisGeom {
    fn new(lay: &Layout, k: usize, axis: usize) -> AxisGeom {
        debug_assert!(axis < k);
        let s = lay.shift as usize;
        AxisGeom {
            block: 1usize << (s * (k - 1 - axis)),
            group: 1usize << (s * (k - axis)),
            outer: 1usize << (s * axis),
        }
    }
}

/// Quantify out one axis: `dst` (arity `k−1`) gets, per remaining tuple,
/// the OR (∃) or AND (∀) of `src` (arity `k`) over the axis's `n` values.
///
/// Three regimes by block size `B = S^(k−1−axis)`:
/// * `B ≥ 64` — blocks are word-aligned; straight word loops over the
///   `n` blocks of each run.
/// * `B < 64 ≤ G` (`G = B·S` the run size) — fold each run's words into
///   one accumulator, then halving shifts (`acc op= acc >> step`) fold
///   the in-word digit lanes down to `B` bits.
/// * `G < 64` — whole runs sit inside a word; halving shifts fold all
///   runs of a word simultaneously, then the `B`-bit results are
///   extracted and repacked.
///
/// For ∀ the padded digits `n..S` would AND real results to zero, so the
/// word-fold ORs in `gmask` (from [`fold_gmasks`]) to neutralize them;
/// ∃ passes an empty mask (garbage is zero, OR-neutral).
pub(crate) fn fold(
    dst: &mut [u64],
    src: &[u64],
    lay: &Layout,
    k: usize,
    axis: usize,
    and: bool,
    gmask: &[u64],
) -> u64 {
    let g = AxisGeom::new(lay, k, axis);
    let n = lay.n as usize;
    let mut touched = 0u64;
    if g.block >= 64 {
        let bw = g.block / 64;
        let gw = g.group / 64;
        // Cache-block the accumulate: fold all n source blocks through
        // one destination tile before moving on, so at large blocks
        // (arity-3 slots at n ≥ 1024, where bw alone overflows L2) the
        // destination words stay in L1 across the whole axis instead of
        // being evicted once per digit.
        for hi in 0..g.outer {
            let d0 = hi * bw;
            let s0 = hi * gw;
            if bw <= FOLD_TILE_WORDS {
                // Small blocks sit contiguously in the run: one blocked
                // fold streams all n of them through register-resident
                // accumulators (per-block dispatch would cost more than
                // the block's own words).
                let tile = &mut dst[d0..d0 + bw];
                tile.copy_from_slice(&src[s0..s0 + bw]);
                crate::simd::fold_blocks(tile, &src[s0 + bw..s0 + n * bw], and);
                continue;
            }
            let mut t0 = 0;
            while t0 < bw {
                let tw = FOLD_TILE_WORDS.min(bw - t0);
                let tile = &mut dst[d0 + t0..d0 + t0 + tw];
                tile.copy_from_slice(&src[s0 + t0..s0 + t0 + tw]);
                for d in 1..n {
                    let off = s0 + d * bw + t0;
                    crate::simd::fold_assign(tile, &src[off..off + tw], and);
                }
                t0 += tw;
            }
        }
        touched += (g.outer * gw) as u64;
    } else if g.group >= 64 {
        let b = g.block;
        let gw = g.group / 64;
        // Words past the last real digit are all-garbage: zero for ∃
        // (OR-neutral), all-ones after gmask for ∀ (AND-neutral) — skip.
        let jmax = (n * b).div_ceil(64).min(gw);
        dst[..(g.outer * b).div_ceil(64)].fill(0);
        let bmask = (1u64 << b) - 1;
        for hi in 0..g.outer {
            let s0 = hi * gw;
            let mut acc = if and { !0u64 } else { 0u64 };
            for j in 0..jmax {
                if and {
                    acc &= src[s0 + j] | gmask[j];
                } else {
                    acc |= src[s0 + j];
                }
            }
            let mut step = 32;
            while step >= b {
                acc = if and { acc & (acc >> step) } else { acc | (acc >> step) };
                step >>= 1;
            }
            let pos = hi * b;
            dst[pos / 64] |= (acc & bmask) << (pos % 64);
        }
        touched += (g.outer * (jmax + 1)) as u64;
    } else {
        // group < 64: `64 / group` runs per source word.
        let (b, gr) = (g.block, g.group);
        let per = 64 / gr;
        let total_groups = g.outer;
        let src_words = (total_groups * gr).div_ceil(64);
        let bmask = (1u64 << b) - 1;
        dst[..(total_groups * b).div_ceil(64)].fill(0);
        let g0 = gmask.first().copied().unwrap_or(0);
        for (w, &sw) in src.iter().enumerate().take(src_words) {
            let mut acc = if and { sw | g0 } else { sw };
            let mut step = gr / 2;
            while step >= b {
                acc = if and { acc & (acc >> step) } else { acc | (acc >> step) };
                step >>= 1;
            }
            let gcount = per.min(total_groups - w * per);
            let mut chunk = 0u64;
            for gi in 0..gcount {
                chunk |= ((acc >> (gi * gr)) & bmask) << (gi * b);
            }
            let pos = w * per * b;
            dst[pos / 64] |= chunk << (pos % 64);
        }
        touched += 2 * src_words as u64;
    }
    touched
}

/// The ∀-fold garbage masks for [`fold`]: ones exactly where the folded
/// axis's digit is ≥ `n`. One word per run word in the middle regime, a
/// single periodic word in the in-word regime, empty otherwise.
pub(crate) fn fold_gmasks(lay: &Layout, k: usize, axis: usize) -> Vec<u64> {
    let g = AxisGeom::new(lay, k, axis);
    let n = lay.n as usize;
    let s = lay.stride();
    if g.block >= 64 {
        Vec::new()
    } else if g.group >= 64 {
        let lanes = 64 / g.block;
        let jmax = (n * g.block).div_ceil(64).min(g.group / 64);
        (0..jmax)
            .map(|j| {
                let mut m = 0u64;
                for e in 0..lanes {
                    if j * lanes + e >= n {
                        m |= ((1u64 << g.block) - 1) << (e * g.block);
                    }
                }
                m
            })
            .collect()
    } else {
        let mut m = 0u64;
        for run in 0..(64 / g.group) {
            for d in n..s {
                m |= ((1u64 << g.block) - 1) << (run * g.group + d * g.block);
            }
        }
        vec![m]
    }
}

/// Insert an axis at position `axis`: `dst` (arity `k+1`) gets
/// `dst(t with axis=d) = src(t)` for every `d < n` (and zero for padded
/// digits). The alignment step before [`combine`].
///
/// Wide blocks (`B ≥ 64`) are word copies; narrow blocks replicate each
/// `B`-bit chunk across the axis's digit lanes with one integer multiply
/// by a replication constant from [`broadcast_rep`] (one constant when
/// the run fits a word, one per run word otherwise).
pub(crate) fn broadcast(
    dst: &mut [u64],
    src: &[u64],
    lay: &Layout,
    k_src: usize,
    axis: usize,
    rep: &[u64],
) -> u64 {
    let g = AxisGeom::new(lay, k_src + 1, axis);
    let n = lay.n as usize;
    dst.fill(0);
    let mut touched = dst.len() as u64;
    if g.block >= 64 {
        let bw = g.block / 64;
        let gw = g.group / 64;
        // Tile so one source chunk stays hot in L1 across all n
        // destination stamps, rather than re-reading a larger-than-L2
        // source block once per digit.
        for hi in 0..g.outer {
            let s0 = hi * bw;
            let mut t0 = 0;
            while t0 < bw {
                let tw = FOLD_TILE_WORDS.min(bw - t0);
                for d in 0..n {
                    let doff = hi * gw + d * bw + t0;
                    dst[doff..doff + tw].copy_from_slice(&src[s0 + t0..s0 + t0 + tw]);
                }
                t0 += tw;
            }
        }
        touched += (g.outer * n * bw) as u64;
    } else if g.group <= 64 {
        let bmask = (1u64 << g.block) - 1;
        for hi in 0..g.outer {
            let chunk = read_bits(src, hi * g.block) & bmask;
            if chunk != 0 {
                let pos = hi * g.group;
                dst[pos / 64] |= chunk.wrapping_mul(rep[0]) << (pos % 64);
            }
        }
        touched += g.outer as u64;
    } else {
        let gw = g.group / 64;
        let bmask = (1u64 << g.block) - 1;
        for hi in 0..g.outer {
            let chunk = read_bits(src, hi * g.block) & bmask;
            if chunk != 0 {
                for (j, &r) in rep.iter().enumerate() {
                    if r != 0 {
                        dst[hi * gw + j] = chunk.wrapping_mul(r);
                    }
                }
            }
        }
        touched += (g.outer * gw) as u64;
    }
    touched
}

/// Replication constants for [`broadcast`]: bit `d·B` set for each real
/// digit `d < n` the corresponding word covers. `chunk · rep` then
/// stamps a `B`-bit chunk into every real digit lane at once (chunk
/// occupies `B` bits, lane offsets are multiples of `B`, so the partial
/// products cannot carry into each other).
pub(crate) fn broadcast_rep(lay: &Layout, k_src: usize, axis: usize) -> Vec<u64> {
    let g = AxisGeom::new(lay, k_src + 1, axis);
    let n = lay.n as usize;
    if g.block >= 64 {
        Vec::new()
    } else if g.group <= 64 {
        let mut r = 0u64;
        for d in 0..n {
            r |= 1u64 << (d * g.block);
        }
        vec![r]
    } else {
        let lanes = 64 / g.block;
        (0..g.group / 64)
            .map(|j| {
                let mut r = 0u64;
                for e in 0..lanes {
                    if j * lanes + e < n {
                        r |= 1u64 << (e * g.block);
                    }
                }
                r
            })
            .collect()
    }
}

/// `∃z (α ∧ β)` for operands that split at `z`: `a` (α, arity `ka`)
/// holds `z` at axis `za` and the result's leading axes X at the rest;
/// `b` (β) holds `z` as its leading axis and the result's `ky` trailing
/// axes Y after it. For every set bit `(x, z)` of `a`, row `z` of `b` —
/// its `S^ky` bits of Y — is ORed into row `x` of `dst`. Zero words of
/// `a` cost one read each, so the work is one scan of `a` plus
/// `popcount(a)` row ORs of `⌈S^ky/64⌉` words: what the sparse operand
/// holds, where broadcasting both operands to X∪{z}∪Y, ANDing and
/// folding walks `S^{|X|+1+|Y|}` bits whatever they hold.
pub(crate) fn compose(
    dst: &mut [u64],
    a: &[u64],
    b: &[u64],
    lay: &Layout,
    ka: usize,
    za: usize,
    ky: usize,
) -> u64 {
    dst.fill(0);
    let shift = lay.shift as usize;
    // Bits of `a`'s index below z's digit, and z's digit mask.
    let low = shift * (ka - 1 - za);
    let (low_mask, zmask) = ((1usize << low) - 1, lay.stride() - 1);
    let row = 1usize << (shift * ky);
    let mut touched = (dst.len() + a.len()) as u64;
    for (w, &word) in a.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let z = (i >> low) & zmask;
            let x = (i >> (low + shift) << low) | (i & low_mask);
            if row >= 64 {
                let rw = row / 64;
                let src = &b[z * rw..(z + 1) * rw];
                for (d, s) in dst[x * rw..(x + 1) * rw].iter_mut().zip(src) {
                    *d |= s;
                }
                touched += rw as u64;
            } else {
                let (zb, xb) = (z * row, x * row);
                let chunk = (b[zb / 64] >> (zb % 64)) & ((1u64 << row) - 1);
                dst[xb / 64] |= chunk << (xb % 64);
                touched += 1;
            }
        }
    }
    touched
}

/// One side of a [`gather`]: where the all-zero digit assignment lives
/// and how far each axis's digit moves the bit index. A step of 0 makes
/// the axis a broadcast on that side; a step that sums several column
/// strides reads a repeated variable's diagonal.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Strides {
    pub base: usize,
    pub step: [usize; MAX_ARITY],
}

/// Strided bit move between two layouts of the same digit space: for
/// every assignment of the `k` axes (each `0..n`, axis 0 outermost),
/// `dst[d.base + Σ digit·d.step] |= src[s.base + Σ digit·s.step]`.
///
/// This is both directions of the padded ↔ base-`n` conversion: an atom
/// load whose columns are ground terms, repeats or a permutation (source
/// = the relation's bitmap, ground columns folded into `s.base`), and
/// the restride of a plan's root slot back to its target relation's
/// layout. Work is O(n^k) bit probes — or O(n^{k−1}) word-parallel
/// `n`-bit runs when the innermost axis is contiguous on both sides —
/// independent of how many tuples the source holds.
///
/// ORs into `dst`; callers wanting a copy zero it first. Returns the
/// words touched.
pub(crate) fn gather(
    dst: &mut [u64],
    d: &Strides,
    src: &[u64],
    s: &Strides,
    n: usize,
    k: usize,
) -> u64 {
    let runs = moves_runs(d, s, k);
    let outer = if runs { k - 1 } else { k };
    let mut digits = [0usize; MAX_ARITY];
    let (mut dpos, mut spos) = (d.base, s.base);
    let mut touched = 0u64;
    loop {
        if runs {
            span_op(dst, dpos, src, spos, n, false);
            touched += 2 * n.div_ceil(64) as u64;
        } else {
            let bit = src[spos / 64] >> (spos % 64) & 1;
            dst[dpos / 64] |= bit << (dpos % 64);
            touched += 1;
        }
        let mut a = outer;
        loop {
            if a == 0 {
                return touched;
            }
            a -= 1;
            digits[a] += 1;
            dpos += d.step[a];
            spos += s.step[a];
            if digits[a] < n {
                break;
            }
            digits[a] = 0;
            dpos -= n * d.step[a];
            spos -= n * s.step[a];
        }
    }
}

/// The innermost axis is contiguous on both sides: [`gather`] moves
/// whole `n`-bit runs instead of probing bit by bit.
fn moves_runs(d: &Strides, s: &Strides, k: usize) -> bool {
    k > 0 && d.step[k - 1] == 1 && s.step[k - 1] == 1
}

/// Work [`gather`] will report for this geometry, known before running
/// it — what the load path weighs against a relation's popcount.
pub(crate) fn gather_cost(d: &Strides, s: &Strides, n: usize, k: usize) -> u64 {
    if moves_runs(d, s, k) {
        (n as u64).pow(k as u32 - 1) * 2 * n.div_ceil(64) as u64
    } else {
        (n as u64).pow(k as u32)
    }
}

/// The arity-`k` valid mask: ones exactly where every digit is `< n`.
/// Built by repeatedly broadcasting the unit slot through its own last
/// axis — each step stamps the previous mask across one more digit.
pub(crate) fn valid_mask(lay: &Layout, k: usize) -> Vec<u64> {
    let mut cur = vec![1u64];
    for j in 0..k {
        let mut next = vec![0u64; lay.words(j + 1)];
        let rep = broadcast_rep(lay, j, j);
        broadcast(&mut next, &cur, lay, j, j, &rep);
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a slot as a set of digit vectors.
    fn bits_of(lay: &Layout, k: usize, tuples: &[&[Elem]]) -> Vec<u64> {
        let mut v = vec![0u64; lay.words(k)];
        for t in tuples {
            let i = lay.index(t);
            v[i / 64] |= 1 << (i % 64);
        }
        v
    }

    fn tuples_of(lay: &Layout, k: usize, words: &[u64]) -> Vec<Vec<Elem>> {
        let mut out = Vec::new();
        for i in 0..lay.bits(k) {
            if words[i / 64] >> (i % 64) & 1 == 1 {
                let mut t = vec![0; k];
                for j in (0..k).rev() {
                    t[j] = ((i >> (lay.shift as usize * (k - 1 - j)))
                        & (lay.stride() - 1)) as Elem;
                }
                out.push(t);
            }
        }
        out
    }

    /// All real tuples of arity k over {0..n}.
    fn all(lay: &Layout, k: usize) -> Vec<Vec<Elem>> {
        let mut out = vec![vec![]];
        for _ in 0..k {
            out = out
                .into_iter()
                .flat_map(|t| {
                    (0..lay.n).map(move |d| {
                        let mut u = t.clone();
                        u.push(d);
                        u
                    })
                })
                .collect();
        }
        out
    }

    /// Deterministic pseudo-random slot contents.
    fn scatter(lay: &Layout, k: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        let picked: Vec<Vec<Elem>> = all(lay, k)
            .into_iter()
            .filter(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 62 != 0
            })
            .collect();
        let refs: Vec<&[Elem]> = picked.iter().map(|t| t.as_slice()).collect();
        bits_of(lay, k, &refs)
    }

    #[test]
    fn valid_mask_marks_exactly_real_tuples() {
        for n in [1u32, 2, 3, 5, 8, 13] {
            let lay = Layout::new(n);
            for k in 0..=3usize {
                if lay.bits_u128(k) > 1 << 20 {
                    continue;
                }
                let v = valid_mask(&lay, k);
                assert_eq!(
                    tuples_of(&lay, k, &v).len(),
                    (n as usize).pow(k as u32),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn combine_is_pointwise_boolean_algebra() {
        for n in [3u32, 5, 64, 70] {
            let lay = Layout::new(n);
            let k = if n > 8 { 2 } else { 3 };
            let a = scatter(&lay, k, 7);
            let b = scatter(&lay, k, 99);
            let c = scatter(&lay, k, 1234);
            let valid = valid_mask(&lay, k);
            let mut dst = vec![0u64; lay.words(k)];
            // a ∧ ¬b ∧ c
            combine(&mut dst, &[&a, &b, &c], &[(0, false), (1, true), (2, false)], true, Some(&valid));
            for w in 0..dst.len() {
                assert_eq!(dst[w], a[w] & !b[w] & c[w] & valid[w]);
            }
            // ¬a ∨ b (garbage must stay zero)
            combine(&mut dst, &[&a, &b], &[(0, true), (1, false)], false, Some(&valid));
            for w in 0..dst.len() {
                assert_eq!(dst[w], (!a[w] | b[w]) & valid[w]);
            }
            // NOT kernel agrees with single-source negated combine.
            let mut nd = vec![0u64; lay.words(k)];
            not(&mut nd, &a, &valid);
            combine(&mut dst, &[&a], &[(0, true)], true, Some(&valid));
            assert_eq!(nd, dst);
        }
    }

    #[test]
    fn fold_matches_reference_on_all_regimes() {
        // n spanning: in-word runs (n≤5), word-straddling runs, and
        // word-aligned blocks (n=64 ⇒ B=64 at axis k−2).
        for n in [1u32, 2, 3, 5, 7, 9, 33, 64, 100] {
            let lay = Layout::new(n);
            for k in 1..=3usize {
                if lay.bits_u128(k) > 1 << 22 {
                    continue;
                }
                let src = scatter(&lay, k, 42 + n as u64 + k as u64);
                let model: std::collections::HashSet<Vec<Elem>> =
                    tuples_of(&lay, k, &src).into_iter().collect();
                for axis in 0..k {
                    for &and in &[false, true] {
                        let gm = if and { fold_gmasks(&lay, k, axis) } else { Vec::new() };
                        let mut dst = vec![!0u64; lay.words(k - 1)];
                        fold(&mut dst, &src, &lay, k, axis, and, &gm);
                        let got = tuples_of(&lay, k - 1, &dst);
                        let mut expect: Vec<Vec<Elem>> = all(&lay, k - 1)
                            .into_iter()
                            .filter(|t| {
                                let check = |d: Elem| {
                                    let mut full = t.clone();
                                    full.insert(axis, d);
                                    model.contains(&full)
                                };
                                if and {
                                    (0..lay.n).all(check)
                                } else {
                                    (0..lay.n).any(check)
                                }
                            })
                            .collect();
                        expect.sort();
                        assert_eq!(got, expect, "n={n} k={k} axis={axis} and={and}");
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_matches_reference_on_all_regimes() {
        for n in [1u32, 2, 3, 5, 7, 9, 33, 64, 100] {
            let lay = Layout::new(n);
            for k in 0..=2usize {
                if lay.bits_u128(k + 1) > 1 << 22 {
                    continue;
                }
                let src = scatter(&lay, k, 5 + n as u64 * 3 + k as u64);
                let model = tuples_of(&lay, k, &src);
                for axis in 0..=k {
                    let rep = broadcast_rep(&lay, k, axis);
                    let mut dst = vec![!0u64; lay.words(k + 1)];
                    let before = dst.clone();
                    broadcast(&mut dst, &src, &lay, k, axis, &rep);
                    assert_ne!(dst, before, "broadcast must clear stale contents");
                    let got = tuples_of(&lay, k + 1, &dst);
                    let mut expect: Vec<Vec<Elem>> = Vec::new();
                    for t in &model {
                        for d in 0..lay.n {
                            let mut full = t.clone();
                            full.insert(axis, d);
                            expect.push(full);
                        }
                    }
                    expect.sort();
                    assert_eq!(got, expect, "n={n} k={k} axis={axis}");
                }
            }
        }
    }

    #[test]
    fn fold_then_broadcast_roundtrip_is_saturation() {
        // broadcast(∃-fold) computes "some digit on this run is set" —
        // a saturation: every originally-set bit stays set.
        let lay = Layout::new(6);
        let k = 3;
        let src = scatter(&lay, k, 77);
        for axis in 0..k {
            let mut folded = vec![0u64; lay.words(k - 1)];
            fold(&mut folded, &src, &lay, k, axis, false, &[]);
            let rep = broadcast_rep(&lay, k - 1, axis);
            let mut back = vec![0u64; lay.words(k)];
            broadcast(&mut back, &folded, &lay, k - 1, axis, &rep);
            for w in 0..src.len() {
                assert_eq!(back[w] & src[w], src[w], "axis={axis} word={w}");
            }
        }
    }

    #[test]
    fn compose_matches_reference_on_every_split() {
        // X ∪ {z} ∪ Y over at most four axes, z anywhere in `a`, rows
        // narrower and wider than a word.
        for n in [1u32, 3, 5, 8, 9, 33, 64, 70] {
            let lay = Layout::new(n);
            for kx in 0..=2usize {
                for ky in 0..=2usize {
                    if lay.bits_u128(kx + 1 + ky) > 1 << 20 {
                        continue;
                    }
                    for za in 0..=kx {
                        let a = scatter(&lay, kx + 1, 11 + (n as u64) * 7 + (kx * 3 + za) as u64);
                        let b = scatter(&lay, ky + 1, 29 + (n as u64) * 5 + ky as u64);
                        let bset: std::collections::HashSet<Vec<Elem>> =
                            tuples_of(&lay, ky + 1, &b).into_iter().collect();
                        let mut expect: Vec<Vec<Elem>> = Vec::new();
                        for t in tuples_of(&lay, kx + 1, &a) {
                            let z = t[za];
                            let mut x = t.clone();
                            x.remove(za);
                            for u in &bset {
                                if u[0] == z {
                                    let mut r = x.clone();
                                    r.extend_from_slice(&u[1..]);
                                    expect.push(r);
                                }
                            }
                        }
                        expect.sort();
                        expect.dedup();
                        let mut dst = vec![!0u64; lay.words(kx + ky)];
                        compose(&mut dst, &a, &b, &lay, kx + 1, za, ky);
                        let got = tuples_of(&lay, kx + ky, &dst);
                        assert_eq!(got, expect, "n={n} kx={kx} ky={ky} za={za}");
                    }
                }
            }
        }
    }

    #[test]
    fn layout_index_respects_max_arity() {
        let lay = Layout::new(4);
        let t = [3 as Elem; MAX_ARITY];
        // shift=2, MAX_ARITY=8 → 16 bits: fits comfortably.
        assert_eq!(lay.index(&t[..2]), 0b1111);
    }
}
