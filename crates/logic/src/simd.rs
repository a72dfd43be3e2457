//! Runtime-dispatched SIMD word passes for the bit-parallel kernels.
//!
//! Every hot loop in [`eval::kernels`](crate::eval::kernels) and
//! [`bitrel`](crate::bitrel) reduces to one of a handful of word-pass
//! shapes: a fused binary combine
//! (`dst = (a ^ fa) op (b ^ fb) [& valid]`), an accumulating fold
//! (`dst op= src`), or a masked complement. This module provides those
//! shapes once, behind a **runtime-selected tier**:
//!
//! * `Avx2` — 256-bit passes, picked on x86_64 when
//!   `is_x86_feature_detected!("avx2")`. The elementwise passes are the
//!   scalar loops recompiled under `#[target_feature(enable = "avx2")]`
//!   (LLVM re-vectorizes them at 256 bits with its own unrolling); the
//!   blocked fold is hand-written intrinsics.
//! * `Neon` — the aarch64 baseline.
//! * `Scalar` — unrolled u64 loops with no `target_feature` attributes
//!   at all — the tier that must (and does) compile on stable with
//!   `--no-default-features`. On x86_64 the compiler auto-vectorizes
//!   these loops with SSE2, so it is also what x86_64 hosts without
//!   AVX2 detect.
//!
//! The tier is resolved by hardware detection once (first use) and
//! cached. [`force_tier`] pins another one in-process, so the tier
//! test and E22 can hold every tier the host runs against the scalar
//! baseline in one binary.
//!
//! Safety note: the `unsafe` in this module is confined to the
//! `target_feature` functions; each is only reachable after the matching
//! CPU feature was detected at runtime, and every intrinsic touches
//! slices through unaligned load/store intrinsics, so no alignment
//! precondition exists. All tiers are bit-exact with the scalar loops
//! (property-tested below).
//!
//! When the `obs` feature is on, every pass also bumps the global
//! `eval.simd_lanes` counter by the number of *vector lanes* processed
//! (u64 words that went through a ≥128-bit path), making the SIMD
//! dispatch observable in exported metrics.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which word-pass implementation runs. Ordered by preference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// 4×-unrolled u64 loops; every architecture, no features.
    Scalar,
    /// 256-bit AVX2 passes (runtime-detected).
    Avx2,
    /// 128-bit NEON passes (aarch64 baseline).
    Neon,
}

impl Tier {
    /// Short name, as printed by benches.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }

    /// u64 lanes per vector op (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            Tier::Scalar => 1,
            Tier::Neon => 2,
            Tier::Avx2 => 4,
        }
    }
}

/// Encoded tier states for the cached atomic: 0 = unresolved.
const T_UNSET: u8 = 0;
const T_SCALAR: u8 = 1;
const T_AVX2: u8 = 2;
const T_NEON: u8 = 3;

static TIER: AtomicU8 = AtomicU8::new(T_UNSET);

fn decode(v: u8) -> Tier {
    match v {
        T_AVX2 => Tier::Avx2,
        T_NEON => Tier::Neon,
        _ => Tier::Scalar,
    }
}

fn encode(t: Tier) -> u8 {
    match t {
        Tier::Scalar => T_SCALAR,
        Tier::Avx2 => T_AVX2,
        Tier::Neon => T_NEON,
    }
}

/// What the hardware supports.
fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Tier::Neon;
    }
    #[allow(unreachable_code)]
    Tier::Scalar
}

/// Clamp a requested tier to what this machine can actually run.
fn clamp(requested: Tier) -> Tier {
    let hw = detect();
    match requested {
        Tier::Scalar => Tier::Scalar,
        Tier::Avx2 if hw == Tier::Avx2 => Tier::Avx2,
        // Neon is baseline on aarch64; anything the host cannot run
        // degrades to scalar.
        Tier::Neon if cfg!(target_arch = "aarch64") => Tier::Neon,
        _ => Tier::Scalar,
    }
}

/// The active tier, resolved once by detection and cached for the life
/// of the process (unless [`force_tier`] overrides).
pub fn tier() -> Tier {
    let cur = TIER.load(Ordering::Relaxed);
    if cur != T_UNSET {
        return decode(cur);
    }
    let chosen = detect();
    TIER.store(encode(chosen), Ordering::Relaxed);
    chosen
}

/// Pin the dispatch tier (clamped to hardware support); the tier test
/// and E22 use this to compare scalar vs SIMD passes within one
/// process. Returns the tier actually installed.
#[doc(hidden)]
pub fn force_tier(t: Tier) -> Tier {
    let eff = clamp(t);
    TIER.store(encode(eff), Ordering::Relaxed);
    eff
}

/// Record `words` u64 lanes as having gone through a vector path.
#[inline]
fn note_lanes(words: usize) {
    if dynfo_obs::ENABLED && words > 0 {
        crate::obs::eval_obs().simd_lanes.add(words as u64);
    }
}

// ---------------------------------------------------------------------------
// Public passes
// ---------------------------------------------------------------------------

/// `dst[i] op= src[i]` where `op` is OR (`and = false`) or AND (`true`).
/// The accumulate step of the ∃/∀ axis folds.
#[inline]
pub fn fold_assign(dst: &mut [u64], src: &[u64], and: bool) {
    debug_assert_eq!(dst.len(), src.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(dst.len());
            if and {
                x86::and_assign_avx2(dst, src)
            } else {
                x86::or_assign_avx2(dst, src)
            }
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(dst.len());
            if and {
                arm::and_assign_neon(dst, src)
            } else {
                arm::or_assign_neon(dst, src)
            }
        }
        _ => {
            if and {
                scalar::and_assign(dst, src)
            } else {
                scalar::or_assign(dst, src)
            }
        }
    }
}

/// `dst[i] = (a[i] ^ fa) [& valid[i]]` — the unary fused combine
/// (`fa ∈ {0, !0}` selects identity or complement).
#[inline]
pub fn combine1(dst: &mut [u64], a: &[u64], fa: u64, valid: Option<&[u64]>) {
    debug_assert_eq!(dst.len(), a.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(dst.len());
            x86::combine1_avx2(dst, a, fa, valid)
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(dst.len());
            arm::combine1_neon(dst, a, fa, valid)
        }
        _ => scalar::combine1(dst, a, fa, valid),
    }
}

/// `dst[i] = (a[i] ^ fa) op (b[i] ^ fb) [& valid[i]]` — the binary fused
/// combine behind AND/OR/ANDNOT/ORNOT connectives.
#[inline]
pub fn combine2(
    dst: &mut [u64],
    a: &[u64],
    b: &[u64],
    and: bool,
    fa: u64,
    fb: u64,
    valid: Option<&[u64]>,
) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(dst.len());
            x86::combine2_avx2(dst, a, b, and, fa, fb, valid)
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(dst.len());
            arm::combine2_neon(dst, a, b, and, fa, fb, valid)
        }
        _ => scalar::combine2(dst, a, b, and, fa, fb, valid),
    }
}

/// `dst[i] = !src[i] & valid[i]` — the masked complement.
#[inline]
pub fn not_masked(dst: &mut [u64], src: &[u64], valid: &[u64]) {
    combine2(dst, src, valid, true, !0u64, 0, None)
}

/// `dst[i] = a[i] op (b[i] ^ fb)`, returning the popcount of the result.
/// The dense relation backend's set algebra: every [`BitRel`] op
/// maintains its cardinality by counting result words while they are
/// still in registers. The scalar fused count serializes on the 1/cycle
/// `popcnt` port; the AVX2 pass counts with an in-register nibble
/// lookup instead, so the combine and the count pipeline together.
///
/// [`BitRel`]: crate::bitrel::BitRel
#[inline]
pub fn combine2_count(dst: &mut [u64], a: &[u64], b: &[u64], and: bool, fb: u64) -> u64 {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(dst.len());
            x86::combine2_count_avx2(dst, a, b, and, fb)
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(dst.len());
            arm::combine2_count_neon(dst, a, b, and, fb)
        }
        _ => scalar::combine2_count(dst, a, b, and, fb),
    }
}

/// `dst[i] = dst[i] op (src[i] ^ fb)`, returning the popcount of the
/// result — the in-place form of [`combine2_count`], behind the
/// `*_assign` relation ops.
#[inline]
pub fn fold_count(dst: &mut [u64], src: &[u64], and: bool, fb: u64) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(dst.len());
            x86::fold_count_avx2(dst, src, and, fb)
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(dst.len());
            arm::fold_count_neon(dst, src, and, fb)
        }
        _ => scalar::fold_count(dst, src, and, fb),
    }
}

/// Fold every `dst.len()`-word block of `src` into `dst`:
/// `dst[i] op= src[k·bw + i]` for each of `src.len() / bw` blocks
/// (`bw = dst.len()`, `src.len()` must be a multiple of it).
///
/// This is the ∃/∀ axis fold at small block widths (an arity-2 fold at
/// n = 1024 is 1024 blocks of 16 words each). Folding block-by-block
/// through [`fold_assign`] pays the tier dispatch, the observability
/// bump, and an un-inlinable `target_feature` call per block — more
/// than the 16 words of work. This pass hoists all of that out and
/// keeps the destination strip in registers across all blocks, so the
/// source is streamed exactly once with no intermediate stores.
#[inline]
pub fn fold_blocks(dst: &mut [u64], src: &[u64], and: bool) {
    if dst.is_empty() {
        return;
    }
    debug_assert_eq!(src.len() % dst.len(), 0);
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            note_lanes(src.len());
            x86::fold_blocks_avx2(dst, src, and)
        },
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            note_lanes(src.len());
            arm::fold_blocks_neon(dst, src, and)
        }
        _ => scalar::fold_blocks(dst, src, and),
    }
}

// ---------------------------------------------------------------------------
// Scalar tier: 4×-unrolled u64 loops (also the reference implementation)
// ---------------------------------------------------------------------------

mod scalar {
    #[inline(always)]
    pub fn or_assign(dst: &mut [u64], src: &[u64]) {
        let (dc, dr) = dst.split_at_mut(dst.len() & !3);
        let (sc, sr) = src.split_at(dc.len());
        for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
            d[0] |= s[0];
            d[1] |= s[1];
            d[2] |= s[2];
            d[3] |= s[3];
        }
        for (d, s) in dr.iter_mut().zip(sr) {
            *d |= s;
        }
    }

    #[inline(always)]
    pub fn and_assign(dst: &mut [u64], src: &[u64]) {
        let (dc, dr) = dst.split_at_mut(dst.len() & !3);
        let (sc, sr) = src.split_at(dc.len());
        for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
            d[0] &= s[0];
            d[1] &= s[1];
            d[2] &= s[2];
            d[3] &= s[3];
        }
        for (d, s) in dr.iter_mut().zip(sr) {
            *d &= s;
        }
    }

    #[inline(always)]
    pub fn combine1(dst: &mut [u64], a: &[u64], fa: u64, valid: Option<&[u64]>) {
        match valid {
            Some(v) => {
                for i in 0..dst.len() {
                    dst[i] = (a[i] ^ fa) & v[i];
                }
            }
            None => {
                for i in 0..dst.len() {
                    dst[i] = a[i] ^ fa;
                }
            }
        }
    }

    #[inline(always)]
    pub fn combine2(
        dst: &mut [u64],
        a: &[u64],
        b: &[u64],
        and: bool,
        fa: u64,
        fb: u64,
        valid: Option<&[u64]>,
    ) {
        // Eight specializations keep each loop body branch-free; the
        // compiler unrolls and (on its own) vectorizes them.
        macro_rules! pass {
            ($op:tt) => {
                match valid {
                    Some(v) => {
                        for i in 0..dst.len() {
                            dst[i] = ((a[i] ^ fa) $op (b[i] ^ fb)) & v[i];
                        }
                    }
                    None => {
                        for i in 0..dst.len() {
                            dst[i] = (a[i] ^ fa) $op (b[i] ^ fb);
                        }
                    }
                }
            };
        }
        if and {
            pass!(&)
        } else {
            pass!(|)
        }
    }

    /// Fused combine-and-popcount, the reference for [`combine2_count`]
    /// (`super::combine2_count`). Specialized per `(and, fb)` shape so
    /// each loop body is branch-free.
    #[inline(always)]
    pub fn combine2_count(dst: &mut [u64], a: &[u64], b: &[u64], and: bool, fb: u64) -> u64 {
        let mut cnt = 0u64;
        macro_rules! pass {
            ($op:tt) => {
                for i in 0..dst.len() {
                    let w = a[i] $op (b[i] ^ fb);
                    dst[i] = w;
                    cnt += w.count_ones() as u64;
                }
            };
        }
        if and {
            pass!(&)
        } else {
            pass!(|)
        }
        cnt
    }

    /// In-place fused combine-and-popcount (reference for
    /// `super::fold_count`).
    #[inline(always)]
    pub fn fold_count(dst: &mut [u64], src: &[u64], and: bool, fb: u64) -> u64 {
        let mut cnt = 0u64;
        macro_rules! pass {
            ($op:tt) => {
                for i in 0..dst.len() {
                    let w = dst[i] $op (src[i] ^ fb);
                    dst[i] = w;
                    cnt += w.count_ones() as u64;
                }
            };
        }
        if and {
            pass!(&)
        } else {
            pass!(|)
        }
        cnt
    }

    /// Blocked fold with strip-mined accumulators: each 4-word strip of
    /// `dst` is held in locals while every block streams past, so the
    /// destination is loaded and stored once per strip instead of once
    /// per block.
    #[inline(always)]
    #[allow(clippy::assign_op_pattern)] // `$op:tt` macro can't splice `$op=`
    pub fn fold_blocks(dst: &mut [u64], src: &[u64], and: bool) {
        let bw = dst.len();
        let nblk = src.len() / bw;
        macro_rules! pass {
            ($op:tt) => {{
                let mut g = 0usize;
                while g + 4 <= bw {
                    let (mut a0, mut a1, mut a2, mut a3) =
                        (dst[g], dst[g + 1], dst[g + 2], dst[g + 3]);
                    for k in 0..nblk {
                        let p = k * bw + g;
                        a0 = a0 $op src[p];
                        a1 = a1 $op src[p + 1];
                        a2 = a2 $op src[p + 2];
                        a3 = a3 $op src[p + 3];
                    }
                    dst[g] = a0;
                    dst[g + 1] = a1;
                    dst[g + 2] = a2;
                    dst[g + 3] = a3;
                    g += 4;
                }
                while g < bw {
                    let mut acc = dst[g];
                    for k in 0..nblk {
                        acc = acc $op src[k * bw + g];
                    }
                    dst[g] = acc;
                    g += 1;
                }
            }};
        }
        if and {
            pass!(&)
        } else {
            pass!(|)
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 tiers
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // --- AVX2 elementwise passes. ---
    //
    // These wrap the scalar reference loops in an
    // `#[target_feature(enable = "avx2")]` context: the `#[inline]`
    // loops inline into the feature context and LLVM re-vectorizes them
    // with 256-bit registers, its own unroll factor, and `noalias`-
    // driven scheduling. Measured on the streaming shapes these kernels
    // run (16K-word combines), that codegen beats hand-scheduled
    // one-vector-per-iteration intrinsic loops by ~10-25%. Only the
    // blocked fold below is hand-written — its dst-in-registers
    // accumulation across strided blocks is not a transformation the
    // auto-vectorizer can derive from the per-block loop.

    #[target_feature(enable = "avx2")]
    pub unsafe fn or_assign_avx2(dst: &mut [u64], src: &[u64]) {
        super::scalar::or_assign(dst, src)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn and_assign_avx2(dst: &mut [u64], src: &[u64]) {
        super::scalar::and_assign(dst, src)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn combine1_avx2(dst: &mut [u64], a: &[u64], fa: u64, valid: Option<&[u64]>) {
        // The XOR masks are 0 or !0 in every kernel: re-dispatch on the
        // literal so each arm's inlined loop constant-folds its masks
        // (dead `^ 0`s cost a third more vector ALU work otherwise —
        // the scalar tier gets the same folding from call-site inlining).
        match fa {
            0 => super::scalar::combine1(dst, a, 0, valid),
            u64::MAX => super::scalar::combine1(dst, a, !0, valid),
            _ => super::scalar::combine1(dst, a, fa, valid),
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn combine2_avx2(
        dst: &mut [u64],
        a: &[u64],
        b: &[u64],
        and: bool,
        fa: u64,
        fb: u64,
        valid: Option<&[u64]>,
    ) {
        // Same mask-literal re-dispatch as `combine1_avx2`.
        macro_rules! spec {
            ($and:expr) => {
                match (fa, fb) {
                    (0, 0) => super::scalar::combine2(dst, a, b, $and, 0, 0, valid),
                    (0, u64::MAX) => super::scalar::combine2(dst, a, b, $and, 0, !0, valid),
                    (u64::MAX, 0) => super::scalar::combine2(dst, a, b, $and, !0, 0, valid),
                    (u64::MAX, u64::MAX) => {
                        super::scalar::combine2(dst, a, b, $and, !0, !0, valid)
                    }
                    _ => super::scalar::combine2(dst, a, b, $and, fa, fb, valid),
                }
            };
        }
        if and {
            spec!(true)
        } else {
            spec!(false)
        }
    }

    /// Per-64-bit-lane popcount of a 256-bit vector via the nibble
    /// lookup (Muła): two `pshufb` table probes and a byte-sum, no trip
    /// through the scalar `popcnt` port.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn popcnt256(v: __m256i, lookup: __m256i, low: __m256i) -> __m256i {
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum256(acc: __m256i) -> u64 {
        let mut tmp = [0u64; 4];
        _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, acc);
        tmp[0] + tmp[1] + tmp[2] + tmp[3]
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn combine2_count_avx2(
        dst: &mut [u64],
        a: &[u64],
        b: &[u64],
        and: bool,
        fb: u64,
    ) -> u64 {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let fbv = _mm256_set1_epi64x(fb as i64);
        let n4 = dst.len() & !3;
        let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        macro_rules! pass {
            ($and:expr) => {{
                let mut i = 0;
                while i < n4 {
                    let x = _mm256_loadu_si256(ap.add(i) as *const __m256i);
                    let y = _mm256_xor_si256(_mm256_loadu_si256(bp.add(i) as *const __m256i), fbv);
                    let r = if $and {
                        _mm256_and_si256(x, y)
                    } else {
                        _mm256_or_si256(x, y)
                    };
                    _mm256_storeu_si256(dp.add(i) as *mut __m256i, r);
                    acc = _mm256_add_epi64(acc, popcnt256(r, lookup, low));
                    i += 4;
                }
            }};
        }
        if and {
            pass!(true)
        } else {
            pass!(false)
        }
        let mut cnt = hsum256(acc);
        for j in n4..dst.len() {
            let y = b[j] ^ fb;
            let w = if and { a[j] & y } else { a[j] | y };
            dst[j] = w;
            cnt += w.count_ones() as u64;
        }
        cnt
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_count_avx2(dst: &mut [u64], src: &[u64], and: bool, fb: u64) -> u64 {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let fbv = _mm256_set1_epi64x(fb as i64);
        let n4 = dst.len() & !3;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut acc = _mm256_setzero_si256();
        macro_rules! pass {
            ($and:expr) => {{
                let mut i = 0;
                while i < n4 {
                    let x = _mm256_loadu_si256(dp.add(i) as *const __m256i);
                    let y = _mm256_xor_si256(_mm256_loadu_si256(sp.add(i) as *const __m256i), fbv);
                    let r = if $and {
                        _mm256_and_si256(x, y)
                    } else {
                        _mm256_or_si256(x, y)
                    };
                    _mm256_storeu_si256(dp.add(i) as *mut __m256i, r);
                    acc = _mm256_add_epi64(acc, popcnt256(r, lookup, low));
                    i += 4;
                }
            }};
        }
        if and {
            pass!(true)
        } else {
            pass!(false)
        }
        let mut cnt = hsum256(acc);
        for j in n4..dst.len() {
            let y = src[j] ^ fb;
            let w = if and { dst[j] & y } else { dst[j] | y };
            dst[j] = w;
            cnt += w.count_ones() as u64;
        }
        cnt
    }

    /// Blocked fold, AVX2: 8-word strips of `dst` live in two YMM
    /// accumulators while every block streams past, then a 4-word strip
    /// and a scalar tail. Each source cache line is loaded exactly once
    /// and `dst` is written once per strip.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::assign_op_pattern)] // `$op:tt` macro can't splice `$op=`
    pub unsafe fn fold_blocks_avx2(dst: &mut [u64], src: &[u64], and: bool) {
        let bw = dst.len();
        let nblk = src.len() / bw;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        macro_rules! pass {
            ($vop:ident, $op:tt) => {{
                let mut g = 0usize;
                while g + 8 <= bw {
                    let mut a0 = _mm256_loadu_si256(dp.add(g) as *const __m256i);
                    let mut a1 = _mm256_loadu_si256(dp.add(g + 4) as *const __m256i);
                    for k in 0..nblk {
                        let p = sp.add(k * bw + g);
                        a0 = $vop(a0, _mm256_loadu_si256(p as *const __m256i));
                        a1 = $vop(a1, _mm256_loadu_si256(p.add(4) as *const __m256i));
                    }
                    _mm256_storeu_si256(dp.add(g) as *mut __m256i, a0);
                    _mm256_storeu_si256(dp.add(g + 4) as *mut __m256i, a1);
                    g += 8;
                }
                if g + 4 <= bw {
                    let mut a0 = _mm256_loadu_si256(dp.add(g) as *const __m256i);
                    for k in 0..nblk {
                        let p = sp.add(k * bw + g);
                        a0 = $vop(a0, _mm256_loadu_si256(p as *const __m256i));
                    }
                    _mm256_storeu_si256(dp.add(g) as *mut __m256i, a0);
                    g += 4;
                }
                while g < bw {
                    let mut acc = *dp.add(g);
                    for k in 0..nblk {
                        acc = acc $op *sp.add(k * bw + g);
                    }
                    *dp.add(g) = acc;
                    g += 1;
                }
            }};
        }
        if and {
            pass!(_mm256_and_si256, &)
        } else {
            pass!(_mm256_or_si256, |)
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    // NEON is baseline on aarch64: safe wrappers, intrinsics in local
    // unsafe blocks.

    pub fn or_assign_neon(dst: &mut [u64], src: &[u64]) {
        let n = dst.len() & !1;
        unsafe {
            let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < n {
                let d = vld1q_u64(dp.add(i));
                let s = vld1q_u64(sp.add(i));
                vst1q_u64(dp.add(i), vorrq_u64(d, s));
                i += 2;
            }
        }
        for j in n..dst.len() {
            dst[j] |= src[j];
        }
    }

    pub fn and_assign_neon(dst: &mut [u64], src: &[u64]) {
        let n = dst.len() & !1;
        unsafe {
            let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < n {
                let d = vld1q_u64(dp.add(i));
                let s = vld1q_u64(sp.add(i));
                vst1q_u64(dp.add(i), vandq_u64(d, s));
                i += 2;
            }
        }
        for j in n..dst.len() {
            dst[j] &= src[j];
        }
    }

    pub fn combine1_neon(dst: &mut [u64], a: &[u64], fa: u64, valid: Option<&[u64]>) {
        let n = dst.len() & !1;
        unsafe {
            let fav = vdupq_n_u64(fa);
            let (dp, ap) = (dst.as_mut_ptr(), a.as_ptr());
            let mut i = 0;
            while i < n {
                let mut x = veorq_u64(vld1q_u64(ap.add(i)), fav);
                if let Some(v) = valid {
                    x = vandq_u64(x, vld1q_u64(v.as_ptr().add(i)));
                }
                vst1q_u64(dp.add(i), x);
                i += 2;
            }
        }
        for j in n..dst.len() {
            let r = a[j] ^ fa;
            dst[j] = match valid {
                Some(v) => r & v[j],
                None => r,
            };
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn combine2_neon(
        dst: &mut [u64],
        a: &[u64],
        b: &[u64],
        and: bool,
        fa: u64,
        fb: u64,
        valid: Option<&[u64]>,
    ) {
        let n = dst.len() & !1;
        unsafe {
            let fav = vdupq_n_u64(fa);
            let fbv = vdupq_n_u64(fb);
            let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
            let mut i = 0;
            while i < n {
                let x = veorq_u64(vld1q_u64(ap.add(i)), fav);
                let y = veorq_u64(vld1q_u64(bp.add(i)), fbv);
                let mut r = if and { vandq_u64(x, y) } else { vorrq_u64(x, y) };
                if let Some(v) = valid {
                    r = vandq_u64(r, vld1q_u64(v.as_ptr().add(i)));
                }
                vst1q_u64(dp.add(i), r);
                i += 2;
            }
        }
        for j in n..dst.len() {
            let x = a[j] ^ fa;
            let y = b[j] ^ fb;
            let r = if and { x & y } else { x | y };
            dst[j] = match valid {
                Some(v) => r & v[j],
                None => r,
            };
        }
    }

    /// Blocked fold: the strip-mined scalar version's independent
    /// accumulators SLP-vectorize under baseline NEON.
    pub fn fold_blocks_neon(dst: &mut [u64], src: &[u64], and: bool) {
        super::scalar::fold_blocks(dst, src, and)
    }

    pub fn combine2_count_neon(dst: &mut [u64], a: &[u64], b: &[u64], and: bool, fb: u64) -> u64 {
        super::scalar::combine2_count(dst, a, b, and, fb)
    }

    pub fn fold_count_neon(dst: &mut [u64], src: &[u64], and: bool, fb: u64) -> u64 {
        super::scalar::fold_count(dst, src, and, fb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word soup with odd lengths to exercise tails.
    fn words(len: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    fn tiers_under_test() -> Vec<Tier> {
        // Every tier the host can actually run (force_tier clamps).
        let mut ts = vec![Tier::Scalar];
        for t in [Tier::Neon, Tier::Avx2] {
            let eff = clamp(t);
            if eff == t && !ts.contains(&t) {
                ts.push(t);
            }
        }
        ts
    }

    #[test]
    fn simd_all_tiers_match_scalar_reference() {
        let lens = [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 257];
        // Every operand and destination is a sub-slice starting `off`
        // words into its allocation (`&a[1..]`, `&a[3..]`): a fresh
        // `Vec<u64>` starts 16-byte aligned in practice, so the odd
        // offsets hand each tier addresses no vector width divides.
        for (len, off) in lens.iter().flat_map(|&len| [0usize, 1, 3].map(|off| (len, off))) {
            let (a_buf, b_buf, v_buf) =
                (words(len + off, 3), words(len + off, 17), words(len + off, 91));
            let (a, b, v) = (&a_buf[off..], &b_buf[off..], &v_buf[off..]);
            let zeros = || vec![0u64; len + off];
            for t in tiers_under_test() {
                assert_eq!(force_tier(t), t);
                let at = format!("tier={t:?} len={len} off={off}");
                for &and in &[false, true] {
                    for &fa in &[0u64, !0u64] {
                        for &fb in &[0u64, !0u64] {
                            for valid in [None, Some(v)] {
                                let mut got = zeros();
                                combine2(&mut got[off..], a, b, and, fa, fb, valid);
                                let mut want = zeros();
                                scalar::combine2(&mut want[off..], a, b, and, fa, fb, valid);
                                assert_eq!(got, want, "combine2 {at} and={and}");
                            }
                        }
                    }
                    let mut got = a_buf.clone();
                    fold_assign(&mut got[off..], b, and);
                    let mut want = a_buf.clone();
                    if and {
                        scalar::and_assign(&mut want[off..], b);
                    } else {
                        scalar::or_assign(&mut want[off..], b);
                    }
                    assert_eq!(got, want, "fold {at} and={and}");
                }
                let mut got = zeros();
                combine1(&mut got[off..], a, !0, Some(v));
                let mut want = zeros();
                scalar::combine1(&mut want[off..], a, !0, Some(v));
                assert_eq!(got, want, "combine1 {at}");
                // Fused combine-and-popcount passes, all (and, fb)
                // shapes, against the scalar reference.
                for &and in &[false, true] {
                    for &fb in &[0u64, !0u64] {
                        let mut got = zeros();
                        let gc = combine2_count(&mut got[off..], a, b, and, fb);
                        let mut want = zeros();
                        let wc = scalar::combine2_count(&mut want[off..], a, b, and, fb);
                        assert_eq!((got, gc), (want, wc), "combine2_count {at}");
                        let mut got = a_buf.clone();
                        let gc = fold_count(&mut got[off..], b, and, fb);
                        let mut want = a_buf.clone();
                        let wc = scalar::fold_count(&mut want[off..], b, and, fb);
                        assert_eq!((got, gc), (want, wc), "fold_count {at}");
                    }
                }
                // Blocked fold over every divisor shape of a 24-block
                // source, covering the 8-strip, 4-strip, and tail paths.
                if len > 0 {
                    let big_buf = words(len * 24 + off, 7);
                    let big = &big_buf[off..];
                    for &and in &[false, true] {
                        let mut got = a_buf.clone();
                        fold_blocks(&mut got[off..], big, and);
                        let mut want = a_buf.clone();
                        for blk in big.chunks_exact(len) {
                            if and {
                                scalar::and_assign(&mut want[off..], blk);
                            } else {
                                scalar::or_assign(&mut want[off..], blk);
                            }
                        }
                        assert_eq!(got, want, "fold_blocks {at} and={and}");
                    }
                }
                let mut got = zeros();
                not_masked(&mut got[off..], a, v);
                for i in 0..len {
                    assert_eq!(got[off + i], !a[i] & v[i], "not_masked {at}");
                }
            }
        }
        // Leave detection-resolved for other tests in this process.
        force_tier(detect());
    }

    #[test]
    fn simd_tier_reports_consistent_geometry() {
        let t = tier();
        assert!(t.lanes() >= 1);
        assert!(!t.name().is_empty());
        // Forcing scalar always succeeds, everywhere.
        assert_eq!(force_tier(Tier::Scalar), Tier::Scalar);
        assert_eq!(tier(), Tier::Scalar);
        force_tier(detect());
    }
}
