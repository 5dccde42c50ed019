//! Explicit SSE4.1 / AVX2 / AVX-512 row-update kernels, plus the striped
//! inter-sequence batch kernels behind [`crate::batch::BatchKernel`].
//!
//! Hand-written `core::arch` versions of [`super::row_update_portable`]
//! and, on AVX2 and AVX-512, of [`super::affine_row_portable`], selected
//! at runtime by the dispatch layer after `is_x86_feature_detected!` has
//! confirmed the ISA (see [`super::KernelBackend::is_available`]). The
//! math is identical to the portable kernels — pass A is elementwise,
//! pass B runs a log-step prefix max in the ramp-free u-domain — so every
//! ISA is bit-identical to the scalar kernels.
//!
//! This module is the only `unsafe` surface of the workspace outside the
//! audited `DisjointBuf` writes, and lint rule R6 pins every
//! `#[target_feature]` function here.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use super::AffineRow;

/// Lane-shift `x` one `i32` toward higher lanes, filling lane 0 from
/// `fill` (lane `l` of the result is `x`'s lane `l-1`).
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shl1_avx2(x: __m256i, fill: __m256i) -> __m256i {
    // Selector 0x08: low 128 = zero, high 128 = x's low half — the
    // cross-lane carry `alignr` cannot express on its own.
    let low_to_high = _mm256_permute2x128_si256::<0x08>(x, x);
    let s = _mm256_alignr_epi8::<12>(x, low_to_high);
    _mm256_blend_epi32::<0b0000_0001>(s, fill)
}

/// Lane-shift `x` two `i32`s toward higher lanes, filling lanes 0–1.
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shl2_avx2(x: __m256i, fill: __m256i) -> __m256i {
    let low_to_high = _mm256_permute2x128_si256::<0x08>(x, x);
    let s = _mm256_alignr_epi8::<8>(x, low_to_high);
    _mm256_blend_epi32::<0b0000_0011>(s, fill)
}

/// Lane-shift `x` four `i32`s toward higher lanes, filling lanes 0–3.
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shl4_avx2(x: __m256i, fill: __m256i) -> __m256i {
    let low_to_high = _mm256_permute2x128_si256::<0x08>(x, x);
    _mm256_blend_epi32::<0b0000_1111>(low_to_high, fill)
}

/// Inclusive prefix max of `u`'s eight lanes toward higher lanes, folded
/// with the running carry `carryv` (broadcast): lane `l` of the result is
/// `max(carry, u[0..=l])`.
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn prefix_max_avx2(u: __m256i, carryv: __m256i) -> __m256i {
    let minv = _mm256_set1_epi32(i32::MIN);
    let m1 = _mm256_max_epi32(u, shl1_avx2(u, minv));
    let m2 = _mm256_max_epi32(m1, shl2_avx2(m1, minv));
    let m4 = _mm256_max_epi32(m2, shl4_avx2(m2, minv));
    _mm256_max_epi32(m4, carryv)
}

/// AVX2 version of [`super::row_update_portable`]: identical contract,
/// identical results, eight columns per vector.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`; the
/// dispatch layer does this once at `Kernel` construction.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn row_update_avx2(prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
    let cols = profile.len();
    // Release-mode guards: the vector loop below reads and writes through
    // raw pointers (`.add(j)`), so an out-of-bounds row is UB, not a
    // panic — the checks must survive into optimized builds.
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    let mut carry = cur[0];
    let mut j = 1usize;
    if j + 8 <= cols + 1 {
        let gapv = _mm256_set1_epi32(gap);
        let step = _mm256_set1_epi32(gap.wrapping_mul(8));
        // ramp lanes hold (j+l)*gap for the block's eight columns.
        let mut r = [0i32; 8];
        for (l, slot) in r.iter_mut().enumerate() {
            *slot = (l as i32 + 1).wrapping_mul(gap);
        }
        let mut ramp = _mm256_loadu_si256(r.as_ptr() as *const __m256i);
        let mut carryv = _mm256_set1_epi32(carry);
        while j + 8 <= cols + 1 {
            let diag = _mm256_add_epi32(
                _mm256_loadu_si256(prev.as_ptr().add(j - 1) as *const __m256i),
                _mm256_loadu_si256(profile.as_ptr().add(j - 1) as *const __m256i),
            );
            let up = _mm256_add_epi32(
                _mm256_loadu_si256(prev.as_ptr().add(j) as *const __m256i),
                gapv,
            );
            let u = _mm256_sub_epi32(_mm256_max_epi32(diag, up), ramp);
            let m = prefix_max_avx2(u, carryv);
            _mm256_storeu_si256(
                cur.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_add_epi32(m, ramp),
            );
            carryv = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(7));
            ramp = _mm256_add_epi32(ramp, step);
            j += 8;
        }
        carry = _mm256_extract_epi32::<7>(carryv);
    }
    while j <= cols {
        let diag = prev[j - 1] + profile[j - 1];
        let up = prev[j] + gap;
        let t = if diag > up { diag } else { up };
        let u = t - j as i32 * gap;
        carry = if u > carry { u } else { carry };
        cur[j] = carry + j as i32 * gap;
        j += 1;
    }
}

/// One sixteen-column block of [`row_update_avx512`]: pass A's
/// `max(diag, up)`, then the inclusive prefix max in the u-domain
/// (`u = t − ramp`), folded with the running carry. Returns the block's
/// u-domain row `m`: the caller stores `m + ramp`, and lane 15 is the
/// next block's carry.
///
/// The shift-by-`k` steps use `_mm512_alignr_epi32::<{16 - k}>(x, fill)`
/// — the concatenation `[x : fill]` shifted right by `16 - k` dwords
/// leaves `x`'s lane `l` in result lane `l + k` and fills lanes `0..k`
/// from `fill`'s top lanes, which are all `i32::MIN` here. Every step
/// carries toward higher lanes only, so lane `l` of the result depends
/// on lanes `0..=l` of the inputs and on nothing above them.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn prefix_max_avx512(diag: __m512i, up: __m512i, ramp: __m512i, carryv: __m512i) -> __m512i {
    let minv = _mm512_set1_epi32(i32::MIN);
    let u = _mm512_sub_epi32(_mm512_max_epi32(diag, up), ramp);
    let m1 = _mm512_max_epi32(u, _mm512_alignr_epi32::<15>(u, minv));
    let m2 = _mm512_max_epi32(m1, _mm512_alignr_epi32::<14>(m1, minv));
    let m4 = _mm512_max_epi32(m2, _mm512_alignr_epi32::<12>(m2, minv));
    let m8 = _mm512_max_epi32(m4, _mm512_alignr_epi32::<8>(m4, minv));
    _mm512_max_epi32(m8, carryv)
}

/// AVX-512F version of [`super::row_update_portable`]: identical
/// contract, identical results, sixteen columns per vector.
///
/// Full blocks use plain loads and stores. The last 1–15 columns run as
/// one masked block: `_mm512_maskz_loadu_epi32` reads only the live
/// lanes (the rest load as 0 and touch no memory), the same
/// [`prefix_max_avx512`] runs over all sixteen lanes, and
/// `_mm512_mask_storeu_epi32` writes only the live lanes back. The
/// prefix max carries toward higher lanes only, so the dead lanes above
/// the row's end cannot reach a stored lane: the masked block is exact,
/// and no row ends in a scalar loop. The carry broadcast between blocks
/// is a single `vpermd` (`_mm512_permutexvar_epi32` with index 15).
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx512f")`;
/// the dispatch layer does this once at `Kernel` construction.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn row_update_avx512(prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
    let cols = profile.len();
    // Release-mode guards: the vector loop below reads and writes through
    // raw pointers (`.add(j)`), so an out-of-bounds row is UB, not a
    // panic — the checks must survive into optimized builds.
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    let gapv = _mm512_set1_epi32(gap);
    let step = _mm512_set1_epi32(gap.wrapping_mul(16));
    let top_lane = _mm512_set1_epi32(15);
    // ramp lanes hold (j+l)*gap for the block's sixteen columns.
    let mut r = [0i32; 16];
    for (l, slot) in r.iter_mut().enumerate() {
        *slot = (l as i32 + 1).wrapping_mul(gap);
    }
    let mut ramp = _mm512_loadu_si512(r.as_ptr() as *const __m512i);
    let mut carryv = _mm512_set1_epi32(cur[0]);
    let mut j = 1usize;
    while j + 16 <= cols + 1 {
        let diag = _mm512_add_epi32(
            _mm512_loadu_si512(prev.as_ptr().add(j - 1) as *const __m512i),
            _mm512_loadu_si512(profile.as_ptr().add(j - 1) as *const __m512i),
        );
        let up = _mm512_add_epi32(
            _mm512_loadu_si512(prev.as_ptr().add(j) as *const __m512i),
            gapv,
        );
        let m = prefix_max_avx512(diag, up, ramp, carryv);
        _mm512_storeu_si512(
            cur.as_mut_ptr().add(j) as *mut __m512i,
            _mm512_add_epi32(m, ramp),
        );
        carryv = _mm512_permutexvar_epi32(top_lane, m);
        ramp = _mm512_add_epi32(ramp, step);
        j += 16;
    }
    if j <= cols {
        // Columns j..=cols, 1–15 of them: lanes 0..live of one block.
        let live = cols + 1 - j;
        let mask: __mmask16 = (1u16 << live) - 1;
        let diag = _mm512_add_epi32(
            _mm512_maskz_loadu_epi32(mask, prev.as_ptr().add(j - 1)),
            _mm512_maskz_loadu_epi32(mask, profile.as_ptr().add(j - 1)),
        );
        let up = _mm512_add_epi32(_mm512_maskz_loadu_epi32(mask, prev.as_ptr().add(j)), gapv);
        let m = prefix_max_avx512(diag, up, ramp, carryv);
        _mm512_mask_storeu_epi32(cur.as_mut_ptr().add(j), mask, _mm512_add_epi32(m, ramp));
    }
}

/// AVX2 version of [`super::affine_row_portable`]: identical contract,
/// identical results, eight columns per vector.
///
/// Per block, pass A is elementwise: `F = max(Fp + ext, Hp + open + ext)`
/// and `D = max(Hp[j-1] + S, F)`. Pass B scans `w = D + open − ramp`
/// (`ramp` lanes hold `k·ext`) with [`prefix_max_avx2`], folded with the
/// carry, and shifts the result one lane up with the carry filling lane
/// 0: that is the *exclusive* prefix, and `E = excl + ramp`,
/// `H = max(D, E)`. The last 0–7 columns run as scalar cells.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`; the
/// dispatch layer does this once at `Kernel` construction.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn affine_row_avx2(
    mut row: AffineRow<'_>,
    profile: &[i32],
    open: i32,
    extend: i32,
) {
    let cols = profile.len();
    // Release-mode guard: the vector loop below reads and writes through
    // raw pointers (`.add(j)`), so an out-of-bounds row is UB, not a panic.
    row.check(cols);
    let mut carry = row.first_carry(open);
    let mut j = 1usize;
    if j + 8 <= cols + 1 {
        let extv = _mm256_set1_epi32(extend);
        let openv = _mm256_set1_epi32(open);
        let open_ext = _mm256_set1_epi32(open + extend);
        let step = _mm256_set1_epi32(extend.wrapping_mul(8));
        // ramp lanes hold (j+l)*extend for the block's eight columns.
        let mut r = [0i32; 8];
        for (l, slot) in r.iter_mut().enumerate() {
            *slot = (l as i32 + 1).wrapping_mul(extend);
        }
        let mut ramp = _mm256_loadu_si256(r.as_ptr() as *const __m256i);
        let mut carryv = _mm256_set1_epi32(carry);
        while j + 8 <= cols + 1 {
            let diag = _mm256_add_epi32(
                _mm256_loadu_si256(row.hp.as_ptr().add(j - 1) as *const __m256i),
                _mm256_loadu_si256(profile.as_ptr().add(j - 1) as *const __m256i),
            );
            let up_f = _mm256_loadu_si256(row.fp.as_ptr().add(j) as *const __m256i);
            let up_h = _mm256_loadu_si256(row.hp.as_ptr().add(j) as *const __m256i);
            let f = _mm256_max_epi32(
                _mm256_add_epi32(up_f, extv),
                _mm256_add_epi32(up_h, open_ext),
            );
            let d = _mm256_max_epi32(diag, f);
            let w = _mm256_sub_epi32(_mm256_add_epi32(d, openv), ramp);
            let m = prefix_max_avx2(w, carryv);
            let e = _mm256_add_epi32(shl1_avx2(m, carryv), ramp);
            _mm256_storeu_si256(
                row.h.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_max_epi32(d, e),
            );
            _mm256_storeu_si256(row.e.as_mut_ptr().add(j) as *mut __m256i, e);
            _mm256_storeu_si256(row.f.as_mut_ptr().add(j) as *mut __m256i, f);
            carryv = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(7));
            ramp = _mm256_add_epi32(ramp, step);
            j += 8;
        }
        carry = _mm256_extract_epi32::<7>(carryv);
    }
    row.scalar_cells(j, carry, profile, open, extend);
}

/// One sixteen-column block of [`affine_row_avx512`], from its loaded
/// operands: `diag = Hp[j-1..] + S`, `up_h = Hp[j..]`, `up_f = Fp[j..]`.
/// Returns `(H, E, F, m)`, where lane 15 of `m` is the next block's
/// carry.
///
/// `F` and `D = max(diag, F)` are elementwise. [`prefix_max_avx512`],
/// given `ramp − open` as its ramp, scans `w = D + open − ramp` and
/// folds in the carry; `_mm512_alignr_epi32::<15>(m, carryv)` shifts that
/// one lane up, filling lane 0 from the carry — the *exclusive* prefix —
/// and `E = excl + ramp`, `H = max(D, E)`. Like the linear block, every
/// step carries toward higher lanes only, so a masked tail is exact.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn affine_block_avx512(
    diag: __m512i,
    up_h: __m512i,
    up_f: __m512i,
    ramp: __m512i,
    carryv: __m512i,
    open: i32,
    extend: i32,
) -> (__m512i, __m512i, __m512i, __m512i) {
    let f = _mm512_max_epi32(
        _mm512_add_epi32(up_f, _mm512_set1_epi32(extend)),
        _mm512_add_epi32(up_h, _mm512_set1_epi32(open + extend)),
    );
    let ramp_open = _mm512_sub_epi32(ramp, _mm512_set1_epi32(open));
    let m = prefix_max_avx512(diag, f, ramp_open, carryv);
    let e = _mm512_add_epi32(_mm512_alignr_epi32::<15>(m, carryv), ramp);
    let h = _mm512_max_epi32(_mm512_max_epi32(diag, f), e);
    (h, e, f, m)
}

/// AVX-512F version of [`super::affine_row_portable`]: identical
/// contract, identical results, sixteen columns per vector. Full blocks
/// use plain loads and stores; the last 1–15 columns run as one masked
/// block, exactly as in [`row_update_avx512`].
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx512f")`;
/// the dispatch layer does this once at `Kernel` construction.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn affine_row_avx512(
    row: AffineRow<'_>,
    profile: &[i32],
    open: i32,
    extend: i32,
) {
    let cols = profile.len();
    // Release-mode guard: the vector loop below reads and writes through
    // raw pointers (`.add(j)`), so an out-of-bounds row is UB, not a panic.
    row.check(cols);
    let step = _mm512_set1_epi32(extend.wrapping_mul(16));
    let top_lane = _mm512_set1_epi32(15);
    // ramp lanes hold (j+l)*extend for the block's sixteen columns.
    let mut r = [0i32; 16];
    for (l, slot) in r.iter_mut().enumerate() {
        *slot = (l as i32 + 1).wrapping_mul(extend);
    }
    let mut ramp = _mm512_loadu_si512(r.as_ptr() as *const __m512i);
    let mut carryv = _mm512_set1_epi32(row.first_carry(open));
    let (hp, fp) = (row.hp.as_ptr(), row.fp.as_ptr());
    let (h, e, f) = (row.h.as_mut_ptr(), row.e.as_mut_ptr(), row.f.as_mut_ptr());
    let mut j = 1usize;
    while j + 16 <= cols + 1 {
        let diag = _mm512_add_epi32(
            _mm512_loadu_si512(hp.add(j - 1) as *const __m512i),
            _mm512_loadu_si512(profile.as_ptr().add(j - 1) as *const __m512i),
        );
        let up_h = _mm512_loadu_si512(hp.add(j) as *const __m512i);
        let up_f = _mm512_loadu_si512(fp.add(j) as *const __m512i);
        let (hv, ev, fv, m) = affine_block_avx512(diag, up_h, up_f, ramp, carryv, open, extend);
        _mm512_storeu_si512(h.add(j) as *mut __m512i, hv);
        _mm512_storeu_si512(e.add(j) as *mut __m512i, ev);
        _mm512_storeu_si512(f.add(j) as *mut __m512i, fv);
        carryv = _mm512_permutexvar_epi32(top_lane, m);
        ramp = _mm512_add_epi32(ramp, step);
        j += 16;
    }
    if j <= cols {
        // Columns j..=cols, 1–15 of them: lanes 0..live of one block.
        let live = cols + 1 - j;
        let mask: __mmask16 = (1u16 << live) - 1;
        let diag = _mm512_add_epi32(
            _mm512_maskz_loadu_epi32(mask, hp.add(j - 1)),
            _mm512_maskz_loadu_epi32(mask, profile.as_ptr().add(j - 1)),
        );
        let up_h = _mm512_maskz_loadu_epi32(mask, hp.add(j));
        let up_f = _mm512_maskz_loadu_epi32(mask, fp.add(j));
        let (hv, ev, fv, _) = affine_block_avx512(diag, up_h, up_f, ramp, carryv, open, extend);
        _mm512_mask_storeu_epi32(h.add(j), mask, hv);
        _mm512_mask_storeu_epi32(e.add(j), mask, ev);
        _mm512_mask_storeu_epi32(f.add(j), mask, fv);
    }
}

// ---------------------------------------------------------------------
// Inter-sequence batch kernels (crate::batch::BatchKernel).
//
// One independent pair per 16-bit SIMD lane: at a fixed (i, j) every
// lane's left-dependency is its own previous j iteration, so the plain
// three-way max runs vertically with no prefix scan at all. Adds are
// *saturating*; the safe layer tracks per-lane running min/max and
// recomputes any lane that strays into the saturation danger zone on the
// exact i32 single-pair path, so results stay bit-identical to scalar.
// ---------------------------------------------------------------------

use crate::batch::{BDIR_DIAG, BDIR_LEFT, BDIR_UP};

/// Transposes an 8×8 block of `i16`s (the classic three-stage unpack
/// network): lane `t` of output `t` holds input `r[l]`'s element `t`.
///
/// # Safety
///
/// Requires SSE4.1 (guaranteed by the caller's own `target_feature`;
/// the unpacks themselves are SSE2).
#[inline]
#[target_feature(enable = "sse4.1")]
unsafe fn transpose8x8_epi16(r: [__m128i; 8]) -> [__m128i; 8] {
    let a0 = _mm_unpacklo_epi16(r[0], r[1]);
    let a1 = _mm_unpackhi_epi16(r[0], r[1]);
    let a2 = _mm_unpacklo_epi16(r[2], r[3]);
    let a3 = _mm_unpackhi_epi16(r[2], r[3]);
    let a4 = _mm_unpacklo_epi16(r[4], r[5]);
    let a5 = _mm_unpackhi_epi16(r[4], r[5]);
    let a6 = _mm_unpacklo_epi16(r[6], r[7]);
    let a7 = _mm_unpackhi_epi16(r[6], r[7]);
    let b0 = _mm_unpacklo_epi32(a0, a2);
    let b1 = _mm_unpackhi_epi32(a0, a2);
    let b2 = _mm_unpacklo_epi32(a1, a3);
    let b3 = _mm_unpackhi_epi32(a1, a3);
    let b4 = _mm_unpacklo_epi32(a4, a6);
    let b5 = _mm_unpackhi_epi32(a4, a6);
    let b6 = _mm_unpacklo_epi32(a5, a7);
    let b7 = _mm_unpackhi_epi32(a5, a7);
    [
        _mm_unpacklo_epi64(b0, b4),
        _mm_unpackhi_epi64(b0, b4),
        _mm_unpacklo_epi64(b1, b5),
        _mm_unpackhi_epi64(b1, b5),
        _mm_unpacklo_epi64(b2, b6),
        _mm_unpackhi_epi64(b2, b6),
        _mm_unpacklo_epi64(b3, b7),
        _mm_unpackhi_epi64(b3, b7),
    ]
}

/// Interleaves 16 per-lane `i16` profile rows into one striped score row:
/// `out[j*16 + l] = rows[l][j]`. Every `rows[l]` must have length
/// `cols_pad` (a multiple of 8) and `out` length `cols_pad * 16`.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`
/// (which implies the SSE4.1 transpose helper is safe too).
#[target_feature(enable = "avx2,sse4.1")]
pub(crate) unsafe fn batch_score_row_avx2(rows: &[&[i16]], out: &mut [i16]) {
    assert_eq!(rows.len(), 16, "lane count");
    let cols_pad = rows[0].len();
    // Release-mode guards: the block loop below reads and writes through
    // raw pointers, so a short row is UB, not a panic.
    assert_eq!(cols_pad % 8, 0, "padded width multiple of 8");
    assert_eq!(out.len(), cols_pad * 16, "striped score row length");
    for r in rows.iter() {
        assert_eq!(r.len(), cols_pad, "profile row length");
    }
    let mut jb = 0usize;
    while jb < cols_pad {
        let mut lo = [_mm_setzero_si128(); 8];
        let mut hi = [_mm_setzero_si128(); 8];
        for l in 0..8 {
            lo[l] = _mm_loadu_si128(rows[l].as_ptr().add(jb) as *const __m128i);
            hi[l] = _mm_loadu_si128(rows[l + 8].as_ptr().add(jb) as *const __m128i);
        }
        let c = transpose8x8_epi16(lo);
        let d = transpose8x8_epi16(hi);
        for (t, (&ct, &dt)) in c.iter().zip(d.iter()).enumerate() {
            _mm256_storeu_si256(
                out.as_mut_ptr().add((jb + t) * 16) as *mut __m256i,
                _mm256_set_m128i(dt, ct),
            );
        }
        jb += 8;
    }
}

/// Interleaves 8 per-lane `i16` profile rows into one striped score row:
/// `out[j*8 + l] = rows[l][j]`. Every `rows[l]` must have length
/// `cols_pad` (a multiple of 8) and `out` length `cols_pad * 8`.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("sse4.1")`.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn batch_score_row_sse41(rows: &[&[i16]], out: &mut [i16]) {
    assert_eq!(rows.len(), 8, "lane count");
    let cols_pad = rows[0].len();
    // Release-mode guards: raw-pointer loop below.
    assert_eq!(cols_pad % 8, 0, "padded width multiple of 8");
    assert_eq!(out.len(), cols_pad * 8, "striped score row length");
    for r in rows.iter() {
        assert_eq!(r.len(), cols_pad, "profile row length");
    }
    let mut jb = 0usize;
    while jb < cols_pad {
        let mut blk = [_mm_setzero_si128(); 8];
        for l in 0..8 {
            blk[l] = _mm_loadu_si128(rows[l].as_ptr().add(jb) as *const __m128i);
        }
        let c = transpose8x8_epi16(blk);
        for (t, &ct) in c.iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().add((jb + t) * 8) as *mut __m128i, ct);
        }
        jb += 8;
    }
}

/// One striped batch row update over 16 lanes: for every column `j`,
/// computes the saturating three-way max for all 16 pairs at once,
/// records the winning direction (Diag ≻ Up ≻ Left) in `dirs`, and folds
/// the new values into the running per-lane `minmax` saturation tracker.
///
/// Layout contract (striped, lane-major within a column):
/// `prev`/`cur` are `(cols + 1) * 16` with `cur[0..16]` holding the row's
/// left-boundary values on entry; `scores[ (j-1)*16 + l ]` is lane `l`'s
/// substitution score for column `j`; `dirs` is `cols * 16`;
/// `gaps` is one per-lane gap penalty; `minmax` is 16 running minima then
/// 16 running maxima.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn batch_row_update_avx2(
    prev: &[i16],
    cur: &mut [i16],
    scores: &[i16],
    gaps: &[i16],
    dirs: &mut [u8],
    minmax: &mut [i16],
) {
    let cols = dirs.len() / 16;
    // Release-mode guards: the column loop reads and writes through raw
    // pointers, so an undersized slab is UB, not a panic.
    assert_eq!(dirs.len() % 16, 0, "dir row length");
    assert_eq!(prev.len(), (cols + 1) * 16, "prev row length");
    assert_eq!(cur.len(), (cols + 1) * 16, "cur row length");
    assert!(scores.len() >= cols * 16, "score row length");
    assert_eq!(gaps.len(), 16, "per-lane gaps");
    assert_eq!(minmax.len(), 32, "per-lane min/max");
    let gapv = _mm256_loadu_si256(gaps.as_ptr() as *const __m256i);
    let mut minv = _mm256_loadu_si256(minmax.as_ptr() as *const __m256i);
    let mut maxv = _mm256_loadu_si256(minmax.as_ptr().add(16) as *const __m256i);
    let dir_diag = _mm256_set1_epi16(BDIR_DIAG as i16);
    let dir_up = _mm256_set1_epi16(BDIR_UP as i16);
    let dir_left = _mm256_set1_epi16(BDIR_LEFT as i16);
    let mut diagv = _mm256_loadu_si256(prev.as_ptr() as *const __m256i);
    let mut leftv = _mm256_loadu_si256(cur.as_ptr() as *const __m256i);
    for j in 1..=cols {
        let upv = _mm256_loadu_si256(prev.as_ptr().add(j * 16) as *const __m256i);
        let sv = _mm256_loadu_si256(scores.as_ptr().add((j - 1) * 16) as *const __m256i);
        let t1 = _mm256_adds_epi16(diagv, sv);
        let t2 = _mm256_adds_epi16(upv, gapv);
        let t3 = _mm256_adds_epi16(leftv, gapv);
        let v = _mm256_max_epi16(_mm256_max_epi16(t1, t2), t3);
        _mm256_storeu_si256(cur.as_mut_ptr().add(j * 16) as *mut __m256i, v);
        // Precedence order after the max, exactly like the scalar
        // fill_dir: Diag wherever t1 == v, else Up wherever t2 == v.
        let d = _mm256_blendv_epi8(dir_left, dir_up, _mm256_cmpeq_epi16(t2, v));
        let d = _mm256_blendv_epi8(d, dir_diag, _mm256_cmpeq_epi16(t1, v));
        // Pack the 16 i16 codes to 16 bytes: packs gives [p_lo p_lo |
        // p_hi p_hi] per 128-bit half; permute qwords 0 and 2 together.
        let packed = _mm256_packs_epi16(d, d);
        let packed = _mm256_permute4x64_epi64::<0b1110_1000>(packed);
        _mm_storeu_si128(
            dirs.as_mut_ptr().add((j - 1) * 16) as *mut __m128i,
            _mm256_castsi256_si128(packed),
        );
        minv = _mm256_min_epi16(minv, v);
        maxv = _mm256_max_epi16(maxv, v);
        diagv = upv;
        leftv = v;
    }
    _mm256_storeu_si256(minmax.as_mut_ptr() as *mut __m256i, minv);
    _mm256_storeu_si256(minmax.as_mut_ptr().add(16) as *mut __m256i, maxv);
}

/// Eight-lane SSE4.1 variant of [`batch_row_update_avx2`]; identical
/// contract with a lane width of 8 (`prev`/`cur` are `(cols + 1) * 8`,
/// `dirs` is `cols * 8`, `minmax` is 8 + 8).
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("sse4.1")`.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn batch_row_update_sse41(
    prev: &[i16],
    cur: &mut [i16],
    scores: &[i16],
    gaps: &[i16],
    dirs: &mut [u8],
    minmax: &mut [i16],
) {
    let cols = dirs.len() / 8;
    // Release-mode guards: raw-pointer column loop below.
    assert_eq!(dirs.len() % 8, 0, "dir row length");
    assert_eq!(prev.len(), (cols + 1) * 8, "prev row length");
    assert_eq!(cur.len(), (cols + 1) * 8, "cur row length");
    assert!(scores.len() >= cols * 8, "score row length");
    assert_eq!(gaps.len(), 8, "per-lane gaps");
    assert_eq!(minmax.len(), 16, "per-lane min/max");
    let gapv = _mm_loadu_si128(gaps.as_ptr() as *const __m128i);
    let mut minv = _mm_loadu_si128(minmax.as_ptr() as *const __m128i);
    let mut maxv = _mm_loadu_si128(minmax.as_ptr().add(8) as *const __m128i);
    let dir_diag = _mm_set1_epi16(BDIR_DIAG as i16);
    let dir_up = _mm_set1_epi16(BDIR_UP as i16);
    let dir_left = _mm_set1_epi16(BDIR_LEFT as i16);
    let mut diagv = _mm_loadu_si128(prev.as_ptr() as *const __m128i);
    let mut leftv = _mm_loadu_si128(cur.as_ptr() as *const __m128i);
    for j in 1..=cols {
        let upv = _mm_loadu_si128(prev.as_ptr().add(j * 8) as *const __m128i);
        let sv = _mm_loadu_si128(scores.as_ptr().add((j - 1) * 8) as *const __m128i);
        let t1 = _mm_adds_epi16(diagv, sv);
        let t2 = _mm_adds_epi16(upv, gapv);
        let t3 = _mm_adds_epi16(leftv, gapv);
        let v = _mm_max_epi16(_mm_max_epi16(t1, t2), t3);
        _mm_storeu_si128(cur.as_mut_ptr().add(j * 8) as *mut __m128i, v);
        let d = _mm_blendv_epi8(dir_left, dir_up, _mm_cmpeq_epi16(t2, v));
        let d = _mm_blendv_epi8(d, dir_diag, _mm_cmpeq_epi16(t1, v));
        _mm_storel_epi64(
            dirs.as_mut_ptr().add((j - 1) * 8) as *mut __m128i,
            _mm_packs_epi16(d, d),
        );
        minv = _mm_min_epi16(minv, v);
        maxv = _mm_max_epi16(maxv, v);
        diagv = upv;
        leftv = v;
    }
    _mm_storeu_si128(minmax.as_mut_ptr() as *mut __m128i, minv);
    _mm_storeu_si128(minmax.as_mut_ptr().add(8) as *mut __m128i, maxv);
}

/// SSE4.1 version of [`super::row_update_portable`]: identical contract,
/// identical results, four columns per vector. `alignr` is SSSE3, which
/// SSE4.1 implies.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("sse4.1")`;
/// the dispatch layer does this once at `Kernel` construction.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn row_update_sse41(prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
    let cols = profile.len();
    // Release-mode guards: the vector loop below reads and writes through
    // raw pointers (`.add(j)`), so an out-of-bounds row is UB, not a
    // panic — the checks must survive into optimized builds.
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    let mut carry = cur[0];
    let mut j = 1usize;
    if j + 4 <= cols + 1 {
        let gapv = _mm_set1_epi32(gap);
        let minv = _mm_set1_epi32(i32::MIN);
        let step = _mm_set1_epi32(gap.wrapping_mul(4));
        let mut r = [0i32; 4];
        for (l, slot) in r.iter_mut().enumerate() {
            *slot = (l as i32 + 1).wrapping_mul(gap);
        }
        let mut ramp = _mm_loadu_si128(r.as_ptr() as *const __m128i);
        let mut carryv = _mm_set1_epi32(carry);
        while j + 4 <= cols + 1 {
            let diag = _mm_add_epi32(
                _mm_loadu_si128(prev.as_ptr().add(j - 1) as *const __m128i),
                _mm_loadu_si128(profile.as_ptr().add(j - 1) as *const __m128i),
            );
            let up = _mm_add_epi32(
                _mm_loadu_si128(prev.as_ptr().add(j) as *const __m128i),
                gapv,
            );
            let t = _mm_max_epi32(diag, up);
            let u = _mm_sub_epi32(t, ramp);
            // Shift-by-one / shift-by-two with MIN fill via alignr.
            let m1 = _mm_max_epi32(u, _mm_alignr_epi8::<12>(u, minv));
            let m2 = _mm_max_epi32(m1, _mm_alignr_epi8::<8>(m1, minv));
            let m = _mm_max_epi32(m2, carryv);
            _mm_storeu_si128(
                cur.as_mut_ptr().add(j) as *mut __m128i,
                _mm_add_epi32(m, ramp),
            );
            carryv = _mm_shuffle_epi32::<0xFF>(m);
            ramp = _mm_add_epi32(ramp, step);
            j += 4;
        }
        carry = _mm_extract_epi32::<3>(carryv);
    }
    while j <= cols {
        let diag = prev[j - 1] + profile[j - 1];
        let up = prev[j] + gap;
        let t = if diag > up { diag } else { up };
        let u = t - j as i32 * gap;
        carry = if u > carry { u } else { carry };
        cur[j] = carry + j as i32 * gap;
        j += 1;
    }
}
