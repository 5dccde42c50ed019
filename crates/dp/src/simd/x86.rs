//! Explicit SSE4.1 / AVX2 / AVX-512 row-update kernels, and the AVX-512
//! anti-diagonal band fill.
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

use super::{AffineRow, ByteOut, ByteScheme, BYTE_TABLE, MAX_BYTE_TABLES};
use crate::matrix::TraceCodes;

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

/// Rows per anti-diagonal band: one row per `i32` lane of a 512-bit
/// vector. Also the pad on each side of the band kernel's reversed `b`.
pub(super) const BAND: usize = 16;

/// The operands every step of [`band_fill_avx512`] shares.
struct BandGeom {
    cols: usize,
    /// `b`'s codes reversed between [`BAND`] pad entries on each side:
    /// `brev[BAND + cols − s + l]` is `b[s − 1 − l]`, so one unaligned
    /// load gives step `s` its sixteen column codes.
    brev: *const i32,
    /// The rectangle's left column, `rows + 1` entries.
    left: *const i32,
    /// The right column to fill, `rows + 1` entries, if one was asked for.
    right: Option<*mut i32>,
    /// Score-table entries 0–15 and 16–31: `S(x, y)` sits at `x·|Σ| + y`.
    lo: __m512i,
    hi: __m512i,
    gapv: __m512i,
}

/// One band in flight. Lane `l` holds row `r0 + 1 + l`; after step `s`
/// it holds cell `(r0 + 1 + l, s − l)`.
struct Band {
    r0: usize,
    /// Rows the band covers, `1..=16`. Lanes from `live` up lie below the
    /// rectangle: they feed only higher lanes and are never stored.
    live: usize,
    /// `a[r0 + l]·|Σ|` per lane, the row half of each score-table index.
    arow: __m512i,
    /// `H` at the last step.
    h: __m512i,
    /// The last step's `up` operand, which is this step's diagonal.
    up: __m512i,
}

impl Band {
    /// The band over rows `r0 + 1 ..= r0 + live`. Panics on a residue
    /// code outside the score table, as the profile rows do.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (guaranteed by the caller's own `target_feature`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn band_rows(a: &[u8], r0: usize, live: usize, codes: usize) -> Band {
        let mut idx = [0i32; BAND];
        for (slot, &c) in idx.iter_mut().zip(&a[r0..r0 + live]) {
            assert!((c as usize) < codes, "residue code outside the alphabet");
            *slot = c as i32 * codes as i32;
        }
        Band {
            r0,
            live,
            arow: _mm512_loadu_si512(idx.as_ptr() as *const __m512i),
            h: _mm512_setzero_si512(),
            up: _mm512_setzero_si512(),
        }
    }

    /// Advances the band to step `s`, given its top row's value at column
    /// `s`. With `up = H(r0 + l, s − l)` (lane `l − 1` of the last step,
    /// or `top` in lane 0), the left neighbour in lane `l` of `h` and the
    /// diagonal in the last step's `up`, every lane computes the scalar
    /// recurrence `max(diag + S, max(up, left) + gap)` on the same i32
    /// sums.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, and `s ≤ cols + BAND` so the code load stays
    /// inside `brev`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn band_step(&mut self, g: &BandGeom, s: usize, top: i32) {
        let up = _mm512_alignr_epi32::<15>(self.h, _mm512_set1_epi32(top));
        let codes = _mm512_loadu_si512(g.brev.add(BAND + g.cols - s) as *const __m512i);
        let sub = _mm512_permutex2var_epi32(g.lo, _mm512_add_epi32(self.arow, codes), g.hi);
        let diag = _mm512_add_epi32(self.up, sub);
        let gapped = _mm512_add_epi32(_mm512_max_epi32(up, self.h), g.gapv);
        self.h = _mm512_max_epi32(diag, gapped);
        self.up = up;
    }

    /// Stores lane `live − 1`, the band's bottom row at column
    /// `s − (live − 1)`, into `dst`.
    ///
    /// With `FORWARD` (a full band whose entry the band behind loads on
    /// the very next step) the lane goes out as a scalar store: a masked
    /// vector store there blocks store forwarding to that load, and
    /// measured ×0.36 on whole pairs. Otherwise one masked store writes
    /// the lane; its vector base sits `live − 1` entries before the
    /// column, possibly before `dst` itself, but the mask touches only
    /// that entry.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `live − 1 ≤ s ≤ cols + live − 1`, `dst` holds
    /// `cols + 1` entries, and `live == 16` with `FORWARD`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_bottom<const FORWARD: bool>(&self, s: usize, dst: *mut i32) {
        let last = self.live - 1;
        if FORWARD {
            let quarter = _mm512_extracti32x4_epi32::<3>(self.h);
            *dst.add(s - last) = _mm_extract_epi32::<3>(quarter);
        } else {
            let base = dst.wrapping_add(s - last).wrapping_sub(last);
            _mm512_mask_storeu_epi32(base, 1 << last, self.h);
        }
    }

    /// Step `s` away from both edges: `live ≤ s < cols`, so every lane
    /// holds an interior cell and no edge work is due.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `live ≤ s < cols`, `src` and `dst` hold
    /// `cols + 1` entries, and `live == 16` with `FORWARD`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn inner_step<const FORWARD: bool>(
        &mut self,
        g: &BandGeom,
        s: usize,
        src: *const i32,
        dst: *mut i32,
    ) {
        self.band_step(g, s, *src.add(s));
        self.store_bottom::<FORWARD>(s, dst);
    }

    /// Any step `s ≤ cols + live − 1`, edges included: lane `s` takes the
    /// left column's value in the first `live` steps, lane `s − cols`
    /// goes to the right column in the last `live`, and the bottom row is
    /// stored once lane `live − 1` has reached column 0. Past column
    /// `cols` lane 0 reads `src[cols]`: it only feeds lanes that are past
    /// the right edge too.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `s ≤ cols + live − 1`, `src` and `dst` hold
    /// `cols + 1` entries, `g.left` (and `g.right`) hold `rows + 1`, and
    /// `live == 16` with `FORWARD`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn edge_step<const FORWARD: bool>(
        &mut self,
        g: &BandGeom,
        s: usize,
        src: *const i32,
        dst: *mut i32,
    ) {
        self.band_step(g, s, *src.add(s.min(g.cols)));
        let last = self.live - 1;
        if s <= last {
            let left = *g.left.add(self.r0 + 1 + s);
            self.h = _mm512_mask_set1_epi32(self.h, 1 << s, left);
        }
        if let Some(right) = g.right {
            if s >= g.cols && s - g.cols <= last {
                _mm512_mask_storeu_epi32(right.add(self.r0 + 1), 1 << (s - g.cols), self.h);
            }
        }
        if s >= last && s - last <= g.cols {
            self.store_bottom::<FORWARD>(s, dst);
        }
    }
}

/// One band alone, reading its top row from `src` and writing its bottom
/// row to `dst`.
///
/// # Safety
///
/// As for [`Band::edge_step`].
#[target_feature(enable = "avx512f")]
unsafe fn band_single(band: &mut Band, g: &BandGeom, src: *const i32, dst: *mut i32) {
    let end = g.cols + band.live;
    let start = BAND.min(end);
    let stop = g.cols.max(start);
    for s in 0..start {
        band.edge_step::<false>(g, s, src, dst);
    }
    for s in start..stop {
        band.inner_step::<false>(g, s, src, dst);
    }
    for s in stop..end {
        band.edge_step::<false>(g, s, src, dst);
    }
}

/// Two bands in flight: `lead` (full) reads `row` and writes its bottom
/// row to `mid`; `lag` runs [`BAND`] steps behind, reads `mid` one step
/// after `lead` wrote the entry, and writes its bottom row back into
/// `row` behind `lead`'s reads. The two dependency chains interleave, so
/// neither waits on its own latency.
///
/// # Safety
///
/// As for [`Band::edge_step`] on both bands; `row` and `mid` hold
/// `cols + 1` entries each.
#[target_feature(enable = "avx512f")]
unsafe fn band_pair(lead: &mut Band, lag: &mut Band, g: &BandGeom, row: *mut i32, mid: *mut i32) {
    let end = BAND + g.cols + lag.live;
    // Steady state: `lead` at t in 2·BAND..cols and `lag` at t − BAND,
    // both clear of every edge.
    let start = (2 * BAND).min(end);
    let stop = g.cols.max(start);
    for t in 0..start {
        pair_edge_step(lead, lag, g, t, row, mid);
    }
    for t in start..stop {
        lead.inner_step::<true>(g, t, row, mid);
        lag.inner_step::<false>(g, t - BAND, mid, row);
    }
    for t in stop..end {
        pair_edge_step(lead, lag, g, t, row, mid);
    }
}

/// Step `t` of [`band_pair`] outside its steady state: `lead` at `t`
/// until it has passed column `cols`, `lag` at `t − BAND` once it has
/// started.
///
/// # Safety
///
/// As for [`band_pair`], with `t < BAND + cols + lag.live`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn pair_edge_step(
    lead: &mut Band,
    lag: &mut Band,
    g: &BandGeom,
    t: usize,
    row: *mut i32,
    mid: *mut i32,
) {
    if t < g.cols + BAND {
        lead.edge_step::<true>(g, t, row, mid);
    }
    if t >= BAND {
        lag.edge_step::<false>(g, t - BAND, mid, row);
    }
}

/// [`super::Kernel::fill_last_row_col`]'s anti-diagonal band fill: the
/// rectangle's rows go sixteen to a vector, one row per lane, and each
/// step advances a band one column, so a row's left dependency is one
/// lane shift per step instead of a prefix max. Every kept cell is the
/// scalar recurrence over the same i32 sums, so the edges are
/// bit-identical to the row scan's.
///
/// `row` holds the top row on entry and the bottom row on return; `mid`
/// is scratch of the same length. `brev` is `b`'s codes reversed between
/// sixteen pad entries on each side (`cols + 32` long), `table` holds
/// `S(x, y)` at `x·codes + y` (so `codes² ≤ 32`), and `right`, if given,
/// has its entry 0 set by the caller and rows `1..=rows` filled here.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx512f")`;
/// the dispatch layer does this once at `Kernel` construction.
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn band_fill_avx512(
    a: &[u8],
    brev: &[i32],
    table: &[i32; 32],
    codes: usize,
    left: &[i32],
    gap: i32,
    row: &mut [i32],
    mid: &mut [i32],
    right: Option<&mut [i32]>,
) {
    let rows = a.len();
    let cols = brev.len().saturating_sub(2 * BAND);
    // Release-mode guards: the steps read and write through raw pointers,
    // so a short buffer is UB, not a panic.
    assert!(
        codes * codes <= table.len(),
        "alphabet too large for the table"
    );
    assert_eq!(brev.len(), cols + 2 * BAND, "reversed b length");
    assert_eq!(row.len(), cols + 1, "row length");
    assert_eq!(mid.len(), cols + 1, "mid row length");
    assert_eq!(left.len(), rows + 1, "left column length");
    let right = right.map(|r| {
        assert_eq!(r.len(), rows + 1, "right column length");
        r.as_mut_ptr()
    });
    let g = BandGeom {
        cols,
        brev: brev.as_ptr(),
        left: left.as_ptr(),
        right,
        lo: _mm512_loadu_si512(table.as_ptr() as *const __m512i),
        hi: _mm512_loadu_si512(table.as_ptr().add(BAND) as *const __m512i),
        gapv: _mm512_set1_epi32(gap),
    };
    let (row, mid) = (row.as_mut_ptr(), mid.as_mut_ptr());
    let mut r0 = 0;
    while rows - r0 > BAND {
        let lag_rows = (rows - r0 - BAND).min(BAND);
        let mut lead = Band::band_rows(a, r0, BAND, codes);
        let mut lag = Band::band_rows(a, r0 + BAND, lag_rows, codes);
        band_pair(&mut lead, &mut lag, &g, row, mid);
        r0 += BAND + lag_rows;
    }
    if r0 < rows {
        // A band alone writes to `mid` and copies back: storing into the
        // row it reads, a band of 8 rows or fewer puts each one-lane
        // store's 64-byte window over its next load, which blocks store
        // forwarding.
        band_single(&mut Band::band_rows(a, r0, rows - r0, codes), &g, row, mid);
        std::ptr::copy_nonoverlapping(mid, row, cols + 1);
    }
}

/// Rows per byte band: one row per byte lane of a 512-bit vector.
pub(super) const BYTE_BAND: usize = 64;

/// Bytes of pad on each side of the byte band's reversed `b`, and at the
/// end of each hand-off row: a step's 64-byte loads reach up to 63 bytes
/// past the cells they serve.
pub(super) const BYTE_PAD: usize = 64;

/// Bytes of each of the byte band's three scratch rows for `cols`
/// columns: the reversed `b` and the two hand-off rows.
pub(super) fn byte_row_len(cols: usize) -> usize {
    cols + 2 * BYTE_PAD
}

/// How a byte step looks up its 64 table entries `max(S(a_i, b_j) − 2g, 0)`:
/// lane `l` reads byte `arow[l] + cols[l]` of the table its row letter
/// lies in, with `arow` its row letter's offset in that table.
trait Lookup {
    /// What a band keeps of its row letters besides `arow`.
    type Lanes: Copy;

    /// The [`Lookup::Lanes`] of a band whose row codes are `codes`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F/BW (guaranteed by the caller's own
    /// `target_feature`).
    unsafe fn lanes(&self, codes: __m512i) -> Self::Lanes;

    /// The step's 64 entries, given the band's `arow` and `lanes` and the
    /// step's column codes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F/BW/VBMI (guaranteed by the caller's own
    /// `target_feature`).
    unsafe fn scores(&self, arow: __m512i, lanes: &Self::Lanes, cols: __m512i) -> __m512i;
}

/// An alphabet of `|Σ|² ≤ 64` entries (DNA): one 64-byte table, the
/// entry of `(x, y)` at byte `x·|Σ| + y`, one `vpermb` a step. (A
/// two-register `vpermi2b` here measured ×0.95 on DNA.)
struct OneTable(__m512i);

impl Lookup for OneTable {
    type Lanes = ();

    /// # Safety
    ///
    /// As for [`Lookup::lanes`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn lanes(&self, _codes: __m512i) {}

    /// # Safety
    ///
    /// As for [`Lookup::scores`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn scores(&self, arow: __m512i, _lanes: &(), cols: __m512i) -> __m512i {
        _mm512_permutexvar_epi8(_mm512_add_epi8(arow, cols), self.0)
    }
}

/// A larger alphabet: `G` two-register (128-byte) tables of
/// `R = ⌊128/|Σ|⌋` row letters each, the entry of `(x, y)` at byte
/// `(x mod R)·|Σ| + y ≤ 127` of table `⌊x/R⌋`. A step chains one
/// merge-masked `vpermi2b` per table, and each lane takes only its own
/// table's entry: a lane outside table `t`'s lanes keeps what it holds,
/// its index before its own table's turn and its entry after, so each
/// lane is looked up exactly once.
struct Tables<const G: usize> {
    /// Bytes 0–63 and 64–127 of each table.
    lo: [__m512i; G],
    hi: [__m512i; G],
    /// `R`.
    per_table: usize,
}

impl<const G: usize> Tables<G> {
    /// The first `G` of `bs`'s tables (`G ≤ MAX_BYTE_TABLES`).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (guaranteed by the caller's own
    /// `target_feature`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(bs: &ByteScheme) -> Self {
        let (mut lo, mut hi) = ([_mm512_setzero_si512(); G], [_mm512_setzero_si512(); G]);
        let tables = bs.tables.chunks_exact(BYTE_TABLE);
        for ((lo, hi), table) in lo.iter_mut().zip(&mut hi).zip(tables) {
            let (low, high) = table.split_at(BYTE_BAND);
            *lo = _mm512_loadu_si512(low.as_ptr() as *const __m512i);
            *hi = _mm512_loadu_si512(high.as_ptr() as *const __m512i);
        }
        Tables {
            lo,
            hi,
            per_table: bs.per_table,
        }
    }
}

impl<const G: usize> Lookup for Tables<G> {
    /// The lanes whose row letter lies in each table.
    type Lanes = [__mmask64; G];

    /// # Safety
    ///
    /// As for [`Lookup::lanes`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn lanes(&self, codes: __m512i) -> [__mmask64; G] {
        let (mut lanes, mut below) = ([0; G], 0);
        for (t, in_table) in lanes.iter_mut().enumerate() {
            // Fits a byte: `Tables` serves only `|Σ| ≥ 9`, so
            // `(t + 1)·R ≤ 5·14`.
            let end = _mm512_set1_epi8(((t + 1) * self.per_table) as i8);
            let upto = _mm512_cmplt_epu8_mask(codes, end);
            *in_table = upto & !below;
            below = upto;
        }
        lanes
    }

    /// # Safety
    ///
    /// As for [`Lookup::scores`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn scores(&self, arow: __m512i, lanes: &[__mmask64; G], cols: __m512i) -> __m512i {
        let mut s = _mm512_add_epi8(arow, cols);
        for ((&lo, &hi), &in_table) in self.lo.iter().zip(&self.hi).zip(lanes) {
            s = _mm512_mask2_permutex2var_epi8(lo, s, in_table, hi);
        }
        s
    }
}

/// The operands every step of [`byte_band_fill_avx512`] shares.
struct ByteGeom<L> {
    cols: usize,
    /// `b`'s codes reversed between [`BYTE_PAD`] pad bytes on each side:
    /// `brev[cols + BYTE_PAD − 1 − s + l]` is `b[s − l]`, so one unaligned
    /// load gives step `s` its 64 column codes.
    brev: *const u8,
    /// The score tables.
    lookup: L,
    /// `|Σ|` in every byte, and at byte `x` row letter `x`'s offset in its
    /// table, `(x mod R)·|Σ|` (`x·|Σ|` for [`OneTable`]).
    codes: __m512i,
    row_base: __m512i,
    /// `vpermt2b` indices that shift a band's `q` one lane up and fill
    /// lane 0 from lane 0 (`from_row`) or lane 63 (`from_band`) of the
    /// second operand.
    from_row: __m512i,
    from_band: __m512i,
    /// The traceback code words of a coding fill, [`code_steps`] word
    /// pairs per band (null otherwise): band `k`'s pair for step `s` at
    /// `2·(k·code_steps + s)`.
    words: *mut u64,
}

/// Steps a byte band takes over `cols` columns at most: `cols + 63`, so
/// lane 63 reaches column `cols`.
fn code_steps(cols: usize) -> usize {
    cols + BYTE_BAND - 1
}

/// Sixteen left-column differences as bytes, `at[l + 1] − at[l] − gap`
/// for the lanes set in `live`; the rest read no memory.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the caller's own `target_feature`);
/// `at[0..=l + 1]` is readable for every lane `l` set in `live`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn left_steps(at: *const i32, live: __mmask16, gapv: __m512i) -> __m128i {
    let hi = _mm512_maskz_loadu_epi32(live, at.wrapping_add(1));
    let lo = _mm512_maskz_loadu_epi32(live, at);
    // In range by admission, so the wrapping differences are exact.
    _mm512_cvtepi32_epi8(_mm512_sub_epi32(_mm512_sub_epi32(hi, lo), gapv))
}

/// One byte band in flight. Lane `l` holds row `r0 + 1 + l`; step `s`
/// computes cell `(r0 + 1 + l, s + 1 − l)` in lane `l`.
///
/// The band keeps score differences, not scores, shifted by `−g` so that
/// they are never negative: `p = u − g` with `u(i,j) = H(i,j) − H(i−1,j)`,
/// and `q = v − g` with `v(i,j) = H(i,j) − H(i,j−1)`. Both lie in
/// `[0, smax − 2g]` (see [`ByteBand::byte_step`]).
struct ByteBand<L: Lookup> {
    /// Rows the band covers, `1..=64`. Lanes from `live` up lie below the
    /// rectangle: they feed only higher lanes and are never stored.
    live: usize,
    /// The band's traceback code words, two per step (see
    /// [`ByteBand::byte_step`]); only a coding sweep writes them.
    words: *mut u64,
    /// `(a[r0 + l] mod R)·|Σ|` per lane, the row half of each
    /// score-table index.
    arow: __m512i,
    /// What the lookup keeps of the band's row letters.
    lanes: L::Lanes,
    /// `p` of each lane's last cell; before a lane's first cell, its
    /// left-column difference `u(i, 0) − g`.
    p: __m512i,
    /// `q` of each lane's last cell.
    q: __m512i,
    /// `p` at column `cols`, lane `l` at byte `l`.
    right: [u8; BYTE_BAND],
}

impl<L: Lookup> ByteBand<L> {
    /// The band over rows `r0 + 1 ..= r0 + live`, its left-column
    /// differences read from `left`. Panics on a residue code outside
    /// the score table, as the profile rows do. Lanes from `live` up
    /// load code 0, so they read the first table.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F/BW/VBMI (guaranteed by the caller's own
    /// `target_feature`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn byte_rows(
        g: &ByteGeom<L>,
        a: &[u8],
        left: &[i32],
        r0: usize,
        live: usize,
        gap: i32,
    ) -> Self {
        // Band `r0 / 64` of the rectangle: sweeps start every 256 rows.
        let words = g
            .words
            .wrapping_add(2 * (r0 / BYTE_BAND) * code_steps(g.cols));
        // Release-mode guard: the masked loads below read through raw
        // pointers.
        assert!(
            (1..=BYTE_BAND).contains(&live) && r0 + live <= a.len() && r0 + live < left.len(),
            "band rows outside the rectangle"
        );
        let lanes: __mmask64 = u64::MAX >> (BYTE_BAND - live);
        let codes = _mm512_maskz_loadu_epi8(lanes, a.as_ptr().add(r0) as *const i8);
        assert!(
            _mm512_cmpge_epu8_mask(codes, g.codes) == 0,
            "residue code outside the alphabet"
        );
        let (at, gapv) = (left.as_ptr().wrapping_add(r0), _mm512_set1_epi32(gap));
        let p0 = left_steps(at, lanes as __mmask16, gapv);
        let p1 = left_steps(at.wrapping_add(16), (lanes >> 16) as __mmask16, gapv);
        let p2 = left_steps(at.wrapping_add(32), (lanes >> 32) as __mmask16, gapv);
        let p3 = left_steps(at.wrapping_add(48), (lanes >> 48) as __mmask16, gapv);
        let p = _mm512_inserti32x4::<1>(_mm512_castsi128_si512(p0), p1);
        let p = _mm512_inserti32x4::<3>(_mm512_inserti32x4::<2>(p, p2), p3);
        ByteBand {
            live,
            words,
            arow: _mm512_permutexvar_epi8(codes, g.row_base),
            lanes: g.lookup.lanes(codes),
            p,
            q: _mm512_setzero_si512(),
            right: [0; BYTE_BAND],
        }
    }

    /// Step `s` of the difference recurrence, given in `above` the `q`
    /// that lane 0 takes (through `idx`): returns the new `p` and keeps
    /// the new `q`. With `z = H(i,j) − H(i−1,j−1)`,
    ///
    /// ```text
    /// z = max(S(a_i, b_j), v(i−1,j) + g, u(i,j−1) + g)
    /// u(i,j) = z − v(i−1,j)      v(i,j) = z − u(i,j−1)
    /// ```
    ///
    /// and with `y = z − 2g`, `p = u − g`, `q = v − g` that is
    /// `y = max(S − 2g, q(i−1,j), p(i,j−1))`, `p = y − q(i−1,j)`,
    /// `q = y − p(i,j−1)`: two maxes and two subtractions. When every
    /// boundary difference lies in `[g, smax − g]`, so does every
    /// interior one (`z ≥ v + g` gives `u ≥ g`, and `z ≤ smax` gives
    /// `u ≤ smax − v ≤ smax − g`), so `p`, `q` and `y` lie in
    /// `[0, smax − 2g]` and the unsigned byte arithmetic is exact. A table
    /// entry below 0 is stored as 0, which changes no `y`.
    ///
    /// With `CODES` the step also stores its two traceback words at
    /// `words[2s]` and `words[2s + 1]`: lane `l` of the first is set when
    /// `y == S − 2g` (the cell equals its diagonal plus `S`: Diag), of
    /// the second when the new `p` is 0 (`u = g`: Up). That is
    /// [`crate::traceback::trace_from`]'s Diag ≻ Up ≻ Left over the same
    /// exact comparisons, provided no table entry was clamped at 0: a
    /// clamped entry would read `y == 0` as a Diag tie.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F/BW/VBMI, and `s ≤ cols + BYTE_PAD − 1` so the
    /// code load stays inside `brev`; with `CODES`, `words[..2s + 2]` is
    /// writable.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn byte_step<const CODES: bool>(
        &mut self,
        g: &ByteGeom<L>,
        s: usize,
        idx: __m512i,
        above: __m512i,
    ) -> __m512i {
        let up = _mm512_permutex2var_epi8(self.q, idx, above);
        let codes = _mm512_loadu_si512(g.brev.add(g.cols + BYTE_PAD - 1 - s) as *const __m512i);
        let sub = g.lookup.scores(self.arow, &self.lanes, codes);
        let y = _mm512_max_epu8(up, _mm512_max_epu8(sub, self.p));
        let p = _mm512_sub_epi8(y, up);
        self.q = _mm512_sub_epi8(y, self.p);
        if CODES {
            let at = self.words.add(2 * s);
            at.write_unaligned(_mm512_cmpeq_epi8_mask(y, sub));
            at.add(1).write_unaligned(_mm512_testn_epi8_mask(p, p));
        }
        p
    }

    /// Stores lane `live − 1` of `q`, the band's bottom row at column
    /// `s + 2 − live`, into `dst[s + 1 − live]`. The masked store's vector
    /// base sits `live − 1` bytes before that entry, possibly before
    /// `dst` itself, but the mask touches only the entry.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F/BW; `live − 1 ≤ s ≤ cols + live − 2`, and `dst`
    /// holds `cols` bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn byte_store_bottom(&self, s: usize, dst: *mut u8) {
        let last = self.live - 1;
        let base = dst.wrapping_add(s + 1 - self.live).wrapping_sub(last);
        _mm512_mask_storeu_epi8(base as *mut i8, 1 << last, self.q);
    }

    /// Step `s` with its edge work: lanes that have not reached column 1
    /// keep their left-column difference, the lane at column `cols`
    /// goes to `right`, and (for the bottom band) the bottom lane goes to
    /// `dst` once it has reached column 1.
    ///
    /// # Safety
    ///
    /// As for [`ByteBand::byte_step`] and [`ByteBand::byte_store_bottom`], with
    /// `s ≤ cols + live − 2`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn byte_edge_step<const BOTTOM: bool, const CODES: bool>(
        &mut self,
        g: &ByteGeom<L>,
        s: usize,
        idx: __m512i,
        above: __m512i,
        dst: *mut u8,
    ) {
        let p = self.byte_step::<CODES>(g, s, idx, above);
        self.p = if s + 1 < self.live {
            _mm512_mask_mov_epi8(self.p, (2u64 << s) - 1, p)
        } else {
            p
        };
        if s + 1 >= g.cols && s + 1 - g.cols < self.live {
            _mm512_mask_storeu_epi8(self.right.as_mut_ptr() as *mut i8, 1 << (s + 1 - g.cols), p);
        }
        if BOTTOM && s + 1 >= self.live {
            self.byte_store_bottom(s, dst);
        }
    }
}

/// `N` byte bands stacked into one sweep of `64·(N − 1) + live` rows:
/// band 0 reads the top row's differences from `src`, each later band
/// runs 64 steps behind the one above and takes its lane 0 from that
/// band's lane 63 of the step before, and the last band writes its bottom
/// row's differences to `dst`. The bands' chains interleave, so none
/// waits on its own latency. With `CODES` every step also stores its
/// traceback words ([`ByteBand::byte_step`]).
///
/// # Safety
///
/// As for [`ByteBand::byte_edge_step`] on every band; `src` holds
/// [`byte_row_len`] bytes, `dst` at least `cols`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn byte_sweep<const N: usize, L: Lookup, const CODES: bool>(
    bands: &mut [ByteBand<L>; N],
    g: &ByteGeom<L>,
    src: *const u8,
    dst: *mut u8,
) {
    let lag = BYTE_BAND * (N - 1);
    let end = lag + g.cols + bands[N - 1].live - 1;
    // Steady state: every lane past column 0 and short of column `cols`.
    let start = (lag + bands[N - 1].live - 1).min(end);
    let stop = (g.cols - 1).max(start);
    for t in 0..start {
        byte_edge_steps::<N, L, CODES>(bands, g, t, src, dst);
    }
    for t in start..stop {
        // Bottom band first: each band reads the `q` the band above left
        // at the previous step.
        for k in (0..N).rev() {
            let s = t - BYTE_BAND * k;
            let (idx, above) = byte_above(bands, k, g, src, s);
            bands[k].p = bands[k].byte_step::<CODES>(g, s, idx, above);
        }
        bands[N - 1].byte_store_bottom(t - lag, dst);
    }
    for t in stop..end {
        byte_edge_steps::<N, L, CODES>(bands, g, t, src, dst);
    }
}

/// The `vpermt2b` index and second operand that feed lane 0 of band `k`
/// at its step `s`: the top row's difference from `src` for band 0, the
/// band above's lane 63 (still at its previous step) otherwise.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the caller's own `target_feature`);
/// `src` holds [`byte_row_len`] bytes and `s ≤ cols + BYTE_PAD − 1`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn byte_above<const N: usize, L: Lookup>(
    bands: &[ByteBand<L>; N],
    k: usize,
    g: &ByteGeom<L>,
    src: *const u8,
    s: usize,
) -> (__m512i, __m512i) {
    if k == 0 {
        (g.from_row, _mm512_loadu_si512(src.add(s) as *const __m512i))
    } else {
        (g.from_band, bands[k - 1].q)
    }
}

/// Step `t` of [`byte_sweep`] outside its steady state: each band that
/// has started and not yet passed column `cols` takes an edge step.
///
/// # Safety
///
/// As for [`byte_sweep`].
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn byte_edge_steps<const N: usize, L: Lookup, const CODES: bool>(
    bands: &mut [ByteBand<L>; N],
    g: &ByteGeom<L>,
    t: usize,
    src: *const u8,
    dst: *mut u8,
) {
    for k in (0..N).rev() {
        let Some(s) = t.checked_sub(BYTE_BAND * k) else {
            continue;
        };
        if s + 1 >= g.cols + bands[k].live {
            continue;
        }
        let (idx, above) = byte_above(bands, k, g, src, s);
        if k == N - 1 {
            bands[k].byte_edge_step::<true, CODES>(g, s, idx, above, dst);
        } else {
            bands[k].byte_edge_step::<false, CODES>(g, s, idx, above, dst);
        }
    }
}

/// Adds `base` to the running sum of `diff[j] + gap` over `diff`'s first
/// `out.len()` bytes, writing each partial sum to `out`: the `i32` edge
/// the byte band's differences stand for. Sixteen sums per vector: a
/// log-step inclusive scan (each shift carries toward higher lanes,
/// filling with 0, as in [`prefix_max_avx512`]) plus the running carry.
///
/// # Safety
///
/// Requires AVX-512F/BW (guaranteed by the caller's own `target_feature`).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn prefix_sums(diff: &[u8], gap: i32, base: i32, out: &mut [i32]) {
    let n = out.len();
    assert!(diff.len() >= n, "differences shorter than the edge");
    let (gapv, zero) = (_mm512_set1_epi32(gap), _mm512_setzero_si512());
    let mut carry = _mm512_set1_epi32(base);
    let mut j = 0;
    while j + 16 <= n {
        let d = _mm512_cvtepu8_epi32(_mm_loadu_si128(diff.as_ptr().add(j) as *const __m128i));
        let mut x = _mm512_add_epi32(d, gapv);
        x = _mm512_add_epi32(x, _mm512_alignr_epi32::<15>(x, zero));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32::<14>(x, zero));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32::<12>(x, zero));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32::<8>(x, zero));
        x = _mm512_add_epi32(x, carry);
        _mm512_storeu_si512(out.as_mut_ptr().add(j) as *mut __m512i, x);
        carry = _mm512_permutexvar_epi32(_mm512_set1_epi32(15), x);
        j += 16;
    }
    let mut h = _mm_cvtsi128_si32(_mm512_castsi512_si128(carry));
    for (slot, &d) in out[j..].iter_mut().zip(&diff[j..]) {
        h += i32::from(d) + gap;
        *slot = h;
    }
}

/// `vpermb` indices that take lane `(l + by) mod 64` into lane `l`.
const fn lane_indices(by: usize, backwards: bool) -> [u8; BYTE_BAND] {
    let mut idx = [0u8; BYTE_BAND];
    let mut l = 0;
    while l < BYTE_BAND {
        let from = if backwards { BYTE_BAND - 1 - l } else { l };
        idx[l] = ((from + by) % BYTE_BAND) as u8;
        l += 1;
    }
    idx
}

/// Lane `l − 1` into lane `l` (lane 0 takes lane 63, which the byte
/// band's lane-0 fill then replaces).
const SHIFT_UP: [u8; BYTE_BAND] = lane_indices(BYTE_BAND - 1, false);

/// Lane `63 − l` into lane `l`.
const BACKWARDS: [u8; BYTE_BAND] = lane_indices(0, true);

/// Writes `b` reversed into `out` (`out[k]` is `b[len − 1 − k]`), 64
/// codes a vector, and panics on a code outside the alphabet (`codes` in
/// every byte of `codes_v`), as the profile rows do.
///
/// # Safety
///
/// Requires AVX-512F/BW/VBMI (guaranteed by the caller's own
/// `target_feature`).
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn reverse_codes(b: &[u8], codes_v: __m512i, out: &mut [u8]) {
    let n = b.len();
    assert_eq!(out.len(), n, "reversed codes length");
    let backwards = _mm512_loadu_si512(BACKWARDS.as_ptr() as *const __m512i);
    let mut bad: __mmask64 = 0;
    let mut j = 0;
    while j < n {
        // Codes j..j + live go to out[n − j − live..n − j], reversed; the
        // masks touch only those bytes.
        let live = (n - j).min(BYTE_BAND);
        let lanes: __mmask64 = u64::MAX >> (BYTE_BAND - live);
        let v = _mm512_maskz_loadu_epi8(lanes, b.as_ptr().add(j) as *const i8);
        bad |= _mm512_cmpge_epu8_mask(v, codes_v);
        let rev = _mm512_permutexvar_epi8(backwards, v);
        let base = out.as_mut_ptr().wrapping_add(n - j).wrapping_sub(BYTE_BAND);
        _mm512_mask_storeu_epi8(base as *mut i8, u64::MAX << (BYTE_BAND - live), rev);
        j += live;
    }
    assert!(bad == 0, "residue code outside the alphabet");
}

/// Sweeps the rows `r0 + 1 ..= r0 + here`, `64·(N − 1) < here ≤ 64·N`,
/// as `N` bands in flight ([`byte_sweep`]), reading the top row's
/// differences from `src` and writing the bottom row's to `dst`, then
/// writes the rows' entries of `right` as prefix sums from `right[r0]`.
///
/// # Safety
///
/// As for [`byte_sweep`]; `r0 + here` rows lie inside `a` and `left`.
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn byte_sweep_rows<const N: usize, L: Lookup, const CODES: bool>(
    g: &ByteGeom<L>,
    a: &[u8],
    left: &[i32],
    gap: i32,
    (r0, here): (usize, usize),
    src: *const u8,
    dst: *mut u8,
    right: Option<&mut [i32]>,
) {
    let mut bands: [ByteBand<L>; N] = std::array::from_fn(|k| {
        let first = k * BYTE_BAND;
        // SAFETY: this fn's caller proved the CPU features `byte_rows`
        // needs, and `byte_rows` checks the rows it reads.
        unsafe { ByteBand::byte_rows(g, a, left, r0 + first, (here - first).min(BYTE_BAND), gap) }
    });
    byte_sweep::<N, L, CODES>(&mut bands, g, src, dst);
    if let Some(r) = right {
        let mut at = r0;
        for band in &bands {
            let base = r[at];
            prefix_sums(
                &band.right[..band.live],
                gap,
                base,
                &mut r[at + 1..=at + band.live],
            );
            at += band.live;
        }
    }
}

/// Bands one sweep runs in flight, at most. Against two, four ran
/// ×1.15–1.21 on depth-0 grid-fill shapes (1,500² to 10,000×2,000) and
/// level on depth-1 shapes (190²–375²); see DESIGN.md §11 "Byte band".
const MAX_BANDS: usize = 4;

/// The byte band: the rectangle's rows go 64 to a vector, one row per
/// byte lane, as score differences ([`ByteBand`]) that fit a byte
/// wherever the caller has admitted the scheme and the boundary. Up to
/// [`MAX_BANDS`] bands run in flight; between sweeps, the bottom row's
/// differences pass to the next sweep through two byte rows used in
/// turn, so no sweep's loads wait on its own stores.
///
/// For [`ByteOut::Edges`] ([`super::Kernel::fill_last_row_col`]) the
/// bottom row and the right column come back as exact `i32` prefix sums
/// of the differences, each partial sum a real `H`. For
/// [`ByteOut::Codes`] (a base case) the same sweeps store every step's
/// traceback words instead ([`ByteBand::byte_step`]).
///
/// `bs` holds the scheme's score tables. An alphabet of `|Σ|² ≤ 64`
/// entries (DNA) looks up one table with one `vpermb` ([`OneTable`]); a
/// larger one chains as many two-register tables as hold a row letter of
/// `a`, rounded up to four or all five ([`Tables`]), so a protein of the
/// twenty standard letters (`R = 5`) never reads the fifth, which holds
/// `B`, `Z`, `X` and `*`. `scratch` is viewed as bytes: three rows of
/// [`byte_row_len`] bytes, the reversed `b` and the two hand-off rows.
/// The right column, if given, has its entry 0 set by the caller and
/// rows `1..=rows` filled here.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!` for
/// `avx512f`, `avx512bw` and `avx512vbmi`, and that every difference of
/// `top` and of `left` lies in `[gap, smax − gap]` with the scheme's
/// largest score `smax`, and `smax − 2·gap ≤ 255`: outside that domain
/// the edges are wrong, though memory stays safe. Codes are right only
/// where, in addition, no table entry was clamped at 0.
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(super) unsafe fn byte_band_fill_avx512(
    a: &[u8],
    b: &[u8],
    bs: &ByteScheme,
    top: &[i32],
    left: &[i32],
    gap: i32,
    scratch: &mut [i32],
    out: ByteOut<'_>,
) {
    if bs.codes * bs.codes <= BYTE_BAND {
        let lookup = OneTable(_mm512_loadu_si512(bs.tables.as_ptr() as *const __m512i));
        return byte_band_run(a, b, bs, lookup, top, left, gap, scratch, out);
    }
    // Tables holding a row letter; a code past the alphabet counts too,
    // and `ByteBand::byte_rows` then refuses it.
    let used = usize::from(a.iter().copied().max().unwrap_or(0)) / bs.per_table + 1;
    if used <= 4 {
        let lookup = Tables::<4>::load(bs);
        byte_band_run(a, b, bs, lookup, top, left, gap, scratch, out)
    } else {
        let lookup = Tables::<MAX_BYTE_TABLES>::load(bs);
        byte_band_run(a, b, bs, lookup, top, left, gap, scratch, out)
    }
}

/// [`byte_band_fill_avx512`] on the score lookup `lookup`.
///
/// # Safety
///
/// As for [`byte_band_fill_avx512`]; `lookup` holds `bs`'s tables, and
/// every code of `a` in the alphabet lies in one of them.
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn byte_band_run<L: Lookup>(
    a: &[u8],
    b: &[u8],
    bs: &ByteScheme,
    lookup: L,
    top: &[i32],
    left: &[i32],
    gap: i32,
    scratch: &mut [i32],
    mut out: ByteOut<'_>,
) {
    let (rows, cols) = (a.len(), b.len());
    let row_len = byte_row_len(cols);
    // Release-mode guards: the steps read and write through raw pointers,
    // so a short buffer is UB, not a panic.
    assert!(rows >= 1 && cols >= 1, "empty rectangle");
    assert_eq!(top.len(), cols + 1, "top row length");
    assert_eq!(left.len(), rows + 1, "left column length");
    assert!(4 * scratch.len() >= 3 * row_len, "scratch length");
    match &out {
        ByteOut::Edges(bottom, right) => {
            assert_eq!(bottom.len(), cols + 1, "out_bottom length");
            if let Some(r) = right {
                assert_eq!(r.len(), rows + 1, "right column length");
            }
        }
        ByteOut::Codes(words) => assert!(
            words.len() >= TraceCodes::storage_len(rows, cols),
            "traceback code length"
        ),
    }
    // SAFETY: an `i32` buffer's bytes are initialized, and `u8` has no
    // alignment or validity requirement.
    let bytes = std::slice::from_raw_parts_mut(scratch.as_mut_ptr() as *mut u8, 4 * scratch.len());
    let (brev, rest) = bytes.split_at_mut(row_len);
    let (src, dst) = rest.split_at_mut(row_len);
    let codes = bs.codes;
    let codes_v = _mm512_set1_epi8(codes as i8);
    reverse_codes(b, codes_v, &mut brev[BYTE_PAD..BYTE_PAD + cols]);
    for ((slot, &hi), &lo) in src.iter_mut().zip(&top[1..]).zip(top) {
        // In range by admission, so the wrapping sums are exact.
        *slot = hi.wrapping_sub(lo).wrapping_sub(gap) as u8;
    }
    let mut row_base = [0u8; BYTE_BAND];
    for (x, slot) in row_base.iter_mut().enumerate().take(codes) {
        *slot = (x % bs.per_table * codes) as u8;
    }
    let shift = _mm512_loadu_si512(SHIFT_UP.as_ptr() as *const __m512i);
    let words = match &mut out {
        ByteOut::Edges(..) => std::ptr::null_mut(),
        ByteOut::Codes(words) => words.as_mut_ptr().cast::<u64>(),
    };
    let g = ByteGeom {
        cols,
        brev: brev.as_ptr(),
        lookup,
        codes: codes_v,
        row_base: _mm512_loadu_si512(row_base.as_ptr() as *const __m512i),
        from_row: _mm512_mask_mov_epi8(shift, 1, _mm512_set1_epi8(64)),
        from_band: _mm512_mask_mov_epi8(shift, 1, _mm512_set1_epi8(127)),
        words,
    };
    match out {
        ByteOut::Edges(bottom, right) => {
            let last = byte_sweeps::<L, false>(&g, a, left, gap, [src, dst], right);
            bottom[0] = left[rows];
            prefix_sums(last, gap, left[rows], &mut bottom[1..]);
        }
        ByteOut::Codes(_) => {
            byte_sweeps::<L, true>(&g, a, left, gap, [src, dst], None);
        }
    }
}

/// Sweeps every row of the rectangle, up to [`MAX_BANDS`] bands at a
/// time ([`byte_sweep_rows`]). The first sweep reads the top row's
/// differences from `src`, and each sweep's bottom-row differences pass
/// to the next through `dst` and `src` in turn. Returns the one holding
/// the last sweep's.
///
/// # Safety
///
/// As for [`byte_sweep_rows`] over the whole rectangle; `src` and `dst`
/// hold [`byte_row_len`] bytes.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn byte_sweeps<'r, L: Lookup, const CODES: bool>(
    g: &ByteGeom<L>,
    a: &[u8],
    left: &[i32],
    gap: i32,
    [mut src, mut dst]: [&'r mut [u8]; 2],
    mut right: Option<&mut [i32]>,
) -> &'r [u8] {
    let mut r0 = 0;
    while r0 < a.len() {
        let here = (a.len() - r0).min(MAX_BANDS * BYTE_BAND);
        let (s, d, r) = (src.as_ptr(), dst.as_mut_ptr(), right.as_deref_mut());
        match here.div_ceil(BYTE_BAND) {
            1 => byte_sweep_rows::<1, L, CODES>(g, a, left, gap, (r0, here), s, d, r),
            2 => byte_sweep_rows::<2, L, CODES>(g, a, left, gap, (r0, here), s, d, r),
            3 => byte_sweep_rows::<3, L, CODES>(g, a, left, gap, (r0, here), s, d, r),
            _ => byte_sweep_rows::<MAX_BANDS, L, CODES>(g, a, left, gap, (r0, here), s, d, r),
        }
        r0 += here;
        std::mem::swap(&mut src, &mut dst);
    }
    src
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
