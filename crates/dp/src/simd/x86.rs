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
