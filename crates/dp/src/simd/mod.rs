//! Vectorized DP kernels: backend selection and dispatch.
//!
//! The scalar kernels in [`crate::kernel`] walk the recurrence
//!
//! ```text
//! H(i,j) = max( H(i-1,j-1) + S(a[i-1], b[j-1]),
//!               H(i-1,j)   + gap,
//!               H(i,j-1)   + gap )
//! ```
//!
//! one cell at a time. The `H(i,j-1) + gap` term carries a dependency
//! along the row — the same dependency the classic anti-diagonal
//! transformation removes by sweeping diagonals. This module removes it
//! algebraically instead, which keeps the memory accesses row-major and
//! unit-stride (the anti-diagonal layout scatters them):
//!
//! 1. **Pass A** (vertically independent, trivially vectorizable):
//!    `t[j] = max(H(i-1,j-1) + S(a_i, b_j), H(i-1,j) + gap)`.
//! 2. **Pass B** (prefix scan): with the gap ramp `r[j] = j·gap` define
//!    `u[j] = t[j] − r[j]`. Then `H(i,j) = r[j] + max(u[0..=j])` where
//!    `u[0]` is the left boundary — a plain inclusive prefix maximum,
//!    computed in `log₂(width)` shift-and-max steps per vector block.
//!
//! The identity is exact over the integers (max-plus algebra has no
//! rounding), so **every backend produces bit-identical scores, cell
//! counts, and tracebacks** — the property the differential suite in
//! `tests/kernel_equivalence.rs` enforces. Ties need no special care:
//! equal scores are equal bit patterns, and both score-based traceback
//! and the direction derivation in [`Kernel::fill_dir`] apply the shared
//! Diag ≻ Up ≻ Left precedence *after* the max, not during it.
//!
//! Affine (Gotoh) rows take the same two passes with a third state: `F`
//! joins pass A, and the horizontal state `E` becomes an *exclusive*
//! prefix max (see `affine_row_portable`). AVX-512 and AVX2 run them for
//! [`Kernel::fill_affine_edges_in`] and
//! [`Kernel::fill_affine_full_reusing`].
//!
//! Backends:
//!
//! * [`KernelBackend::Scalar`] — the reference kernels, always available
//!   and the fallback on every non-x86-64 target;
//! * [`KernelBackend::Sse41`] / [`KernelBackend::Avx2`] /
//!   [`KernelBackend::Avx512`] — explicit `core::arch` kernels, admitted
//!   only after `is_x86_feature_detected!` (rule R6 pins their
//!   `#[target_feature]` functions to this module).
//!
//! (An earlier "portable lanes" backend — `[i32; 8]` blocks left to the
//! autovectorizer — measured at 0.2–0.3× *scalar* on x86-64 and was
//! removed; see BENCH_kernels.json history.)
//!
//! Scoring goes through a [`QueryProfile`] (contiguous per-residue score
//! rows) and scratch comes from a shared [`KernelArena`], so steady-state
//! block fills perform no allocation at all. The intra-sequence kernels
//! here speed up one pair; for many small independent pairs see the
//! inter-sequence [`crate::batch::BatchKernel`], whose striped
//! `#[target_feature]` kernels also live in this module's `x86` file.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use std::sync::Arc;

use flsa_scoring::{QueryProfile, ScoringScheme};

use crate::affine::{self, affine_params, AffineBoundary, AffineEdges, AffineMatrices, NEG};
use crate::arena::KernelArena;
use crate::boundary::check_boundary;
use crate::kernel;
use crate::matrix::{Dir, DirMatrix, ScoreMatrix};
use crate::Metrics;

/// Rectangles narrower than this skip the vector path: profile build and
/// prefix-scan setup would dominate. Purely a performance cutoff — both
/// paths produce identical bits.
const MIN_VEC_COLS: usize = 16;

/// Which row-update implementation a [`Kernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The reference scalar kernels in [`crate::kernel`].
    Scalar,
    /// Explicit SSE4.1 intrinsics (x86-64, runtime-detected).
    Sse41,
    /// Explicit AVX2 intrinsics (x86-64, runtime-detected).
    Avx2,
    /// Explicit AVX-512F intrinsics (x86-64, runtime-detected).
    Avx512,
}

impl KernelBackend {
    /// Every backend, in increasing vector width.
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Sse41,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    /// Stable lowercase name (CLI values, trace events, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse41 => "sse4.1",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as accepted by `flsa align --kernel`.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "sse4.1" | "sse41" => Some(KernelBackend::Sse41),
            "avx2" => Some(KernelBackend::Avx2),
            "avx512" | "avx512f" => Some(KernelBackend::Avx512),
            _ => None,
        }
    }

    /// True when this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse41 => is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest backend available on this CPU:
    /// AVX-512 ≻ AVX2 ≻ SSE4.1 ≻ scalar.
    pub fn detect_best() -> KernelBackend {
        if KernelBackend::Avx512.is_available() {
            KernelBackend::Avx512
        } else if KernelBackend::Avx2.is_available() {
            KernelBackend::Avx2
        } else if KernelBackend::Sse41.is_available() {
            KernelBackend::Sse41
        } else {
            KernelBackend::Scalar
        }
    }

    /// Every backend available on this CPU.
    pub fn available() -> Vec<KernelBackend> {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Names of the CPU SIMD features relevant to kernel selection that the
/// current machine reports (empty on non-x86-64 targets). Recorded in
/// bench reports so numbers can be compared across machines.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)] // non-x86 builds return it untouched
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    for (name, present) in [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("sse4.1", is_x86_feature_detected!("sse4.1")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
        ("avx512bw", is_x86_feature_detected!("avx512bw")),
    ] {
        if present {
            out.push(name);
        }
    }
    out
}

/// Portable one-row update in the u-domain formulation: pass A and the
/// prefix max fused into one scalar sweep. Identical results to
/// [`crate::kernel`]'s cell-at-a-time recurrence (the reformulation is
/// exact over the integers) and to every vector kernel in [`x86`].
///
/// Contract: `prev.len() == cur.len() == profile.len() + 1`, and
/// `cur[0]` holds the row's left-boundary value on entry.
fn row_update_portable(prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
    let cols = profile.len();
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    let mut carry = cur[0];
    for j in 1..=cols {
        let diag = prev[j - 1] + profile[j - 1];
        let up = prev[j] + gap;
        let t = if diag > up { diag } else { up };
        let u = t - j as i32 * gap;
        carry = if u > carry { u } else { carry };
        cur[j] = carry + j as i32 * gap;
    }
}

/// The operands of one affine row update: `hp`/`fp` are `H`/`F` of the
/// row above, `h`/`e`/`f` receive the row's `H`/`E`/`F`. All five are
/// `cols + 1` long; on entry `h[0]` and `e[0]` hold the row's left
/// boundary `H` and `E`, and `f[0]` is never touched.
struct AffineRow<'r> {
    hp: &'r [i32],
    fp: &'r [i32],
    h: &'r mut [i32],
    e: &'r mut [i32],
    f: &'r mut [i32],
}

impl AffineRow<'_> {
    /// Checks every row against `cols + 1`. The vector kernels read and
    /// write through raw pointers, so this release-mode guard is what
    /// turns a short row into a panic instead of undefined behaviour.
    fn check(&self, cols: usize) {
        assert_eq!(self.hp.len(), cols + 1, "hp row length");
        assert_eq!(self.fp.len(), cols + 1, "fp row length");
        assert_eq!(self.h.len(), cols + 1, "h row length");
        assert_eq!(self.e.len(), cols + 1, "e row length");
        assert_eq!(self.f.len(), cols + 1, "f row length");
    }

    /// The scan's starting carry: the exclusive prefix before column 1,
    /// `max(left_e, w[0])` with `w[0] = left_h + open`.
    fn first_carry(&self, open: i32) -> i32 {
        self.e[0].max(self.h[0] + open)
    }

    /// Columns `j..=cols` one at a time in the scan form, continuing
    /// from the exclusive carry `carry` (see [`affine_row_portable`]).
    /// The vector kernels finish their rows here.
    fn scalar_cells(
        &mut self,
        mut j: usize,
        mut carry: i32,
        profile: &[i32],
        open: i32,
        extend: i32,
    ) {
        let cols = profile.len();
        self.check(cols);
        while j <= cols {
            let fv = (self.fp[j] + extend).max(self.hp[j] + open + extend);
            let d = (self.hp[j - 1] + profile[j - 1]).max(fv);
            let ev = carry + j as i32 * extend;
            self.h[j] = d.max(ev);
            self.e[j] = ev;
            self.f[j] = fv;
            carry = carry.max(d + open - j as i32 * extend);
            j += 1;
        }
    }
}

/// Portable one-row affine (Gotoh) update in the scan form the vector
/// kernels in [`x86`] use. With `D[0] = left_h` and, for `j ≥ 1`,
///
/// ```text
/// F[j] = max(Fp[j] + ext, Hp[j] + open + ext)
/// D[j] = max(Hp[j-1] + S(a_i, b_j), F[j])         // H without its E term
/// E[j] = j·ext + max(left_e, w[0], …, w[j-1])     // w[k] = D[k] + open − k·ext
/// H[j] = max(D[j], E[j])
/// ```
///
/// `E` is an *exclusive* prefix max of `w`, so no cell waits on its left
/// neighbour. Scalar Gotoh builds `E` from `H(i,k) + open` instead of
/// `D[k] + open`; the two agree whenever `open ≤ 0`, because where
/// `H(i,k) = E(i,k) > D(i,k)` its term `E(i,k) + open + (j−k)·ext` is at
/// most `E(i,k) + (j−k)·ext`, which `E(i,j)` already contains. So `H`,
/// `E` and `F` equal [`crate::affine`]'s over the integers.
fn affine_row_portable(mut row: AffineRow<'_>, profile: &[i32], open: i32, extend: i32) {
    let carry = row.first_carry(open);
    row.scalar_cells(1, carry, profile, open, extend);
}

/// A requested backend the current CPU cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedBackend {
    /// The rejected backend.
    pub backend: KernelBackend,
}

impl std::fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel backend `{}` is not supported on this CPU",
            self.backend.name()
        )
    }
}

impl std::error::Error for UnsupportedBackend {}

/// A kernel handle: a backend plus the scratch arena its fills draw from.
///
/// Cheap to clone (the arena is shared through an [`Arc`]) and `Sync`, so
/// parallel tile workers can share one handle. All fill methods mirror
/// the free functions in [`crate::kernel`] and [`crate::affine`] exactly
/// — same signatures (minus the affine edge fill's arena), same panics,
/// same [`Metrics`] cell and call counts, bit-identical output — and
/// file their cells under the backend that ran them:
/// [`Kernel::backend_for`], or scalar for affine fills this backend
/// does not vectorize.
#[derive(Debug, Clone)]
pub struct Kernel {
    backend: KernelBackend,
    arena: Arc<KernelArena>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::scalar()
    }
}

impl Kernel {
    /// A kernel on `backend`, rejecting backends the CPU cannot run.
    pub fn try_new(backend: KernelBackend) -> Result<Kernel, UnsupportedBackend> {
        if !backend.is_available() {
            return Err(UnsupportedBackend { backend });
        }
        Ok(Kernel {
            backend,
            arena: Arc::new(KernelArena::new()),
        })
    }

    /// The widest kernel available on this CPU.
    pub fn auto() -> Kernel {
        Kernel {
            backend: KernelBackend::detect_best(),
            arena: Arc::new(KernelArena::new()),
        }
    }

    /// The reference scalar kernel.
    pub fn scalar() -> Kernel {
        Kernel {
            backend: KernelBackend::Scalar,
            arena: Arc::new(KernelArena::new()),
        }
    }

    /// The active backend.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// The shared scratch arena.
    pub fn arena(&self) -> &Arc<KernelArena> {
        &self.arena
    }

    /// Permanently drops to the scalar backend and frees the arena's
    /// pooled scratch — the memory-pressure escape hatch: the scalar
    /// kernels run entirely in caller-owned buffers.
    pub fn degrade_to_scalar(&mut self) {
        self.backend = KernelBackend::Scalar;
        self.arena.clear();
    }

    /// The backend a fill of a `rows × cols` rectangle runs on: this
    /// kernel's own, or scalar for rectangles below the vector cutoff.
    /// Its fills file their cells under exactly this backend.
    pub fn backend_for(&self, rows: usize, cols: usize) -> KernelBackend {
        if rows >= 1 && cols >= MIN_VEC_COLS {
            self.backend
        } else {
            KernelBackend::Scalar
        }
    }

    /// Dispatches one row update to the active backend.
    #[inline]
    fn row_update(&self, prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
        match self.backend {
            KernelBackend::Scalar => row_update_portable(prev, cur, profile, gap),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse41 => {
                // SAFETY: `try_new` admits Sse41 only after
                // `is_x86_feature_detected!("sse4.1")` returned true.
                unsafe { x86::row_update_sse41(prev, cur, profile, gap) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                // SAFETY: `try_new` admits Avx2 only after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { x86::row_update_avx2(prev, cur, profile, gap) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                // SAFETY: `try_new` admits Avx512 only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                unsafe { x86::row_update_avx512(prev, cur, profile, gap) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Sse41 | KernelBackend::Avx2 | KernelBackend::Avx512 => {
                // `try_new` rejects these off x86-64, so this arm never
                // runs; the portable kernel keeps it correct regardless.
                row_update_portable(prev, cur, profile, gap)
            }
        }
    }

    /// The backend an affine fill of a `rows × cols` rectangle runs on:
    /// this kernel's own when it is AVX-512 or AVX2, the rectangle is at
    /// least [`MIN_VEC_COLS`] wide and `open ≤ 0` (the condition under
    /// which the scan form is exact, see [`affine_row_portable`]);
    /// scalar otherwise. SSE4.1 keeps the scalar fill.
    fn affine_backend_for(&self, rows: usize, cols: usize, open: i32) -> KernelBackend {
        match self.backend_for(rows, cols) {
            b @ (KernelBackend::Avx2 | KernelBackend::Avx512) if open <= 0 => b,
            _ => KernelBackend::Scalar,
        }
    }

    /// Dispatches one affine row update to the active backend.
    #[inline]
    fn affine_row(&self, row: AffineRow<'_>, profile: &[i32], open: i32, extend: i32) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                // SAFETY: `try_new` admits Avx2 only after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { x86::affine_row_avx2(row, profile, open, extend) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                // SAFETY: `try_new` admits Avx512 only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                unsafe { x86::affine_row_avx512(row, profile, open, extend) }
            }
            // Scalar and SSE4.1 kernels fill affine rectangles with the
            // free functions (`affine_backend_for`), so this arm never
            // runs; the portable row keeps it exact regardless.
            _ => affine_row_portable(row, profile, open, extend),
        }
    }

    /// Builds the query profile for `b` in arena-backed storage, sized
    /// exactly so the build never grows the buffer (which would escape the
    /// arena's byte accounting).
    fn take_profile(&self, scheme: &ScoringScheme, b: &[u8]) -> QueryProfile {
        let codes = scheme.matrix().alphabet().len();
        QueryProfile::build_in(scheme.matrix(), b, self.arena.take(codes * b.len()))
    }

    fn put_profile(&self, profile: QueryProfile) {
        self.arena.put(profile.into_storage());
    }

    /// [`crate::kernel::fill_full`] on the active backend.
    pub fn fill_full(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        metrics: &Metrics,
    ) -> ScoreMatrix {
        self.fill_full_reusing(a, b, top, left, scheme, Vec::new(), metrics)
    }

    /// [`crate::kernel::fill_full_reusing`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_full_reusing(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        storage: Vec<i32>,
        metrics: &Metrics,
    ) -> ScoreMatrix {
        let rows = a.len();
        let cols = b.len();
        let backend = self.backend_for(rows, cols);
        if backend == KernelBackend::Scalar {
            return kernel::fill_full_reusing(a, b, top, left, scheme, storage, metrics);
        }
        check_boundary(top, left, rows, cols);
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);
        let mut dpm = ScoreMatrix::from_storage(rows, cols, storage);
        dpm.row_mut(0).copy_from_slice(top);
        for i in 1..=rows {
            let (prev, cur) = dpm.rows_prev_cur(i);
            cur[0] = left[i];
            self.row_update(prev, cur, profile.row(a[i - 1]), gap);
        }
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
        dpm
    }

    /// [`crate::kernel::fill_last_row_col`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_last_row_col(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        out_bottom: &mut [i32],
        mut out_right: Option<&mut [i32]>,
        metrics: &Metrics,
    ) {
        let rows = a.len();
        let cols = b.len();
        let backend = self.backend_for(rows, cols);
        if backend == KernelBackend::Scalar {
            return kernel::fill_last_row_col(
                a, b, top, left, scheme, out_bottom, out_right, metrics,
            );
        }
        check_boundary(top, left, rows, cols);
        assert_eq!(out_bottom.len(), cols + 1, "out_bottom length");
        if let Some(ref r) = out_right {
            assert_eq!(r.len(), rows + 1, "out_right length");
        }
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);
        let mut prev = self.arena.take(cols + 1);
        let mut cur = self.arena.take(cols + 1);
        prev.copy_from_slice(top);
        if let Some(ref mut r) = out_right {
            r[0] = top[cols];
        }
        for i in 1..=rows {
            cur[0] = left[i];
            self.row_update(&prev, &mut cur, profile.row(a[i - 1]), gap);
            if let Some(ref mut r) = out_right {
                r[i] = cur[cols];
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        out_bottom.copy_from_slice(&prev);
        self.arena.put(prev);
        self.arena.put(cur);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
    }

    /// [`crate::kernel::fill_last_row`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_last_row(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        out_bottom: &mut [i32],
        metrics: &Metrics,
    ) {
        self.fill_last_row_col(a, b, top, left, scheme, out_bottom, None, metrics);
    }

    /// [`crate::kernel::fill_dir`] on the active backend. Directions are
    /// derived from the vectorized score rows with the shared Diag ≻ Up ≻
    /// Left precedence, so the packed matrix is byte-identical to the
    /// scalar kernel's.
    pub fn fill_dir(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        metrics: &Metrics,
    ) -> (DirMatrix, Vec<i32>) {
        let rows = a.len();
        let cols = b.len();
        let backend = self.backend_for(rows, cols);
        if backend == KernelBackend::Scalar {
            return kernel::fill_dir(a, b, top, left, scheme, metrics);
        }
        check_boundary(top, left, rows, cols);
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);

        let mut dirs = DirMatrix::new(rows, cols);
        dirs.set(0, 0, Dir::Stop);
        for j in 1..=cols {
            dirs.set(0, j, Dir::Left);
        }
        for i in 1..=rows {
            dirs.set(i, 0, Dir::Up);
        }

        let mut prev = self.arena.take(cols + 1);
        let mut cur = self.arena.take(cols + 1);
        prev.copy_from_slice(top);
        for i in 1..=rows {
            let prow = profile.row(a[i - 1]);
            cur[0] = left[i];
            self.row_update(&prev, &mut cur, prow, gap);
            for j in 1..=cols {
                // `v` is the max of the three terms, so comparing in
                // precedence order reproduces the scalar tie-break exactly.
                let v = cur[j];
                let d = if prev[j - 1] + prow[j - 1] == v {
                    Dir::Diag
                } else if prev[j] + gap == v {
                    Dir::Up
                } else {
                    Dir::Left
                };
                dirs.set(i, j, d);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let row = prev.clone();
        self.arena.put(prev);
        self.arena.put(cur);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
        (dirs, row)
    }

    /// [`crate::affine::fill_affine_edges_in`] on the active backend,
    /// drawing the edge buffers from this kernel's arena: return them
    /// with [`AffineEdges::recycle`] on [`Kernel::arena`]. The edges are
    /// bit-identical to the scalar function's, placeholders included.
    pub fn fill_affine_edges_in(
        &self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        scheme: &ScoringScheme,
        metrics: &Metrics,
    ) -> AffineEdges {
        let (rows, cols) = (a.len(), b.len());
        let (open, extend) = affine_params(scheme);
        let backend = self.affine_backend_for(rows, cols, open);
        if backend == KernelBackend::Scalar {
            return affine::fill_affine_edges_in(a, b, bnd, scheme, &self.arena, metrics);
        }
        bnd.check_boundary(rows, cols);
        let profile = self.take_profile(scheme, b);
        let mut hp = self.arena.take(cols + 1);
        let mut fp = self.arena.take(cols + 1);
        let mut h = self.arena.take(cols + 1);
        let mut f = self.arena.take(cols + 1);
        let mut e = self.arena.take(cols + 1);
        let mut right_h = self.arena.take(rows + 1);
        let mut right_e = self.arena.take(rows + 1);
        hp.copy_from_slice(bnd.top_h);
        fp.copy_from_slice(bnd.top_v);
        // No row writes `F` at column 0: keep the scalar placeholder.
        f[0] = bnd.top_v[0];
        right_h[0] = bnd.top_h[cols];
        right_e[0] = NEG;
        for i in 1..=rows {
            h[0] = bnd.left_h[i];
            e[0] = bnd.left_e[i];
            let row = AffineRow {
                hp: &hp,
                fp: &fp,
                h: &mut h,
                e: &mut e,
                f: &mut f,
            };
            self.affine_row(row, profile.row(a[i - 1]), open, extend);
            right_h[i] = h[cols];
            right_e[i] = e[cols];
            std::mem::swap(&mut hp, &mut h);
            std::mem::swap(&mut fp, &mut f);
        }
        self.arena.put(h);
        self.arena.put(f);
        self.arena.put(e);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
        AffineEdges {
            bottom_h: hp,
            bottom_v: fp,
            right_h,
            right_e,
        }
    }

    /// [`crate::affine::fill_affine_full_reusing`] on the active backend:
    /// `storage` (`H`, `E`, `F`) becomes the three layers, every entry
    /// rewritten, bit-identical to the scalar function's.
    pub fn fill_affine_full_reusing(
        &self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        scheme: &ScoringScheme,
        storage: [Vec<i32>; 3],
        metrics: &Metrics,
    ) -> AffineMatrices {
        let (rows, cols) = (a.len(), b.len());
        let (open, extend) = affine_params(scheme);
        let backend = self.affine_backend_for(rows, cols, open);
        if backend == KernelBackend::Scalar {
            return affine::fill_affine_full_reusing(a, b, bnd, scheme, storage, metrics);
        }
        bnd.check_boundary(rows, cols);
        let profile = self.take_profile(scheme, b);
        let [h, e, f] = storage;
        let mut h = ScoreMatrix::from_storage(rows, cols, h);
        let mut e = ScoreMatrix::from_storage(rows, cols, e);
        let mut f = ScoreMatrix::from_storage(rows, cols, f);
        h.row_mut(0).copy_from_slice(bnd.top_h);
        f.row_mut(0).copy_from_slice(bnd.top_v);
        e.row_mut(0).fill(NEG);
        for i in 1..=rows {
            let (hp, h_row) = h.rows_prev_cur(i);
            let (fp, f_row) = f.rows_prev_cur(i);
            let e_row = e.row_mut(i);
            h_row[0] = bnd.left_h[i];
            e_row[0] = bnd.left_e[i];
            f_row[0] = NEG;
            let row = AffineRow {
                hp,
                fp,
                h: h_row,
                e: e_row,
                f: f_row,
            };
            self.affine_row(row, profile.row(a[i - 1]), open, extend);
        }
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
        AffineMatrices { h, e, f }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Boundary;

    /// Deterministic xorshift so the tests need no external RNG.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_case(rng: &mut Rng) -> (Vec<u8>, Vec<u8>, ScoringScheme, Boundary) {
        let scheme = match rng.below(3) {
            0 => ScoringScheme::dna_default(),
            1 => ScoringScheme::paper_example(),
            _ => ScoringScheme::protein_default(),
        };
        let n_codes = scheme.alphabet().len();
        let rows = rng.below(40);
        let cols = rng.below(90); // often crosses MIN_VEC_COLS, with odd tails
        let a: Vec<u8> = (0..rows).map(|_| rng.below(n_codes) as u8).collect();
        let b: Vec<u8> = (0..cols).map(|_| rng.below(n_codes) as u8).collect();
        let bound = if rng.below(2) == 0 {
            Boundary::global(rows, cols, scheme.gap().linear_penalty())
        } else {
            // An arbitrary (still corner-consistent) boundary.
            let mut top: Vec<i32> = (0..=cols).map(|_| rng.below(2000) as i32 - 1000).collect();
            let mut left: Vec<i32> = (0..=rows).map(|_| rng.below(2000) as i32 - 1000).collect();
            top[0] = 0;
            left[0] = 0;
            Boundary::new(top, left)
        };
        (a, b, scheme, bound)
    }

    fn non_scalar_backends() -> Vec<KernelBackend> {
        KernelBackend::available()
            .into_iter()
            .filter(|b| *b != KernelBackend::Scalar)
            .collect()
    }

    #[test]
    fn every_backend_matches_scalar_on_random_rectangles() {
        let mut rng = Rng(0x5eed_cafe);
        for case in 0..200 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let reference = kernel::fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
            let ref_cells = metrics.snapshot();
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let metrics = Metrics::new();
                let m = k.fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
                for i in 0..=a.len() {
                    assert_eq!(
                        m.row(i),
                        reference.row(i),
                        "case {case} backend {backend} row {i}"
                    );
                }
                assert_eq!(metrics.snapshot(), ref_cells, "case {case} {backend}");
            }
        }
    }

    #[test]
    fn last_row_col_matches_scalar_including_corner() {
        let mut rng = Rng(0xabcd_1234);
        for case in 0..200 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let mut want_b = vec![0; b.len() + 1];
            let mut want_r = vec![0; a.len() + 1];
            kernel::fill_last_row_col(
                &a,
                &b,
                &bound.top,
                &bound.left,
                &scheme,
                &mut want_b,
                Some(&mut want_r),
                &metrics,
            );
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let mut got_b = vec![0; b.len() + 1];
                let mut got_r = vec![0; a.len() + 1];
                k.fill_last_row_col(
                    &a,
                    &b,
                    &bound.top,
                    &bound.left,
                    &scheme,
                    &mut got_b,
                    Some(&mut got_r),
                    &metrics,
                );
                assert_eq!(got_b, want_b, "case {case} backend {backend} bottom row");
                assert_eq!(got_r, want_r, "case {case} backend {backend} right col");
            }
        }
    }

    #[test]
    fn fill_dir_directions_and_final_row_match_scalar() {
        let mut rng = Rng(0x0ddb_1175);
        for case in 0..120 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let (want_dirs, want_row) =
                kernel::fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let (got_dirs, got_row) =
                    k.fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
                assert_eq!(got_row, want_row, "case {case} backend {backend} final row");
                for i in 0..=a.len() {
                    for j in 0..=b.len() {
                        assert_eq!(
                            got_dirs.get(i, j),
                            want_dirs.get(i, j),
                            "case {case} backend {backend} dir ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_fills_are_allocation_free_in_steady_state() {
        let k = Kernel::auto();
        let scheme = ScoringScheme::dna_default();
        let a: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
        let b: Vec<u8> = (0..300).map(|i| (i % 3) as u8).collect();
        let bound = Boundary::global(a.len(), b.len(), scheme.gap().linear_penalty());
        let metrics = Metrics::new();
        let mut bottom = vec![0; b.len() + 1];
        let mut right = vec![0; a.len() + 1];
        // Warm-up: first fill grows the arena to its high-water mark.
        k.fill_last_row_col(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            Some(&mut right),
            &metrics,
        );
        let allocs = k.arena().fresh_allocs();
        let held = k.arena().held_bytes();
        for _ in 0..50 {
            k.fill_last_row_col(
                &a,
                &b,
                &bound.top,
                &bound.left,
                &scheme,
                &mut bottom,
                Some(&mut right),
                &metrics,
            );
        }
        assert_eq!(
            k.arena().fresh_allocs(),
            allocs,
            "steady-state fills must not allocate"
        );
        assert_eq!(k.arena().held_bytes(), held);
        assert!(k.arena().reuses() >= 150, "three buffers per fill reused");
    }

    #[test]
    fn backend_parse_and_names_round_trip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(KernelBackend::parse("SSE41"), Some(KernelBackend::Sse41));
        assert_eq!(KernelBackend::parse("bogus"), None);
    }

    #[test]
    fn scalar_is_always_available_and_detect_best_is_admitted() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::available().contains(&KernelBackend::detect_best()));
        Kernel::try_new(KernelBackend::Scalar).expect("scalar is always available");
        // Backend order is widest-first: anything detect_best skips over
        // an available backend must itself be available.
        #[cfg(target_arch = "x86_64")]
        if KernelBackend::Avx512.is_available() {
            assert_eq!(KernelBackend::detect_best(), KernelBackend::Avx512);
        }
    }

    #[test]
    fn degrade_to_scalar_frees_the_arena() {
        let mut k = Kernel::auto();
        let scheme = ScoringScheme::dna_default();
        let a = vec![0u8; 64];
        let b = vec![1u8; 64];
        let bound = Boundary::global(64, 64, scheme.gap().linear_penalty());
        let metrics = Metrics::new();
        let mut bottom = vec![0; 65];
        k.fill_last_row(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            &metrics,
        );
        k.degrade_to_scalar();
        assert_eq!(k.backend(), KernelBackend::Scalar);
        assert_eq!(k.arena().held_bytes(), 0);
        // And the scalar path still produces the right answer.
        let mut again = vec![0; 65];
        k.fill_last_row(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut again,
            &metrics,
        );
        assert_eq!(again, bottom);
    }
}
