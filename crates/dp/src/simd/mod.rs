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
//! equal scores are equal bit patterns, and score-based traceback applies
//! the shared Diag ≻ Up ≻ Left precedence *after* the max, not during it.
//!
//! This row scan carries each row's dependency through a log-step
//! prefix max: on AVX-512, 17 vector ops per sixteen cells, six of them
//! shuffles.
//!
//! On AVX-512, [`Kernel::fill_last_row_col`] (FastLSA's grid fills and
//! wavefront tiles, Hirschberg's FindScore, shard tiles) takes the
//! dependency along the anti-diagonal instead when the alphabet is small
//! enough for a 32-entry in-register score table (`|Σ|² ≤ 32`: DNA) and
//! the block has at least `BAND_MIN_ROWS` rows: sixteen consecutive rows
//! sit in the sixteen lanes of one vector, and each step advances the
//! band one column, so a row's left dependency is one lane shift — 7
//! vector ops per sixteen cells, two of them shuffles. Every kept cell
//! is the scalar recurrence over the same i32 sums (`diag + S`,
//! `up + gap`, `left + gap`), so the band is bit-identical too.
//!
//! Where the CPU also has AVX-512 BW and VBMI, the block has at least
//! `BYTE_BAND_MIN_ROWS` rows, and the scheme and boundary admit it, a
//! byte band takes over: it keeps score differences
//! `u = H(i,j) − H(i−1,j)` and `v = H(i,j) − H(i,j−1)` instead of scores,
//! which lie in `[g, smax − g]` whenever the boundary's do, so one byte
//! lane holds a row and one vector 64 rows (see `x86::ByteBand`). Its
//! bottom row and right column come back as `i32` prefix sums of the
//! differences, each partial sum a real `H`, so its edges are
//! bit-identical as well. The admission ([`byte_scheme`],
//! [`steps_within`]) is computed from what the fill observes: a
//! boundary or scheme outside the `i8` domain falls back to the `i32`
//! band (DNA) or the row scan (protein).
//!
//! The differences do not depend on the alphabet; only the byte band's
//! score lookup does. An alphabet of `|Σ|² ≤ 64` entries (DNA) looks a
//! step's 64 scores up in one 64-byte table with one `vpermb`. A larger
//! one splits its table by row letter into two-register (128-byte)
//! tables of `R = ⌊128/|Σ|⌋` row letters each and chains one merge-masked
//! `vpermi2b` per table, each lane taking only the table that holds its
//! row letter: BLOSUM62 and PAM250 (24 codes) take five tables of five
//! row letters, and a step reads the fifth (`B`, `Z`, `X`, `*`) only
//! where a row of the block holds one. Alphabets past 25 codes would
//! need more than [`MAX_BYTE_TABLES`] tables and keep the row scan.
//!
//! A FastLSA base case ([`Kernel::fill_base_reusing`]) runs the same
//! byte band where it admits the block, but keeps 2-bit traceback codes
//! (two mask words per band step, [`TraceCodes`]) instead of edges, in
//! place of the full score matrix; its traceback walks the codes to the
//! path and exit [`crate::traceback::trace_from`] finds in the matrix.
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
//! * [`KernelBackend::Sse41`] / [`KernelBackend::Avx2`] — explicit
//!   `core::arch` row scans (linear; AVX2 also affine);
//! * [`KernelBackend::Avx512`] — admitted on `avx512f`: the row scan,
//!   linear and affine, plus the anti-diagonal bands for
//!   [`Kernel::fill_last_row_col`] — the byte band, DNA and protein,
//!   when this CPU also has `avx512bw` and `avx512vbmi` (detected in
//!   `Kernel::byte_band_fill`, the fn that calls it) and admits the
//!   block, the `i32` band (DNA only) otherwise — and the byte band's
//!   traceback codes for [`Kernel::fill_base_reusing`]. The full matrix
//!   ([`Kernel::fill_full`]), base cases the byte band refuses, protein
//!   fills it refuses and blocks under `BAND_MIN_ROWS` rows keep the row
//!   scan.
//!
//! The vector backends are admitted only after `is_x86_feature_detected!`
//! (rule R6 pins their `#[target_feature]` functions to this module).
//!
//! (An earlier "portable lanes" backend — `[i32; 8]` blocks left to the
//! autovectorizer — measured at 0.2–0.3× *scalar* on x86-64 and was
//! removed; see BENCH_kernels.json history.)
//!
//! Scoring goes through a [`QueryProfile`] (contiguous per-residue score
//! rows) and scratch comes from a shared [`KernelArena`], so steady-state
//! block fills perform no allocation at all.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use flsa_scoring::{QueryProfile, ScoringScheme};

use crate::affine::{self, affine_params, AffineBoundary, AffineEdges, AffineMatrices, NEG};
use crate::arena::KernelArena;
use crate::boundary::check_boundary;
use crate::kernel;
use crate::matrix::{ScoreMatrix, TraceCodes};
use crate::traceback::BaseFill;
use crate::Metrics;

/// Rectangles narrower than this skip the vector path: profile build and
/// prefix-scan setup would dominate. Purely a performance cutoff — both
/// paths produce identical bits.
const MIN_VEC_COLS: usize = 16;

/// AVX-512 fills of fewer rows than this keep the row scan, even when
/// the alphabet fits the band kernel's score table: a band costs
/// `cols + 16` steps however few of its sixteen rows are live. Measured
/// on DNA (best of 3 interleaved runs, one CPU), the band lost ×0.83 at
/// 2–4 rows of 32 columns, tied at 8 rows of 32, and won ×1.15–1.58 at
/// 8 rows of 64–2,000 columns and ×1.25–2.05 at 16 rows.
const BAND_MIN_ROWS: usize = 8;

/// AVX-512 fills of fewer rows than this keep the `i32` band even when
/// the byte band admits the block: a byte sweep costs `cols + 63` steps
/// however few of its 64 rows are live. Measured on DNA (medians of 5
/// interleaved runs, one CPU), the byte band tied the `i32` band at 16
/// rows, won ×1.26–1.35 at 24 rows of 300–1,000 columns, and from 48
/// rows won at every width from 32 up (×1.16 at 32 columns, ×1.2 at 64,
/// ×1.7–1.9 at 300–1,000). Blocks of 16–31 columns run level or up to
/// ×0.85 slower at 48–64 rows.
const BYTE_BAND_MIN_ROWS: usize = 48;

/// Bytes of one byte-band score table: the two registers one `vpermi2b`
/// indexes.
const BYTE_TABLE: usize = 128;

/// Score tables a byte step looks up at most. Five cover alphabets of up
/// to 25 codes (`R = 5` row letters a table), BLOSUM's and PAM's 24
/// among them; a larger alphabet keeps the row scan.
const MAX_BYTE_TABLES: usize = 5;

/// What the byte band needs of a scheme ([`byte_scheme`]).
struct ByteScheme {
    /// `|Σ|`.
    codes: usize,
    /// Row letters per table, `R = ⌊128/|Σ|⌋`.
    per_table: usize,
    /// `max(S(x, y) − 2g, 0)` at byte `(x mod R)·|Σ| + y` of table
    /// `⌊x/R⌋`, each table [`BYTE_TABLE`] bytes (see
    /// `x86::ByteBand::byte_step`). DNA's five codes fit table 0 with
    /// `R = 25`, so its entries sit at `x·|Σ| + y`.
    tables: [u8; BYTE_TABLE * MAX_BYTE_TABLES],
    /// The range `[g, smax − g]` every score difference lies in.
    range: (i32, i32),
    /// No table entry was clamped at 0: every `S ≥ 2g`, so a step's
    /// `y == S − 2g` is its Diag test and the band may store traceback
    /// codes. A clamped entry would read `y == 0` as a Diag tie.
    exact: bool,
}

/// The byte band's scheme admission. Its differences lie in
/// `[g, smax − g]` and its diagonal terms in `[2g, smax]`, and both ranges
/// must fit `i8`: `2g ≥ −128`, `smax − g ≤ 127`, and every score in
/// `[−128, 127]`. `None` when the alphabet needs more than
/// [`MAX_BYTE_TABLES`] tables (past 25 codes), the ranges do not fit
/// `i8`, or the range is empty.
///
/// Building the tables reads all `|Σ|²` scores, so each thread keeps the
/// last [`BYTE_SCHEME_MEMO`] schemes it admitted or refused, keyed by
/// their scores and gap: a run's fills, and the runs and requests that
/// follow on the same thread, build each scheme once.
fn byte_scheme(scheme: &ScoringScheme) -> Option<Rc<ByteScheme>> {
    let gap = scheme.gap().linear_penalty();
    let scores = scheme.matrix().table();
    BYTE_SCHEMES.with(|memo| {
        let mut memo = memo.borrow_mut();
        if let Some(hit) = memo.iter().find(|m| m.gap == gap && m.scores == scores) {
            return hit.built.clone();
        }
        let built = build_byte_scheme(scores, scheme.alphabet().len(), gap).map(Rc::new);
        if memo.len() == BYTE_SCHEME_MEMO {
            memo.remove(0);
        }
        memo.push(ByteSchemeMemo {
            gap,
            scores: scores.to_vec(),
            built: built.clone(),
        });
        built
    })
}

/// Schemes one thread's [`byte_scheme`] memo keeps: a serve worker
/// alternates DNA and protein requests.
const BYTE_SCHEME_MEMO: usize = 4;

/// One scheme [`byte_scheme`] has admitted (or refused, `built: None`).
struct ByteSchemeMemo {
    gap: i32,
    scores: Vec<i32>,
    built: Option<Rc<ByteScheme>>,
}

thread_local! {
    static BYTE_SCHEMES: RefCell<Vec<ByteSchemeMemo>> = const { RefCell::new(Vec::new()) };
}

/// [`byte_scheme`] without its memo: the row-major `codes × codes`
/// `scores` under linear gap `gap`.
fn build_byte_scheme(scores: &[i32], codes: usize, gap: i32) -> Option<ByteScheme> {
    let per_table = BYTE_TABLE.checked_div(codes)?;
    if per_table == 0 || codes.div_ceil(per_table) > MAX_BYTE_TABLES {
        return None;
    }
    let g = i64::from(gap);
    let smax = i64::from(*scores.iter().max()?);
    let in_i8 = |v: i64| (-128..=127).contains(&v);
    // `smax < 2g` leaves the range empty: no boundary could be admitted.
    if 2 * g < -128
        || smax - g > 127
        || smax < 2 * g
        || !scores.iter().all(|&s| in_i8(i64::from(s)))
    {
        return None;
    }
    let mut tables = [0u8; BYTE_TABLE * MAX_BYTE_TABLES];
    for (x, row) in scores.chunks_exact(codes).enumerate() {
        let at = x / per_table * BYTE_TABLE + x % per_table * codes;
        for (slot, &s) in tables[at..at + codes].iter_mut().zip(row) {
            // In 0..=smax − 2g ≤ 191 by the checks above.
            *slot = (i64::from(s) - 2 * g).max(0) as u8;
        }
    }
    Some(ByteScheme {
        codes,
        per_table,
        tables,
        range: (gap, (smax - g) as i32),
        exact: scores.iter().all(|&s| i64::from(s) >= 2 * g),
    })
}

/// What [`Kernel::byte_band_fill`] keeps of the cells it computes.
enum ByteOut<'o> {
    /// The bottom row (`cols + 1` entries) and, if asked for, the right
    /// column (`rows + 1`, entry 0 already set): a grid fill's edges.
    Edges(&'o mut [i32], Option<&'o mut [i32]>),
    /// A base case's traceback codes ([`TraceCodes`]), in a buffer the
    /// fill resizes to [`TraceCodes::storage_len`] entries once it has
    /// admitted the block.
    Codes(&'o mut Vec<i32>),
}

/// True when every step `edge[k] − edge[k − 1]` lies in `lo..=hi`.
///
/// A step whose `i32` difference wraps is refused even when the wrapped
/// value lands in range: the subtraction overflowed exactly when `a` and
/// `b` differ in sign and the difference's sign differs from `b`'s. The
/// loop is a fold over zipped slices (no early exit, no window bounds),
/// so it vectorizes.
fn steps_within(edge: &[i32], (lo, hi): (i32, i32)) -> bool {
    let Some((_, steps)) = edge.split_first() else {
        return true;
    };
    let width = hi.wrapping_sub(lo) as u32;
    steps.iter().zip(edge).fold(true, |ok, (&b, &a)| {
        let d = b.wrapping_sub(a);
        let wrapped = (a ^ b) & (b ^ d) < 0;
        ok & !wrapped & (d.wrapping_sub(lo) as u32 <= width)
    })
}

/// The `i32` band kernel's in-register score table, `S(x, y)` at
/// `x·|Σ| + y`, or `None` when `|Σ|² > 32` (protein): the table must fit
/// the 32 entries one two-source permute of `i32` lanes can index. The
/// byte band has its own tables ([`byte_scheme`]).
fn band_table(scheme: &ScoringScheme) -> Option<[i32; 32]> {
    let matrix = scheme.matrix();
    let codes = matrix.alphabet().len();
    if codes * codes > 32 {
        return None;
    }
    let mut table = [0; 32];
    for x in 0..codes {
        for y in 0..codes {
            table[x * codes + y] = matrix.score(x as u8, y as u8);
        }
    }
    Some(table)
}

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
        ("avx512vbmi", is_x86_feature_detected!("avx512vbmi")),
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

/// A `cols + 1` arena row placed so that column 1 starts a 64-byte cache
/// line: the sixteen-lane affine rows then load and store whole lines,
/// which matters once the five rows of a wide fill no longer fit L1.
struct LineRow {
    buf: Vec<i32>,
    /// Index of column 0 in `buf`.
    off: usize,
    len: usize,
}

impl LineRow {
    /// Takes `cols + 17` entries, enough to start column 1 on a line
    /// whatever the buffer's own alignment.
    fn take(arena: &KernelArena, cols: usize) -> LineRow {
        let len = cols + 1;
        let buf = arena.take(len + 16);
        let off = buf.as_ptr().wrapping_add(1).align_offset(64).min(16);
        LineRow { buf, off, len }
    }

    fn row(&self) -> &[i32] {
        &self.buf[self.off..self.off + self.len]
    }

    fn row_mut(&mut self) -> &mut [i32] {
        &mut self.buf[self.off..self.off + self.len]
    }

    /// The row as a `Vec` of exactly `cols + 1` entries (the arena buffer,
    /// its contents moved to the front).
    fn into_vec(mut self) -> Vec<i32> {
        self.buf.copy_within(self.off..self.off + self.len, 0);
        self.buf.truncate(self.len);
        self.buf
    }
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

    /// A base case's fill (paper Figure 2 lines 1–2) in `storage`
    /// (FastLSA's Base Case buffer), ready for its traceback
    /// ([`BaseFill::trace`]): the byte band's 2-bit traceback codes where
    /// it admits the block ([`Kernel::byte_band_fill`]) and the scheme
    /// has no clamped table entry, the full score matrix
    /// ([`Kernel::fill_full_reusing`]) otherwise. Both trace back to the
    /// same path and exit, and the fill files the same cells under the
    /// same backend. The codes take fewer entries than the matrix
    /// whenever the band admits a block, so `storage` sized for the
    /// matrix never grows.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_base_reusing(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        mut storage: Vec<i32>,
        metrics: &Metrics,
    ) -> BaseFill {
        let (rows, cols) = (a.len(), b.len());
        check_boundary(top, left, rows, cols);
        if self.byte_band_fill(a, b, top, left, scheme, ByteOut::Codes(&mut storage)) {
            metrics.add_cells(rows as u64 * cols as u64, self.backend);
            return BaseFill::Codes(TraceCodes::from_storage(rows, cols, storage));
        }
        BaseFill::Scores(self.fill_full_reusing(a, b, top, left, scheme, storage, metrics))
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
        if let Some(ref mut r) = out_right {
            r[0] = top[cols];
        }
        let edges = ByteOut::Edges(&mut *out_bottom, out_right.as_deref_mut());
        if self.byte_band_fill(a, b, top, left, scheme, edges) {
            metrics.add_cells(rows as u64 * cols as u64, backend);
            return;
        }
        let band = if rows >= BAND_MIN_ROWS {
            band_table(scheme)
        } else {
            None
        };
        match (self.backend, band) {
            #[cfg(target_arch = "x86_64")]
            (KernelBackend::Avx512, Some(table)) => {
                let codes = scheme.alphabet().len();
                // `b`'s codes reversed between BAND pads on each side, so
                // each step loads its sixteen column codes at once.
                let mut brev = self.arena.take(cols + 2 * x86::BAND);
                for (slot, &c) in brev[x86::BAND..x86::BAND + cols].iter_mut().rev().zip(b) {
                    assert!((c as usize) < codes, "residue code outside the alphabet");
                    *slot = i32::from(c);
                }
                let mut mid = self.arena.take(cols + 1);
                out_bottom.copy_from_slice(top);
                // SAFETY: `try_new` admits Avx512 only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                unsafe {
                    x86::band_fill_avx512(
                        a, &brev, &table, codes, left, gap, out_bottom, &mut mid, out_right,
                    )
                }
                self.arena.put(brev);
                self.arena.put(mid);
            }
            _ => {
                let profile = self.take_profile(scheme, b);
                let mut prev = self.arena.take(cols + 1);
                let mut cur = self.arena.take(cols + 1);
                prev.copy_from_slice(top);
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
            }
        }
        metrics.add_cells(rows as u64 * cols as u64, backend);
    }

    /// The byte band, for a grid fill's edges ([`Kernel::fill_last_row_col`])
    /// and a base case's traceback codes ([`Kernel::fill_base_reusing`])
    /// alike. It runs when this kernel is AVX-512 and the block at least
    /// [`BYTE_BAND_MIN_ROWS`] rows and [`MIN_VEC_COLS`] columns, this CPU
    /// has AVX-512 BW and VBMI, the scheme's differences fit `i8`
    /// ([`byte_scheme`]), every difference of `top` and `left` lies in
    /// their range ([`steps_within`]) and, for codes, no table entry was
    /// clamped ([`ByteScheme::exact`]). Returns false, having written
    /// nothing, when any of these fails.
    fn byte_band_fill(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        out: ByteOut<'_>,
    ) -> bool {
        let (rows, cols) = (a.len(), b.len());
        if self.backend_for(rows, cols) != KernelBackend::Avx512 || rows < BYTE_BAND_MIN_ROWS {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let cpu = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi");
            if !cpu {
                return false;
            }
            let Some(bs) = byte_scheme(scheme) else {
                return false;
            };
            let codes_exact = bs.exact || matches!(out, ByteOut::Edges(..));
            if !codes_exact || !steps_within(top, bs.range) || !steps_within(left, bs.range) {
                return false;
            }
            let mut out = out;
            if let ByteOut::Codes(words) = &mut out {
                words.resize(TraceCodes::storage_len(rows, cols), 0);
            }
            let gap = scheme.gap().linear_penalty();
            // Three byte rows, which the kernel views this `i32` buffer as.
            let mut scratch = self.arena.take((3 * x86::byte_row_len(cols)).div_ceil(4));
            // SAFETY: all three features were detected just above, every
            // difference of `top` and `left` lies in the range
            // `byte_scheme` admitted, and codes run only on an exact table.
            unsafe { x86::byte_band_fill_avx512(a, b, &bs, top, left, gap, &mut scratch, out) }
            self.arena.put(scratch);
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (top, left, scheme, out);
            false
        }
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
        let mut hp = LineRow::take(&self.arena, cols);
        let mut fp = LineRow::take(&self.arena, cols);
        let mut h = LineRow::take(&self.arena, cols);
        let mut f = LineRow::take(&self.arena, cols);
        let mut e = LineRow::take(&self.arena, cols);
        let mut right_h = self.arena.take(rows + 1);
        let mut right_e = self.arena.take(rows + 1);
        hp.row_mut().copy_from_slice(bnd.top_h);
        fp.row_mut().copy_from_slice(bnd.top_v);
        // No row writes `F` at column 0: keep the scalar placeholder.
        f.row_mut()[0] = bnd.top_v[0];
        right_h[0] = bnd.top_h[cols];
        right_e[0] = NEG;
        for i in 1..=rows {
            h.row_mut()[0] = bnd.left_h[i];
            e.row_mut()[0] = bnd.left_e[i];
            let row = AffineRow {
                hp: hp.row(),
                fp: fp.row(),
                h: h.row_mut(),
                e: e.row_mut(),
                f: f.row_mut(),
            };
            self.affine_row(row, profile.row(a[i - 1]), open, extend);
            right_h[i] = h.row()[cols];
            right_e[i] = e.row()[cols];
            std::mem::swap(&mut hp, &mut h);
            std::mem::swap(&mut fp, &mut f);
        }
        for spent in [h, f, e] {
            self.arena.put(spent.buf);
        }
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64, backend);
        AffineEdges {
            bottom_h: hp.into_vec(),
            bottom_v: fp.into_vec(),
            right_h,
            right_e,
        }
    }

    /// [`crate::affine::fill_affine_full_reusing`] on the active backend:
    /// `storage` (`H`, `E`, `F`) becomes the three layers, every cell
    /// rewritten, bit-identical to the scalar function's. The layers are
    /// lined on every backend, as the scalar function's are, so the
    /// sixteen-lane rows store whole cache lines; padding is never read.
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
        let [mut h, mut e, mut f] = storage.map(|s| ScoreMatrix::lined_from_storage(rows, cols, s));
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
    fn byte_band_admission_refuses_wrapped_steps_and_schemes_past_i8() {
        let dna = byte_scheme(&ScoringScheme::dna_default()).expect("DNA fits i8");
        let range = dna.range;
        assert_eq!(range, (-10, 15));
        // `max(S − 2g, 0)`: match 5 + 20, mismatch −4 + 20, `N` 0 + 20,
        // all five rows in table 0 (`R = 25`) at `x·|Σ| + y`.
        assert_eq!((dna.codes, dna.per_table), (5, 25));
        assert_eq!(dna.tables[..6], [25, 16, 16, 16, 20, 16]);
        assert!(dna.exact, "no DNA score lies below 2g = −20");
        assert!(steps_within(&[0, -10, 5, -5, 10], range));
        assert!(!steps_within(&[0, -11], range));
        assert!(!steps_within(&[0, 16], range));
        // i32::MIN − i32::MAX wraps to +1, inside the range; the true step
        // is −(2³² − 1), so the boundary is refused.
        assert_eq!(i32::MIN.wrapping_sub(i32::MAX), 1);
        assert!(!steps_within(&[i32::MAX, i32::MIN], range));
        assert!(!steps_within(&[-5, i32::MAX - 1], range));

        let edge = |gap| {
            let m = flsa_scoring::SubstitutionMatrix::match_mismatch(
                "edge",
                flsa_seq::Alphabet::dna(),
                63,
                -63,
            );
            ScoringScheme::new(m, flsa_scoring::GapModel::linear(gap))
        };
        // 2g = −128 and smax − g = 127: the last scheme that fits.
        let last = byte_scheme(&edge(-64)).expect("the i8 edge fits");
        assert_eq!(last.range, (-64, 127));
        assert_eq!((last.tables[0], last.tables[1]), (191, 65));
        assert!(last.exact);
        assert!(byte_scheme(&edge(-65)).is_none(), "2g = −130");
        // Gap −1 puts the −4 mismatch below 2g = −2: its entry is clamped
        // at 0, which the edges tolerate and the traceback codes do not.
        let clamped = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            flsa_scoring::GapModel::linear(-1),
        );
        let clamped = byte_scheme(&clamped).expect("gap −1 fits i8");
        assert_eq!(clamped.tables[..2], [7, 0]);
        assert!(!clamped.exact);
        // BLOSUM62's 24 codes take five tables of `R = 5` row letters:
        // row `x` at byte `(x mod 5)·24 + y` of table `⌊x/5⌋`. `A`–`A`
        // is 4 + 20; `Q` (code 5) opens table 1, `Q`–`Q` 5 + 20; `*`
        // (code 23) is row 3 of table 4, `*`–`A` −4 + 20, `*`–`*` 1 + 20.
        let protein = byte_scheme(&ScoringScheme::protein_default()).expect("BLOSUM62 fits");
        assert_eq!((protein.codes, protein.per_table), (24, 5));
        assert_eq!(protein.range, (-10, 21));
        assert!(protein.exact, "no BLOSUM62 score lies below 2g = −20");
        assert_eq!(protein.tables[0], 24);
        assert_eq!(protein.tables[128 + 5], 25);
        let star = 4 * 128 + 3 * 24;
        assert_eq!((protein.tables[star], protein.tables[star + 23]), (16, 21));
        // 25 codes still fit five tables (`R = 5`); 26 would need seven
        // (`R = 4`), so that alphabet keeps the row scan.
        let letters = |symbols| {
            let m = flsa_scoring::SubstitutionMatrix::match_mismatch(
                "letters",
                flsa_seq::Alphabet::new("letters", symbols),
                2,
                -1,
            );
            ScoringScheme::new(m, flsa_scoring::GapModel::linear(-2))
        };
        let widest = byte_scheme(&letters("ABCDEFGHIJKLMNOPQRSTUVWXY")).expect("25 codes fit");
        assert_eq!((widest.codes, widest.per_table), (25, 5));
        assert!(byte_scheme(&letters("ABCDEFGHIJKLMNOPQRSTUVWXYZ")).is_none());
        // Every score below 2g: `[g, smax − g]` is empty.
        let negative = flsa_scoring::SubstitutionMatrix::match_mismatch(
            "negative",
            flsa_seq::Alphabet::dna(),
            -5,
            -6,
        );
        let empty = ScoringScheme::new(negative, flsa_scoring::GapModel::linear(0));
        assert!(byte_scheme(&empty).is_none());
    }

    #[test]
    fn repeated_fills_are_allocation_free_in_steady_state() {
        // Buffers each fill checks out of the arena: the row scan takes
        // the profile, `prev` and `cur`; the AVX-512 `i32` band (DNA
        // only) takes the reversed `b` and the second band's top row; the
        // byte band (DNA and protein where the CPU also has BW and VBMI,
        // 200 rows here) takes one buffer for the reversed `b` and both
        // hand-off rows; the scalar kernel takes none.
        let backend = Kernel::auto().backend();
        #[cfg(target_arch = "x86_64")]
        let vbmi = is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vbmi");
        #[cfg(not(target_arch = "x86_64"))]
        let vbmi = false;
        let row_scan = if backend == KernelBackend::Scalar {
            0
        } else {
            3
        };
        let (dna, protein) = match backend {
            KernelBackend::Avx512 if vbmi => (1, 1),
            KernelBackend::Avx512 => (2, row_scan),
            _ => (row_scan, row_scan),
        };
        for (scheme, per_fill) in [
            (ScoringScheme::dna_default(), dna),
            (ScoringScheme::protein_default(), protein),
        ] {
            let k = Kernel::auto();
            let a: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
            let b: Vec<u8> = (0..300).map(|i| (i % 3) as u8).collect();
            let bound = Boundary::global(a.len(), b.len(), scheme.gap().linear_penalty());
            let metrics = Metrics::new();
            let mut bottom = vec![0; b.len() + 1];
            let mut right = vec![0; a.len() + 1];
            let mut fill = || {
                k.fill_last_row_col(
                    &a,
                    &b,
                    &bound.top,
                    &bound.left,
                    &scheme,
                    &mut bottom,
                    Some(&mut right),
                    &metrics,
                )
            };
            // Warm-up: first fill grows the arena to its high-water mark.
            fill();
            let allocs = k.arena().fresh_allocs();
            let held = k.arena().held_bytes();
            let reuses = k.arena().reuses();
            for _ in 0..50 {
                fill();
            }
            let name = scheme.matrix().name();
            assert_eq!(
                k.arena().fresh_allocs(),
                allocs,
                "{name}: steady-state fills must not allocate"
            );
            assert_eq!(k.arena().held_bytes(), held, "{name}: held bytes");
            assert_eq!(
                k.arena().reuses() - reuses,
                50 * per_fill,
                "{name}: {per_fill} buffers per fill reused"
            );
        }
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
