//! Differential suite: every DP kernel backend must be **bit-identical**
//! to the scalar reference — same scores, same [`Metrics`] cell counts,
//! same tracebacks — on randomized sequences, schemes, and boundaries.
//!
//! This is the contract that makes backend selection transparent: a run
//! on AVX2 and a run on a scalar-only machine must produce byte-identical
//! output. The SIMD kernels use an exact algebraic reformulation of the
//! recurrence (prefix-max scan) or, on AVX-512, anti-diagonal bands over
//! the same i32 sums (DNA) or over byte score differences whose prefix
//! sums are the exact edges (DNA and protein), so equality here is
//! integer equality, not approximation.
//!
//! The affine (Gotoh) fills are under it too: [`Kernel::fill_affine_edges_in`]
//! and [`Kernel::fill_affine_full_reusing`] must reproduce the scalar
//! free functions in `flsa_dp::affine` — every edge, every `H`/`E`/`F`
//! entry — whichever backend runs them.
//!
//! Set `FLSA_KERNEL_FORCE=scalar` (comma-separated backend names) to
//! restrict the swept set — CI uses this to exercise the portable
//! backends on machines whose SIMD features it cannot assume.

use std::sync::Arc;

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::affine::{self, AffineGlobalBoundary, AffineMatrices, NEG};
use flsa_dp::kernel::{fill_full, fill_last_row_col};
use flsa_dp::traceback::trace_from;
use flsa_dp::{BaseFill, Boundary, Kernel, KernelArena, KernelBackend, Metrics};
use flsa_fullmatrix::{needleman_wunsch, needleman_wunsch_kernel};
use flsa_hirschberg::{hirschberg_kernel, HirschbergConfig};
use flsa_metrics::{names, Registry};
use flsa_scoring::{tables, GapModel, ScoringScheme, SubstitutionMatrix};
use flsa_seq::{Alphabet, Sequence};
use flsa_trace::{EventKind, Recorder};

/// Deterministic xorshift64* — no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi]`.
    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as u64) as i32
    }
}

/// Backends under test: `FLSA_KERNEL_FORCE` (comma-separated names) when
/// set, every CPU-supported backend otherwise. Scalar is always included
/// as the reference.
fn backends() -> Vec<KernelBackend> {
    let mut set = match std::env::var("FLSA_KERNEL_FORCE") {
        Ok(csv) => csv
            .split(',')
            .map(|name| {
                KernelBackend::parse(name)
                    .unwrap_or_else(|| panic!("FLSA_KERNEL_FORCE: unknown backend {name:?}"))
            })
            .collect(),
        Err(_) => KernelBackend::available(),
    };
    if !set.contains(&KernelBackend::Scalar) {
        set.insert(0, KernelBackend::Scalar);
    }
    for b in &set {
        assert!(b.is_available(), "backend {b} is not available on this CPU");
    }
    set
}

fn random_codes(rng: &mut Rng, len: usize, alphabet_size: u8) -> Vec<u8> {
    (0..len)
        .map(|_| rng.below(alphabet_size as u64) as u8)
        .collect()
}

/// A random but *consistent* boundary: arbitrary values with the shared
/// corner, exercising the kernels away from the global gap ramp (inside
/// FastLSA, boundaries are grid-cache slices of arbitrary shape).
fn random_boundary(rng: &mut Rng, rows: usize, cols: usize) -> Boundary {
    let corner = rng.range_i32(-50, 50);
    let mut top = vec![corner];
    let mut left = vec![corner];
    for _ in 0..cols {
        let prev = *top.last().unwrap();
        top.push(prev + rng.range_i32(-12, 6));
    }
    for _ in 0..rows {
        let prev = *left.last().unwrap();
        left.push(prev + rng.range_i32(-12, 6));
    }
    Boundary::new(top, left)
}

fn schemes() -> Vec<ScoringScheme> {
    vec![
        ScoringScheme::dna_default(),
        ScoringScheme::new(tables::dna_default(), GapModel::linear(-3)),
        ScoringScheme::new(tables::identity(Alphabet::dna()), GapModel::linear(-1)),
        ScoringScheme::new(tables::blosum62(), GapModel::linear(-8)),
        ScoringScheme::paper_example(),
    ]
}

/// Runs `fill_full` and `fill_last_row_col` for one rectangle on every
/// backend and asserts each equals the scalar reference, cell counts
/// included.
fn assert_fills_match_scalar(
    case: &str,
    scheme: &ScoringScheme,
    a: &[u8],
    b: &[u8],
    bound: &Boundary,
) {
    let m_ref = Metrics::new();
    let full_ref = fill_full(a, b, &bound.top, &bound.left, scheme, &m_ref);
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let m = Metrics::new();
        let full = kernel.fill_full(a, b, &bound.top, &bound.left, scheme, &m);
        assert_eq!(full, full_ref, "{case} backend {backend}: fill_full");
        assert_eq!(
            m.snapshot().cells_computed,
            m_ref.snapshot().cells_computed,
            "{case} backend {backend}: fill_full cells_computed"
        );
    }
    assert_edges_match_scalar(case, scheme, a, b, bound);
}

/// Runs `fill_last_row_col` for one rectangle on every backend, with and
/// without the right column, and asserts each equals the scalar
/// reference, cell counts included.
fn assert_edges_match_scalar(
    case: &str,
    scheme: &ScoringScheme,
    a: &[u8],
    b: &[u8],
    bound: &Boundary,
) {
    let (rows, cols) = (a.len(), b.len());
    let m_ref = Metrics::new();
    let mut bottom_ref = vec![0i32; cols + 1];
    let mut right_ref = vec![0i32; rows + 1];
    fill_last_row_col(
        a,
        b,
        &bound.top,
        &bound.left,
        scheme,
        &mut bottom_ref,
        Some(&mut right_ref),
        &m_ref,
    );

    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let m = Metrics::new();
        let mut bottom = vec![0i32; cols + 1];
        let mut right = vec![0i32; rows + 1];
        kernel.fill_last_row_col(
            a,
            b,
            &bound.top,
            &bound.left,
            scheme,
            &mut bottom,
            Some(&mut right),
            &m,
        );
        assert_eq!(bottom, bottom_ref, "{case} backend {backend}: bottom");
        assert_eq!(right, right_ref, "{case} backend {backend}: right");
        let mut bottom_only = vec![0i32; cols + 1];
        kernel.fill_last_row(a, b, &bound.top, &bound.left, scheme, &mut bottom_only, &m);
        assert_eq!(
            bottom_only, bottom_ref,
            "{case} backend {backend}: bottom alone"
        );
        // Identical work accounting: cells_computed must not depend
        // on the backend.
        assert_eq!(
            m.snapshot().cells_computed,
            2 * m_ref.snapshot().cells_computed,
            "{case} backend {backend}: cells_computed"
        );
    }
}

/// DNA schemes for the byte band (AVX-512 BW + VBMI), which keeps score
/// differences in `[g, smax − g]` as bytes and runs only when that range
/// and `[2g, smax]` fit `i8`. The last two sit on either side of that
/// edge: `match_mismatch(63, −63)` with gap −64 gives `2g = −128` and
/// `smax − g = 127`, and gap −65 is refused (`2g = −130`), so the `i32`
/// band fills it.
fn byte_band_schemes() -> Vec<ScoringScheme> {
    let edge = || SubstitutionMatrix::match_mismatch("i8-edge", Alphabet::dna(), 63, -63);
    vec![
        ScoringScheme::dna_default(),
        ScoringScheme::new(tables::dna_default(), GapModel::linear(-3)),
        ScoringScheme::new(tables::identity(Alphabet::dna()), GapModel::linear(-1)),
        ScoringScheme::new(edge(), GapModel::linear(-64)),
        ScoringScheme::new(edge(), GapModel::linear(-65)),
    ]
}

/// A real DP boundary, as FastLSA's grid lines and Hirschberg's halves
/// hand a block: the top row and left column that a global fill of a
/// larger pair runs through at a random offset (the gap ramp at offset
/// 0). Returns the block's own codes with it.
fn cut_boundary(
    rng: &mut Rng,
    scheme: &ScoringScheme,
    rows: usize,
    cols: usize,
) -> (Vec<u8>, Vec<u8>, Boundary) {
    let codes = scheme.matrix().alphabet().len() as u8;
    cut_boundary_with(rng, scheme, rows, cols, |rng, len| {
        random_codes(rng, len, codes)
    })
}

/// [`cut_boundary`] with the larger pair's codes drawn by `draw`.
fn cut_boundary_with(
    rng: &mut Rng,
    scheme: &ScoringScheme,
    rows: usize,
    cols: usize,
    draw: impl Fn(&mut Rng, usize) -> Vec<u8>,
) -> (Vec<u8>, Vec<u8>, Boundary) {
    let (above, before) = (rng.below(48) as usize, rng.below(48) as usize);
    let outer_a = draw(rng, above + rows);
    let outer_b = draw(rng, before + cols);
    let global = Boundary::global(outer_a.len(), outer_b.len(), scheme.gap().linear_penalty());
    let m = fill_full(
        &outer_a,
        &outer_b,
        &global.top,
        &global.left,
        scheme,
        &Metrics::new(),
    );
    let top = m.row(above)[before..].to_vec();
    let left = (above..=above + rows).map(|i| m.get(i, before)).collect();
    (
        outer_a[above..].to_vec(),
        outer_b[before..].to_vec(),
        Boundary::new(top, left),
    )
}

#[test]
fn byte_band_edges_match_scalar_at_every_height() {
    // Every height 1..=200: each remainder mod 64, both sides of the byte
    // band's row cutoff (48) and of each step in its bands per sweep
    // (one to four: 64, 128 and 192 rows), at widths below and above 64,
    // `N` codes included. Real DP boundaries (the gap
    // ramp and a cut from a larger global fill) are in the byte band's
    // range, so AVX-512 with VBMI fills these on the byte band from its
    // cutoff up; arbitrary boundaries take steps below the gap, which it
    // refuses, so the same heights also cover the `i32` band.
    let mut rng = Rng::new(0xb7e5);
    let schemes = byte_band_schemes();
    for rows in 1..=200usize {
        let scheme = &schemes[rows % schemes.len()];
        let codes = scheme.matrix().alphabet().len() as u8;
        for wide in [false, true] {
            let cols = if wide {
                65 + rng.below(160) as usize
            } else {
                16 + rng.below(48) as usize
            };
            let case = format!("{} {rows}x{cols}", scheme.matrix().name());
            let gap = scheme.gap().linear_penalty();
            let a = random_codes(&mut rng, rows, codes);
            let b = random_codes(&mut rng, cols, codes);
            let ramp = Boundary::global(rows, cols, gap);
            assert_edges_match_scalar(&format!("{case} ramp"), scheme, &a, &b, &ramp);
            let (a, b, cut) = cut_boundary(&mut rng, scheme, rows, cols);
            assert_edges_match_scalar(&format!("{case} cut"), scheme, &a, &b, &cut);
            let arbitrary = random_boundary(&mut rng, rows, cols);
            assert_edges_match_scalar(&format!("{case} arbitrary"), scheme, &a, &b, &arbitrary);
        }
    }
}

/// True when this CPU runs the byte band (AVX-512 BW and VBMI beside the
/// `avx512f` that admits the AVX-512 backend).
fn byte_band_cpu() -> bool {
    let features = flsa_dp::detected_cpu_features();
    ["avx512bw", "avx512vbmi"]
        .iter()
        .all(|f| features.contains(f))
}

/// Fills one base case on every backend with `Kernel::fill_base_reusing`
/// and asserts it took the coded path exactly where `coded` says the
/// AVX-512 byte band admits it, filed the scalar reference's cells, and
/// traces back, from every head on the bottom row and the right column,
/// to the moves, exit and step count `trace_from` finds in the scalar
/// full matrix.
fn assert_base_case_traces_match_scalar(
    case: &str,
    scheme: &ScoringScheme,
    a: &[u8],
    b: &[u8],
    bound: &Boundary,
    coded: bool,
) {
    let (rows, cols) = (a.len(), b.len());
    let m_ref = Metrics::new();
    let dpm = fill_full(a, b, &bound.top, &bound.left, scheme, &m_ref);
    let heads: Vec<(usize, usize)> = (1..=cols)
        .map(|j| (rows, j))
        .chain((1..rows).map(|i| (i, cols)))
        .collect();
    let want: Vec<_> = heads
        .iter()
        .map(|&head| {
            let mut out = flsa_dp::PathBuilder::new();
            let exit = trace_from(&dpm, a, b, scheme, head, &mut out, &m_ref);
            (exit, out.rev_moves().to_vec())
        })
        .collect();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let m = Metrics::new();
        // Poisoned storage, as the Base Case buffer holds after an
        // earlier base case.
        let storage = vec![-1; 3 * (rows + 1)];
        let fill = kernel.fill_base_reusing(a, b, &bound.top, &bound.left, scheme, storage, &m);
        let ran_coded = matches!(fill, BaseFill::Codes(_));
        let want_coded = coded && backend == KernelBackend::Avx512 && byte_band_cpu();
        assert_eq!(ran_coded, want_coded, "{case} backend {backend}: coded");
        assert_eq!(
            m.snapshot().cells_computed,
            (rows * cols) as u64,
            "{case} backend {backend}: cells"
        );
        for (&head, (exit, moves)) in heads.iter().zip(&want) {
            let mut out = flsa_dp::PathBuilder::new();
            let got = fill.trace(a, b, scheme, head, &mut out, &m);
            assert_eq!(got, *exit, "{case} backend {backend}: exit from {head:?}");
            assert_eq!(
                out.rev_moves(),
                &moves[..],
                "{case} backend {backend}: moves from {head:?}"
            );
        }
        assert_eq!(
            m.snapshot().traceback_steps,
            m_ref.snapshot().traceback_steps,
            "{case} backend {backend}: traceback steps"
        );
        let storage = fill.into_vec();
        assert!(
            storage.len() <= (rows + 1) * (cols + 1),
            "{case} backend {backend}: the fill outgrew the score matrix"
        );
    }
}

#[test]
fn coded_base_cases_trace_like_the_row_scan_matrix() {
    // The byte band codes a base case of at least 48 rows and 16 columns
    // when its scheme has no table entry below 2g and its boundary steps
    // lie in the band's range. Heights 48 and around each 64-row band
    // edge (one to four bands, and at 257 the hand-off between sweeps),
    // widths 16–70 and a few hundred, DNA with `N`, real DP boundaries (a
    // cut from a larger global fill) and the global ramp.
    let mut rng = Rng::new(0xc0de5);
    let edge = SubstitutionMatrix::match_mismatch("i8-edge", Alphabet::dna(), 63, -63);
    let coded = [
        ScoringScheme::dna_default(),
        ScoringScheme::new(tables::dna_default(), GapModel::linear(-3)),
        ScoringScheme::new(tables::identity(Alphabet::dna()), GapModel::linear(-1)),
        ScoringScheme::new(edge, GapModel::linear(-64)),
    ];
    let heights = [48, 63, 64, 65, 127, 128, 129, 255, 256, 257];
    let wide: Vec<usize> = heights
        .iter()
        .map(|_| 100 + rng.below(300) as usize)
        .collect();
    let shapes = (16..=70)
        .map(|cols| (heights[cols % heights.len()], cols))
        .chain(heights.into_iter().zip(wide));
    for (n, (rows, cols)) in shapes.enumerate() {
        let scheme = &coded[n % coded.len()];
        let codes = scheme.matrix().alphabet().len() as u8;
        let gap = scheme.gap().linear_penalty();
        let case = format!("{} {rows}x{cols}", scheme.matrix().name());
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let ramp = Boundary::global(rows, cols, gap);
        assert_base_case_traces_match_scalar(&format!("{case} ramp"), scheme, &a, &b, &ramp, true);
        let (a, b, cut) = cut_boundary(&mut rng, scheme, rows, cols);
        assert_base_case_traces_match_scalar(&format!("{case} cut"), scheme, &a, &b, &cut, true);
    }

    // Fallbacks, which must still trace the same: a scheme whose
    // mismatch lies below 2g (its table entry is clamped at 0, so a
    // 0 would read as a Diag tie), a boundary stepping below the gap,
    // and blocks under 48 rows or 16 columns. `FLSA_KERNEL_FORCE=scalar`
    // leaves only the scalar backend, which never codes.
    let clamped = ScoringScheme::new(tables::dna_default(), GapModel::linear(-1));
    for (rows, cols) in [(48, 16), (65, 70), (129, 200)] {
        let (a, b, cut) = cut_boundary(&mut rng, &clamped, rows, cols);
        let case = format!("clamped {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &clamped, &a, &b, &cut, false);
    }
    let dna = ScoringScheme::dna_default();
    for (rows, cols) in [(48, 40), (130, 90)] {
        let a = random_codes(&mut rng, rows, 5);
        let b = random_codes(&mut rng, cols, 5);
        let mut steep = Boundary::global(rows, cols, -10);
        steep.left[rows / 2] -= 1;
        let case = format!("out-of-range {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &dna, &a, &b, &steep, false);
    }
    for (rows, cols) in [(47, 100), (100, 15)] {
        let (a, b, cut) = cut_boundary(&mut rng, &dna, rows, cols);
        let case = format!("small {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &dna, &a, &b, &cut, false);
    }
}

/// Protein schemes for the byte band: BLOSUM62 and PAM250, whose 24
/// codes take five score tables of `R = 5` row letters each. Every score
/// lies at or above `2g`, so base cases keep traceback codes.
fn protein_band_schemes() -> Vec<ScoringScheme> {
    vec![
        ScoringScheme::protein_default(),
        ScoringScheme::new(tables::pam250(), GapModel::linear(-10)),
        ScoringScheme::new(tables::blosum62(), GapModel::linear(-4)),
        ScoringScheme::new(tables::pam250(), GapModel::linear(-8)),
    ]
}

/// Codes for the protein byte band's oracle: all 24 codes (`B`, `Z`, `X`
/// and `*` included), the first 24 entries running through every code
/// once, or with `table_edges` only the first and last row letter of each
/// of its five score tables (codes 0, 4, 5, 9, …, 20, 23), where a lookup
/// that crossed into a neighbouring table would show.
fn protein_codes(rng: &mut Rng, len: usize, table_edges: bool) -> Vec<u8> {
    const EDGES: [u8; 10] = [0, 4, 5, 9, 10, 14, 15, 19, 20, 23];
    if table_edges {
        return (0..len).map(|_| EDGES[rng.below(10) as usize]).collect();
    }
    let mut codes = random_codes(rng, len, 24);
    for (slot, code) in codes.iter_mut().zip(0..24) {
        *slot = code;
    }
    codes
}

/// The protein shapes the byte band's oracle runs: heights 48 and around
/// each 64-row band edge (one to four bands, and at 257 the hand-off
/// between sweeps) at widths 16–70, and each height again a few hundred
/// wide.
fn protein_shapes(rng: &mut Rng) -> Vec<(usize, usize)> {
    let heights = [48, 63, 64, 65, 127, 128, 129, 255, 256, 257];
    let wide: Vec<usize> = heights
        .iter()
        .map(|_| 100 + rng.below(300) as usize)
        .collect();
    (16..=70)
        .map(|cols| (heights[cols % heights.len()], cols))
        .chain(heights.into_iter().zip(wide))
        .collect()
}

#[test]
fn protein_byte_band_edges_match_scalar() {
    // AVX-512 with VBMI fills BLOSUM62 and PAM250 blocks of at least 48
    // rows on the byte band, looking each step's scores up in five
    // two-register tables (four where no row letter lies past `V`). Real
    // DP boundaries (the ramp and a cut from a larger global fill) are
    // in its range; an arbitrary boundary steps below the gap and keeps
    // the row scan. Gap −1 clamps the tables' low entries at 0, which
    // the edges tolerate, so it runs on the band too.
    let mut rng = Rng::new(0x9a7e);
    let mut schemes = protein_band_schemes();
    schemes.push(ScoringScheme::new(tables::blosum62(), GapModel::linear(-1)));
    for (n, (rows, cols)) in protein_shapes(&mut rng).into_iter().enumerate() {
        let scheme = &schemes[n % schemes.len()];
        let gap = scheme.gap().linear_penalty();
        let edges = n % 3 == 0;
        let case = format!(
            "{} gap {gap} {rows}x{cols} table edges {edges}",
            scheme.matrix().name()
        );
        let a = protein_codes(&mut rng, rows, edges);
        let b = protein_codes(&mut rng, cols, false);
        let ramp = Boundary::global(rows, cols, gap);
        assert_edges_match_scalar(&format!("{case} ramp"), scheme, &a, &b, &ramp);
        let draw = |rng: &mut Rng, len| protein_codes(rng, len, edges);
        let (a, b, cut) = cut_boundary_with(&mut rng, scheme, rows, cols, draw);
        assert_edges_match_scalar(&format!("{case} cut"), scheme, &a, &b, &cut);
        let arbitrary = random_boundary(&mut rng, rows, cols);
        assert_edges_match_scalar(&format!("{case} arbitrary"), scheme, &a, &b, &arbitrary);
    }
}

#[test]
fn protein_coded_base_cases_trace_like_the_row_scan_matrix() {
    // BLOSUM62 and PAM250 base cases of at least 48 rows keep the byte
    // band's traceback codes on AVX-512 with VBMI, in the Base Case
    // buffer as an earlier base case left it, and trace back from every
    // head like `trace_from` on the scalar matrix.
    let mut rng = Rng::new(0x7e1a);
    let schemes = protein_band_schemes();
    for (n, (rows, cols)) in protein_shapes(&mut rng).into_iter().enumerate() {
        let scheme = &schemes[n % schemes.len()];
        let gap = scheme.gap().linear_penalty();
        let edges = n % 3 == 0;
        let case = format!(
            "{} gap {gap} {rows}x{cols} table edges {edges}",
            scheme.matrix().name()
        );
        let a = protein_codes(&mut rng, rows, edges);
        let b = protein_codes(&mut rng, cols, false);
        let ramp = Boundary::global(rows, cols, gap);
        assert_base_case_traces_match_scalar(&format!("{case} ramp"), scheme, &a, &b, &ramp, true);
        let draw = |rng: &mut Rng, len| protein_codes(rng, len, edges);
        let (a, b, cut) = cut_boundary_with(&mut rng, scheme, rows, cols, draw);
        assert_base_case_traces_match_scalar(&format!("{case} cut"), scheme, &a, &b, &cut, true);
    }

    // Fallbacks to the score matrix, which must still trace the same:
    // gap −1, whose low BLOSUM62 entries clamp at 0; a boundary stepping
    // below the gap; blocks under 48 rows.
    let clamped = ScoringScheme::new(tables::blosum62(), GapModel::linear(-1));
    for (rows, cols) in [(48, 16), (65, 70), (129, 200)] {
        let (a, b, cut) = cut_boundary(&mut rng, &clamped, rows, cols);
        let case = format!("clamped protein {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &clamped, &a, &b, &cut, false);
    }
    let blosum = ScoringScheme::protein_default();
    for (rows, cols) in [(48, 40), (130, 90)] {
        let a = protein_codes(&mut rng, rows, false);
        let b = protein_codes(&mut rng, cols, false);
        let mut steep = Boundary::global(rows, cols, -10);
        steep.left[rows / 2] -= 1;
        let case = format!("out-of-range protein {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &blosum, &a, &b, &steep, false);
    }
    for (rows, cols) in [(47, 100), (20, 300)] {
        let (a, b, cut) = cut_boundary(&mut rng, &blosum, rows, cols);
        let case = format!("small protein {rows}x{cols}");
        assert_base_case_traces_match_scalar(&case, &blosum, &a, &b, &cut, false);
    }
}

#[test]
fn fill_kernels_match_scalar_on_random_rectangles() {
    let mut rng = Rng::new(0xd1ff);
    let schemes = schemes();
    for case in 0..60 {
        let scheme = &schemes[case % schemes.len()];
        let codes = scheme.matrix().alphabet().len() as u8;
        // Skew toward widths that cross the vectorization cutoff and the
        // lane width, including degenerate 0/1-sized rectangles.
        let rows = rng.below(40) as usize;
        let cols = match case % 4 {
            0 => rng.below(8) as usize,
            1 => 8 + rng.below(16) as usize,
            _ => 16 + rng.below(120) as usize,
        };
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let bound = random_boundary(&mut rng, rows, cols);
        assert_fills_match_scalar(&format!("case {case}"), scheme, &a, &b, &bound);
    }
    // Every row tail: widths 16·v + r for v in 1..=3 and every remainder
    // r, so each vector backend ends rows in every partial block it can
    // (AVX-512's masked block covers 1–15 columns).
    for v in 1..=3usize {
        for r in 0..16usize {
            let cols = 16 * v + r;
            let scheme = &schemes[(v + r) % schemes.len()];
            let codes = scheme.matrix().alphabet().len() as u8;
            let rows = 1 + rng.below(12) as usize;
            let a = random_codes(&mut rng, rows, codes);
            let b = random_codes(&mut rng, cols, codes);
            let bound = random_boundary(&mut rng, rows, cols);
            assert_fills_match_scalar(&format!("width {cols}"), scheme, &a, &b, &bound);
        }
    }
    // DNA (`N` included) at every height 0..=100: each remainder mod 16
    // and mod 32, both sides of the band kernel's row threshold (8) and
    // of its one-band/two-band cut (16/17, 32/33), at widths 16..=200.
    // AVX-512 fills these as anti-diagonal bands.
    let dna = &schemes[..3];
    for rows in 0..=100usize {
        let scheme = &dna[rows % dna.len()];
        let codes = scheme.matrix().alphabet().len() as u8;
        let cols = 16 + rng.below(185) as usize;
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let bound = random_boundary(&mut rng, rows, cols);
        assert_fills_match_scalar(&format!("dna {rows}x{cols}"), scheme, &a, &b, &bound);
    }
}

/// Asserts that `cells` were filed under `ran_on` alone, in the registry
/// counters and in every traced kernel event.
fn assert_filed_under(
    what: &str,
    ran_on: KernelBackend,
    cells: u64,
    registry: &Registry,
    recorder: &Recorder,
) {
    let snap = registry.snapshot();
    for (other, metric) in KernelBackend::ALL
        .into_iter()
        .zip(names::CELLS_BACKEND_TOTAL)
    {
        let want = if other == ran_on { cells } else { 0 };
        assert_eq!(snap.counter(metric), Some(want), "{what}: cells[{other}]");
    }
    let trace = recorder.snapshot();
    assert_eq!(trace.kernel_cells(), cells, "{what}: traced cells");
    for e in &trace.events {
        if let EventKind::Kernel { backend: name, .. } = e.kind {
            assert_eq!(name, ran_on.name(), "{what}: traced backend");
        }
    }
}

/// A metrics handle wired to a fresh recorder and registry.
fn recorded_metrics() -> (Metrics, Arc<Recorder>, Registry) {
    let recorder = Arc::new(Recorder::new());
    let registry = Registry::new();
    let m = Metrics::with_recorder(Arc::clone(&recorder)).with_registry(&registry);
    (m, recorder, registry)
}

#[test]
fn fills_are_filed_under_the_backend_that_ran_them() {
    // A fill of at least 16 columns (the vector cutoff) runs on the
    // kernel's own backend; a narrower one runs the scalar loop. Affine
    // fills vectorize on AVX-512 and AVX2 only: SSE4.1 keeps the scalar
    // affine fill. Each call files its cells under the backend that ran,
    // in the registry counter and in the trace event alike.
    let scheme = ScoringScheme::dna_default();
    let affine_scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -2));
    let mut rng = Rng::new(0xa77);
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let affine_backend = match backend {
            KernelBackend::Avx2 | KernelBackend::Avx512 => backend,
            _ => KernelBackend::Scalar,
        };
        for (cols, ran_on, affine_ran_on) in [
            (16, backend, affine_backend),
            (45, backend, affine_backend),
            (15, KernelBackend::Scalar, KernelBackend::Scalar),
            (3, KernelBackend::Scalar, KernelBackend::Scalar),
        ] {
            let rows = 1 + rng.below(20) as usize;
            let a = random_codes(&mut rng, rows, 4);
            let b = random_codes(&mut rng, cols, 4);
            let bound = random_boundary(&mut rng, rows, cols);
            let (m, recorder, registry) = recorded_metrics();
            kernel.fill_full(&a, &b, &bound.top, &bound.left, &scheme, &m);
            let mut bottom = vec![0i32; cols + 1];
            kernel.fill_last_row(&a, &b, &bound.top, &bound.left, &scheme, &mut bottom, &m);
            let what = format!("backend {backend}, {rows}x{cols} fill");
            let cells = 2 * (rows * cols) as u64;
            assert_filed_under(&what, ran_on, cells, &registry, &recorder);

            let bnd = random_affine_boundary(&mut rng, rows, cols);
            let (m, recorder, registry) = recorded_metrics();
            let edges = kernel.fill_affine_edges_in(&a, &b, bnd.view(), &affine_scheme, &m);
            edges.recycle(kernel.arena());
            let storage = Default::default();
            kernel.fill_affine_full_reusing(&a, &b, bnd.view(), &affine_scheme, storage, &m);
            let what = format!("backend {backend}, {rows}x{cols} affine fill");
            let cells = 2 * (rows * cols) as u64;
            assert_filed_under(&what, affine_ran_on, cells, &registry, &recorder);
        }

        // A positive gap open (only the raw `GapModel::Affine` variant
        // builds one) breaks the scan's exactness condition: the fill
        // falls back to scalar, files there, and still matches.
        let raw = ScoringScheme::new(
            tables::dna_default(),
            GapModel::Affine {
                open: 3,
                extend: -1,
            },
        );
        let (rows, cols) = (12, 45);
        let a = random_codes(&mut rng, rows, 4);
        let b = random_codes(&mut rng, cols, 4);
        let bnd = random_affine_boundary(&mut rng, rows, cols);
        let (m, recorder, registry) = recorded_metrics();
        assert_affine_fills_match_scalar(&format!("open +3, {backend}"), &raw, &a, &b, &bnd);
        let edges = kernel.fill_affine_edges_in(&a, &b, bnd.view(), &raw, &m);
        edges.recycle(kernel.arena());
        let what = format!("backend {backend}, open +3 affine fill");
        let cells = (rows * cols) as u64;
        assert_filed_under(&what, KernelBackend::Scalar, cells, &registry, &recorder);
    }
}

/// A random affine boundary: `H` edges are random walks from a shared
/// corner (as in [`random_boundary`]); each `F` entry of the top row and
/// `E` entry of the left column is [`NEG`] or an arbitrary value near
/// the `H` beside it.
fn random_affine_boundary(rng: &mut Rng, rows: usize, cols: usize) -> AffineGlobalBoundary {
    let h = random_boundary(rng, rows, cols);
    let mut gap_state = |h: &[i32]| -> Vec<i32> {
        h.iter()
            .map(|&v| {
                if rng.below(2) == 0 {
                    NEG
                } else {
                    v + rng.range_i32(-30, 5)
                }
            })
            .collect()
    };
    let top_v = gap_state(&h.top);
    let left_e = gap_state(&h.left);
    AffineGlobalBoundary {
        top_h: h.top,
        top_v,
        left_h: h.left,
        left_e,
    }
}

fn assert_layers_eq(what: &str, got: &AffineMatrices, want: &AffineMatrices) {
    assert_eq!(got.h, want.h, "{what}: H");
    assert_eq!(got.e, want.e, "{what}: E");
    assert_eq!(got.f, want.f, "{what}: F");
}

/// Every backend lines the full fill's layers up the same way: column 1
/// of every row of `H`, `E` and `F` opens a 64-byte cache line.
fn assert_layers_lined(what: &str, mats: &AffineMatrices) {
    if mats.h.cols() == 0 {
        return;
    }
    for (name, layer) in [("H", &mats.h), ("E", &mats.e), ("F", &mats.f)] {
        for i in 0..=layer.rows() {
            let at = layer.row(i)[1..].as_ptr() as usize;
            assert_eq!(at % 64, 0, "{what}: {name} row {i} column 1 off its line");
        }
    }
}

/// Runs both affine `Kernel` fills for one rectangle on every backend
/// and asserts each equals the scalar free function: all four edges
/// (placeholders included), and every cell of `H`/`E`/`F` from fresh
/// storage and from storage a wider and a narrower solve left poisoned,
/// whose row pitch and line offset both differ from this one's.
fn assert_affine_fills_match_scalar(
    case: &str,
    scheme: &ScoringScheme,
    a: &[u8],
    b: &[u8],
    bnd: &AffineGlobalBoundary,
) {
    let (rows, cols) = (a.len(), b.len());
    let m_ref = Metrics::new();
    let edges_ref =
        affine::fill_affine_edges_in(a, b, bnd.view(), scheme, &KernelArena::new(), &m_ref);
    let full_ref = affine::fill_affine_full(a, b, bnd.view(), scheme, &m_ref);
    // Rectangles to poison the reused storage with: one wider (and
    // taller), one narrower (and taller, so its buffers are not simply
    // longer).
    let codes = scheme.matrix().alphabet().len() as u64;
    let poisons = [(rows + 3, cols + 17), (rows + 9, cols / 2)].map(|(pr, pc)| {
        let pa: Vec<u8> = (0..pr).map(|i| (i as u64 % codes) as u8).collect();
        let pb: Vec<u8> = (0..pc).map(|j| (j as u64 * 7 % codes) as u8).collect();
        (pa, pb, AffineGlobalBoundary::new(pr, pc, -1, -1))
    });

    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let what = format!("{case} backend {backend}");
        let m = Metrics::new();
        let edges = kernel.fill_affine_edges_in(a, b, bnd.view(), scheme, &m);
        assert_eq!(edges.bottom_h, edges_ref.bottom_h, "{what}: bottom H");
        assert_eq!(edges.bottom_v, edges_ref.bottom_v, "{what}: bottom F");
        assert_eq!(edges.right_h, edges_ref.right_h, "{what}: right H");
        assert_eq!(edges.right_e, edges_ref.right_e, "{what}: right E");
        edges.recycle(kernel.arena());

        let fresh =
            kernel.fill_affine_full_reusing(a, b, bnd.view(), scheme, Default::default(), &m);
        assert_layers_eq(&format!("{what} fresh"), &fresh, &full_ref);
        assert_layers_lined(&format!("{what} fresh"), &fresh);

        for (pa, pb, pbnd) in &poisons {
            let poison = kernel
                .fill_affine_full_reusing(
                    pa,
                    pb,
                    pbnd.view(),
                    scheme,
                    Default::default(),
                    &Metrics::new(),
                )
                .into_storage();
            let reused = kernel.fill_affine_full_reusing(a, b, bnd.view(), scheme, poison, &m);
            let how = format!("{what} reused after {}x{}", pa.len(), pb.len());
            assert_layers_eq(&how, &reused, &full_ref);
            assert_layers_lined(&how, &reused);
        }

        let snap = m.snapshot();
        assert_eq!(
            snap.cells_computed,
            4 * (rows * cols) as u64,
            "{what}: cells"
        );
        assert_eq!(snap.kernel_calls, 4, "{what}: kernel calls");
    }
}

/// Gap pairs the affine suite draws from: every open the scan must
/// handle exactly (`open ≤ 0`), including zero, against every extend.
const AFFINE_OPENS: [i32; 4] = [0, -1, -11, -14];
const AFFINE_EXTENDS: [i32; 3] = [0, -1, -2];

fn affine_scheme(rng: &mut Rng, which: usize) -> ScoringScheme {
    let open = AFFINE_OPENS[rng.below(AFFINE_OPENS.len() as u64) as usize];
    let extend = AFFINE_EXTENDS[rng.below(AFFINE_EXTENDS.len() as u64) as usize];
    let matrix = match which % 3 {
        0 => tables::dna_default(),
        1 => tables::blosum62(),
        _ => tables::mdm_fragment(),
    };
    ScoringScheme::new(matrix, GapModel::affine(open, extend))
}

#[test]
fn affine_fills_match_scalar_on_random_rectangles() {
    let mut rng = Rng::new(0xaff1);
    for case in 0..90 {
        let scheme = affine_scheme(&mut rng, case);
        let codes = scheme.matrix().alphabet().len() as u8;
        let rows = rng.below(40) as usize;
        let cols = rng.below(100) as usize;
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let bnd = if case % 2 == 0 {
            let (open, extend) = affine::affine_params(&scheme);
            AffineGlobalBoundary::new(rows, cols, open, extend)
        } else {
            random_affine_boundary(&mut rng, rows, cols)
        };
        assert_affine_fills_match_scalar(&format!("case {case}"), &scheme, &a, &b, &bnd);
    }
    // Every row tail: widths 16·v + r, as for the linear fills (AVX-512
    // ends rows in one masked block, AVX2 in up to 7 scalar cells).
    for v in 1..=3usize {
        for r in 0..16usize {
            let cols = 16 * v + r;
            let scheme = affine_scheme(&mut rng, v + r);
            let codes = scheme.matrix().alphabet().len() as u8;
            let rows = 1 + rng.below(12) as usize;
            let a = random_codes(&mut rng, rows, codes);
            let b = random_codes(&mut rng, cols, codes);
            let bnd = random_affine_boundary(&mut rng, rows, cols);
            assert_affine_fills_match_scalar(&format!("width {cols}"), &scheme, &a, &b, &bnd);
        }
    }
}

#[test]
fn full_pipeline_matches_scalar_per_backend() {
    let mut rng = Rng::new(0xa11);
    let scheme = ScoringScheme::dna_default();
    let alphabet = Alphabet::dna();
    for case in 0..8 {
        let la = 40 + rng.below(260) as usize;
        let lb = 40 + rng.below(260) as usize;
        let a = Sequence::from_codes(
            "a",
            &alphabet,
            random_codes(&mut rng, la, alphabet.len() as u8),
        );
        let b = Sequence::from_codes(
            "b",
            &alphabet,
            random_codes(&mut rng, lb, alphabet.len() as u8),
        );

        let m_ref = Metrics::new();
        let nw_ref = needleman_wunsch(&a, &b, &scheme, &m_ref);
        let cfg = FastLsaConfig::new(4, 256);
        let fl_ref = align_opts(
            &a,
            &b,
            &scheme,
            cfg,
            &AlignOptions {
                kernel: Some(KernelBackend::Scalar),
                ..AlignOptions::default()
            },
            &m_ref,
        )
        .unwrap();

        for backend in backends() {
            let kernel = Kernel::try_new(backend).unwrap();
            let m = Metrics::new();

            let nw = needleman_wunsch_kernel(&a, &b, &scheme, &kernel, &m);
            assert_eq!(
                nw.score, nw_ref.score,
                "case {case} backend {backend}: nw score"
            );
            assert_eq!(
                nw.path, nw_ref.path,
                "case {case} backend {backend}: nw path"
            );

            let h = hirschberg_kernel(
                &a,
                &b,
                &scheme,
                HirschbergConfig { base_cells: 128 },
                &kernel,
                &m,
            );
            assert_eq!(
                h.score, nw_ref.score,
                "case {case} backend {backend}: hirschberg"
            );

            let fl = align_opts(
                &a,
                &b,
                &scheme,
                cfg,
                &AlignOptions {
                    kernel: Some(backend),
                    ..AlignOptions::default()
                },
                &m,
            )
            .unwrap();
            assert_eq!(
                fl.score, fl_ref.score,
                "case {case} backend {backend}: fastlsa score"
            );
            assert_eq!(
                fl.path, fl_ref.path,
                "case {case} backend {backend}: fastlsa path"
            );
        }
    }
}

#[test]
fn paper_worked_example_scores_82_on_every_backend() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let metrics = Metrics::new();
        let r = needleman_wunsch_kernel(&a, &b, &scheme, &kernel, &metrics);
        assert_eq!(r.score, 82, "backend {backend}");
        let h = hirschberg_kernel(
            &a,
            &b,
            &scheme,
            HirschbergConfig { base_cells: 16 },
            &kernel,
            &metrics,
        );
        assert_eq!(h.score, 82, "backend {backend} (hirschberg)");
        let fl = align_opts(
            &a,
            &b,
            &scheme,
            FastLsaConfig::new(2, 16),
            &AlignOptions {
                kernel: Some(backend),
                ..AlignOptions::default()
            },
            &metrics,
        )
        .unwrap();
        assert_eq!(fl.score, 82, "backend {backend} (fastlsa)");
    }
}

#[test]
fn unavailable_or_unknown_backends_are_rejected_cleanly() {
    assert!(KernelBackend::parse("no-such-simd").is_none());
    assert!(
        KernelBackend::parse("lanes").is_none(),
        "lanes backend is gone"
    );
    // Whatever this CPU supports, requesting it through AlignOptions
    // must validate; the scalar fallback must always exist.
    assert!(KernelBackend::Scalar.is_available());
    assert!(Kernel::try_new(KernelBackend::Scalar).is_ok());
}
