//! Differential suite: every DP kernel backend must be **bit-identical**
//! to the scalar reference — same scores, same [`Metrics`] cell counts,
//! same tracebacks — on randomized sequences, schemes, and boundaries.
//!
//! This is the contract that makes backend selection transparent: a run
//! on AVX2 and a run on a scalar-only machine must produce byte-identical
//! output. The SIMD kernels use an exact algebraic reformulation of the
//! recurrence (prefix-max scan), so equality here is integer equality,
//! not approximation.
//!
//! The affine (Gotoh) fills are under it too: [`Kernel::fill_affine_edges_in`]
//! and [`Kernel::fill_affine_full_reusing`] must reproduce the scalar
//! free functions in `flsa_dp::affine` — every edge, every `H`/`E`/`F`
//! entry — whichever backend runs them.
//!
//! The inter-sequence [`BatchKernel`] is under the same contract: a batch
//! of independent pairs must return exactly the results of aligning each
//! pair alone on the scalar kernel, including when `i16` saturation
//! forces per-lane fallback.
//!
//! Set `FLSA_KERNEL_FORCE=scalar` (comma-separated backend names) to
//! restrict the swept set — CI uses this to exercise the portable
//! backends on machines whose SIMD features it cannot assume (a
//! scalar-forced kernel also pins the batch kernel to its portable
//! striped path).

use std::sync::Arc;

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::affine::{self, AffineGlobalBoundary, AffineMatrices, NEG};
use flsa_dp::kernel::{fill_dir, fill_full, fill_last_row_col};
use flsa_dp::{BatchJob, BatchKernel, Boundary, Kernel, KernelArena, KernelBackend, Metrics};
use flsa_fullmatrix::{needleman_wunsch, needleman_wunsch_kernel};
use flsa_hirschberg::{hirschberg_kernel, HirschbergConfig};
use flsa_metrics::{names, Registry};
use flsa_scoring::{tables, GapModel, ScoringScheme};
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

/// Runs `fill_full`, `fill_last_row_col` and `fill_dir` for one
/// rectangle on every backend and asserts each equals the scalar
/// reference, cell counts included.
fn assert_fills_match_scalar(
    case: &str,
    scheme: &ScoringScheme,
    a: &[u8],
    b: &[u8],
    bound: &Boundary,
) {
    let (rows, cols) = (a.len(), b.len());
    let m_ref = Metrics::new();
    let full_ref = fill_full(a, b, &bound.top, &bound.left, scheme, &m_ref);
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
    let (dirs_ref, last_ref) = fill_dir(a, b, &bound.top, &bound.left, scheme, &m_ref);

    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let m = Metrics::new();
        let full = kernel.fill_full(a, b, &bound.top, &bound.left, scheme, &m);
        assert_eq!(full, full_ref, "{case} backend {backend}: fill_full");

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

        let (dirs, last) = kernel.fill_dir(a, b, &bound.top, &bound.left, scheme, &m);
        assert_eq!(last, last_ref, "{case} backend {backend}: dir last row");
        for i in 0..=rows {
            for j in 0..=cols {
                assert_eq!(
                    dirs.get(i, j),
                    dirs_ref.get(i, j),
                    "{case} backend {backend}: dir ({i},{j})"
                );
            }
        }
        // Identical work accounting: cells_computed must not depend
        // on the backend.
        assert_eq!(
            m.snapshot().cells_computed,
            m_ref.snapshot().cells_computed,
            "{case} backend {backend}: cells_computed"
        );
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
            kernel.fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &m);
            let what = format!("backend {backend}, {rows}x{cols} fill");
            let cells = 3 * (rows * cols) as u64;
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

/// Runs both affine `Kernel` fills for one rectangle on every backend
/// and asserts each equals the scalar free function: all four edges
/// (placeholders included), and all of `H`/`E`/`F` from fresh storage
/// and from storage poisoned by a larger solve.
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
    // A larger rectangle to poison the reused storage with.
    let codes = scheme.matrix().alphabet().len() as u64;
    let big_a: Vec<u8> = (0..rows + 3).map(|i| (i as u64 % codes) as u8).collect();
    let big_b: Vec<u8> = (0..cols + 17)
        .map(|j| (j as u64 * 7 % codes) as u8)
        .collect();
    let big_bnd = AffineGlobalBoundary::new(rows + 3, cols + 17, -1, -1);

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

        let poison = kernel
            .fill_affine_full_reusing(
                &big_a,
                &big_b,
                big_bnd.view(),
                scheme,
                Default::default(),
                &Metrics::new(),
            )
            .into_storage();
        let reused = kernel.fill_affine_full_reusing(a, b, bnd.view(), scheme, poison, &m);
        assert_layers_eq(&format!("{what} reused"), &reused, &full_ref);

        let snap = m.snapshot();
        assert_eq!(
            snap.cells_computed,
            3 * (rows * cols) as u64,
            "{what}: cells"
        );
        assert_eq!(snap.kernel_calls, 3, "{what}: kernel calls");
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

/// The scalar reference for one batch job: single-pair packed-direction
/// fill + canonical traceback on the scalar kernel.
fn single_reference(job: &BatchJob<'_>, metrics: &Metrics) -> flsa_dp::AlignResult {
    let batch = BatchKernel::new(Kernel::scalar());
    let mut r = batch.align_batch(std::slice::from_ref(job), metrics);
    assert_eq!(r.len(), 1);
    r.remove(0)
}

#[test]
fn batch_kernel_matches_sequential_scalar_on_random_pair_sets() {
    let mut rng = Rng::new(0xba7c);
    let schemes = schemes();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let batch = BatchKernel::new(kernel);
        for round in 0..4 {
            // Pair counts straddling the lane width, with empty and
            // length-1 sequences mixed in.
            let n_jobs = 1 + rng.below(40) as usize;
            let pairs: Vec<(Vec<u8>, Vec<u8>, usize)> = (0..n_jobs)
                .map(|_| {
                    let s = rng.below(schemes.len() as u64) as usize;
                    let codes = schemes[s].matrix().alphabet().len() as u8;
                    let la = rng.below(60) as usize;
                    let lb = rng.below(60) as usize;
                    (
                        random_codes(&mut rng, la, codes),
                        random_codes(&mut rng, lb, codes),
                        s,
                    )
                })
                .collect();
            let jobs: Vec<BatchJob<'_>> = pairs
                .iter()
                .map(|(a, b, s)| BatchJob {
                    a,
                    b,
                    scheme: &schemes[*s],
                })
                .collect();
            let got = batch.align_batch(&jobs, &Metrics::new());
            assert_eq!(got.len(), jobs.len());
            for (k, (job, r)) in jobs.iter().zip(got.iter()).enumerate() {
                let want = single_reference(job, &Metrics::new());
                assert_eq!(
                    r, &want,
                    "backend {backend} round {round} job {k}: batch diverged"
                );
            }
        }
    }
}

#[test]
fn batch_kernel_saturating_scores_force_exact_fallback() {
    // +2000/−2000 climbs out of the i16 safe zone within ~16 matched
    // residues: admitted upfront, flagged by the runtime min/max tracker,
    // recomputed exactly. Results must still match the scalar single path.
    let m = flsa_scoring::SubstitutionMatrix::match_mismatch("sat", Alphabet::dna(), 2000, -2000);
    let scheme = ScoringScheme::new(m, GapModel::linear(-2));
    let mut rng = Rng::new(0x5a7);
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..12)
        .map(|k| {
            if k % 3 == 0 {
                // Identical pair: monotone climb, guaranteed saturation.
                let a = random_codes(&mut rng, 40 + k, 4);
                (a.clone(), a)
            } else {
                (
                    random_codes(&mut rng, 30 + k, 4),
                    random_codes(&mut rng, 25 + k, 4),
                )
            }
        })
        .collect();
    let jobs: Vec<BatchJob<'_>> = pairs
        .iter()
        .map(|(a, b)| BatchJob {
            a,
            b,
            scheme: &scheme,
        })
        .collect();
    for backend in backends() {
        let batch = BatchKernel::new(Kernel::try_new(backend).unwrap());
        let got = batch.align_batch(&jobs, &Metrics::new());
        for (k, (job, r)) in jobs.iter().zip(got.iter()).enumerate() {
            let want = single_reference(job, &Metrics::new());
            assert_eq!(r, &want, "backend {backend} job {k}: saturating batch");
        }
    }
}

#[test]
fn paper_worked_example_scores_82_in_a_batch() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
    // The paper pair in every lane of a full chunk plus a ragged tail.
    let jobs = vec![
        BatchJob {
            a: a.codes(),
            b: b.codes(),
            scheme: &scheme,
        };
        21
    ];
    for backend in backends() {
        let batch = BatchKernel::new(Kernel::try_new(backend).unwrap());
        for (k, r) in batch.align_batch(&jobs, &Metrics::new()).iter().enumerate() {
            assert_eq!(r.score, 82, "backend {backend} lane {k}");
            assert!(r.path.is_global(a.len(), b.len()), "backend {backend}");
        }
    }
}
