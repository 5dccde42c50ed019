//! Cross-checks of the affine-gap extension: the linear-space
//! Myers–Miller implementation and affine FastLSA against the full-matrix
//! Gotoh oracle, the degenerate relationships back to the linear-gap
//! algorithms, and affine runs under the one solver's options
//! (checkpoint/resume, cancellation, the memory governor's ladder).

use std::sync::{Arc, Mutex};

use fastlsa::core::{
    align_affine, align_resume, CheckpointPolicy, CheckpointSink, CheckpointState, FrameState,
};
use fastlsa::dp::affine::{AffineGlobalBoundary, GapState};
use fastlsa::fullmatrix::gotoh::gotoh;
use fastlsa::hirschberg::myers_miller_affine;
use fastlsa::prelude::*;
use fastlsa::scoring::tables;
use fastlsa::FaultHooks;
use proptest::prelude::*;

fn to_seq(codes: &[u8]) -> Sequence {
    Sequence::from_codes("s", &Alphabet::dna(), codes.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Myers-Miller affine equals Gotoh on arbitrary inputs and gap
    /// parameters, and its path re-scores to the reported optimum.
    #[test]
    fn myers_miller_matches_gotoh(
        a in prop::collection::vec(0u8..4, 0..90),
        b in prop::collection::vec(0u8..4, 0..90),
        open in -20i32..=0,
        extend in -6i32..=-1,
    ) {
        let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let full = gotoh(&sa, &sb, &scheme, &metrics);
        let mm = myers_miller_affine(&sa, &sb, &scheme, &metrics);
        prop_assert_eq!(mm.score, full.score);
        prop_assert!(mm.path.is_global(sa.len(), sb.len()));
        prop_assert_eq!(mm.path.score(&sa, &sb, &scheme), mm.score);
    }

    /// Affine FastLSA (the grid-cache extension) equals Gotoh for every
    /// division factor and base-case size.
    #[test]
    fn affine_fastlsa_matches_gotoh(
        a in prop::collection::vec(0u8..4, 0..80),
        b in prop::collection::vec(0u8..4, 0..80),
        open in -16i32..=0,
        extend in -5i32..=-1,
        k in 2usize..6,
        base in 9usize..2000,
    ) {
        let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let full = gotoh(&sa, &sb, &scheme, &metrics);
        let fl = align_affine(&sa, &sb, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
        prop_assert_eq!(fl.score, full.score);
        prop_assert!(fl.path.is_global(sa.len(), sb.len()));
        prop_assert_eq!(fl.path.score(&sa, &sb, &scheme), fl.score);
    }

    /// With a zero open cost the affine algorithms equal the linear ones.
    #[test]
    fn zero_open_degenerates_to_linear(
        a in prop::collection::vec(0u8..4, 0..70),
        b in prop::collection::vec(0u8..4, 0..70),
        extend in -8i32..=-1,
    ) {
        let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(0, extend));
        let linear = ScoringScheme::new(tables::dna_default(), GapModel::linear(extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let mm = myers_miller_affine(&sa, &sb, &affine, &metrics);
        let fl = fastlsa::align(&sa, &sb, &linear, &metrics).unwrap();
        prop_assert_eq!(mm.score, fl.score);
    }

    /// The affine optimum is never above the linear optimum with
    /// per-symbol cost `extend` (affine adds the open on top), and never
    /// below the linear optimum with per-symbol cost `open + extend`
    /// (which over-charges every symbol of runs longer than one).
    #[test]
    fn affine_score_sandwich(
        a in prop::collection::vec(0u8..4, 0..60),
        b in prop::collection::vec(0u8..4, 0..60),
        open in -15i32..=0,
        extend in -5i32..=-1,
    ) {
        let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let upper = ScoringScheme::new(tables::dna_default(), GapModel::linear(extend));
        let lower = ScoringScheme::new(
            tables::dna_default(),
            GapModel::linear(open.saturating_add(extend)),
        );
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let mid = myers_miller_affine(&sa, &sb, &affine, &metrics).score;
        let hi = fastlsa::align(&sa, &sb, &upper, &metrics).unwrap().score;
        let lo = fastlsa::align(&sa, &sb, &lower, &metrics).unwrap().score;
        prop_assert!(mid <= hi, "affine {mid} > extend-only {hi}");
        prop_assert!(mid >= lo, "affine {mid} < open+extend-per-symbol {lo}");
    }

    /// Banded alignment with a full-width band equals the exact optimum,
    /// and semiglobal with no free ends equals global.
    #[test]
    fn band_and_ends_degenerate_to_global(
        a in prop::collection::vec(0u8..4, 0..50),
        b in prop::collection::vec(0u8..4, 0..50),
    ) {
        let scheme = ScoringScheme::dna_default();
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let exact = fastlsa::fullmatrix::needleman_wunsch(&sa, &sb, &scheme, &metrics);
        let banded = fastlsa::fullmatrix::banded_needleman_wunsch(
            &sa, &sb, &scheme, a.len() + b.len() + 1, &metrics,
        );
        prop_assert_eq!(banded.score, exact.score);
        let semi = fastlsa::fullmatrix::semiglobal(
            &sa, &sb, &scheme, fastlsa::fullmatrix::EndsFree::default(), &metrics,
        );
        prop_assert_eq!(semi.score, exact.score);
    }
}

/// An affine scheme on DNA with the given open and extend scores.
fn affine(open: i32, extend: i32) -> ScoringScheme {
    ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend))
}

/// The whole affine problem before any work, as a snapshot: the root
/// frame, head at the bottom-right corner in `H`, and `H`-then-gap-layer
/// boundary lines.
fn root_snapshot(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
) -> CheckpointState {
    let (open, extend) = fastlsa::dp::affine::affine_params(scheme);
    let g = AffineGlobalBoundary::new(a.len(), b.len(), open, extend);
    CheckpointState {
        config,
        blocks_done: 0,
        generation: 0,
        rev_moves: Vec::new(),
        frames: vec![FrameState {
            r0: 0,
            c0: 0,
            rows: a.len(),
            cols: b.len(),
            head: (a.len(), b.len()),
            head_state: GapState::H,
            top: [g.top_h, g.top_v].concat(),
            left: [g.left_h, g.left_e].concat(),
            grid: None,
        }],
    }
}

/// Every FastLSA entry point takes the gap model from the scheme: an
/// affine scheme runs on the one solver and returns Gotoh's optimum and
/// path. Only the wavefront-parallel fill stays linear, and a parallel
/// affine configuration is refused with a typed error before any work.
#[test]
fn every_entry_point_runs_an_affine_scheme_on_the_one_solver() {
    let scheme = affine(-11, -1);
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 300, 0.8, 5).unwrap();
    let config = FastLsaConfig::new(4, 1 << 12);
    let opts = AlignOptions::default();
    let want = gotoh(&a, &b, &scheme, &Metrics::new());
    let runs = [
        ("align", fastlsa::align(&a, &b, &scheme, &Metrics::new())),
        (
            "align_with",
            fastlsa::align_with(&a, &b, &scheme, config, &Metrics::new()),
        ),
        (
            "align_opts",
            fastlsa::align_opts(&a, &b, &scheme, config, &opts, &Metrics::new()),
        ),
        (
            "align_resume",
            align_resume(
                &a,
                &b,
                &scheme,
                root_snapshot(&a, &b, &scheme, config),
                &opts,
                &Metrics::new(),
            ),
        ),
        (
            "align_affine",
            align_affine(&a, &b, &scheme, config, &Metrics::new()),
        ),
    ];
    for (what, got) in runs {
        let r = got.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(r.score, want.score, "{what}");
        assert_eq!(r.path, want.path, "{what}");
    }

    let metrics = Metrics::new();
    let got = fastlsa::align_with(&a, &b, &scheme, config.with_threads(2), &metrics);
    assert_eq!(
        got.map(drop),
        Err(AlignError::Config(ConfigError::GapModelNotLinear))
    );
    assert_eq!(
        metrics.snapshot().cells_computed,
        0,
        "no work before the error"
    );
}

/// Keeps every snapshot a run saves.
#[derive(Default)]
struct CaptureSink(Mutex<Vec<CheckpointState>>);

impl CheckpointSink for CaptureSink {
    fn save(&self, state: &CheckpointState) -> Result<u64, String> {
        self.0.lock().unwrap().push(state.clone());
        Ok(0)
    }
}

/// Resuming an affine run from any of its snapshots, some of them with a
/// path head inside a gap run, lands on the uninterrupted answer.
#[test]
fn resuming_any_affine_snapshot_reproduces_the_run() {
    let scheme = affine(-12, -1);
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 400, 0.75, 7).unwrap();
    let config = FastLsaConfig::new(4, 512);
    let reference = align_affine(&a, &b, &scheme, config, &Metrics::new()).unwrap();
    let sink = Arc::new(CaptureSink::default());
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
        ..AlignOptions::default()
    };
    let run = fastlsa::align_opts(&a, &b, &scheme, config, &opts, &Metrics::new()).unwrap();
    assert_eq!(run.path, reference.path);
    let states = sink.0.lock().unwrap().clone();
    assert!(states.len() > 5, "only {} snapshots", states.len());
    for (i, state) in states.into_iter().enumerate() {
        let r = align_resume(
            &a,
            &b,
            &scheme,
            state,
            &AlignOptions::default(),
            &Metrics::new(),
        )
        .unwrap();
        assert_eq!(r.score, reference.score, "snapshot {i}");
        assert_eq!(r.path, reference.path, "snapshot {i}");
    }
}

/// A snapshot whose lines disagree where two of them meet cannot come
/// from a run, even when its frame checks pass: resume refuses it with
/// `CorruptCheckpoint` instead of tripping a kernel's corner assertion.
#[test]
fn a_snapshot_whose_lines_disagree_at_a_corner_is_refused() {
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 400, 0.8, 5).unwrap();
    let config = FastLsaConfig::new(4, 512);
    let refused = |scheme: &ScoringScheme, state: CheckpointState, what: &str| {
        let r = align_resume(
            &a,
            &b,
            scheme,
            state,
            &AlignOptions::default(),
            &Metrics::new(),
        );
        assert!(
            matches!(r, Err(AlignError::CorruptCheckpoint { .. })),
            "{what}: {r:?}"
        );
    };

    // A linear root frame whose top row starts at 7, its left column at 0.
    let linear = ScoringScheme::dna_default();
    let ramp = fastlsa::dp::Boundary::global(a.len(), b.len(), linear.gap().linear_penalty());
    let mut top = ramp.top;
    top[0] = 7;
    let state = CheckpointState {
        config,
        blocks_done: 0,
        generation: 0,
        rev_moves: Vec::new(),
        frames: vec![FrameState {
            r0: 0,
            c0: 0,
            rows: a.len(),
            cols: b.len(),
            head: (a.len(), b.len()),
            head_state: GapState::H,
            top,
            left: ramp.left,
            grid: None,
        }],
    };
    refused(&linear, state, "linear root corner");

    // Under each gap model, a real snapshot with the root grid filled,
    // one grid row's `H` off by one where it crosses a grid column.
    for scheme in [linear, affine(-12, -1)] {
        let sink = Arc::new(CaptureSink::default());
        let opts = AlignOptions {
            checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
            ..AlignOptions::default()
        };
        fastlsa::align_opts(&a, &b, &scheme, config, &opts, &Metrics::new()).unwrap();
        let mut state = sink.0.lock().unwrap().first().cloned().expect("a snapshot");
        let grid = state.frames[0]
            .grid
            .as_mut()
            .expect("the root grid is filled");
        let c = grid.col_bounds[1];
        grid.rows_cache[0][c] += 1;
        refused(&scheme, state, &format!("{:?} grid crossing", scheme.gap()));
    }
}

/// Cancelling an affine run forces a final snapshot, and that snapshot
/// resumes to the uninterrupted answer.
#[test]
fn a_cancelled_affine_run_resumes_from_its_forced_snapshot() {
    struct CancelAt(u64, CancelToken);
    impl FaultHooks for CancelAt {
        fn on_step(&self, step: u64) {
            if step == self.0 {
                self.1.cancel();
            }
        }
    }
    let scheme = affine(-10, -2);
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 350, 0.8, 13).unwrap();
    let config = FastLsaConfig::new(4, 256);
    let reference = align_affine(&a, &b, &scheme, config, &Metrics::new()).unwrap();
    for at in [2u64, 5, 9, 14] {
        let token = CancelToken::new();
        let sink = Arc::new(CaptureSink::default());
        let opts = AlignOptions {
            cancel: Some(token.clone()),
            hooks: Some(Arc::new(CancelAt(at, token))),
            // Only the forced snapshot can fire before the cancellation.
            checkpoint: Some(CheckpointPolicy::new(u64::MAX, sink.clone())),
            ..AlignOptions::default()
        };
        let err = fastlsa::align_opts(&a, &b, &scheme, config, &opts, &Metrics::new());
        assert_eq!(err.map(drop), Err(AlignError::Cancelled), "cancel at {at}");
        let state = sink.0.lock().unwrap().pop().expect("a forced snapshot");
        let r = align_resume(
            &a,
            &b,
            &scheme,
            state,
            &AlignOptions::default(),
            &Metrics::new(),
        )
        .unwrap();
        assert_eq!(r.score, reference.score, "cancel at {at}");
        assert_eq!(r.path, reference.path, "cancel at {at}");
    }
}

/// A byte budget too small for the first rung's three Base Case layers
/// walks the degradation ladder instead of failing, and the degraded run
/// still finds Gotoh's optimum.
#[test]
fn an_affine_budget_below_the_first_rung_degrades_to_gotohs_answer() {
    use fastlsa::metrics::{names, Registry};
    let scheme = affine(-11, -1);
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 200, 0.8, 23).unwrap();
    let reg = Arc::new(Registry::new());
    let opts = AlignOptions {
        budget_bytes: Some(64 << 10),
        registry: Some(reg.clone()),
        ..AlignOptions::default()
    };
    let config = FastLsaConfig::new(4, 1 << 20);
    let r = fastlsa::align_opts(&a, &b, &scheme, config, &opts, &Metrics::new()).unwrap();
    assert_eq!(r.score, gotoh(&a, &b, &scheme, &Metrics::new()).score);
    let snap = reg.snapshot();
    assert!(snap.counter(names::DEGRADE_STEPS_TOTAL).unwrap() >= 1);
    assert!(snap.counter(names::MEM_REFUSED_TOTAL).unwrap() >= 1);
}

/// A 40-base gap with k=4 and a tiny base case: the run crosses several
/// grid rows, exercising the stateful head repeatedly.
#[test]
fn long_gap_crossing_many_grid_lines() {
    let scheme = affine(-30, -1);
    let core = "ACGTACGTACGTACGTACGT";
    let a = Sequence::from_str(
        "a",
        scheme.alphabet(),
        &format!("{core}{}{core}", "C".repeat(40)),
    )
    .unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), &format!("{core}{core}")).unwrap();
    let metrics = Metrics::new();
    let oracle = gotoh(&a, &b, &scheme, &metrics);
    let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 64), &metrics).unwrap();
    assert_eq!(r.score, oracle.score);
    // The 40 Ups must be one contiguous run (single open), otherwise the
    // rescore would fall short of the oracle.
    let ups: Vec<usize> = r
        .path
        .moves()
        .iter()
        .enumerate()
        .filter(|(_, &m)| m == Move::Up)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(ups.len(), 40);
    assert!(ups.windows(2).all(|w| w[1] == w[0] + 1));
}

/// Affine FastLSA's footprint stays a small fraction of Gotoh's three
/// full layers.
#[test]
fn memory_stays_linear() {
    let scheme = affine(-10, -2);
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 1500, 0.85, 4).unwrap();
    let m_fl = Metrics::new();
    align_affine(&a, &b, &scheme, FastLsaConfig::new(8, 1 << 12), &m_fl).unwrap();
    let m_g = Metrics::new();
    gotoh(&a, &b, &scheme, &m_g);
    assert!(
        m_fl.snapshot().peak_bytes * 10 < m_g.snapshot().peak_bytes,
        "fastlsa-affine {} vs gotoh {}",
        m_fl.snapshot().peak_bytes,
        m_g.snapshot().peak_bytes
    );
}

/// A pair that fits one base case tracks exactly its three affine layers
/// (`H`, `E`, `F`) at the lined length, row padding included, and
/// nothing else: no grid, no second copy of the buffers.
#[test]
fn one_base_case_tracks_exactly_three_lined_layers() {
    use fastlsa::dp::ScoreMatrix;

    let scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(-11, -1));
    // Widths below, across and well past one 16-entry row pad.
    for (len, seed) in [(9, 1), (120, 2), (700, 3)] {
        let (a, b) = generate::homologous_pair("t", &Alphabet::protein(), len, 0.8, seed).unwrap();
        let metrics = Metrics::new();
        let config = FastLsaConfig::new(4, 1 << 20);
        let r = align_affine(&a, &b, &scheme, config, &metrics).unwrap();
        assert_eq!(r.score, gotoh(&a, &b, &scheme, &Metrics::new()).score);
        let layer = ScoreMatrix::lined_len(a.len(), b.len()) * std::mem::size_of::<i32>();
        assert_eq!(
            metrics.snapshot().peak_bytes,
            3 * layer as u64,
            "{}x{}",
            a.len(),
            b.len()
        );
    }
}

/// A pair that splits reserves a lined layer of its first split's
/// largest block per affine layer, not `BM`: that block bounds every base
/// case below it. Here each block fits `BM`, so the run tracks exactly
/// that reservation plus the root grid's two-layer lines.
#[test]
fn a_splitting_pair_reserves_its_largest_block_not_bm() {
    use fastlsa::dp::ScoreMatrix;

    let scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(-11, -1));
    let (a, b) = generate::homologous_pair("t", &Alphabet::protein(), 1500, 0.8, 5).unwrap();
    let (m, n, k) = (a.len(), b.len(), 4);
    let bm = 1 << 20;
    assert!((m + 1) * (n + 1) > bm, "{m}x{n} must split");
    let metrics = Metrics::new();
    let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(k, bm), &metrics).unwrap();
    assert_eq!(r.score, gotoh(&a, &b, &scheme, &Metrics::new()).score);
    let block = ScoreMatrix::lined_len(m.div_ceil(k), n.div_ceil(k));
    assert!(block < bm);
    let grid = 2 * (k - 1) * ((n + 1) + (m + 1));
    assert_eq!(
        metrics.snapshot().peak_bytes,
        ((3 * block + grid) * std::mem::size_of::<i32>()) as u64,
        "{m}x{n}"
    );
}
