//! Cross-checks of the affine-gap extension: the linear-space
//! Myers–Miller implementation against the full-matrix Gotoh oracle, and
//! the degenerate relationships back to the linear-gap algorithms.

use fastlsa::fullmatrix::gotoh::gotoh;
use fastlsa::hirschberg::myers_miller_affine;
use fastlsa::prelude::*;
use fastlsa::scoring::tables;
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
        let fl = fastlsa::core::align_affine(&sa, &sb, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
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

/// The linear-gap entry points refuse an affine scheme with a typed
/// error before any work, rather than panicking inside the linear
/// kernels; `align_affine` stays the affine entry point.
#[test]
fn linear_entry_points_refuse_an_affine_scheme_with_a_typed_error() {
    use fastlsa::core::{align_resume, CheckpointState, FrameState};

    let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-11, -1));
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 300, 0.8, 5).unwrap();
    let config = FastLsaConfig::new(4, 1 << 12);
    let opts = AlignOptions::default();
    let metrics = Metrics::new();
    let refused = |what: &str, got: Result<(), AlignError>| {
        assert_eq!(
            got,
            Err(AlignError::Config(ConfigError::GapModelNotLinear)),
            "{what}"
        );
    };
    let ramp = |len: usize| (0..=len as i32).map(|k| -11 * k).collect::<Vec<i32>>();
    // A snapshot taken before any work: the whole problem, head at the
    // bottom-right corner.
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
            top: ramp(b.len()),
            left: ramp(a.len()),
            grid: None,
        }],
    };

    refused("align", fastlsa::align(&a, &b, &scheme, &metrics).map(drop));
    refused(
        "align_with",
        fastlsa::align_with(&a, &b, &scheme, config.with_threads(2), &metrics).map(drop),
    );
    refused(
        "align_opts",
        fastlsa::align_opts(&a, &b, &scheme, config, &opts, &metrics).map(drop),
    );
    refused(
        "align_resume",
        align_resume(&a, &b, &scheme, state, &opts, &metrics).map(drop),
    );
    refused(
        "align_traced",
        fastlsa::align_traced(&a, &b, &scheme, config, &metrics).map(drop),
    );
    refused(
        "align_batch",
        fastlsa::align_batch(&[(&a, &b)], &scheme, &opts, &metrics).map(drop),
    );
    assert_eq!(
        metrics.snapshot().cells_computed,
        0,
        "no work before the error"
    );

    let r = fastlsa::core::align_affine(&a, &b, &scheme, config, &metrics).unwrap();
    assert_eq!(r.path.score(&a, &b, &scheme), r.score);
}
