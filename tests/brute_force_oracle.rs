//! Differential testing against an exhaustive oracle: for tiny inputs,
//! enumerate *every* possible alignment recursively (no dynamic
//! programming, no shared code with the implementations under test) and
//! confirm that every aligner finds the true optimum. The affine oracle
//! is the independent check of Gotoh, Myers–Miller and affine FastLSA,
//! which all run on one affine recurrence (`flsa_dp::affine`).

use fastlsa::fullmatrix::gotoh;
use fastlsa::hirschberg::myers_miller_affine;
use fastlsa::prelude::*;
use fastlsa::scoring::tables;
use proptest::prelude::*;

/// Exhaustive maximum alignment score of `a[i..]` vs `b[j..]`:
/// a direct transcription of the alignment definition, exponential on
/// purpose so it shares no structure with the DP implementations.
fn brute_force(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    fn rec(a: &[u8], b: &[u8], scheme: &ScoringScheme, gap: i64) -> i64 {
        match (a, b) {
            ([], rest) => gap * rest.len() as i64,
            (rest, []) => gap * rest.len() as i64,
            _ => {
                let diag = scheme.sub(a[0], b[0]) as i64 + rec(&a[1..], &b[1..], scheme, gap);
                let up = gap + rec(&a[1..], b, scheme, gap);
                let left = gap + rec(a, &b[1..], scheme, gap);
                diag.max(up).max(left)
            }
        }
    }
    rec(a, b, scheme, scheme.gap().linear_penalty() as i64)
}

/// Exhaustive maximum alignment score under an affine gap model: every
/// alignment is enumerated as a sequence of aligned pairs and maximal gap
/// runs, and a run of `L` symbols costs `open + L·extend`.
fn brute_force_affine(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    #[derive(Clone, Copy, PartialEq)]
    enum Last {
        Pair,
        RunOfA,
        RunOfB,
    }
    /// `None` when the rest cannot be aligned: a maximal run never
    /// directly follows a run over the same sequence.
    fn rec(a: &[u8], b: &[u8], last: Last, s: &ScoringScheme, open: i64, ext: i64) -> Option<i64> {
        if a.is_empty() && b.is_empty() {
            return Some(0);
        }
        let mut best = None;
        if let ([x, ra @ ..], [y, rb @ ..]) = (a, b) {
            let pair = i64::from(s.sub(*x, *y));
            best = best.max(rec(ra, rb, Last::Pair, s, open, ext).map(|r| pair + r));
        }
        if last != Last::RunOfA {
            for len in 1..=a.len() {
                let run = open + len as i64 * ext;
                best = best.max(rec(&a[len..], b, Last::RunOfA, s, open, ext).map(|r| run + r));
            }
        }
        if last != Last::RunOfB {
            for len in 1..=b.len() {
                let run = open + len as i64 * ext;
                best = best.max(rec(a, &b[len..], Last::RunOfB, s, open, ext).map(|r| run + r));
            }
        }
        best
    }
    let GapModel::Affine { open, extend } = *scheme.gap() else {
        panic!("the affine oracle needs an affine scheme");
    };
    rec(a, b, Last::Pair, scheme, open.into(), extend.into()).expect("a pair always aligns")
}

fn affine_dna(open: i32, extend: i32) -> ScoringScheme {
    ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend))
}

fn to_seq(codes: &[u8]) -> Sequence {
    Sequence::from_codes("s", &Alphabet::dna(), codes.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn all_aligners_match_the_exhaustive_optimum(
        a in prop::collection::vec(0u8..4, 0..8),
        b in prop::collection::vec(0u8..4, 0..8),
        k in 2usize..5,
    ) {
        let scheme = ScoringScheme::dna_default();
        let oracle = brute_force(&a, &b, &scheme);
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();

        prop_assert_eq!(
            fastlsa::fullmatrix::needleman_wunsch(&sa, &sb, &scheme, &metrics).score,
            oracle
        );
        prop_assert_eq!(
            fastlsa::hirschberg::hirschberg(&sa, &sb, &scheme, &metrics).score,
            oracle
        );
        prop_assert_eq!(
            fastlsa::align_with(&sa, &sb, &scheme, FastLsaConfig::new(k, 9), &metrics).unwrap().score,
            oracle
        );
    }

    #[test]
    fn affine_aligners_match_the_exhaustive_optimum(
        a in prop::collection::vec(0u8..4, 0..7),
        b in prop::collection::vec(0u8..4, 0..7),
        open in -20i32..=0,
        extend in -6i32..=-1,
        k in 2usize..5,
        base in 0usize..3,
    ) {
        let scheme = affine_dna(open, extend);
        let oracle = brute_force_affine(&a, &b, &scheme);
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();

        let full = gotoh(&sa, &sb, &scheme, &metrics);
        prop_assert_eq!(full.score, oracle);
        prop_assert_eq!(full.path.score(&sa, &sb, &scheme), oracle);
        prop_assert_eq!(myers_miller_affine(&sa, &sb, &scheme, &metrics).score, oracle);
        let config = FastLsaConfig::new(k, [9, 30, 1 << 20][base]);
        prop_assert_eq!(
            fastlsa::core::align_affine(&sa, &sb, &scheme, config, &metrics).unwrap().score,
            oracle
        );
    }

    /// Gap penalties large enough that a short span nears the i32 range:
    /// inside `max_safe_span` every affine aligner still finds the
    /// optimum, and beyond it `align_affine` refuses with a typed error.
    #[test]
    fn extreme_affine_penalties_match_the_oracle_or_overflow(
        short in prop::collection::vec(0u8..4, 0..4),
        long in prop::collection::vec(0u8..4, 0..21),
        swap in 0u8..2,
        open in -40_000_000i32..=0,
        extend in -40_000_000i32..=-1,
        k in 2usize..5,
    ) {
        let (a, b) = if swap == 0 { (short, long) } else { (long, short) };
        let scheme = affine_dna(open, extend);
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let fl = fastlsa::core::align_affine(&sa, &sb, &scheme, FastLsaConfig::new(k, 9), &metrics);
        let (span, max_span) = (a.len() + b.len(), scheme.max_safe_span());
        if span <= max_span {
            let oracle = brute_force_affine(&a, &b, &scheme);
            prop_assert_eq!(fl.unwrap().score, oracle);
            prop_assert_eq!(gotoh(&sa, &sb, &scheme, &metrics).score, oracle);
            prop_assert_eq!(myers_miller_affine(&sa, &sb, &scheme, &metrics).score, oracle);
        } else {
            prop_assert_eq!(
                fl.unwrap_err(),
                AlignError::Config(ConfigError::ScoreOverflow { span, max_span })
            );
        }
    }

    #[test]
    fn oracle_agrees_under_the_paper_scheme(
        a in prop::collection::vec(0u8..6, 0..7),
        b in prop::collection::vec(0u8..6, 0..7),
    ) {
        // Table 1 fragment scoring (6-letter alphabet) and gap -10.
        let scheme = ScoringScheme::paper_example();
        let sa = Sequence::from_codes("a", scheme.alphabet(), a.clone());
        let sb = Sequence::from_codes("b", scheme.alphabet(), b.clone());
        let oracle = brute_force(&a, &b, &scheme);
        let metrics = Metrics::new();
        prop_assert_eq!(fastlsa::align(&sa, &sb, &scheme, &metrics).unwrap().score, oracle);
    }
}

#[test]
fn oracle_reproduces_the_paper_example() {
    let scheme = ScoringScheme::paper_example();
    let a: Vec<u8> = scheme.alphabet().encode_str("TLDKLLKD").unwrap();
    let b: Vec<u8> = scheme.alphabet().encode_str("TDVLKAD").unwrap();
    assert_eq!(brute_force(&a, &b, &scheme), 82);
}

#[test]
fn affine_oracle_prices_one_open_per_run() {
    // AAAACCAAAA against AAAAAAAA: 8 matches (+40) and one length-2 run
    // (-10 + 2·-2) beat two separate length-1 runs.
    let scheme = affine_dna(-10, -2);
    let a = scheme.alphabet().encode_str("AAAACCAAAA").unwrap();
    let b = scheme.alphabet().encode_str("AAAAAAAA").unwrap();
    assert_eq!(brute_force_affine(&a, &b, &scheme), 26);
}

#[test]
#[should_panic(expected = "exceeds the i32-safe limit")]
fn gotoh_refuses_a_span_whose_scores_reach_the_sentinel() {
    // Span 541 fits the overflow bound (1072) but not the affine sentinel
    // cap (534): a reachable gap score would fall below the
    // unreachable-cell sentinel, which would then win a max.
    let scheme = affine_dna(0, -1_000_000);
    let a = to_seq(&[0]);
    let b = to_seq(&[0, 1, 2, 3].repeat(135));
    assert_eq!(scheme.max_safe_span(), 534);
    gotoh(&a, &b, &scheme, &Metrics::new());
}
