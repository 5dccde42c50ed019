//! Gotoh affine-gap global alignment (production extension).
//!
//! Not part of the paper's evaluation (the paper uses linear gaps
//! throughout); provided because every production aligner offers affine
//! gaps. It is the full-matrix reference the linear-space affine
//! aligners are tested against, as [`crate::needleman_wunsch`] is for
//! linear gaps, and runs on the same affine fill and traceback as they do
//! ([`flsa_dp::affine`]).

use flsa_dp::affine::{
    affine_params, fill_affine_full, trace_affine, AffineGlobalBoundary, GapState,
};
use flsa_dp::{AlignResult, Metrics, Move, PathBuilder};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

/// Affine-gap global alignment (Gotoh's algorithm): gap of length L costs
/// `open + L·extend`.
///
/// Uses three full matrices (best-overall `H`, ending in a Left run `E`,
/// ending in an Up run `F`), so memory is 3× the linear-gap FM aligner.
/// Like [`crate::needleman_wunsch`], `traceback_steps` counts the moves
/// recovered from the matrices, not the final walk along the gap-ramp
/// boundary to the origin.
///
/// # Panics
///
/// Panics when `scheme.gap()` is not [`flsa_scoring::GapModel::Affine`],
/// and as [`ScoringScheme::check_sequences`] does.
pub fn gotoh(a: &Sequence, b: &Sequence, scheme: &ScoringScheme, metrics: &Metrics) -> AlignResult {
    scheme.check_sequences(a, b);
    let (open, extend) = affine_params(scheme);
    let (m, n) = (a.len(), b.len());
    let bnd = AffineGlobalBoundary::new(m, n, open, extend);
    let mats = fill_affine_full(a.codes(), b.codes(), bnd.view(), scheme, metrics);
    let _mem = metrics.track_alloc(3 * mats.h.bytes());
    metrics.add_base_case_cells(m as u64 * n as u64);

    let mut builder = PathBuilder::new();
    let ((ei, ej), _) = trace_affine(
        &mats,
        a.codes(),
        b.codes(),
        scheme,
        (m, n),
        GapState::H,
        &mut builder,
        metrics,
    );
    // The exit is on the gap-ramp boundary; the optimal continuation to
    // the origin runs straight along it.
    for _ in 0..ei {
        builder.push_back(Move::Up);
    }
    for _ in 0..ej {
        builder.push_back(Move::Left);
    }
    AlignResult {
        score: mats.h.get(m, n) as i64,
        path: builder.finish((0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::needleman_wunsch;
    use flsa_scoring::GapModel;

    fn dna2(s: &str) -> Sequence {
        let scheme = ScoringScheme::dna_default();
        Sequence::from_str("s", scheme.alphabet(), s).unwrap()
    }

    #[test]
    fn zero_open_equals_linear_gap() {
        let linear = ScoringScheme::dna_default();
        let affine = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(0, -10),
        );
        let a = dna2("ACGTACGTTT");
        let b = dna2("ACGACGTT");
        let metrics = Metrics::new();
        let lin = needleman_wunsch(&a, &b, &linear, &metrics);
        let aff = gotoh(&a, &b, &affine, &metrics);
        assert_eq!(lin.score, aff.score);
        assert_eq!(aff.path.score(&a, &b, &linear), aff.score);
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // With affine gaps, one length-2 gap is cheaper than two length-1
        // gaps; the path should concentrate its gaps.
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-10, -1),
        );
        let a = dna2("AAAACCAAAA");
        let b = dna2("AAAAAAAA");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        // Expect: 8 matches (40) + one gap of length 2 (-12) = 28.
        assert_eq!(r.score, 28);
        assert_eq!(r.path.score(&a, &b, &scheme), r.score);
        // The two Up moves must be adjacent (single run).
        let ups: Vec<usize> = r
            .path
            .moves()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Move::Up)
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[1], ups[0] + 1);
    }

    #[test]
    fn gotoh_path_is_global_and_rescoreable() {
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-12, -2),
        );
        let a = dna2("ACGTTGCAACGT");
        let b = dna2("ACGTGCACGTT");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        assert!(r.path.is_global(a.len(), b.len()));
        assert_eq!(r.path.score(&a, &b, &scheme), r.score);
    }

    #[test]
    fn empty_sequences_cost_one_gap_open() {
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-10, -2),
        );
        let a = dna2("");
        let b = dna2("ACG");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        assert_eq!(r.score, -16); // -10 open + 3 * -2 extend
        assert_eq!(r.path.moves(), &[Move::Left; 3]);
        // As in needleman_wunsch, the walk along the boundary to the
        // origin is not a traceback step.
        assert_eq!(metrics.snapshot().traceback_steps, 0);
    }

    #[test]
    #[should_panic(expected = "requires GapModel::Affine")]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        let a = dna2("ACG");
        let metrics = Metrics::new();
        gotoh(&a, &a, &scheme, &metrics);
    }
}
