//! Semi-global ("ends-free") alignment.
//!
//! Global alignment with selected terminal gaps un-penalized — the
//! standard tool for overlap detection (free leading gaps in one
//! sequence, free trailing gaps in the other) and for fitting a short
//! query inside a long reference (all four ends of the reference free).

use flsa_dp::kernel::fill_full;
use flsa_dp::traceback::trace_from;
use flsa_dp::{AlignResult, Boundary, Metrics, Move, PathBuilder};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

/// Which terminal gaps are free (un-penalized).
///
/// `a` is the vertical sequence (rows), `b` the horizontal one (columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndsFree {
    /// Leading gaps in `a` are free (the path may start anywhere in row 0
    /// … i.e. skip a prefix of `b`): free first row.
    pub b_prefix: bool,
    /// Leading gaps in `b` free (skip a prefix of `a`): free first column.
    pub a_prefix: bool,
    /// Trailing gaps in `a` free (skip a suffix of `b`): the path may end
    /// anywhere in the last row.
    pub b_suffix: bool,
    /// Trailing gaps in `b` free (skip a suffix of `a`): end anywhere in
    /// the last column.
    pub a_suffix: bool,
}

impl EndsFree {
    /// Fit the (short) vertical sequence `a` inside `b`: both a prefix
    /// and a suffix of `b` are free.
    pub const FIT_A_IN_B: EndsFree = EndsFree {
        b_prefix: true,
        a_prefix: false,
        b_suffix: true,
        a_suffix: false,
    };

    /// Dovetail overlap: a suffix of `a` aligns a prefix of `b` (free
    /// prefix of `a`, free suffix of `b`).
    pub const OVERLAP_A_THEN_B: EndsFree = EndsFree {
        b_prefix: false,
        a_prefix: true,
        b_suffix: true,
        a_suffix: false,
    };
}

/// Semi-global alignment with the given free ends. With all four flags
/// false this is exactly global Needleman–Wunsch.
///
/// The returned path is always a complete `(0,0) → (m,n)` staircase;
/// the free terminal gap runs are included as moves but excluded from
/// the score.
pub fn semiglobal(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    ends: EndsFree,
    metrics: &Metrics,
) -> AlignResult {
    scheme.check_sequences(a, b);
    let (m, n) = (a.len(), b.len());
    // Free leading gaps cost nothing: zero that side's gap ramp.
    let mut bound = Boundary::global(m, n, scheme.gap().linear_penalty());
    if ends.b_prefix {
        bound.top.fill(0);
    }
    if ends.a_prefix {
        bound.left.fill(0);
    }
    let dpm = fill_full(
        a.codes(),
        b.codes(),
        &bound.top,
        &bound.left,
        scheme,
        metrics,
    );
    let _mem = metrics.track_alloc(dpm.bytes());

    // End point: the best cell among those reachable by free trailing gaps.
    let mut end = (m, n);
    let mut best = dpm.get(m, n);
    if ends.b_suffix {
        for j in 0..=n {
            if dpm.get(m, j) > best {
                best = dpm.get(m, j);
                end = (m, j);
            }
        }
    }
    if ends.a_suffix {
        for i in 0..=m {
            if dpm.get(i, n) > best {
                best = dpm.get(i, n);
                end = (i, n);
            }
        }
    }

    // Trailing free moves from `end` to (m, n), prepended first.
    let mut builder = PathBuilder::new();
    for _ in end.0..m {
        builder.push_back(Move::Up);
    }
    for _ in end.1..n {
        builder.push_back(Move::Left);
    }

    let (i, j) = trace_from(
        &dpm,
        a.codes(),
        b.codes(),
        scheme,
        end,
        &mut builder,
        metrics,
    );

    // Leading free/boundary moves back to the origin.
    for _ in 0..i {
        builder.push_back(Move::Up);
    }
    for _ in 0..j {
        builder.push_back(Move::Left);
    }
    AlignResult {
        score: best as i64,
        path: builder.finish((0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::needleman_wunsch;

    fn dna(s: &str) -> Sequence {
        Sequence::from_str("s", ScoringScheme::dna_default().alphabet(), s).unwrap()
    }

    #[test]
    fn no_free_ends_equals_global() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("ACGTTACG");
        let b = dna("ACTTACGG");
        let metrics = Metrics::new();
        let global = needleman_wunsch(&a, &b, &scheme, &metrics);
        let semi = semiglobal(&a, &b, &scheme, EndsFree::default(), &metrics);
        assert_eq!(semi.score, global.score);
        assert_eq!(semi.path, global.path);
    }

    #[test]
    fn fit_short_query_in_long_reference() {
        let scheme = ScoringScheme::dna_default();
        let query = dna("GATTACA");
        let reference = dna("CCCCCCGATTACACCCCCC");
        let metrics = Metrics::new();
        let r = semiglobal(&query, &reference, &scheme, EndsFree::FIT_A_IN_B, &metrics);
        // Perfect embedded match: 7 * +5, flanks free.
        assert_eq!(r.score, 35);
        assert!(r.path.is_global(query.len(), reference.len()));
        // The non-gap portion must cover exactly the query.
        let (d, u, _l) = r.path.move_counts();
        assert_eq!(d + u, query.len());
        assert_eq!(u, 0, "perfect match needs no vertical gaps");
    }

    #[test]
    fn overlap_detection() {
        // Suffix of a overlaps prefix of b by 6 matching bases.
        let scheme = ScoringScheme::dna_default();
        let a = dna("TTTTTTACGTAC");
        let b = dna("ACGTACGGGGGG");
        let metrics = Metrics::new();
        let r = semiglobal(&a, &b, &scheme, EndsFree::OVERLAP_A_THEN_B, &metrics);
        assert_eq!(r.score, 30, "6 overlap matches at +5");
        let global = needleman_wunsch(&a, &b, &scheme, &metrics);
        assert!(r.score > global.score);
    }

    #[test]
    fn semiglobal_score_at_least_global() {
        // Freeing ends can only help.
        let scheme = ScoringScheme::dna_default();
        let a = dna("ACGGCTATTTT");
        let b = dna("GGGACGGCTAT");
        let metrics = Metrics::new();
        let global = needleman_wunsch(&a, &b, &scheme, &metrics).score;
        for ends in [
            EndsFree {
                b_prefix: true,
                ..Default::default()
            },
            EndsFree {
                a_prefix: true,
                ..Default::default()
            },
            EndsFree {
                b_suffix: true,
                ..Default::default()
            },
            EndsFree {
                a_suffix: true,
                ..Default::default()
            },
            EndsFree {
                b_prefix: true,
                a_prefix: true,
                b_suffix: true,
                a_suffix: true,
            },
        ] {
            let r = semiglobal(&a, &b, &scheme, ends, &metrics);
            assert!(r.score >= global, "{ends:?}");
            assert!(r.path.is_global(a.len(), b.len()), "{ends:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        let scheme = ScoringScheme::dna_default();
        let e = dna("");
        let b = dna("ACGT");
        let metrics = Metrics::new();
        let r = semiglobal(&e, &b, &scheme, EndsFree::FIT_A_IN_B, &metrics);
        assert_eq!(r.score, 0, "empty query fits for free");
        let r = semiglobal(&e, &b, &scheme, EndsFree::default(), &metrics);
        assert_eq!(r.score, -40);
    }
}
