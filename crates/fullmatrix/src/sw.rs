//! Smith–Waterman local alignment.
//!
//! The other canonical FM algorithm the paper cites (§1.1). Local
//! alignment zero-floors the recurrence and tracebacks from the best cell
//! to the nearest zero cell.

use flsa_dp::{KernelBackend, Metrics, Move, Path, PathBuilder, ScoreMatrix};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

/// The outcome of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignResult {
    /// Best local score (≥ 0; 0 means no positive-scoring segment pair).
    pub score: i64,
    /// The local path; `path.start()`/`path.end()` are DPM coordinates, so
    /// the aligned segments are `a[start.0..end.0]` and `b[start.1..end.1]`.
    pub path: Path,
}

impl LocalAlignResult {
    /// The aligned segment of the vertical sequence, as a residue range.
    pub fn a_range(&self) -> std::ops::Range<usize> {
        self.path.start().0..self.path.end().0
    }

    /// The aligned segment of the horizontal sequence, as a residue range.
    pub fn b_range(&self) -> std::ops::Range<usize> {
        self.path.start().1..self.path.end().1
    }
}

/// Smith–Waterman local alignment over a full score matrix.
///
/// # Examples
///
/// ```
/// use flsa_fullmatrix::smith_waterman;
/// use flsa_dp::Metrics;
/// use flsa_scoring::ScoringScheme;
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::dna_default();
/// let a = Sequence::from_str("a", scheme.alphabet(), "TTTTACGTACGTTTTT").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "GGGACGTACGGGG").unwrap();
/// let metrics = Metrics::new();
/// let r = smith_waterman(&a, &b, &scheme, &metrics);
/// assert_eq!(r.score, 7 * 5); // the common ACGTACG core
/// ```
pub fn smith_waterman(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> LocalAlignResult {
    scheme.check_sequences(a, b);
    let (m, n) = (a.len(), b.len());
    // Release guard for the `codes()[i - 1]` indexing below: the DP
    // loops trust `len() == codes().len()`.
    assert_eq!(a.codes().len(), m, "a codes length");
    assert_eq!(b.codes().len(), n, "b codes length");
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();

    let mut dpm = ScoreMatrix::new(m, n);
    let _mem = metrics.track_alloc(dpm.bytes());
    let mut best = 0i32;
    let mut best_at = (0usize, 0usize);
    for i in 1..=m {
        let ai = a.codes()[i - 1];
        let (prev, cur) = dpm.rows_prev_cur(i);
        let mut left_val = 0i32;
        cur[0] = 0;
        for j in 1..=n {
            let diag = prev[j - 1] + matrix.score(ai, b.codes()[j - 1]);
            let up = prev[j] + gap;
            let lf = left_val + gap;
            let v = diag.max(up).max(lf).max(0);
            cur[j] = v;
            left_val = v;
            if v > best {
                best = v;
                best_at = (i, j);
            }
        }
    }
    metrics.add_cells(m as u64 * n as u64, KernelBackend::Scalar);
    metrics.add_base_case_cells(m as u64 * n as u64);

    // Traceback from the best cell to the nearest zero cell, with the
    // shared Diag ≻ Up ≻ Left tie-break.
    let mut builder = PathBuilder::new();
    let (mut i, mut j) = best_at;
    let mut steps = 0u64;
    while i > 0 && j > 0 {
        let v = dpm.get(i, j);
        if v == 0 {
            break;
        }
        let mv = if dpm.get(i - 1, j - 1) + matrix.score(a.codes()[i - 1], b.codes()[j - 1]) == v {
            i -= 1;
            j -= 1;
            Move::Diag
        } else if dpm.get(i - 1, j) + gap == v {
            i -= 1;
            Move::Up
        } else if dpm.get(i, j - 1) + gap == v {
            j -= 1;
            Move::Left
        } else {
            // v arose from the zero floor: the local path starts here.
            break;
        };
        builder.push_back(mv);
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    LocalAlignResult {
        score: best as i64,
        path: builder.finish((i, j)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> Sequence {
        Sequence::from_str("s", ScoringScheme::dna_default().alphabet(), s).unwrap()
    }

    #[test]
    fn finds_embedded_common_segment() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("TTTTTACGTACGTCCCC");
        let b = dna("GGGGACGTACGTAAAA");
        let metrics = Metrics::new();
        let r = smith_waterman(&a, &b, &scheme, &metrics);
        assert_eq!(r.score, 8 * 5);
        assert_eq!(&a.to_string()[r.a_range()], "ACGTACGT");
        assert_eq!(&b.to_string()[r.b_range()], "ACGTACGT");
    }

    #[test]
    fn disjoint_alphabets_score_zero() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("AAAA");
        let b = dna("GGGG");
        let metrics = Metrics::new();
        let r = smith_waterman(&a, &b, &scheme, &metrics);
        assert_eq!(r.score, 0);
        assert!(r.path.is_empty());
    }

    #[test]
    fn local_path_rescores_to_local_score() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("CCCACGTAGGGACGTA");
        let b = dna("ACGTATTTACGTA");
        let metrics = Metrics::new();
        let r = smith_waterman(&a, &b, &scheme, &metrics);
        assert_eq!(r.path.score(&a, &b, &scheme), r.score);
    }

    #[test]
    fn local_beats_global_on_flanked_match() {
        // Global alignment must pay for the mismatched flanks; local skips
        // them — the standard motivation for Smith-Waterman.
        let scheme = ScoringScheme::dna_default();
        let a = dna("TTTTTTTTTTACGTACGT");
        let b = dna("ACGTACGTGGGGGGGGGG");
        let metrics = Metrics::new();
        let local = smith_waterman(&a, &b, &scheme, &metrics);
        let global = crate::needleman_wunsch(&a, &b, &scheme, &metrics);
        assert!(local.score > global.score);
    }

    #[test]
    fn empty_input_gives_empty_local_alignment() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("");
        let b = dna("ACGT");
        let metrics = Metrics::new();
        let r = smith_waterman(&a, &b, &scheme, &metrics);
        assert_eq!(r.score, 0);
        assert!(r.path.is_empty());
    }
}
