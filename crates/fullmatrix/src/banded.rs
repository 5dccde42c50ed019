//! Banded global alignment.
//!
//! A standard production optimization the paper's related work assumes:
//! when the two sequences are known to be similar, the optimal path stays
//! near the main diagonal, so only a band of half-width `w` around the
//! diagonal needs computing — `O((m+n)·w)` time and space.
//!
//! Banded alignment is a *heuristic*: the returned score is the optimum
//! over paths inside the band, which equals the global optimum iff some
//! optimal path fits the band (always true once
//! `w ≥ max(m, n)`). [`banded_needleman_wunsch`] therefore reports the
//! band-constrained score. A score that stays the same as the band widens
//! does not prove it optimal; validate against an exact run when that
//! matters.

use flsa_dp::{AlignResult, KernelBackend, Metrics, Move, PathBuilder};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

/// Sentinel for out-of-band entries: low enough never to win a max, high
/// enough not to wrap when a score is added.
const NEG: i32 = i32::MIN / 4;

/// Band-constrained Needleman–Wunsch: only cells with
/// `lo ≤ j − i ≤ hi` are computed, where
/// `lo = min(0, n−m) − w` and `hi = max(0, n−m) + w` (the band always
/// contains both corners, so a path exists for every `w ≥ 0`).
///
/// # Examples
///
/// ```
/// use flsa_fullmatrix::{banded_needleman_wunsch, needleman_wunsch};
/// use flsa_dp::Metrics;
/// use flsa_scoring::ScoringScheme;
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::dna_default();
/// let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACGTAC").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "ACGTCGTAC").unwrap();
/// let metrics = Metrics::new();
/// let exact = needleman_wunsch(&a, &b, &scheme, &metrics);
/// let banded = banded_needleman_wunsch(&a, &b, &scheme, 4, &metrics);
/// assert_eq!(banded.score, exact.score); // similar pair: band of 4 suffices
/// ```
pub fn banded_needleman_wunsch(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    w: usize,
    metrics: &Metrics,
) -> AlignResult {
    scheme.check_sequences(a, b);
    let (m, n) = (a.len(), b.len());
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();

    let diff = n as i64 - m as i64;
    let lo = diff.min(0) - w as i64;
    let hi = diff.max(0) + w as i64;
    let width = (hi - lo + 1) as usize; // diagonals stored per row

    // band[i][d] = H(i, i + lo + d) for d in 0..width.
    let mut band = vec![NEG; (m + 1) * width];
    let _mem = metrics.track_alloc(band.len() * std::mem::size_of::<i32>());
    let idx = |i: usize, j: usize| -> usize {
        let d = j as i64 - i as i64 - lo;
        // Release-mode bounds guard: every band[] access in the fill and
        // the traceback funnels through here, and an out-of-band `d`
        // would silently read a neighboring row's diagonal.
        assert!((0..width as i64).contains(&d), "cell ({i},{j}) out of band");
        i * width + d as usize
    };
    let in_band = |i: usize, j: i64| -> bool {
        j >= 0 && j <= n as i64 && (lo..=hi).contains(&(j - i as i64))
    };

    let mut cells = 0u64;
    for i in 0..=m {
        let j_lo = (i as i64 + lo).max(0);
        let j_hi = (i as i64 + hi).min(n as i64);
        for j in j_lo..=j_hi {
            let ju = j as usize;
            let v = if i == 0 && ju == 0 {
                0
            } else {
                let mut best = NEG;
                if i > 0 && ju > 0 && in_band(i - 1, j - 1) {
                    best = best.max(
                        band[idx(i - 1, ju - 1)]
                            + matrix.score(a.codes()[i - 1], b.codes()[ju - 1]),
                    );
                }
                if i > 0 && in_band(i - 1, j) {
                    best = best.max(band[idx(i - 1, ju)] + gap);
                }
                if ju > 0 && in_band(i, j - 1) {
                    best = best.max(band[idx(i, ju - 1)] + gap);
                }
                best
            };
            band[idx(i, ju)] = v;
            cells += 1;
        }
    }
    metrics.add_cells(cells, KernelBackend::Scalar);

    // Traceback inside the band with the shared Diag > Up > Left tie-break.
    let mut builder = PathBuilder::new();
    let (mut i, mut j) = (m, n);
    let mut steps = 0u64;
    while i > 0 || j > 0 {
        let v = band[idx(i, j)];
        let mv = if i > 0
            && j > 0
            && in_band(i - 1, j as i64 - 1)
            && band[idx(i - 1, j - 1)] + matrix.score(a.codes()[i - 1], b.codes()[j - 1]) == v
        {
            i -= 1;
            j -= 1;
            Move::Diag
        } else if i > 0 && in_band(i - 1, j as i64) && band[idx(i - 1, j)] + gap == v {
            i -= 1;
            Move::Up
        } else if j > 0 && in_band(i, j as i64 - 1) && band[idx(i, j - 1)] + gap == v {
            j -= 1;
            Move::Left
        } else {
            // flsa-check: allow(panic) — unreachable unless the band is corrupt.
            panic!("banded traceback found no predecessor at ({i},{j})");
        };
        builder.push_back(mv);
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    AlignResult {
        score: band[idx(m, n)] as i64,
        path: builder.finish((0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::needleman_wunsch;
    use flsa_seq::generate::homologous_pair;
    use flsa_seq::Alphabet;

    fn dna(s: &str) -> Sequence {
        Sequence::from_str("s", ScoringScheme::dna_default().alphabet(), s).unwrap()
    }

    #[test]
    fn full_width_band_equals_exact() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 150, 0.7, 3).unwrap();
        let metrics = Metrics::new();
        let exact = needleman_wunsch(&a, &b, &scheme, &metrics);
        let banded = banded_needleman_wunsch(&a, &b, &scheme, a.len() + b.len(), &metrics);
        assert_eq!(banded.score, exact.score);
        assert_eq!(banded.path, exact.path, "same tie-break, same path");
    }

    #[test]
    fn score_is_monotone_in_band_width() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 200, 0.6, 9).unwrap();
        let metrics = Metrics::new();
        let exact = needleman_wunsch(&a, &b, &scheme, &metrics).score;
        let mut prev = i64::MIN;
        for w in [0usize, 1, 2, 4, 8, 16, 64, 256] {
            let r = banded_needleman_wunsch(&a, &b, &scheme, w, &metrics);
            assert!(r.score >= prev, "w={w}");
            assert!(r.score <= exact, "w={w}");
            assert!(r.path.is_global(a.len(), b.len()), "w={w}");
            assert_eq!(r.path.score(&a, &b, &scheme), r.score, "w={w}");
            prev = r.score;
        }
        assert_eq!(prev, exact, "widest band reaches the optimum");
    }

    #[test]
    fn narrow_band_still_returns_a_valid_path() {
        let scheme = ScoringScheme::dna_default();
        let a = dna("ACGTACGTACGT");
        let b = dna("TTTT");
        let metrics = Metrics::new();
        let r = banded_needleman_wunsch(&a, &b, &scheme, 0, &metrics);
        assert!(r.path.is_global(a.len(), b.len()));
        assert_eq!(r.path.score(&a, &b, &scheme), r.score);
    }

    #[test]
    fn banded_computes_fewer_cells_than_full() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 500, 0.9, 4).unwrap();
        let m_band = Metrics::new();
        banded_needleman_wunsch(&a, &b, &scheme, 16, &m_band);
        let m_full = Metrics::new();
        needleman_wunsch(&a, &b, &scheme, &m_full);
        assert!(
            m_band.snapshot().cells_computed * 4 < m_full.snapshot().cells_computed,
            "band {} vs full {}",
            m_band.snapshot().cells_computed,
            m_full.snapshot().cells_computed
        );
    }

    #[test]
    fn empty_sequences() {
        let scheme = ScoringScheme::dna_default();
        let e = dna("");
        let b = dna("ACG");
        let metrics = Metrics::new();
        let r = banded_needleman_wunsch(&e, &b, &scheme, 2, &metrics);
        assert_eq!(r.score, -30);
        let r = banded_needleman_wunsch(&e, &e, &scheme, 2, &metrics);
        assert_eq!(r.score, 0);
    }
}
