//! FindScore kernels.
//!
//! All three algorithm families compute the same recurrence (paper §2.1):
//!
//! ```text
//! H(i,j) = max( H(i-1,j-1) + S(a[i-1], b[j-1]),   // Diag
//!               H(i-1,j)   + gap,                  // Up
//!               H(i,j-1)   + gap )                 // Left
//! ```
//!
//! over a rectangle whose top row and left column are given (the cached
//! boundary). The kernels differ in what they *store*:
//!
//! * [`fill_full`] — everything (FM algorithms, and FastLSA base cases
//!   the AVX-512 byte band does not keep as traceback codes);
//! * [`fill_last_row_col`] — a rolling row only, emitting the rectangle's
//!   bottom row and right column (the paper's `LastRow` routine used by
//!   Hirschberg's FindScore and FastLSA's Fill Cache);
//! * [`fill_dir`] — packed 2-bit directions plus a rolling score row (the
//!   paper's low-memory FM traceback alternative).
//!
//! Every kernel reports the rectangle's cell count to [`Metrics`], filed
//! under [`KernelBackend::Scalar`].

use flsa_scoring::ScoringScheme;

use crate::boundary::check_boundary;
use crate::matrix::{Dir, DirMatrix, ScoreMatrix};
use crate::{KernelBackend, Metrics};

/// Fills a whole rectangle, returning the `(rows+1) × (cols+1)` score
/// matrix whose row 0 is `top` and column 0 is `left`.
///
/// # Examples
///
/// ```
/// use flsa_dp::{kernel, Boundary, Metrics};
/// use flsa_scoring::ScoringScheme;
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::paper_example();
/// let a = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
/// let bound = Boundary::global(a.len(), b.len(), -10);
/// let metrics = Metrics::new();
/// let m = kernel::fill_full(a.codes(), b.codes(), &bound.top, &bound.left, &scheme, &metrics);
/// // Figure 1: the optimal score in the bottom-right corner is 82.
/// assert_eq!(m.get(a.len(), b.len()), 82);
/// ```
pub fn fill_full(
    a: &[u8],
    b: &[u8],
    top: &[i32],
    left: &[i32],
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> ScoreMatrix {
    fill_full_reusing(a, b, top, left, scheme, Vec::new(), metrics)
}

/// [`fill_full`] recycling `storage` as the matrix buffer (FastLSA's
/// pre-allocated Base Case buffer); retrieve it back with
/// [`ScoreMatrix::into_vec`].
pub fn fill_full_reusing(
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
    check_boundary(top, left, rows, cols);
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();

    let mut dpm = ScoreMatrix::from_storage(rows, cols, storage);
    dpm.row_mut(0).copy_from_slice(top);
    for i in 1..=rows {
        let ai = a[i - 1];
        let (prev, cur) = dpm.rows_prev_cur(i);
        cur[0] = left[i];
        let mut left_val = cur[0];
        for j in 1..=cols {
            let diag = prev[j - 1] + matrix.score(ai, b[j - 1]);
            let up = prev[j] + gap;
            let lf = left_val + gap;
            let v = diag.max(up).max(lf);
            cur[j] = v;
            left_val = v;
        }
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
    dpm
}

/// Fills a rectangle keeping only a rolling row, writing the rectangle's
/// bottom row into `out_bottom` (length `cols + 1`) and, when requested,
/// its right column into `out_right` (length `rows + 1`).
///
/// `out_bottom[cols] == out_right[rows]` is the rectangle's bottom-right
/// corner; `out_right[0] == top[cols]`.
///
/// The rolling row lives *in* `out_bottom`, so this kernel performs no
/// allocation — the caller owns all the memory, which is what lets FastLSA
/// account for every byte (Theorem 3's space bound).
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
pub fn fill_last_row_col(
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
    check_boundary(top, left, rows, cols);
    assert_eq!(out_bottom.len(), cols + 1, "out_bottom length");
    if let Some(ref r) = out_right {
        assert_eq!(r.len(), rows + 1, "out_right length");
    }
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();

    out_bottom.copy_from_slice(top);
    if let Some(ref mut r) = out_right {
        r[0] = top[cols];
    }
    for i in 1..=rows {
        let ai = a[i - 1];
        // out_bottom currently holds row i-1; rewrite it into row i.
        let mut diag_in = out_bottom[0];
        out_bottom[0] = left[i];
        let mut left_val = out_bottom[0];
        for j in 1..=cols {
            let up_in = out_bottom[j];
            let v = (diag_in + matrix.score(ai, b[j - 1]))
                .max(up_in + gap)
                .max(left_val + gap);
            out_bottom[j] = v;
            left_val = v;
            diag_in = up_in;
        }
        if let Some(ref mut r) = out_right {
            r[i] = out_bottom[cols];
        }
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
}

/// Convenience wrapper over [`fill_last_row_col`] for callers (Hirschberg)
/// that only need the bottom row.
pub fn fill_last_row(
    a: &[u8],
    b: &[u8],
    top: &[i32],
    left: &[i32],
    scheme: &ScoringScheme,
    out_bottom: &mut [i32],
    metrics: &Metrics,
) {
    fill_last_row_col(a, b, top, left, scheme, out_bottom, None, metrics);
}

/// Fills a rectangle storing packed 2-bit directions (¼ byte per entry)
/// plus a rolling score row; returns the direction matrix and the final
/// (bottom) score row.
///
/// Directions use the shared deterministic tie-break Diag ≻ Up ≻ Left so
/// that direction-based and score-based tracebacks recover the identical
/// optimal path. Boundary conventions: `(0,0)` is [`Dir::Stop`], the rest
/// of row 0 is [`Dir::Left`] and of column 0 [`Dir::Up`] (correct for any
/// monotone boundary such as the global gap ramp).
pub fn fill_dir(
    a: &[u8],
    b: &[u8],
    top: &[i32],
    left: &[i32],
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> (DirMatrix, Vec<i32>) {
    let rows = a.len();
    let cols = b.len();
    check_boundary(top, left, rows, cols);
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();

    let mut dirs = DirMatrix::new(rows, cols);
    dirs.set(0, 0, Dir::Stop);
    for j in 1..=cols {
        dirs.set(0, j, Dir::Left);
    }
    for i in 1..=rows {
        dirs.set(i, 0, Dir::Up);
    }

    let mut row: Vec<i32> = top.to_vec();
    for i in 1..=rows {
        let ai = a[i - 1];
        let mut diag_in = row[0];
        row[0] = left[i];
        let mut left_val = row[0];
        for j in 1..=cols {
            let up_in = row[j];
            let diag = diag_in + matrix.score(ai, b[j - 1]);
            let up = up_in + gap;
            let lf = left_val + gap;
            // Tie-break priority: Diag, then Up, then Left.
            let (v, d) = if diag >= up && diag >= lf {
                (diag, Dir::Diag)
            } else if up >= lf {
                (up, Dir::Up)
            } else {
                (lf, Dir::Left)
            };
            dirs.set(i, j, d);
            row[j] = v;
            left_val = v;
            diag_in = up_in;
        }
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
    (dirs, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Boundary;
    use flsa_seq::Sequence;

    fn paper_setup() -> (Vec<u8>, Vec<u8>, ScoringScheme) {
        let scheme = ScoringScheme::paper_example();
        // Figure 1 layout: TDVLKAD on the left (rows), TLDKLLKD on top (cols).
        let a = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
        (a.codes().to_vec(), b.codes().to_vec(), scheme)
    }

    #[test]
    fn figure_1_dpm_spot_values() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let m = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        // Cells quoted in the paper's prose: [T,T] = 20, [T,L] = 10,
        // bottom-right = 82, and [A,K] (row 6, col 7) = 62,
        // [A,D] above-right = 72, [D,K] = 52.
        assert_eq!(m.get(1, 1), 20);
        assert_eq!(m.get(1, 2), 10);
        assert_eq!(m.get(6, 7), 62);
        assert_eq!(m.get(7, 7), 52);
        assert_eq!(m.get(6, 8), 72);
        assert_eq!(m.get(7, 8), 82);
        assert_eq!(metrics.snapshot().cells_computed, 56);
    }

    #[test]
    fn last_row_col_matches_full_fill_edges() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let m = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);

        let mut bottom = vec![0; b.len() + 1];
        let mut right = vec![0; a.len() + 1];
        fill_last_row_col(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            Some(&mut right),
            &metrics,
        );
        assert_eq!(bottom, m.row(a.len()));
        assert_eq!(right, m.col(b.len()));
        assert_eq!(bottom[b.len()], right[a.len()], "shared corner");
    }

    #[test]
    fn fill_dir_final_row_matches_full_fill() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let m = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let (_dirs, last) = fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        assert_eq!(last, m.row(a.len()));
    }

    #[test]
    fn kernels_handle_empty_sequences() {
        let (_, b, scheme) = paper_setup();
        let bound = Boundary::global(0, b.len(), -10);
        let metrics = Metrics::new();
        let m = fill_full(&[], &b, &bound.top, &bound.left, &scheme, &metrics);
        assert_eq!(m.get(0, b.len()), -(10 * b.len() as i32));

        let mut bottom = vec![0; b.len() + 1];
        let mut right = vec![0; 1];
        fill_last_row_col(
            &[],
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            Some(&mut right),
            &metrics,
        );
        assert_eq!(bottom, bound.top);
        assert_eq!(right[0], *bound.top.last().unwrap());

        let bound = Boundary::global(3, 0, -10);
        let a = [0u8, 1, 2];
        let mut bottom1 = vec![0; 1];
        let mut right1 = vec![0; 4];
        fill_last_row_col(
            &a,
            &[],
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom1,
            Some(&mut right1),
            &metrics,
        );
        assert_eq!(right1, bound.left);
        assert_eq!(bottom1[0], -30);
    }

    #[test]
    fn subrectangle_fill_composes() {
        // Filling the whole rectangle must equal filling the left half and
        // feeding its right column into the right half (the property the
        // entire grid-cache design rests on).
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let whole = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);

        let split = 4;
        let left_half = fill_full(
            &a,
            &b[..split],
            &bound.top[..=split],
            &bound.left,
            &scheme,
            &metrics,
        );
        let mid_col = left_half.col(split);
        let right_half = fill_full(
            &a,
            &b[split..],
            &bound.top[split..],
            &mid_col,
            &scheme,
            &metrics,
        );
        for i in 0..=a.len() {
            for j in 0..=(b.len() - split) {
                assert_eq!(right_half.get(i, j), whole.get(i, j + split), "({i},{j})");
            }
        }
    }

    #[test]
    fn reused_storage_gives_identical_results() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let fresh = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        // Poisoned storage from a previous, larger solve.
        let dirty = vec![i32::MIN; 4000];
        let reused = fill_full_reusing(&a, &b, &bound.top, &bound.left, &scheme, dirty, &metrics);
        for i in 0..=a.len() {
            assert_eq!(reused.row(i), fresh.row(i));
        }
    }

    #[test]
    #[should_panic(expected = "top boundary length")]
    fn boundary_length_mismatch_panics() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        fill_full(&a, &b[..3], &bound.top, &bound.left, &scheme, &metrics);
    }
}
