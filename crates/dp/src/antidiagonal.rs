//! Anti-diagonal FindScore kernel.
//!
//! The row-major kernels in [`crate::kernel`] have a loop-carried
//! dependency along each row (the `left` input). Processing the DPM by
//! **anti-diagonals** removes it: every cell of a diagonal depends only
//! on the two previous diagonals, so all cells of a diagonal are
//! independent — the fine-grained formulation classic parallel-DP work
//! (e.g. the string-editing literature the paper's §2.3 surveys) builds
//! on, and the in-tile analogue of Parallel FastLSA's tile wavefront.
//!
//! Provided as an alternative sequential kernel with the exact same
//! contract as [`crate::kernel::fill_last_row_col`]; the equivalence is
//! property-tested, and `benches/kernels.rs` compares the memory-access
//! cost of the two traversals.

use flsa_scoring::ScoringScheme;

use crate::boundary::check_boundary;
use crate::{KernelBackend, Metrics};

/// Anti-diagonal counterpart of [`crate::kernel::fill_last_row_col`]:
/// identical inputs, identical outputs, diagonal-major traversal.
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
pub fn fill_last_row_col_antidiagonal(
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

    // diag_k[i] = H(i, d-k-i) for the diagonal being built (k = 0) and
    // the two before it. Index range per diagonal: max(0, d-cols) ..= min(rows, d).
    let mut prev2 = vec![0i32; rows + 1];
    let mut prev1 = vec![0i32; rows + 1];
    let mut cur = vec![0i32; rows + 1];

    for d in 0..=rows + cols {
        let i_lo = d.saturating_sub(cols);
        let i_hi = d.min(rows);
        for i in i_lo..=i_hi {
            let j = d - i;
            let v = if i == 0 {
                top[j]
            } else if j == 0 {
                left[i]
            } else {
                let diag = prev2[i - 1] + matrix.score(a[i - 1], b[j - 1]);
                let up = prev1[i - 1] + gap; // H(i-1, j) lives on diagonal d-1 at index i-1
                let lf = prev1[i] + gap; // H(i, j-1) on diagonal d-1 at index i
                diag.max(up).max(lf)
            };
            cur[i] = v;
            if i == rows {
                out_bottom[j] = v;
            }
            if j == cols {
                if let Some(ref mut r) = out_right {
                    r[i] = v;
                }
            }
        }
        std::mem::swap(&mut prev2, &mut prev1);
        std::mem::swap(&mut prev1, &mut cur);
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fill_last_row_col;
    use crate::Boundary;
    use flsa_scoring::ScoringScheme;
    use flsa_seq::Sequence;
    use proptest::prelude::*;

    fn run_both(a: &[u8], b: &[u8]) -> (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>) {
        let scheme = ScoringScheme::dna_default();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let mut b1 = vec![0; b.len() + 1];
        let mut r1 = vec![0; a.len() + 1];
        fill_last_row_col(
            a,
            b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut b1,
            Some(&mut r1),
            &metrics,
        );
        let mut b2 = vec![0; b.len() + 1];
        let mut r2 = vec![0; a.len() + 1];
        fill_last_row_col_antidiagonal(
            a,
            b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut b2,
            Some(&mut r2),
            &metrics,
        );
        (b1, r1, b2, r2)
    }

    #[test]
    fn matches_row_major_kernel_on_fixed_cases() {
        let scheme = ScoringScheme::paper_example();
        let a = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let mut bottom = vec![0; b.len() + 1];
        fill_last_row_col_antidiagonal(
            a.codes(),
            b.codes(),
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            None,
            &metrics,
        );
        assert_eq!(bottom[b.len()], 82, "paper example optimum");
    }

    #[test]
    fn handles_degenerate_shapes() {
        for (m, n) in [(0usize, 0usize), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1)] {
            let a = vec![0u8; m];
            let b = vec![1u8; n];
            let (b1, r1, b2, r2) = run_both(&a, &b);
            assert_eq!(b1, b2, "bottom {m}x{n}");
            assert_eq!(r1, r2, "right {m}x{n}");
        }
    }

    proptest! {
        #[test]
        fn equivalent_to_row_major(
            a in prop::collection::vec(0u8..4, 0..60),
            b in prop::collection::vec(0u8..4, 0..60),
        ) {
            let (b1, r1, b2, r2) = run_both(&a, &b);
            prop_assert_eq!(b1, b2);
            prop_assert_eq!(r1, r2);
        }
    }
}
