//! Affine-gap DP kernels with arbitrary input boundaries.
//!
//! The paper's algorithms use linear gaps; the affine extension (gap of
//! length `L` costs `open + L·extend`) needs three DP layers (Gotoh):
//!
//! ```text
//! E(i,j) = max(E(i,j−1) + ext, H(i,j−1) + open + ext)   // in a Left run
//! F(i,j) = max(F(i−1,j) + ext, H(i−1,j) + open + ext)   // in an Up run
//! H(i,j) = max(H(i−1,j−1) + S(aᵢ,bⱼ), E(i,j), F(i,j))
//! ```
//!
//! For a *sub-rectangle*, restarting this recurrence needs more boundary
//! state than the linear case: a horizontal grid line must carry `H` and
//! `F` (vertical runs cross it), a vertical one `H` and `E`. These
//! kernels are the affine analogues of [`crate::kernel`]'s: the scalar
//! reference implementation of the affine recurrence. Full-matrix Gotoh
//! (`flsa_fullmatrix::gotoh`) is [`fill_affine_full`] plus
//! [`trace_affine`] and Myers–Miller (`flsa_hirschberg`) scans with
//! [`fill_affine_edges_in`]; both stay on these scalar fills as the
//! independent oracles. Affine FastLSA (`fastlsa-core`) fills through
//! [`crate::Kernel::fill_affine_edges_in`] and
//! [`crate::Kernel::fill_affine_full_reusing`], whose AVX-512 and AVX2
//! rows compute `E` as a prefix-max scan and are bit-identical to the
//! functions here (`tests/kernel_equivalence.rs`).

use flsa_scoring::{GapModel, ScoringScheme};

use crate::matrix::ScoreMatrix;
use crate::path::{Move, PathBuilder};
use crate::{KernelBackend, Metrics};

/// Sentinel "minus infinity" that survives a few additions.
pub const NEG: i32 = i32::MIN / 4;

/// Extracts the affine gap parameters.
///
/// # Panics
///
/// Panics on a linear model — silently treating a linear penalty as
/// affine would corrupt every score.
pub fn affine_params(scheme: &ScoringScheme) -> (i32, i32) {
    match *scheme.gap() {
        GapModel::Affine { open, extend } => (open, extend),
        // flsa-check: allow(panic) — documented caller contract (see above).
        GapModel::Linear { .. } => panic!("affine kernel requires GapModel::Affine"),
    }
}

/// Input boundary of an affine sub-rectangle: `H`/`F` along the top row,
/// `H`/`E` along the left column. `top_v[0]` and `left_e[0]` are never
/// read (no cell consumes them) and may be [`NEG`] placeholders.
#[derive(Debug, Clone, Copy)]
pub struct AffineBoundary<'a> {
    /// `H` on the top row (`cols + 1`).
    pub top_h: &'a [i32],
    /// `F` (vertical-gap state) on the top row.
    pub top_v: &'a [i32],
    /// `H` on the left column (`rows + 1`).
    pub left_h: &'a [i32],
    /// `E` (horizontal-gap state) on the left column.
    pub left_e: &'a [i32],
}

impl AffineBoundary<'_> {
    pub(crate) fn check_boundary(&self, rows: usize, cols: usize) {
        assert_eq!(self.top_h.len(), cols + 1, "top_h length");
        assert_eq!(self.top_v.len(), cols + 1, "top_v length");
        assert_eq!(self.left_h.len(), rows + 1, "left_h length");
        assert_eq!(self.left_e.len(), rows + 1, "left_e length");
        assert_eq!(self.top_h[0], self.left_h[0], "boundary corner mismatch");
    }
}

/// Owned global boundary of the whole problem: the gap ramp
/// `H(0,j) = open + extend·j`, with the gap states unreachable.
#[derive(Debug, Clone)]
pub struct AffineGlobalBoundary {
    /// `H` top row.
    pub top_h: Vec<i32>,
    /// `F` top row (all [`NEG`]: no vertical run can precede row 0).
    pub top_v: Vec<i32>,
    /// `H` left column.
    pub left_h: Vec<i32>,
    /// `E` left column (all [`NEG`]).
    pub left_e: Vec<i32>,
}

impl AffineGlobalBoundary {
    /// Builds the boundary for an `rows × cols` global problem.
    pub fn new(rows: usize, cols: usize, open: i32, extend: i32) -> Self {
        let ramp = |len: usize| -> Vec<i32> {
            (0..=len)
                .map(|k| if k == 0 { 0 } else { open + extend * k as i32 })
                .collect()
        };
        AffineGlobalBoundary {
            top_h: ramp(cols),
            top_v: vec![NEG; cols + 1],
            left_h: ramp(rows),
            left_e: vec![NEG; rows + 1],
        }
    }

    /// Borrowed view.
    pub fn view(&self) -> AffineBoundary<'_> {
        AffineBoundary {
            top_h: &self.top_h,
            top_v: &self.top_v,
            left_h: &self.left_h,
            left_e: &self.left_e,
        }
    }
}

/// Output edges of an affine rectangle fill.
#[derive(Debug, Clone)]
pub struct AffineEdges {
    /// `H` on the bottom row (`cols + 1`).
    pub bottom_h: Vec<i32>,
    /// `F` on the bottom row.
    pub bottom_v: Vec<i32>,
    /// `H` on the right column (`rows + 1`).
    pub right_h: Vec<i32>,
    /// `E` on the right column.
    pub right_e: Vec<i32>,
}

impl AffineEdges {
    /// Returns the four edge buffers to `arena` for reuse. Pair with
    /// [`fill_affine_edges_in`] once the edges have been copied out.
    pub fn recycle(self, arena: &crate::KernelArena) {
        arena.put(self.bottom_h);
        arena.put(self.bottom_v);
        arena.put(self.right_h);
        arena.put(self.right_e);
    }
}

/// Rolling-row fill returning the rectangle's bottom and right edges
/// (the affine analogue of [`crate::kernel::fill_last_row_col`]), with
/// all four output buffers drawn from `arena`. Return them with
/// [`AffineEdges::recycle`] once the caller has copied the edges out, so
/// repeated block fills are allocation-free.
///
/// `bottom_v[0]` and `right_e[0]` are placeholders: no cell of this
/// rectangle updates the `F` entry of its own left edge or the `E` entry
/// of its top edge.
pub fn fill_affine_edges_in(
    a: &[u8],
    b: &[u8],
    bnd: AffineBoundary<'_>,
    scheme: &ScoringScheme,
    arena: &crate::KernelArena,
    metrics: &Metrics,
) -> AffineEdges {
    let (rows, cols) = (a.len(), b.len());
    bnd.check_boundary(rows, cols);
    let (open, extend) = affine_params(scheme);
    let matrix = scheme.matrix();

    let mut edges = AffineEdges {
        bottom_h: arena.take(cols + 1),
        bottom_v: arena.take(cols + 1),
        right_h: arena.take(rows + 1),
        right_e: arena.take(rows + 1),
    };
    // Sliced once here, the rows' lengths are visible to the compiler,
    // which drops their bounds checks from the inner loop.
    let h_row = &mut edges.bottom_h[..=cols];
    let v_row = &mut edges.bottom_v[..=cols];
    let right_h = &mut edges.right_h[..=rows];
    let right_e = &mut edges.right_e[..=rows];
    h_row.copy_from_slice(bnd.top_h);
    v_row.copy_from_slice(bnd.top_v);
    right_h.fill(NEG);
    right_e.fill(NEG);
    right_h[0] = bnd.top_h[cols];
    for i in 1..=rows {
        let ai = a[i - 1];
        let mut diag = h_row[0];
        h_row[0] = bnd.left_h[i];
        let mut e_reg = bnd.left_e[i];
        let mut h_left = h_row[0];
        for j in 1..=cols {
            let up_h = h_row[j];
            let v_new = (v_row[j] + extend).max(up_h + open + extend);
            e_reg = (e_reg + extend).max(h_left + open + extend);
            let h_new = (diag + matrix.score(ai, b[j - 1])).max(v_new).max(e_reg);
            v_row[j] = v_new;
            h_row[j] = h_new;
            h_left = h_new;
            diag = up_h;
        }
        right_h[i] = h_row[cols];
        right_e[i] = if cols == 0 { bnd.left_e[i] } else { e_reg };
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
    edges
}

/// The three filled layers of an affine rectangle.
#[derive(Debug, Clone)]
pub struct AffineMatrices {
    /// Overall best scores.
    pub h: ScoreMatrix,
    /// Best ending in a Left (horizontal-gap) run.
    pub e: ScoreMatrix,
    /// Best ending in an Up (vertical-gap) run.
    pub f: ScoreMatrix,
}

impl AffineMatrices {
    /// Consumes the layers, returning their storage (`H`, `E`, `F`) for
    /// reuse by [`fill_affine_full_reusing`].
    pub fn into_storage(self) -> [Vec<i32>; 3] {
        [self.h.into_vec(), self.e.into_vec(), self.f.into_vec()]
    }
}

/// Full fill of all three layers (the affine base-case solver).
pub fn fill_affine_full(
    a: &[u8],
    b: &[u8],
    bnd: AffineBoundary<'_>,
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> AffineMatrices {
    fill_affine_full_reusing(a, b, bnd, scheme, Default::default(), metrics)
}

/// [`fill_affine_full`] recycling `storage` (the `H`, `E` and `F`
/// buffers, in that order) as the three layers; retrieve it back with
/// [`AffineMatrices::into_storage`]. Every cell is rewritten, so the
/// buffers need no clearing between solves.
///
/// The layers are lined, as in [`crate::Kernel::fill_affine_full_reusing`]
/// on every backend: each row is padded to a multiple of 16 entries and
/// column 1 of every row opens a 64-byte cache line. Padding is never
/// read. Each buffer is resized to [`ScoreMatrix::lined_len`] entries, so
/// a caller that sizes it to that beforehand keeps it from moving.
pub fn fill_affine_full_reusing(
    a: &[u8],
    b: &[u8],
    bnd: AffineBoundary<'_>,
    scheme: &ScoringScheme,
    storage: [Vec<i32>; 3],
    metrics: &Metrics,
) -> AffineMatrices {
    let (rows, cols) = (a.len(), b.len());
    bnd.check_boundary(rows, cols);
    let (open, extend) = affine_params(scheme);
    let matrix = scheme.matrix();

    let [mut h, mut e, mut f] = storage.map(|s| ScoreMatrix::lined_from_storage(rows, cols, s));
    h.row_mut(0).copy_from_slice(bnd.top_h);
    f.row_mut(0).copy_from_slice(bnd.top_v);
    e.row_mut(0).fill(NEG);
    for i in 1..=rows {
        let ai = a[i - 1];
        let (hp, h_row) = h.rows_prev_cur(i);
        let (fp, f_row) = f.rows_prev_cur(i);
        // Sliced once here, the rows' lengths are visible to the compiler,
        // which drops their bounds checks from the inner loop.
        let (hp, h_row) = (&hp[..=cols], &mut h_row[..=cols]);
        let (fp, f_row) = (&fp[..=cols], &mut f_row[..=cols]);
        let e_row = &mut e.row_mut(i)[..=cols];
        h_row[0] = bnd.left_h[i];
        e_row[0] = bnd.left_e[i];
        f_row[0] = NEG;
        let (mut e_left, mut h_left) = (e_row[0], h_row[0]);
        for j in 1..=cols {
            let ev = (e_left + extend).max(h_left + open + extend);
            let fv = (fp[j] + extend).max(hp[j] + open + extend);
            let hv = (hp[j - 1] + matrix.score(ai, b[j - 1])).max(ev).max(fv);
            e_row[j] = ev;
            f_row[j] = fv;
            h_row[j] = hv;
            (e_left, h_left) = (ev, hv);
        }
    }
    metrics.add_cells(rows as u64 * cols as u64, KernelBackend::Scalar);
    AffineMatrices { h, e, f }
}

/// Which DP layer a traceback position is in — the extra state an affine
/// path head carries across sub-problem boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapState {
    /// At a match/mismatch node.
    H,
    /// Inside a horizontal (Left) gap run.
    E,
    /// Inside a vertical (Up) gap run.
    F,
}

/// Walks the filled layers backwards from `start` in `state` until the
/// head reaches the rectangle's top row or left column, prepending moves
/// to `out`. Returns the exit position and the state the path is in
/// there (`E`/`F` mean a gap run crosses the boundary, its open cost
/// already charged on this side).
#[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
pub fn trace_affine(
    mats: &AffineMatrices,
    a: &[u8],
    b: &[u8],
    scheme: &ScoringScheme,
    start: (usize, usize),
    state: GapState,
    out: &mut PathBuilder,
    metrics: &Metrics,
) -> ((usize, usize), GapState) {
    let (open, extend) = affine_params(scheme);
    let matrix = scheme.matrix();
    let (mut i, mut j) = start;
    assert!(i <= a.len() && j <= b.len(), "traceback start out of range");
    let mut state = state;
    let mut steps = 0u64;
    loop {
        match state {
            GapState::H => {
                if i == 0 || j == 0 {
                    break;
                }
                let v = mats.h.get(i, j);
                if mats.h.get(i - 1, j - 1) + matrix.score(a[i - 1], b[j - 1]) == v {
                    out.push_back(Move::Diag);
                    steps += 1;
                    i -= 1;
                    j -= 1;
                } else if mats.f.get(i, j) == v {
                    state = GapState::F;
                } else if mats.e.get(i, j) == v {
                    state = GapState::E;
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("affine traceback stuck in H at ({i},{j})");
                }
            }
            GapState::F => {
                if i == 0 {
                    break;
                }
                let v = mats.f.get(i, j);
                out.push_back(Move::Up);
                steps += 1;
                let from_h = mats.h.get(i - 1, j) + open + extend == v;
                let from_f = mats.f.get(i - 1, j) + extend == v;
                i -= 1;
                state = if from_h {
                    GapState::H
                } else if from_f {
                    GapState::F
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("affine traceback stuck in F at ({},{j})", i + 1);
                };
            }
            GapState::E => {
                if j == 0 {
                    break;
                }
                let v = mats.e.get(i, j);
                out.push_back(Move::Left);
                steps += 1;
                let from_h = mats.h.get(i, j - 1) + open + extend == v;
                let from_e = mats.e.get(i, j - 1) + extend == v;
                j -= 1;
                state = if from_h {
                    GapState::H
                } else if from_e {
                    GapState::E
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("affine traceback stuck in E at ({i},{})", j + 1);
                };
            }
        }
    }
    metrics.add_traceback_steps(steps);
    ((i, j), state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_scoring::tables;
    use flsa_seq::Sequence;

    fn scheme() -> ScoringScheme {
        ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -2))
    }

    fn dna(s: &str) -> Vec<u8> {
        Sequence::from_str("s", scheme().alphabet(), s)
            .unwrap()
            .codes()
            .to_vec()
    }

    #[test]
    fn full_fill_corner_matches_gotoh() {
        let scheme = scheme();
        let a = dna("ACGTTGCA");
        let b = dna("ACGTGCAA");
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -10, -2);
        let metrics = Metrics::new();
        let mats = fill_affine_full(&a, &b, bnd.view(), &scheme, &metrics);

        let sa = Sequence::from_codes("a", scheme.alphabet(), a.clone());
        let sb = Sequence::from_codes("b", scheme.alphabet(), b.clone());
        let g = flsa_fullmatrix_oracle(&sa, &sb, &scheme);
        assert_eq!(mats.h.get(a.len(), b.len()) as i64, g);
    }

    /// Direct Gotoh re-implementation as an in-crate oracle (flsa-dp
    /// cannot depend on flsa-fullmatrix).
    fn flsa_fullmatrix_oracle(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> i64 {
        let (open, extend) = affine_params(scheme);
        let (m, n) = (a.len(), b.len());
        let mut h = vec![vec![0i64; n + 1]; m + 1];
        let mut e = vec![vec![NEG as i64; n + 1]; m + 1];
        let mut f = vec![vec![NEG as i64; n + 1]; m + 1];
        for j in 1..=n {
            h[0][j] = (open + extend * j as i32) as i64;
            e[0][j] = h[0][j];
        }
        for i in 1..=m {
            h[i][0] = (open + extend * i as i32) as i64;
            f[i][0] = h[i][0];
        }
        for i in 1..=m {
            for j in 1..=n {
                e[i][j] = (e[i][j - 1] + extend as i64).max(h[i][j - 1] + (open + extend) as i64);
                f[i][j] = (f[i - 1][j] + extend as i64).max(h[i - 1][j] + (open + extend) as i64);
                h[i][j] = (h[i - 1][j - 1] + scheme.sub(a.codes()[i - 1], b.codes()[j - 1]) as i64)
                    .max(e[i][j])
                    .max(f[i][j]);
            }
        }
        h[m][n]
    }

    #[test]
    fn edges_match_full_fill() {
        let scheme = scheme();
        let a = dna("ACGTTGCAT");
        let b = dna("ACGTGCA");
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -10, -2);
        let metrics = Metrics::new();
        let mats = fill_affine_full(&a, &b, bnd.view(), &scheme, &metrics);
        let arena = crate::KernelArena::new();
        let edges = fill_affine_edges_in(&a, &b, bnd.view(), &scheme, &arena, &metrics);
        assert_eq!(&edges.bottom_h[..], mats.h.row(a.len()));
        assert_eq!(&edges.bottom_v[..], mats.f.row(a.len()));
        assert_eq!(edges.right_h, mats.h.col(b.len()));
        // right_e[0] is a placeholder; compare the rest.
        assert_eq!(&edges.right_e[1..], &mats.e.col(b.len())[1..]);
    }

    #[test]
    fn full_fill_edges_match_the_edge_fill_on_random_rectangles() {
        // The full fill's last row and column against the rolling-row
        // edge fill: two independent loops over the same recurrence, on
        // global and arbitrary boundaries, empty and one-wide rectangles,
        // every gap pair here (a positive open included), and storage the
        // previous, differently shaped solve left behind.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n.max(1)
        };
        let arena = crate::KernelArena::new();
        let gaps = [(0, 0), (-1, -1), (-10, -2), (-11, -1), (3, -1)];
        let mut storage: [Vec<i32>; 3] = Default::default();
        for case in 0..120 {
            let (open, extend) = gaps[case % gaps.len()];
            let matrix = if case % 2 == 0 {
                tables::dna_default()
            } else {
                tables::blosum62()
            };
            let scheme = ScoringScheme::new(matrix, GapModel::Affine { open, extend });
            let codes = scheme.alphabet().len() as u64;
            let (rows, cols) = (below(40) as usize, below(70) as usize);
            let a: Vec<u8> = (0..rows).map(|_| below(codes) as u8).collect();
            let b: Vec<u8> = (0..cols).map(|_| below(codes) as u8).collect();
            let mut bnd = AffineGlobalBoundary::new(rows, cols, open, extend);
            if case % 3 != 0 {
                let mut walk = |edge: &mut Vec<i32>, state: &mut Vec<i32>| {
                    for k in 1..edge.len() {
                        edge[k] = edge[k - 1] + below(19) as i32 - 12;
                        state[k] = if below(2) == 0 {
                            NEG
                        } else {
                            edge[k] - below(30) as i32
                        };
                    }
                };
                walk(&mut bnd.top_h, &mut bnd.top_v);
                walk(&mut bnd.left_h, &mut bnd.left_e);
            }
            let metrics = Metrics::new();
            let edges = fill_affine_edges_in(&a, &b, bnd.view(), &scheme, &arena, &metrics);
            let mats = fill_affine_full_reusing(&a, &b, bnd.view(), &scheme, storage, &metrics);
            assert_eq!(
                &edges.bottom_h[..],
                mats.h.row(rows),
                "case {case}: bottom H"
            );
            assert_eq!(
                &edges.bottom_v[1..],
                &mats.f.row(rows)[1..],
                "case {case}: bottom F"
            );
            assert_eq!(edges.right_h, mats.h.col(cols), "case {case}: right H");
            if cols > 0 {
                assert_eq!(
                    &edges.right_e[1..],
                    &mats.e.col(cols)[1..],
                    "case {case}: right E"
                );
            }
            assert_eq!(metrics.snapshot().cells_computed, 2 * (rows * cols) as u64);
            edges.recycle(&arena);
            storage = mats.into_storage();
        }
    }

    #[test]
    fn fills_compose_across_a_vertical_split() {
        // Fill the left half, feed its right edge (H + E) into the right
        // half: the result must equal the whole-rectangle fill. This is
        // the property affine FastLSA's grid cache rests on.
        let scheme = scheme();
        let a = dna("ACGTTGCATTACG");
        let b = dna("ACGTGCAATTGCA");
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -10, -2);
        let metrics = Metrics::new();
        let whole = fill_affine_full(&a, &b, bnd.view(), &scheme, &metrics);

        let split = 6;
        let left = fill_affine_full(
            &a,
            &b[..split],
            AffineBoundary {
                top_h: &bnd.top_h[..=split],
                top_v: &bnd.top_v[..=split],
                left_h: &bnd.left_h,
                left_e: &bnd.left_e,
            },
            &scheme,
            &metrics,
        );
        let mid_h = left.h.col(split);
        let mid_e = left.e.col(split);
        let right = fill_affine_full(
            &a,
            &b[split..],
            AffineBoundary {
                top_h: &bnd.top_h[split..],
                top_v: &bnd.top_v[split..],
                left_h: &mid_h,
                left_e: &mid_e,
            },
            &scheme,
            &metrics,
        );
        for i in 0..=a.len() {
            for j in 0..=(b.len() - split) {
                assert_eq!(right.h.get(i, j), whole.h.get(i, j + split), "H ({i},{j})");
            }
        }
    }

    #[test]
    fn fills_compose_across_a_horizontal_split() {
        let scheme = scheme();
        let a = dna("ACGTTGCATTACG");
        let b = dna("ACGTGCAATT");
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -10, -2);
        let metrics = Metrics::new();
        let whole = fill_affine_full(&a, &b, bnd.view(), &scheme, &metrics);

        let split = 7;
        let top = fill_affine_full(
            &a[..split],
            &b,
            AffineBoundary {
                top_h: &bnd.top_h,
                top_v: &bnd.top_v,
                left_h: &bnd.left_h[..=split],
                left_e: &bnd.left_e[..=split],
            },
            &scheme,
            &metrics,
        );
        let mid_h = top.h.row(split).to_vec();
        let mid_v = top.f.row(split).to_vec();
        let bottom = fill_affine_full(
            &a[split..],
            &b,
            AffineBoundary {
                top_h: &mid_h,
                top_v: &mid_v,
                left_h: &bnd.left_h[split..],
                left_e: &bnd.left_e[split..],
            },
            &scheme,
            &metrics,
        );
        for i in 0..=(a.len() - split) {
            assert_eq!(bottom.h.row(i), whole.h.row(i + split), "row {i}");
        }
    }

    #[test]
    fn trace_recovers_an_optimal_affine_path() {
        let scheme = scheme();
        let a = dna("AAAACCAAAA");
        let b = dna("AAAAAAAA");
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -10, -2);
        let metrics = Metrics::new();
        let mats = fill_affine_full(&a, &b, bnd.view(), &scheme, &metrics);
        let mut builder = PathBuilder::new();
        let ((ei, ej), st) = trace_affine(
            &mats,
            &a,
            &b,
            &scheme,
            (a.len(), b.len()),
            GapState::H,
            &mut builder,
            &metrics,
        );
        assert_eq!((ei, ej), (0, 0));
        assert_eq!(st, GapState::H);
        let path = builder.finish((0, 0));
        assert!(path.is_global(a.len(), b.len()));
        // Optimal: 8 matches (+40) and one length-2 gap (-14) = 26.
        assert_eq!(mats.h.get(a.len(), b.len()), 26);
    }

    #[test]
    #[should_panic(expected = "requires GapModel::Affine")]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        affine_params(&scheme);
    }
}
