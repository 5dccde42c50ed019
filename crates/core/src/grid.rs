//! The Grid Cache (paper §3, Figure 3c–f).
//!
//! In the general case FastLSA divides a rectangle into `k × k` blocks
//! and stores the DP values along the internal grid lines: `k−1` full
//! rows and `k−1` full columns. Together with the rectangle's input
//! boundary these give every block its `cacheRow`/`cacheColumn`.
//!
//! A line (grid line or input boundary) of length `len + 1` holds `w`
//! layers of `len + 1` entries: `H`, then, for affine gaps (`w = 2`),
//! the gap layer a path can cross the line in, `F` on rows and `E` on
//! columns (DESIGN.md §6). Linear lines are `H` alone (`w = 1`).

use flsa_dp::affine::NEG;

use crate::error::AlignError;
use crate::governor::MemoryGovernor;

/// Near-equal partition of `len` residues into `k` segments:
/// `bounds[i] = ⌊len·i/k⌋`, guaranteeing each segment is non-empty when
/// `len ≥ k`.
pub fn partition(len: usize, k: usize) -> Vec<usize> {
    (0..=k).map(|i| len * i / k).collect()
}

/// Locates the partition segment containing coordinate `i` (`1 ≤ i ≤ len`):
/// returns `s` with `bounds[s] < i ≤ bounds[s+1]`.
pub fn segment_of(bounds: &[usize], i: usize) -> usize {
    debug_assert!(i >= 1 && bounds.last().is_some_and(|&last| i <= last));
    bounds.partition_point(|&x| x < i) - 1
}

/// One recursion level's grid cache.
#[derive(Debug)]
pub struct Grid {
    /// Row cut points, length `k_r + 1` (`[0, …, rows]`).
    pub row_bounds: Vec<usize>,
    /// Column cut points, length `k_c + 1`.
    pub col_bounds: Vec<usize>,
    /// `rows_cache[s]` holds the DP values along grid row
    /// `row_bounds[s+1]`, full width (`w` layers of `cols + 1`);
    /// `s < k_r − 1`.
    pub rows_cache: Vec<Vec<i32>>,
    /// `cols_cache[t]` holds the DP values along grid column
    /// `col_bounds[t+1]`, full height (`w` layers of `rows + 1`);
    /// `t < k_c − 1`.
    pub cols_cache: Vec<Vec<i32>>,
}

impl Grid {
    /// Allocates the grid for an `rows × cols` rectangle split into
    /// `k_r × k_c` blocks, lines `w` layers wide, with unbounded (but
    /// still `try_reserve`-based) allocation.
    pub fn new(rows: usize, cols: usize, k_r: usize, k_c: usize, w: usize) -> Self {
        match Grid::try_new(rows, cols, k_r, k_c, w, &MemoryGovernor::new(None)) {
            Ok(g) => g,
            // flsa-check: allow(panic) — only reachable on allocator
            // exhaustion with no budget, where Vec::new would abort anyway.
            Err(e) => panic!("grid allocation failed: {e}"),
        }
    }

    /// Fallibly allocates the grid through the memory governor: each cache
    /// line is charged against the budget and reserved with `try_reserve`,
    /// so an oversized grid surfaces as
    /// [`AlignError::AllocFailed`](crate::AlignError::AllocFailed) instead
    /// of an abort. `H` starts at 0 and a gap layer at [`NEG`]; the fills
    /// overwrite every entry but a gap layer's first, which no cell reads.
    pub fn try_new(
        rows: usize,
        cols: usize,
        k_r: usize,
        k_c: usize,
        w: usize,
        governor: &MemoryGovernor,
    ) -> Result<Self, AlignError> {
        debug_assert!(k_r >= 2 && k_c >= 2);
        debug_assert!(rows >= k_r && cols >= k_c, "every block must be non-empty");
        let mut rows_cache = Vec::with_capacity(k_r - 1);
        let mut cols_cache = Vec::with_capacity(k_c - 1);
        let undo = |grid_rows: &Vec<Vec<i32>>, grid_cols: &Vec<Vec<i32>>| {
            for v in grid_rows.iter().chain(grid_cols.iter()) {
                governor.release_i32(v.len());
            }
        };
        let line = |len: usize, what: &'static str| {
            let mut v = governor.try_alloc_i32(w * (len + 1), what)?;
            v[len + 1..].fill(NEG);
            Ok::<_, AlignError>(v)
        };
        for _ in 0..k_r - 1 {
            match line(cols, "grid row cache") {
                Ok(v) => rows_cache.push(v),
                Err(e) => {
                    undo(&rows_cache, &cols_cache);
                    return Err(e);
                }
            }
        }
        for _ in 0..k_c - 1 {
            match line(rows, "grid column cache") {
                Ok(v) => cols_cache.push(v),
                Err(e) => {
                    undo(&rows_cache, &cols_cache);
                    return Err(e);
                }
            }
        }
        Ok(Grid {
            row_bounds: partition(rows, k_r),
            col_bounds: partition(cols, k_c),
            rows_cache,
            cols_cache,
        })
    }

    /// Rebuilds a grid from a checkpoint snapshot, charging the cache
    /// lines against the governor exactly as [`Grid::try_new`] does. The
    /// caller ([`crate::align_resume`]) validates the snapshot's shape
    /// first; this only accounts for the memory.
    pub fn from_parts(
        state: crate::checkpoint::GridState,
        governor: &MemoryGovernor,
    ) -> Result<Self, AlignError> {
        let grid = Grid {
            row_bounds: state.row_bounds,
            col_bounds: state.col_bounds,
            rows_cache: state.rows_cache,
            cols_cache: state.cols_cache,
        };
        governor.reserve_i32(grid.cache_entries(), "resumed grid cache")?;
        Ok(grid)
    }

    /// Number of block rows.
    pub fn k_r(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Number of block columns.
    pub fn k_c(&self) -> usize {
        self.col_bounds.len() - 1
    }

    /// DPM entries of cache storage (for the Theorem 3 space accounting).
    pub fn cache_entries(&self) -> usize {
        self.rows_cache.iter().map(Vec::len).sum::<usize>()
            + self.cols_cache.iter().map(Vec::len).sum::<usize>()
    }

    /// Writes the `cacheRow` of block `(s, t)` to `out`: every layer of
    /// the line along the block's top edge, cut to the block's columns.
    /// Block row 0's line is the rectangle's input `top` boundary, which
    /// the grid does not store.
    pub fn block_top(&self, s: usize, t: usize, top: &[i32], out: &mut Vec<i32>) {
        let line = if s == 0 { top } else { &self.rows_cache[s - 1] };
        cut(line, &self.col_bounds, t, out);
    }

    /// Writes the `cacheColumn` of block `(s, t)` to `out`, from the
    /// rectangle's input `left` boundary for block column 0.
    pub fn block_left(&self, s: usize, t: usize, left: &[i32], out: &mut Vec<i32>) {
        let line = if t == 0 {
            left
        } else {
            &self.cols_cache[t - 1]
        };
        cut(line, &self.row_bounds, s, out);
    }
}

/// Copies segment `seg` (`bounds[seg]..=bounds[seg+1]`) of every layer of
/// `line`, whose layers are `bounds.last() + 1` entries long, to `out`.
fn cut(line: &[i32], bounds: &[usize], seg: usize, out: &mut Vec<i32>) {
    let (lo, hi) = (bounds[seg], bounds[seg + 1]);
    let layer = bounds.last().map_or(1, |&len| len + 1);
    out.clear();
    for l in line.chunks_exact(layer) {
        out.extend_from_slice(&l[lo..=hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_near_equal_and_complete() {
        let b = partition(10, 3);
        assert_eq!(b, vec![0, 3, 6, 10]);
        let b = partition(9, 3);
        assert_eq!(b, vec![0, 3, 6, 9]);
        // Every segment non-empty when len >= k.
        for len in 2..50 {
            for k in 2..=len {
                let b = partition(len, k);
                assert!(b.windows(2).all(|w| w[1] > w[0]), "len={len} k={k}");
                assert_eq!(*b.last().unwrap(), len);
            }
        }
    }

    #[test]
    fn segment_of_locates_blocks() {
        let b = partition(12, 4); // [0, 3, 6, 9, 12]
        assert_eq!(segment_of(&b, 1), 0);
        assert_eq!(segment_of(&b, 3), 0);
        assert_eq!(segment_of(&b, 4), 1);
        assert_eq!(segment_of(&b, 12), 3);
    }

    #[test]
    fn grid_storage_shape_matches_theorem_3() {
        // (k-1) rows of (cols+1) plus (k-1) cols of (rows+1).
        let g = Grid::new(100, 80, 4, 4, 1);
        assert_eq!(g.cache_entries(), 3 * 81 + 3 * 101);
        // Affine lines carry a gap layer beside `H`.
        assert_eq!(
            Grid::new(100, 80, 4, 4, 2).cache_entries(),
            2 * (3 * 81 + 3 * 101)
        );
        assert_eq!(g.k_r(), 4);
        assert_eq!(g.k_c(), 4);
    }

    #[test]
    fn try_new_respects_the_budget_and_rolls_back() {
        // 3 rows of 81 + 3 cols of 101 entries = 546 entries > 500.
        let g = MemoryGovernor::new(Some(500 * 4));
        let err = Grid::try_new(100, 80, 4, 4, 1, &g).unwrap_err();
        assert!(matches!(err, AlignError::AllocFailed { .. }));
        // Partial allocations were released.
        assert_eq!(g.used_bytes(), 0);
        // A roomier budget succeeds and stays charged while alive.
        let g = MemoryGovernor::new(Some(600 * 4));
        let grid = Grid::try_new(100, 80, 4, 4, 1, &g).unwrap();
        assert_eq!(g.used_bytes(), grid.cache_entries() * 4);
    }

    #[test]
    fn block_edges_cut_every_layer_of_their_line() {
        let mut g = Grid::new(12, 8, 3, 2, 2);
        // Grid row 1 (row 4): H = 0..=8, F = 100..=108.
        g.rows_cache[0] = (0..=8).chain(100..=108).collect();
        let (top, left) = (vec![-1; 2 * 9], vec![-2; 2 * 13]);
        let mut out = Vec::new();
        // Block (1, 1): rows 4..8, cols 4..8.
        g.block_top(1, 1, &top, &mut out);
        assert_eq!(out, [4, 5, 6, 7, 8, 104, 105, 106, 107, 108]);
        g.block_left(1, 1, &left, &mut out);
        assert_eq!(out.len(), 2 * (8 - 4 + 1));
        // Block row and column 0 read the input boundary.
        g.block_top(0, 1, &top, &mut out);
        assert_eq!(out, vec![-1; 2 * 5]);
        g.block_left(1, 0, &left, &mut out);
        assert_eq!(out, vec![-2; 2 * 5]);
        // A fresh gap layer starts unreachable.
        assert!(g.cols_cache[0][13..].iter().all(|&v| v == NEG));
    }
}
