//! Checkpoint/resume of an in-flight alignment (DESIGN.md §10).
//!
//! FastLSA's live state is small by construction (paper Theorem 2): the
//! recursion stack plus one grid cache per level is `O(k·(m+n))` cells,
//! and the Base Case buffer never needs to be persisted because base
//! cases complete atomically between checkpoints. [`CheckpointState`] is
//! a plain-data snapshot of exactly that surface, captured by the solver
//! at *consistent points* — the top of its drive loop, where every grid
//! fill and base case has either fully completed or not started.
//!
//! The core crate only defines the state and the [`CheckpointSink`]
//! hook; durable serialization (CRC32 framing, atomic rename,
//! double-buffering) lives in the `flsa-checkpoint` crate so the engine
//! stays free of I/O.

use std::sync::Arc;

use flsa_dp::affine::GapState;
use flsa_dp::Move;
use flsa_scoring::GapModel;

use crate::config::FastLsaConfig;

/// Snapshot of one suspended recursion frame.
///
/// Coordinates are *absolute* (relative to the whole `m × n` problem),
/// so a frame is self-describing: `a[r0..r0+rows]` × `b[c0..c0+cols]`
/// with the path head at local `(head.0, head.1)` and the input
/// boundaries `top`/`left` captured by value. Every line holds `w`
/// layers (see [`crate::grid`]): `w = 1` for linear gaps, 2 for affine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameState {
    /// First row of the rectangle in absolute coordinates.
    pub r0: usize,
    /// First column of the rectangle in absolute coordinates.
    pub c0: usize,
    /// Rectangle height in residues.
    pub rows: usize,
    /// Rectangle width in residues.
    pub cols: usize,
    /// Path head in local coordinates (`head.0 <= rows`,
    /// `head.1 <= cols`).
    pub head: (usize, usize),
    /// The DP layer the path is in at the head: inside a gap run that
    /// crosses the rectangle's edge (`E`/`F`) or not (`H`, always for
    /// linear gaps).
    pub head_state: GapState,
    /// Input top boundary, `w` layers of `cols + 1`.
    pub top: Vec<i32>,
    /// Input left boundary, `w` layers of `rows + 1`.
    pub left: Vec<i32>,
    /// The frame's filled grid cache, or `None` if fillGridCache has not
    /// run yet for this rectangle.
    pub grid: Option<GridState>,
}

/// Snapshot of one frame's grid cache (the `k−1` interior rows and
/// columns of DP values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridState {
    /// Row cut points, length `k_r + 1`, `[0, …, rows]`.
    pub row_bounds: Vec<usize>,
    /// Column cut points, length `k_c + 1`, `[0, …, cols]`.
    pub col_bounds: Vec<usize>,
    /// `k_r − 1` cached rows, each `w` layers of `cols + 1`.
    pub rows_cache: Vec<Vec<i32>>,
    /// `k_c − 1` cached columns, each `w` layers of `rows + 1`.
    pub cols_cache: Vec<Vec<i32>>,
}

/// Everything needed to continue an interrupted run: configuration,
/// progress counters, the partial optimal path, and the recursion stack
/// outside-in (`frames[0]` is the whole problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// Configuration the run was executing under when captured (the
    /// ladder may have degraded it below the requested one).
    pub config: FastLsaConfig,
    /// Completed grid blocks (fill + base-case units), the checkpoint
    /// cadence's progress measure.
    pub blocks_done: u64,
    /// How many times this lineage has been resumed (0 = fresh run).
    pub generation: u32,
    /// The partial optimal path in prepend order (path end toward path
    /// start), as captured from
    /// [`PathBuilder::rev_moves`](flsa_dp::PathBuilder::rev_moves).
    pub rev_moves: Vec<Move>,
    /// The suspended recursion stack, outermost first. Non-empty for any
    /// snapshot of an unfinished run.
    pub frames: Vec<FrameState>,
}

impl CheckpointState {
    /// Structurally validates the snapshot against problem dimensions
    /// `m × n` under the gap model `gap`, which sets every line's width.
    /// Returns a human-readable reason on the first violation; a state
    /// that passes can be rebuilt and driven without panicking.
    pub fn validate(&self, m: usize, n: usize, gap: &GapModel) -> Result<(), String> {
        if self.frames.is_empty() {
            return Err("no recursion frames".into());
        }
        let root = &self.frames[0];
        if root.r0 != 0 || root.c0 != 0 || root.rows != m || root.cols != n {
            return Err(format!(
                "root frame {}x{} at ({},{}) does not cover the {m}x{n} problem",
                root.rows, root.cols, root.r0, root.c0
            ));
        }
        let w = line_width(gap);
        for (idx, f) in self.frames.iter().enumerate() {
            f.validate(idx, w)
                .map_err(|e| format!("frame {idx}: {e}"))?;
        }
        for w in self.frames.windows(2) {
            let (p, c) = (&w[0], &w[1]);
            if c.r0 < p.r0
                || c.c0 < p.c0
                || c.r0 + c.rows > p.r0 + p.rows
                || c.c0 + c.cols > p.c0 + p.cols
            {
                return Err("child frame escapes its parent rectangle".into());
            }
            if p.grid.is_none() {
                return Err("interior frame has no grid cache".into());
            }
        }
        Ok(())
    }
}

/// Layers per line under `gap`: `H` alone for linear gaps, `H` and the
/// crossing gap layer for affine ones.
pub(crate) fn line_width(gap: &GapModel) -> usize {
    match gap {
        GapModel::Linear { .. } => 1,
        GapModel::Affine { .. } => 2,
    }
}

impl FrameState {
    fn validate(&self, idx: usize, w: usize) -> Result<(), String> {
        if idx > 0 && (self.rows == 0 || self.cols == 0) {
            return Err("degenerate non-root rectangle".into());
        }
        if self.head.0 > self.rows || self.head.1 > self.cols {
            return Err(format!(
                "head ({},{}) outside the {}x{} rectangle",
                self.head.0, self.head.1, self.rows, self.cols
            ));
        }
        if w == 1 && self.head_state != GapState::H {
            return Err("linear-gap head inside a gap run".into());
        }
        if self.top.len() != w * (self.cols + 1) || self.left.len() != w * (self.rows + 1) {
            return Err("boundary length does not match the rectangle".into());
        }
        // Where two lines meet they hold the same cell, so their `H`
        // layers (each line's first) agree there; every fill asserts it
        // of its corner.
        if self.top[0] != self.left[0] {
            return Err(format!(
                "boundary corner mismatch: top {} against left {}",
                self.top[0], self.left[0]
            ));
        }
        let Some(g) = &self.grid else { return Ok(()) };
        for (bounds, len, what) in [
            (&g.row_bounds, self.rows, "row"),
            (&g.col_bounds, self.cols, "column"),
        ] {
            if bounds.len() < 3
                || bounds[0] != 0
                || *bounds.last().unwrap_or(&0) != len
                || bounds.windows(2).any(|w| w[1] <= w[0])
            {
                return Err(format!("malformed grid {what} bounds"));
            }
        }
        if g.rows_cache.len() != g.row_bounds.len() - 2
            || g.cols_cache.len() != g.col_bounds.len() - 2
            || g.rows_cache.iter().any(|r| r.len() != w * (self.cols + 1))
            || g.cols_cache.iter().any(|c| c.len() != w * (self.rows + 1))
        {
            return Err("grid cache shape does not match its bounds".into());
        }
        // Cached row `s` lies on row `row_bounds[s + 1]` and starts on the
        // left boundary; cached column `t` lies on column `col_bounds[t + 1]`
        // and starts on the top boundary; and each row crosses each column.
        for (s, row) in g.rows_cache.iter().enumerate() {
            let r = g.row_bounds[s + 1];
            if row[0] != self.left[r] {
                return Err(format!("grid row {r} does not start on the left boundary"));
            }
            for (t, col) in g.cols_cache.iter().enumerate() {
                let c = g.col_bounds[t + 1];
                if row[c] != col[r] {
                    return Err(format!(
                        "grid row {r} and column {c} disagree where they cross"
                    ));
                }
            }
        }
        for (t, col) in g.cols_cache.iter().enumerate() {
            let c = g.col_bounds[t + 1];
            if col[0] != self.top[c] {
                return Err(format!(
                    "grid column {c} does not start on the top boundary"
                ));
            }
        }
        Ok(())
    }
}

/// Where snapshots go. Implemented durably (atomic file writes) by
/// `flsa-checkpoint`; test harnesses keep them in memory.
pub trait CheckpointSink: Send + Sync {
    /// Persists one consistent snapshot; returns the serialized size in
    /// bytes (for the trace event). An `Err` aborts the run with
    /// [`AlignError::CheckpointSave`](crate::AlignError::CheckpointSave)
    /// — a sink that cannot write is a failed durability contract, not
    /// something to ignore silently.
    fn save(&self, state: &CheckpointState) -> Result<u64, String>;

    /// Called when the degradation ladder retries the run, so durable
    /// snapshots can carry the degrade history across process death.
    fn note_degrade(&self, reason: &'static str, rung: u32, config: &FastLsaConfig) {
        let _ = (reason, rung, config);
    }
}

/// How often (and where) the solver checkpoints.
#[derive(Clone)]
pub struct CheckpointPolicy {
    /// Snapshot after every `every_blocks` newly completed grid blocks
    /// (clamped to at least 1). Cancellation additionally forces a final
    /// snapshot regardless of cadence.
    pub every_blocks: u64,
    /// Destination for snapshots.
    pub sink: Arc<dyn CheckpointSink>,
}

impl CheckpointPolicy {
    pub fn new(every_blocks: u64, sink: Arc<dyn CheckpointSink>) -> Self {
        CheckpointPolicy { every_blocks, sink }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINEAR: GapModel = GapModel::Linear { penalty: -1 };

    fn flat_state() -> CheckpointState {
        CheckpointState {
            config: FastLsaConfig::default(),
            blocks_done: 0,
            generation: 0,
            rev_moves: vec![],
            frames: vec![FrameState {
                r0: 0,
                c0: 0,
                rows: 4,
                cols: 6,
                head: (4, 6),
                head_state: GapState::H,
                top: vec![0; 7],
                left: vec![0; 5],
                grid: None,
            }],
        }
    }

    #[test]
    fn valid_state_passes() {
        assert_eq!(flat_state().validate(4, 6, &LINEAR), Ok(()));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let s = flat_state();
        assert!(s.validate(5, 6, &LINEAR).is_err());
        assert!(s.validate(4, 7, &LINEAR).is_err());
    }

    #[test]
    fn structural_corruption_is_rejected() {
        let mut s = flat_state();
        s.frames[0].head = (5, 6); // outside the rectangle
        assert!(s.validate(4, 6, &LINEAR).is_err());

        let mut s = flat_state();
        s.frames[0].top.pop();
        assert!(s.validate(4, 6, &LINEAR).is_err());

        let mut s = flat_state();
        s.frames.clear();
        assert!(s.validate(4, 6, &LINEAR).is_err());
    }

    #[test]
    fn line_widths_follow_the_gap_model() {
        let affine = GapModel::affine(-10, -1);
        // A linear frame is too narrow for an affine run.
        assert!(flat_state().validate(4, 6, &affine).is_err());
        let mut s = flat_state();
        s.frames[0].top = vec![0; 2 * 7];
        s.frames[0].left = vec![0; 2 * 5];
        s.frames[0].head_state = GapState::F;
        assert_eq!(s.validate(4, 6, &affine), Ok(()));
        // Only an affine head can be inside a gap run.
        let mut s = flat_state();
        s.frames[0].head_state = GapState::E;
        assert!(s.validate(4, 6, &LINEAR).is_err());
    }

    #[test]
    fn grid_shape_is_checked() {
        let mut s = flat_state();
        s.frames[0].grid = Some(GridState {
            row_bounds: vec![0, 2, 4],
            col_bounds: vec![0, 3, 6],
            rows_cache: vec![vec![0; 7]],
            cols_cache: vec![vec![0; 5]],
        });
        assert_eq!(s.validate(4, 6, &LINEAR), Ok(()));

        // Non-monotone bounds.
        if let Some(g) = &mut s.frames[0].grid {
            g.row_bounds = vec![0, 3, 2, 4];
        }
        assert!(s.validate(4, 6, &LINEAR).is_err());

        // Cache line with the wrong width.
        let mut s = flat_state();
        s.frames[0].grid = Some(GridState {
            row_bounds: vec![0, 2, 4],
            col_bounds: vec![0, 3, 6],
            rows_cache: vec![vec![0; 6]],
            cols_cache: vec![vec![0; 5]],
        });
        assert!(s.validate(4, 6, &LINEAR).is_err());
    }

    #[test]
    fn lines_must_agree_where_they_meet() {
        let mut s = flat_state();
        s.frames[0].top[0] = 7;
        assert!(s.validate(4, 6, &LINEAR).is_err(), "boundary corner");

        // The `H` layer of every line: one value per row and column, so
        // the crossings and the boundary ends below all agree.
        let h = |i: usize, j: usize| (10 * i + j) as i32;
        let gridded = |w: usize| {
            let line = |len: usize, at: &dyn Fn(usize) -> i32| {
                let mut v: Vec<i32> = (0..=len).map(at).collect();
                v.resize(w * (len + 1), -1);
                v
            };
            let mut s = flat_state();
            let f = &mut s.frames[0];
            f.top = line(6, &|j| h(0, j));
            f.left = line(4, &|i| h(i, 0));
            f.grid = Some(GridState {
                row_bounds: vec![0, 2, 4],
                col_bounds: vec![0, 3, 6],
                rows_cache: vec![line(6, &|j| h(2, j))],
                cols_cache: vec![line(4, &|i| h(i, 3))],
            });
            s
        };
        let affine = GapModel::affine(-10, -1);
        for (w, gap) in [(1, LINEAR), (2, affine)] {
            assert_eq!(gridded(w).validate(4, 6, &gap), Ok(()), "w = {w}");
            // Off by one where grid row 2 crosses grid column 3.
            let mut s = gridded(w);
            if let Some(g) = &mut s.frames[0].grid {
                g.rows_cache[0][3] += 1;
            }
            assert!(s.validate(4, 6, &gap).is_err(), "w = {w}: crossing");
            // A grid row whose end is off the left boundary, and a grid
            // column whose end is off the top row.
            let mut s = gridded(w);
            if let Some(g) = &mut s.frames[0].grid {
                g.rows_cache[0][0] += 1;
            }
            assert!(s.validate(4, 6, &gap).is_err(), "w = {w}: row end");
            let mut s = gridded(w);
            s.frames[0].top[3] -= 1;
            assert!(s.validate(4, 6, &gap).is_err(), "w = {w}: column end");
            // The gap layers cross no `H`: they are not compared.
            let mut s = gridded(w);
            if let (2, Some(g)) = (w, &mut s.frames[0].grid) {
                g.rows_cache[0][7 + 3] += 1;
            }
            assert_eq!(s.validate(4, 6, &gap), Ok(()), "w = {w}: gap layer");
        }
    }

    #[test]
    fn child_must_nest_inside_parent() {
        let mut s = flat_state();
        s.frames[0].grid = Some(GridState {
            row_bounds: vec![0, 2, 4],
            col_bounds: vec![0, 3, 6],
            rows_cache: vec![vec![0; 7]],
            cols_cache: vec![vec![0; 5]],
        });
        s.frames.push(FrameState {
            r0: 2,
            c0: 3,
            rows: 3, // escapes: 2 + 3 > 4
            cols: 3,
            head: (3, 3),
            head_state: GapState::H,
            top: vec![0; 4],
            left: vec![0; 4],
            grid: None,
        });
        assert!(s.validate(4, 6, &LINEAR).is_err());
        if let Some(f) = s.frames.last_mut() {
            f.rows = 2;
            f.left = vec![0; 3];
            f.head = (2, 3);
        }
        assert_eq!(s.validate(4, 6, &LINEAR), Ok(()));
    }
}
