//! Parallel FastLSA (paper §5): the wavefront-parallel Fill Cache step.
//!
//! Each grid fill is tiled and run as one job on the solver's
//! [`flsa_wavefront::WorkerPool`]. Tile boundary values flow through
//! [`DisjointBuf`]s: every tile writes its own disjoint segment, every
//! read of a neighbour's segment is ordered behind its writer by the
//! scheduler (see that type's safety contract). Only Fill Cache is tiled:
//! base cases run on the submitting thread on the vector kernel, and the
//! recursion and all tracebacks stay sequential, as in the paper
//! (DESIGN.md §6).

use flsa_trace::{TileKind, TileTracer};
use flsa_wavefront::DisjointBuf;

use crate::error::AlignError;
use crate::grid::{partition, Grid};
use crate::solver::Solver;

/// A tile panicking (including an injected [`crate::FaultHooks::on_tile`]
/// panic) or the job being cancelled both surface as a [`JobError`] from
/// the pool; [`AlignError::from`] maps them to `WorkerPanic`/`Cancelled`.
type FillResult = Result<(), AlignError>;

/// Builds tile bounds refining `block_bounds`: each block is subdivided
/// into `f` near-equal parts, so every block edge is also a tile edge
/// (that alignment is what lets grid rows/columns be read straight out of
/// the tile buffers).
pub(crate) fn refine_bounds(block_bounds: &[usize], f: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity((block_bounds.len() - 1) * f + 1);
    out.push(block_bounds[0]);
    for w in block_bounds.windows(2) {
        let len = w[1] - w[0];
        for part in partition(len, f).into_iter().skip(1) {
            out.push(w[0] + part);
        }
    }
    out
}

/// Parallel fillGridCache (paper Figure 13): tiles the `k_r × k_c` block
/// grid `f × f`, skips the tiles of the bottom-right block, and runs the
/// wavefront on the configured threads. On return `grid` is filled
/// identically to the sequential path.
pub(crate) fn fill_grid_parallel(
    solver: &mut Solver<'_>,
    a: &[u8],
    b: &[u8],
    top: &[i32],
    left: &[i32],
    grid: &mut Grid,
) -> FillResult {
    let par = solver
        .config
        .parallel
        .expect("parallel fill requires a parallel config"); // flsa-check: allow(unwrap) — guarded by threads() > 1
    let (rows, cols) = (a.len(), b.len());
    let k_r = grid.k_r();
    let k_c = grid.k_c();
    // Clamp the subdivision so every tile is non-empty.
    let f_r = par.tiles_per_block.min(rows / k_r).max(1);
    let f_c = par.tiles_per_block.min(cols / k_c).max(1);
    let trb = refine_bounds(&grid.row_bounds, f_r);
    let tcb = refine_bounds(&grid.col_bounds, f_c);
    let r_tiles = trb.len() - 1;
    let c_tiles = tcb.len() - 1;

    // Tile boundary storage: row `tr`'s bottom boundary and column `tc`'s
    // right boundary. (The last row/column slots are never read; keeping
    // them avoids index gymnastics.)
    // Charge the shared boundary storage against the run's budget before
    // building it; a refusal here degrades the run instead of aborting.
    let reserved = r_tiles * (cols + 1) + c_tiles * (rows + 1);
    solver
        .ctx
        .governor
        .reserve_i32(reserved, "parallel tile boundaries")?;
    let mut tile_rows = DisjointBuf::<i32>::new(r_tiles * (cols + 1));
    let mut tile_cols = DisjointBuf::<i32>::new(c_tiles * (rows + 1));
    let _mem = solver
        .metrics
        .track_alloc((tile_rows.len() + tile_cols.len()) * std::mem::size_of::<i32>());

    // Prefill the column-0 / row-0 entries of every boundary vector from
    // the rectangle's input boundary (tiles only write index ranges that
    // start at their own first interior coordinate).
    {
        let tr_slice = tile_rows.as_mut_slice();
        for tr in 0..r_tiles {
            tr_slice[tr * (cols + 1)] = left[trb[tr + 1]];
        }
        let tc_slice = tile_cols.as_mut_slice();
        for tc in 0..c_tiles {
            tc_slice[tc * (rows + 1)] = top[tcb[tc + 1]];
        }
    }

    // Tiles covering the bottom-right block are skipped (solved by the
    // recursion instead) — Fig. 13's u × v hole.
    let skip_r_from = (k_r - 1) * f_r;
    let skip_c_from = (k_c - 1) * f_c;
    let skip = move |tr: usize, tc: usize| tr >= skip_r_from && tc >= skip_c_from;

    let scheme = solver.scheme;
    let metrics = solver.metrics;
    let hooks = solver.ctx.hooks.clone();
    // The kernel handle is `Sync` (shared arena behind an `Arc`), so one
    // clone serves every worker; tiles draw their boundary scratch from
    // the arena instead of allocating four vectors per tile.
    let kernel = solver.kernel.clone();
    let trb_ref = &trb;
    let tcb_ref = &tcb;
    let tile_rows_ref = &tile_rows;
    let tile_cols_ref = &tile_cols;

    let work = move |tr: usize, tc: usize| {
        if let Some(h) = &hooks {
            h.on_tile(tr, tc);
        }
        let r0 = trb_ref[tr];
        let r1 = trb_ref[tr + 1];
        let c0 = tcb_ref[tc];
        let c1 = tcb_ref[tc + 1];
        let w = c1 - c0;
        let h = r1 - r0;

        // Assemble the tile's input boundary.
        // SAFETY (all unsafe blocks here): the wavefront scheduler orders
        // this tile after (tr-1, tc) and (tr, tc-1); every index read
        // below was written by one of those tiles, a transitively ordered
        // earlier tile, or the exclusive prefill above. Writes go to the
        // segment owned by this tile alone (interior coordinates only).
        let mut top_buf = kernel.arena().take(w + 1);
        if tr == 0 {
            top_buf.copy_from_slice(&top[c0..=c1]);
        } else {
            let base = (tr - 1) * (cols + 1);
            // SAFETY: reads the row segment written by tile (tr-1, tc),
            // ordered before this tile (block comment above).
            top_buf.copy_from_slice(unsafe { tile_rows_ref.slice(base + c0..base + c1 + 1) });
        }
        let mut left_buf = kernel.arena().take(h + 1);
        if tc == 0 {
            left_buf.copy_from_slice(&left[r0..=r1]);
        } else {
            let base = (tc - 1) * (rows + 1);
            // SAFETY: reads the column segment written by tile (tr, tc-1),
            // ordered before this tile (block comment above).
            left_buf.copy_from_slice(unsafe { tile_cols_ref.slice(base + r0..base + r1 + 1) });
        }

        let mut out_b = kernel.arena().take(w + 1);
        let mut out_r = kernel.arena().take(h + 1);
        kernel.fill_last_row_col(
            &a[r0..r1],
            &b[c0..c1],
            &top_buf,
            &left_buf,
            scheme,
            &mut out_b,
            Some(&mut out_r),
            metrics,
        );

        if tr + 1 < r_tiles && w > 0 {
            let base = tr * (cols + 1);
            // SAFETY: writes the interior row segment owned by this tile
            // alone (block comment above).
            let dst = unsafe { tile_rows_ref.slice_mut(base + c0 + 1..base + c1 + 1) };
            dst.copy_from_slice(&out_b[1..]);
        }
        if tc + 1 < c_tiles && h > 0 {
            let base = tc * (rows + 1);
            // SAFETY: writes the interior column segment owned by this tile
            // alone (block comment above).
            let dst = unsafe { tile_cols_ref.slice_mut(base + r0 + 1..base + r1 + 1) };
            dst.copy_from_slice(&out_r[1..]);
        }
        kernel.arena().put(top_buf);
        kernel.arena().put(left_buf);
        kernel.arena().put(out_b);
        kernel.arena().put(out_r);
    };

    let tracer = metrics
        .recorder()
        .map(|r| TileTracer::new(r, TileKind::GridFill));
    let token = solver.ctx.cancel.clone();
    let cancel_closure = token.as_ref().map(|t| move || t.is_cancelled());
    let cancel = cancel_closure
        .as_ref()
        .map(|c| c as &(dyn Fn() -> bool + Sync));
    let outcome = solver
        .pool
        .as_mut()
        .expect("parallel fill requires the worker pool") // flsa-check: allow(unwrap) — guarded by threads() > 1
        .run_traced(r_tiles, c_tiles, skip, &work, cancel, tracer.as_ref());
    solver.ctx.governor.release_i32(reserved);
    outcome?;

    // Extract the grid rows/columns: block edge s+1 is tile edge
    // (s+1)·f − 1's bottom boundary.
    let tile_rows = tile_rows.into_inner();
    for s in 0..k_r - 1 {
        let tr = (s + 1) * f_r - 1;
        grid.rows_cache[s].copy_from_slice(&tile_rows[tr * (cols + 1)..(tr + 1) * (cols + 1)]);
    }
    let tile_cols = tile_cols.into_inner();
    for t in 0..k_c - 1 {
        let tc = (t + 1) * f_c - 1;
        grid.cols_cache[t].copy_from_slice(&tile_cols[tc * (rows + 1)..(tc + 1) * (rows + 1)]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_bounds_aligns_block_edges() {
        let blocks = vec![0, 10, 20, 33];
        let tiles = refine_bounds(&blocks, 2);
        assert_eq!(tiles, vec![0, 5, 10, 15, 20, 26, 33]);
        // Every block edge appears among tile edges.
        for &e in &blocks {
            assert!(tiles.contains(&e));
        }
    }

    #[test]
    fn refine_with_factor_one_is_identity() {
        let blocks = vec![0, 7, 19];
        assert_eq!(refine_bounds(&blocks, 1), blocks);
    }
}
