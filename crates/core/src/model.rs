//! Analytical cost model (paper §4–§5, Theorems 1–4) and schedule replay.
//!
//! Two roles:
//!
//! 1. **Executable theorems** — closed-form bounds on cells computed and
//!    space used, asserted against measured [`flsa_dp::MetricsSnapshot`]s
//!    by the test suite and printed next to measurements by experiment
//!    E2/E11.
//! 2. **Schedule replay** — re-running a recorded [`CostLog`] through the
//!    virtual-processor simulator to obtain the paper's speedup and
//!    efficiency curves for any `P` (experiments E7/E8; see DESIGN.md §2
//!    for why this substitutes for a large multiprocessor).

use flsa_wavefront::sim::simulate_schedule_comm;

use crate::costlog::{CostEvent, CostLog};
use crate::grid::partition;
use crate::parallel::refine_bounds;

/// Cells computed by a full-matrix algorithm: exactly `m·n` (Theorem 1
/// territory: FM minimizes computation).
pub fn fm_cells(m: usize, n: usize) -> f64 {
    m as f64 * n as f64
}

/// Cells computed by Hirschberg's algorithm: ≈ `2·m·n` (paper §2.2).
pub fn hirschberg_cells(m: usize, n: usize) -> f64 {
    2.0 * m as f64 * n as f64
}

/// Upper bound on cells computed by sequential FastLSA with division
/// factor `k` and Base Case buffer `base_cells`, following the paper's
/// recurrence `T(m,n) = m·n + (2k−1)·T(m/k, n/k)` with the recursion
/// stopping at the base case (Section 5's Equation 34 with the finite
/// sum).
pub fn fastlsa_cells_bound(m: usize, n: usize, k: usize, base_cells: usize) -> f64 {
    assert!(k >= 2);
    let (mf, nf) = (m as f64, n as f64);
    if m == 0 || n == 0 {
        return 0.0;
    }
    if (mf + 1.0) * (nf + 1.0) <= base_cells as f64 || m < 2 || n < 2 {
        return mf * nf;
    }
    let sub = fastlsa_cells_bound(m.div_ceil(k), n.div_ceil(k), k, base_cells);
    mf * nf + (2 * k - 1) as f64 * sub
}

/// Theorem 2's limiting recomputation factor: as the recursion deepens,
/// FastLSA computes at most `m·n·(k/(k−1))²` cells.
pub fn theorem2_limit_factor(k: usize) -> f64 {
    let kf = k as f64;
    (kf / (kf - 1.0)) * (kf / (kf - 1.0))
}

/// Upper bound on FastLSA's auxiliary space in DPM entries: grid caches
/// across the recursion (each level stores `(k−1)` full rows and columns
/// of its rectangle) plus the Base Case buffer (Theorem 3 territory —
/// linear in `m+n` for fixed `k`).
///
/// The buffer is what the solver reserves, `min(BM, (m+1)·(n+1))`, grown
/// to the largest thin base case the recursion can reach: a rectangle
/// with fewer than 2 rows or columns is solved whole, whatever its size.
pub fn fastlsa_space_entries(m: usize, n: usize, k: usize, base_cells: usize) -> f64 {
    let entries = |r: usize, c: usize| (r as f64 + 1.0) * (c as f64 + 1.0);
    let bm = base_cells as f64;
    let mut base = entries(m, n).min(bm);
    let mut grids = 0.0;
    // The blocks of one recursion depth have `lo_r..=hi_r` rows and
    // `lo_c..=hi_c` columns; each level splits a side into `min(k, side)`
    // near-equal segments, as the solver does.
    let (mut lo_r, mut hi_r, mut lo_c, mut hi_c) = (m, m, n, n);
    loop {
        if lo_r < 2 {
            base = base.max(entries(hi_r.min(1), hi_c));
        }
        if lo_c < 2 {
            base = base.max(entries(hi_r, hi_c.min(1)));
        }
        if entries(hi_r, hi_c) <= bm || hi_r < 2 || hi_c < 2 {
            break;
        }
        // Along one root-to-leaf chain each level holds one live grid.
        let (k_r, k_c) = (k.min(hi_r), k.min(hi_c));
        grids += ((k_r - 1) * (hi_c + 1) + (k_c - 1) * (hi_r + 1)) as f64;
        lo_r /= k.min(lo_r);
        lo_c /= k.min(lo_c);
        hi_r = hi_r.div_ceil(k_r);
        hi_c = hi_c.div_ceil(k_c);
    }
    base + grids
}

/// Theorem 4: parallel FastLSA wall cost
/// `WT(m,n,k,P) ≤ (m·n/P)·(1 + (P²−P)/(R·C))·(k/(k−1))²` in cell units,
/// where the tile grid is `R × C = k·f × k·f`.
pub fn theorem4_bound(m: usize, n: usize, k: usize, threads: usize, tiles_per_block: usize) -> f64 {
    let rc = (k * tiles_per_block * k * tiles_per_block) as f64;
    let p = threads as f64;
    let alpha = (1.0 + (p * p - p) / rc) / p;
    (m as f64) * (n as f64) * alpha * theorem2_limit_factor(k)
}

/// Replayed cost of one run under `threads` virtual processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Virtual processors.
    pub threads: usize,
    /// Schedule length in cell units (fills wavefront-scheduled,
    /// tracebacks sequential).
    pub units: f64,
    /// Total work in cell units (the 1-processor schedule length).
    pub total_work: f64,
}

impl ReplayReport {
    /// Speedup over one processor.
    pub fn speedup(&self) -> f64 {
        self.total_work / self.units
    }

    /// Efficiency = speedup / threads.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.threads as f64
    }
}

/// Replays a recorded run under `threads` virtual processors with tile
/// subdivision `tiles_per_block` (the same `f` the real parallel executor
/// would use). Tile costs are tile areas in cells; tracebacks and
/// recursion overheads are sequential, so Amdahl effects are captured.
/// Base cases are tiled `2·threads × 2·threads`, as the paper's §5.1
/// schedule tiles them; the solver itself runs each base case untiled
/// on one thread (DESIGN.md §6), so the replay models the paper's
/// algorithm, not this solver's wall time.
pub fn replay(log: &CostLog, threads: usize, tiles_per_block: usize) -> ReplayReport {
    replay_with_comm(log, threads, tiles_per_block, 0.0)
}

/// [`replay`] with a per-dependency **communication cost** equal to
/// `comm_frac` of the fill's mean tile cost, paid whenever a tile's
/// neighbour ran on another virtual processor — the sensitivity knob for
/// experiment E14 (the paper's testbed paid real interconnect latencies
/// that a shared-cache workstation does not).
pub fn replay_with_comm(
    log: &CostLog,
    threads: usize,
    tiles_per_block: usize,
    comm_frac: f64,
) -> ReplayReport {
    assert!(threads >= 1);
    assert!(comm_frac >= 0.0);
    let mut units = 0.0f64;
    let mut total = 0.0f64;
    for event in &log.events {
        match *event {
            CostEvent::GridFill {
                rows,
                cols,
                k_r,
                k_c,
            } => {
                let f_r = tiles_per_block.min(rows / k_r).max(1);
                let f_c = tiles_per_block.min(cols / k_c).max(1);
                let trb = refine_bounds(&partition(rows, k_r), f_r);
                let tcb = refine_bounds(&partition(cols, k_c), f_c);
                let skip_r = (k_r - 1) * f_r;
                let skip_c = (k_c - 1) * f_c;
                let skip = move |tr: usize, tc: usize| tr >= skip_r && tc >= skip_c;
                let cost = |tr: usize, tc: usize| {
                    ((trb[tr + 1] - trb[tr]) * (tcb[tc + 1] - tcb[tc])) as u64
                };
                let mean_tile = (rows * cols) as f64 / ((trb.len() - 1) * (tcb.len() - 1)) as f64;
                let res = simulate_schedule_comm(
                    trb.len() - 1,
                    tcb.len() - 1,
                    threads,
                    Some(&skip),
                    &cost,
                    (mean_tile * comm_frac) as u64,
                );
                units += res.makespan as f64;
                total += res.total_cost as f64;
            }
            CostEvent::BaseFill { rows, cols } => {
                if rows == 0 || cols == 0 {
                    continue;
                }
                let tiles_r = (2 * threads).min(rows).max(1);
                let tiles_c = (2 * threads).min(cols).max(1);
                let trb = partition(rows, tiles_r);
                let tcb = partition(cols, tiles_c);
                let cost = |tr: usize, tc: usize| {
                    ((trb[tr + 1] - trb[tr]) * (tcb[tc + 1] - tcb[tc])) as u64
                };
                let mean_tile = (rows * cols) as f64 / (tiles_r * tiles_c) as f64;
                let res = simulate_schedule_comm(
                    tiles_r,
                    tiles_c,
                    threads,
                    None,
                    &cost,
                    (mean_tile * comm_frac) as u64,
                );
                units += res.makespan as f64;
                total += res.total_cost as f64;
            }
            CostEvent::Trace { steps } => {
                // Tracebacks are sequential in the paper and here.
                units += steps as f64;
                total += steps as f64;
            }
        }
    }
    ReplayReport {
        threads,
        units,
        total_work: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_and_hirschberg_formulas() {
        assert_eq!(fm_cells(100, 200), 20_000.0);
        assert_eq!(hirschberg_cells(100, 200), 40_000.0);
    }

    #[test]
    fn fastlsa_bound_between_fm_and_limit() {
        for k in [2usize, 4, 8, 16] {
            let bound = fastlsa_cells_bound(10_000, 10_000, k, 1 << 12);
            let mn = 10_000.0f64 * 10_000.0;
            assert!(bound >= mn, "k={k}");
            assert!(
                bound <= mn * theorem2_limit_factor(k) * 1.05,
                "k={k}: bound {bound} vs limit {}",
                mn * theorem2_limit_factor(k)
            );
        }
    }

    #[test]
    fn bigger_base_case_means_fewer_recomputations() {
        let small = fastlsa_cells_bound(50_000, 50_000, 4, 1 << 10);
        let big = fastlsa_cells_bound(50_000, 50_000, 4, 1 << 24);
        assert!(big < small);
    }

    #[test]
    fn limit_factor_decreases_with_k() {
        assert!((theorem2_limit_factor(2) - 4.0).abs() < 1e-12);
        assert!(theorem2_limit_factor(4) > theorem2_limit_factor(8));
        assert!(theorem2_limit_factor(64) < 1.05);
    }

    #[test]
    fn space_is_linear_in_sequence_length() {
        let s1 = fastlsa_space_entries(10_000, 10_000, 8, 1 << 16);
        let s2 = fastlsa_space_entries(20_000, 20_000, 8, 1 << 16);
        // Doubling the problem roughly doubles the grid term, far from 4x.
        let grid1 = s1 - (1 << 16) as f64;
        let grid2 = s2 - (1 << 16) as f64;
        assert!(
            grid2 < grid1 * 2.3,
            "grid growth should be linear: {grid1} -> {grid2}"
        );
    }

    #[test]
    fn space_reserves_no_more_base_buffer_than_the_pair_can_use() {
        // A pair smaller than `BM` holds only its own matrix.
        assert_eq!(fastlsa_space_entries(64, 64, 8, 1 << 20), 65.0 * 65.0);
        assert_eq!(fastlsa_space_entries(0, 0, 8, 1 << 20), 1.0);
        // A pair larger than `BM` holds the full buffer plus its grids.
        assert!(fastlsa_space_entries(3000, 3000, 8, 1 << 14) > (1 << 14) as f64);
    }

    #[test]
    fn space_counts_thin_base_cases_larger_than_the_buffer() {
        // A thin root is one base case of its whole matrix.
        assert_eq!(
            fastlsa_space_entries(1, 2_000_000, 8, 1 << 20),
            2.0 * 2_000_001.0
        );
        // 5 rows split into 5 one-row blocks of 1.25 M columns each, solved
        // whole at depth 1, next to the root's grid (4 rows, 7 columns).
        let grid = (4 * 10_000_001 + 7 * 6) as f64;
        assert_eq!(
            fastlsa_space_entries(5, 10_000_000, 8, 1 << 20),
            2.0 * 1_250_001.0 + grid
        );
        // 9 rows: the 1-row blocks are thin leaves; the 2-row ones recurse.
        assert!(fastlsa_space_entries(9, 10_000_000, 8, 1 << 20) >= 2.0 * 1_250_001.0);
    }

    #[test]
    fn replay_single_thread_equals_total_work() {
        let log = CostLog {
            events: vec![
                CostEvent::GridFill {
                    rows: 64,
                    cols: 64,
                    k_r: 4,
                    k_c: 4,
                },
                CostEvent::BaseFill { rows: 16, cols: 16 },
                CostEvent::Trace { steps: 32 },
            ],
        };
        let r = replay(&log, 1, 2);
        assert!((r.units - r.total_work).abs() < 1e-9);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replay_speedup_grows_then_saturates() {
        let log = CostLog {
            events: vec![CostEvent::GridFill {
                rows: 4096,
                cols: 4096,
                k_r: 8,
                k_c: 8,
            }],
        };
        let s2 = replay(&log, 2, 4).speedup();
        let s4 = replay(&log, 4, 4).speedup();
        let s8 = replay(&log, 8, 4).speedup();
        assert!(s2 > 1.5, "s2 {s2}");
        assert!(s4 > s2);
        assert!(s8 > s4);
        assert!(s8 <= 8.0 + 1e-9);
    }

    #[test]
    fn communication_reduces_replayed_speedup() {
        let log = CostLog {
            events: vec![CostEvent::GridFill {
                rows: 2048,
                cols: 2048,
                k_r: 8,
                k_c: 8,
            }],
        };
        let s0 = replay_with_comm(&log, 8, 2, 0.0).speedup();
        let s10 = replay_with_comm(&log, 8, 2, 0.1).speedup();
        let s50 = replay_with_comm(&log, 8, 2, 0.5).speedup();
        assert!(s10 < s0, "{s10} vs {s0}");
        assert!(s50 < s10);
        assert!(s50 >= 1.0, "never below sequential in this model");
    }

    #[test]
    fn theorem4_bound_decreases_with_threads() {
        let b1 = theorem4_bound(10_000, 10_000, 8, 1, 2);
        let b8 = theorem4_bound(10_000, 10_000, 8, 8, 2);
        assert!(b8 < b1 / 4.0);
    }
}
