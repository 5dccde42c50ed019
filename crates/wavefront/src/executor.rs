//! Real-thread wavefront execution.
//!
//! A [`WavefrontSpec`] describes an `R × C` tile grid with the standard
//! wavefront dependencies (`(r,c)` after `(r−1,c)` and `(r,c−1)`) and an
//! optional skip mask (Parallel FastLSA skips the tiles of the
//! bottom-right FastLSA sub-problem during Fill Cache — paper Fig. 13).
//!
//! [`run_wavefront`] executes the DAG on `threads` OS threads using scoped
//! threads over the shared [`JobCore`](crate::protocol::JobCore) protocol
//! (per-tile atomic in-degree counters and a monitor-guarded ready queue).
//! Happens-before: a finished tile's writes are published by the
//! ready-queue monitor (push after completion, pop before start), with the
//! in-degree decrement additionally `AcqRel` so the second parent's writes
//! reach the child no matter which parent enqueues it. This is the
//! DAG-ordered-disjoint-writes pattern from *Rust Atomics and Locks*; the
//! `flsa-check` crate model-checks it over explored interleavings (see
//! [`crate::protocol`] for the invariant list).

use crate::protocol::{sequential_wavefront, JobCore, JobError};
use crate::sync::StdSync;

/// Description of one wavefront job.
pub struct WavefrontSpec<'a> {
    /// Tile rows (`R`).
    pub rows: usize,
    /// Tile columns (`C`).
    pub cols: usize,
    /// Tiles to skip entirely (treated as completed from the start).
    /// `None` means run every tile.
    pub skip: Option<&'a (dyn Fn(usize, usize) -> bool + Sync)>,
}

impl WavefrontSpec<'_> {
    fn skipped(&self, r: usize, c: usize) -> bool {
        self.skip.map(|f| f(r, c)).unwrap_or(false)
    }

    /// Number of tiles that will actually run.
    pub fn live_tiles(&self) -> usize {
        (0..self.rows)
            .map(|r| (0..self.cols).filter(|&c| !self.skipped(r, c)).count())
            .sum()
    }
}

/// Runs the wavefront on `threads` OS threads (1 ⇒ a fully sequential,
/// synchronization-free fast path in anti-diagonal order).
///
/// `work(r, c)` is invoked exactly once per non-skipped tile, never before
/// both of the tile's parents have finished.
///
/// # Errors
///
/// Returns [`JobError::TilePanicked`] when a tile's `work` panicked on any
/// participant: the job aborts, every thread drains without deadlock
/// (protocol invariant 6), the panic payload is contained, and the caller
/// gets the structured error instead of an unwind.
///
/// # Panics
///
/// Panics when `threads == 0`.
pub fn run_wavefront(
    spec: &WavefrontSpec<'_>,
    threads: usize,
    work: &(dyn Fn(usize, usize) + Sync),
) -> Result<(), JobError> {
    assert!(threads > 0, "at least one thread required");
    let (rows, cols) = (spec.rows, spec.cols);
    if rows == 0 || cols == 0 {
        return Ok(());
    }

    if threads == 1 {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sequential_wavefront(rows, cols, |r, c| spec.skipped(r, c), work);
        }));
        return outcome.map_err(|_| JobError::TilePanicked);
    }

    let skip_mask: Vec<bool> = (0..rows * cols)
        .map(|i| spec.skipped(i / cols, i % cols))
        .collect();
    let core = JobCore::<StdSync>::new(rows, cols, skip_mask);
    if core.live() == 0 {
        return Ok(());
    }

    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| {
                // The unwind guard inside `participate` already aborted
                // the job; containing the payload here keeps the scope
                // join from re-raising it and lets the submitter report
                // the structured error instead.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    core.participate(work)
                }));
            });
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.participate(work)));
    });
    // The scope joined every participant, so the job is quiescent.
    if core.is_cancelled() {
        Err(JobError::Cancelled)
    } else if core.is_poisoned() {
        Err(JobError::TilePanicked)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn spec(rows: usize, cols: usize) -> WavefrontSpec<'static> {
        WavefrontSpec {
            rows,
            cols,
            skip: None,
        }
    }

    #[test]
    fn sequential_path_visits_all_tiles_in_topological_order() {
        let order = StdMutex::new(Vec::new());
        run_wavefront(&spec(4, 5), 1, &|r, c| order.lock().unwrap().push((r, c))).unwrap();
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 20);
        for (idx, &(r, c)) in order.iter().enumerate() {
            if r > 0 {
                assert!(
                    order[..idx].contains(&(r - 1, c)),
                    "dep ({},{c}) of ({r},{c})",
                    r - 1
                );
            }
            if c > 0 {
                assert!(order[..idx].contains(&(r, c - 1)));
            }
        }
    }

    #[test]
    fn parallel_execution_respects_dependencies() {
        // Record a completion stamp per tile; every tile's stamp must be
        // greater than its parents' (stamps taken *inside* work, so
        // ordering is guaranteed by the scheduler, not by luck).
        let stamp = AtomicU64::new(1);
        let rows = 8;
        let cols = 8;
        let cells: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
        run_wavefront(&spec(rows, cols), 4, &|r, c| {
            // Parents must already carry a stamp.
            if r > 0 {
                assert_ne!(cells[(r - 1) * cols + c].load(Ordering::Acquire), 0);
            }
            if c > 0 {
                assert_ne!(cells[r * cols + c - 1].load(Ordering::Acquire), 0);
            }
            let s = stamp.fetch_add(1, Ordering::Relaxed);
            cells[r * cols + c].store(s, Ordering::Release);
        })
        .unwrap();
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) != 0));
    }

    #[test]
    fn parallel_result_equals_sequential_result() {
        // Compute a data-dependent value per tile (a mini DP) and compare
        // thread counts. Values flow through a shared table, exercising
        // the happens-before edges.
        let rows = 12;
        let cols = 9;
        let compute = |threads: usize| -> Vec<u64> {
            let table: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
            run_wavefront(&spec(rows, cols), threads, &|r, c| {
                let up = if r > 0 {
                    table[(r - 1) * cols + c].load(Ordering::Acquire)
                } else {
                    1
                };
                let left = if c > 0 {
                    table[r * cols + c - 1].load(Ordering::Acquire)
                } else {
                    1
                };
                table[r * cols + c].store(up + left + (r * cols + c) as u64, Ordering::Release);
            })
            .unwrap();
            table.into_iter().map(|a| a.into_inner()).collect()
        };
        let seq = compute(1);
        for threads in [2, 3, 4, 7] {
            assert_eq!(compute(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn skip_mask_skips_exactly_those_tiles() {
        // Skip the bottom-right 2x3 corner (FastLSA's Fill Cache shape).
        let rows = 6;
        let cols = 6;
        let skip = |r: usize, c: usize| r >= 4 && c >= 3;
        let visited = StdMutex::new(Vec::new());
        let spec = WavefrontSpec {
            rows,
            cols,
            skip: Some(&skip),
        };
        assert_eq!(spec.live_tiles(), 36 - 6);
        for threads in [1, 4] {
            visited.lock().unwrap().clear();
            run_wavefront(&spec, threads, &|r, c| visited.lock().unwrap().push((r, c))).unwrap();
            let v = visited.lock().unwrap();
            assert_eq!(v.len(), 30, "threads={threads}");
            assert!(v.iter().all(|&(r, c)| !skip(r, c)));
        }
    }

    #[test]
    fn single_row_and_single_column_grids() {
        for (rows, cols) in [(1, 10), (10, 1), (1, 1)] {
            let count = AtomicU64::new(0);
            run_wavefront(&spec(rows, cols), 3, &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(count.into_inner() as usize, rows * cols);
        }
    }

    #[test]
    fn empty_grid_is_a_noop() {
        run_wavefront(&spec(0, 5), 2, &|_, _| panic!("no tiles expected")).unwrap();
        run_wavefront(&spec(5, 0), 2, &|_, _| panic!("no tiles expected")).unwrap();
    }

    #[test]
    fn more_threads_than_tiles_terminates() {
        let count = AtomicU64::new(0);
        run_wavefront(&spec(2, 2), 16, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.into_inner(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = run_wavefront(&spec(1, 1), 0, &|_, _| {});
    }

    #[test]
    fn panicking_tile_surfaces_as_error_instead_of_hanging() {
        for threads in [1usize, 3] {
            let result = run_wavefront(&spec(4, 4), threads, &|r, c| {
                if (r, c) == (2, 2) {
                    panic!("tile failure");
                }
            });
            assert_eq!(result, Err(JobError::TilePanicked), "threads={threads}");
        }
    }

    #[test]
    fn fully_skipped_grid_terminates() {
        let skip = |_r: usize, _c: usize| true;
        let spec = WavefrontSpec {
            rows: 3,
            cols: 3,
            skip: Some(&skip),
        };
        run_wavefront(&spec, 4, &|_, _| panic!("everything is skipped")).unwrap();
    }
}
