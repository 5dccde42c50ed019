//! The wavefront scheduling protocol, generic over a [`SyncModel`].
//!
//! [`JobCore`] is the scheduling heart of the persistent
//! [`crate::pool::WorkerPool`] (and of the `flsa-check` model checker's
//! replay). It owns the ready queue, per-tile
//! in-degrees and the remaining-tiles counter, and exposes one verb —
//! [`JobCore::participate`] — that every thread (submitting or worker)
//! runs until the job is drained.
//!
//! ## Protocol invariants (mechanically checked)
//!
//! The `flsa-check` crate replays this exact code under a deterministic
//! scheduler (bounded-exhaustive plus seeded-random interleavings) and
//! asserts, on every explored schedule:
//!
//! 1. **Exactly-once**: every non-skipped tile's `work` runs exactly once.
//! 2. **Dependency order**: `work(r, c)` starts only after `work(r−1, c)`
//!    and `work(r, c−1)` returned (when those tiles are live).
//! 3. **Quiescence**: [`JobCore::wait_quiescent`] returns only when
//!    `remaining == 0` *and* no participant is inside a `work` call
//!    (`in_work == 0`, tracked under the ready-queue monitor). This holds
//!    on the abort path too — the drain decrement is a CAS that refuses
//!    to run once an abort zeroed `remaining`, so the counter can neither
//!    wrap nor resurrect the job — and is what makes the pool's
//!    lifetime-erased work pointer sound (see [`crate::pool`]).
//! 4. **No lost wakeups / no deadlock**: every schedule terminates; the
//!    condvar hand-off (push-then-notify under the ready-queue monitor)
//!    never strands a sleeping worker.
//! 5. **Happens-before**: a tile's plain writes are visible to its
//!    dependents — published either by the ready-queue monitor or by the
//!    `AcqRel` in-degree chain — verified by vector-clock race detection
//!    over the explored schedules.
//! 6. **Panic abort**: a panicking `work` poisons the job, zeroes
//!    `remaining` and wakes everyone, so all participants drain without
//!    deadlock and the submitter can surface the failure. Cooperative
//!    cancellation ([`JobCore::abort_cancelled`]) rides the same drain
//!    path, additionally raising the `cancelled` flag so the submitter
//!    can tell [`JobError::Cancelled`] from [`JobError::TilePanicked`].

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use crate::sync::{AtomicInt, Monitor, SyncModel};

/// Why a wavefront job did not run to completion. Returned by
/// [`crate::pool::WorkerPool::run`] instead of letting a tile failure escape as a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// A tile's `work` panicked on some participant. The job was aborted
    /// (invariant 6), every participant drained, and the pool/threads
    /// stay usable; the panic payload is discarded in favour of this
    /// structured error.
    TilePanicked,
    /// The job's cancel predicate fired: a participant called
    /// [`JobCore::abort_cancelled`], the remaining tiles were dropped and
    /// every participant drained via the abort path.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TilePanicked => write!(f, "a wavefront tile panicked"),
            JobError::Cancelled => write!(f, "the wavefront job was cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// State guarded by the ready-queue monitor: the FIFO of runnable tiles
/// plus the count of participants currently inside a `work` call (the
/// quiescence half of invariant 3).
struct Ready {
    queue: VecDeque<(usize, usize)>,
    in_work: usize,
}

/// Shared state of one wavefront job on sync model `S`.
pub struct JobCore<S: SyncModel> {
    rows: usize,
    cols: usize,
    /// `skip[r * cols + c]`: tile does not exist.
    skip: Vec<bool>,
    /// Remaining live-parent count per tile (`u32::MAX` for skipped
    /// tiles, which are never decremented).
    indeg: Vec<S::AtomicU32>,
    /// Tiles whose parents have all finished, plus the in-work census.
    ready: S::Monitor<Ready>,
    /// Live tiles not yet completed; 0 releases every participant. Only
    /// ever decremented by CAS-if-nonzero, so an abort's `store(0)` is
    /// final (no wrap-around resurrection).
    remaining: S::AtomicUsize,
    /// Set (before `remaining` is zeroed) when a tile's `work` panicked.
    poisoned: S::AtomicUsize,
    /// Set (before the abort) when the job was cooperatively cancelled
    /// rather than poisoned by a panic. Checked *before* `poisoned` by
    /// the front-ends, since cancellation aborts through the same path.
    cancelled: S::AtomicUsize,
    live: usize,
}

/// Armed around the `work` call; on unwind it drops the tile from the
/// in-work census and aborts the job so every other participant drains
/// instead of deadlocking (invariant 6).
struct AbortOnUnwind<'a, S: SyncModel> {
    core: &'a JobCore<S>,
}

impl<S: SyncModel> Drop for AbortOnUnwind<'_, S> {
    fn drop(&mut self) {
        self.core.poisoned.store(1, Ordering::Release);
        self.core.remaining.store(0, Ordering::Release);
        let mut ready = self.core.ready.lock();
        ready.in_work -= 1;
        drop(ready);
        self.core.ready.notify_all();
    }
}

impl<S: SyncModel> JobCore<S> {
    /// Builds the job state for an `rows × cols` grid with the given skip
    /// mask (`skip_mask[r * cols + c]` ⇒ tile is treated as already done).
    ///
    /// In-degrees count only live parents: in FastLSA's skip shape no live
    /// tile ever depends on a skipped one, but the protocol stays general.
    pub fn new(rows: usize, cols: usize, skip_mask: Vec<bool>) -> Self {
        debug_assert_eq!(skip_mask.len(), rows * cols);
        let mut indeg = Vec::with_capacity(rows * cols);
        let mut initially_ready = VecDeque::new();
        let mut live = 0usize;
        for r in 0..rows {
            for c in 0..cols {
                if skip_mask[r * cols + c] {
                    indeg.push(S::AtomicU32::new(u32::MAX));
                    continue;
                }
                live += 1;
                let mut d = 0;
                if r > 0 && !skip_mask[(r - 1) * cols + c] {
                    d += 1;
                }
                if c > 0 && !skip_mask[r * cols + c - 1] {
                    d += 1;
                }
                if d == 0 {
                    initially_ready.push_back((r, c));
                }
                indeg.push(S::AtomicU32::new(d));
            }
        }
        JobCore {
            rows,
            cols,
            skip: skip_mask,
            indeg,
            ready: S::Monitor::new(Ready {
                queue: initially_ready,
                in_work: 0,
            }),
            remaining: S::AtomicUsize::new(live),
            poisoned: S::AtomicUsize::new(0),
            cancelled: S::AtomicUsize::new(0),
            live,
        }
    }

    /// Number of tiles that will actually run.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True once every live tile has completed (or the job was aborted).
    pub fn is_drained(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// True when some tile's `work` panicked (checked by the pool after
    /// its own participation returns).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    /// Marks the job failed and releases every participant: poison first,
    /// then zero `remaining` (its `Release` publishes the poison flag to
    /// the `Acquire` loads in the drain loop), then wake all sleepers.
    pub fn abort(&self) {
        self.poisoned.store(1, Ordering::Release);
        self.remaining.store(0, Ordering::Release);
        let _guard = self.ready.lock();
        self.ready.notify_all();
    }

    /// Cooperative cancellation: raises the `cancelled` flag, then aborts.
    /// The flag is stored before the abort's `remaining.store(0)` so any
    /// participant (or the submitter) that observes the drained job also
    /// observes the cancellation reason. Tiles already inside `work`
    /// finish normally; nothing new starts, and the job drains via the
    /// abort path (bounded time, invariant 4).
    pub fn abort_cancelled(&self) {
        self.cancelled.store(1, Ordering::Release);
        self.abort();
    }

    /// True when the job was aborted by [`JobCore::abort_cancelled`].
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire) != 0
    }

    /// Blocks until the job is fully quiescent: `remaining == 0` and no
    /// participant is inside a `work` call. After this returns, no thread
    /// will touch `work` again (invariant 3) — the pool relies on it
    /// before letting its borrowed work closure die, on the panic path
    /// included.
    pub fn wait_quiescent(&self) {
        let mut ready = self.ready.lock();
        while self.remaining.load(Ordering::Acquire) != 0 || ready.in_work != 0 {
            self.ready.wait(&mut ready);
        }
    }

    /// Runs tiles until the job drains. Called by every thread taking part
    /// in the job; returns when `remaining == 0` (all live tiles done, or
    /// the job aborted). `work(r, c)` unwinding aborts the job and the
    /// panic propagates to this participant's caller.
    pub fn participate(&self, work: impl Fn(usize, usize)) {
        loop {
            let tile = {
                let mut ready = self.ready.lock();
                loop {
                    if self.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    if let Some(t) = ready.queue.pop_front() {
                        // Claimed under the same lock that guards the
                        // quiescence census, so `wait_quiescent` can never
                        // observe in_work == 0 with this tile in flight.
                        ready.in_work += 1;
                        break t;
                    }
                    self.ready.wait(&mut ready);
                }
            };
            let (r, c) = tile;
            // Invariant 6: if `work` unwinds, the guard aborts the job so
            // every other participant drains; the panic then propagates.
            {
                let abort = AbortOnUnwind { core: self };
                work(r, c);
                std::mem::forget(abort);
            }

            // Publish completion, then release successors. The `AcqRel`
            // decrement chains both parents' clocks into whichever parent
            // drops the in-degree to zero, so the child observes *both*
            // parents' writes (invariant 5) no matter which parent
            // enqueues it.
            let (rows, cols) = (self.rows, self.cols);
            let mut newly_ready: [(usize, usize); 2] = [(usize::MAX, 0); 2];
            let mut n_new = 0;
            if r + 1 < rows
                && !self.skip[(r + 1) * cols + c]
                && self.indeg[(r + 1) * cols + c].fetch_sub(1, Ordering::AcqRel) == 1
            {
                newly_ready[n_new] = (r + 1, c);
                n_new += 1;
            }
            if c + 1 < cols
                && !self.skip[r * cols + c + 1]
                && self.indeg[r * cols + c + 1].fetch_sub(1, Ordering::AcqRel) == 1
            {
                newly_ready[n_new] = (r, c + 1);
                n_new += 1;
            }
            // Drain decrement, CAS-guarded so a concurrent abort's
            // `store(0)` is final: once zero, nobody decrements (which
            // would wrap) and nobody treats a stale tile as live.
            let mut cur = self.remaining.load(Ordering::Acquire);
            let last = loop {
                if cur == 0 {
                    // Aborted while this tile was in flight.
                    break false;
                }
                match self.remaining.compare_exchange(
                    cur,
                    cur - 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break cur == 1,
                    Err(actual) => cur = actual,
                }
            };

            let mut ready = self.ready.lock();
            ready.in_work -= 1;
            for &t in &newly_ready[..n_new] {
                ready.queue.push_back(t);
            }
            let quiescent = ready.in_work == 0 && self.remaining.load(Ordering::Acquire) == 0;
            drop(ready);
            if last || quiescent {
                // Job complete (or aborted and now quiescent): wake
                // everyone — sleepers observe remaining == 0 and return,
                // and `wait_quiescent` observes the drained census.
                self.ready.notify_all();
            } else if n_new > 1 {
                self.ready.notify_all();
            } else if n_new == 1 {
                self.ready.notify_one();
            }
        }
    }
}

/// The synchronization-free sequential fill both front-ends use for
/// `threads == 1`: anti-diagonal order, a valid topological order of the
/// wavefront DAG.
pub fn sequential_wavefront(
    rows: usize,
    cols: usize,
    skip: impl Fn(usize, usize) -> bool,
    work: impl Fn(usize, usize),
) {
    if rows == 0 || cols == 0 {
        return;
    }
    for d in 0..rows + cols - 1 {
        let r_lo = d.saturating_sub(cols - 1);
        let r_hi = d.min(rows - 1);
        for r in r_lo..=r_hi {
            let c = d - r;
            if !skip(r, c) {
                work(r, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::StdSync;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn core_counts_live_tiles_and_initial_degrees() {
        let skip = |r: usize, c: usize| r == 1 && c == 1;
        let mask: Vec<bool> = (0..4).map(|i| skip(i / 2, i % 2)).collect();
        let core = JobCore::<StdSync>::new(2, 2, mask);
        assert_eq!(core.live(), 3);
        assert!(!core.is_drained());
        assert!(!core.is_poisoned());
    }

    #[test]
    fn single_participant_drains_everything() {
        let core = JobCore::<StdSync>::new(3, 4, vec![false; 12]);
        let count = AtomicU64::new(0);
        core.participate(|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 12);
        assert!(core.is_drained());
        assert!(!core.is_poisoned());
    }

    #[test]
    fn abort_releases_participants_and_poisons() {
        let core = JobCore::<StdSync>::new(2, 2, vec![false; 4]);
        core.abort();
        assert!(core.is_drained());
        assert!(core.is_poisoned());
        // A participant joining after the abort returns immediately.
        core.participate(|_, _| panic!("job is drained"));
    }

    #[test]
    fn panicking_work_poisons_the_core() {
        let core = JobCore::<StdSync>::new(2, 2, vec![false; 4]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.participate(|r, c| {
                if (r, c) == (0, 1) {
                    panic!("tile failure");
                }
            });
        }));
        assert!(result.is_err());
        assert!(core.is_poisoned());
        assert!(core.is_drained());
    }

    #[test]
    fn cancel_abort_drains_and_reports_cancelled() {
        let core = JobCore::<StdSync>::new(3, 3, vec![false; 9]);
        let count = AtomicU64::new(0);
        core.participate(|r, c| {
            count.fetch_add(1, Ordering::Relaxed);
            if (r, c) == (1, 1) {
                core.abort_cancelled();
            }
        });
        assert!(core.is_drained());
        assert!(core.is_cancelled());
        // Cancellation aborts through the poison path; the front-ends
        // must therefore check `is_cancelled` first.
        assert!(core.is_poisoned());
        assert!(count.into_inner() < 9, "cancellation dropped the tail");
    }

    #[test]
    fn plain_abort_is_not_cancelled() {
        let core = JobCore::<StdSync>::new(2, 2, vec![false; 4]);
        core.abort();
        assert!(core.is_poisoned());
        assert!(!core.is_cancelled());
    }

    #[test]
    fn sequential_wavefront_is_topological() {
        let order = std::sync::Mutex::new(Vec::new());
        sequential_wavefront(
            3,
            5,
            |_, _| false,
            |r, c| {
                order.lock().unwrap().push((r, c));
            },
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 15);
        for (idx, &(r, c)) in order.iter().enumerate() {
            if r > 0 {
                assert!(order[..idx].contains(&(r - 1, c)));
            }
            if c > 0 {
                assert!(order[..idx].contains(&(r, c - 1)));
            }
        }
    }
}
