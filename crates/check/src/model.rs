//! The wavefront pool scenario under the model checker.
//!
//! [`check_schedule`] runs one schedule of the *real* protocol code —
//! [`JobCore`] monomorphized over [`VirtSync`] — mirroring what
//! `WorkerPool::run` does: N participants call `participate`, the
//! submitter then waits for quiescence and drops the job. On top of the
//! runtime's built-in race and deadlock detection it asserts the protocol
//! invariants documented in `flsa_wavefront::protocol`:
//!
//! * every live tile runs exactly once, skipped tiles never (inv. 1);
//! * a tile starts only after both live parents finished, and it *sees*
//!   their writes — checked through [`RaceCell`]s, so a missing
//!   happens-before edge fails the schedule as a race (inv. 2 & 5);
//! * no `work` call can run after the submitter observed quiescence —
//!   modeled by a plain write to an `alive` cell right where the real
//!   pool lets its borrowed closure die (inv. 3);
//! * the schedule terminates with no deadlock (inv. 4);
//! * an injected tile panic poisons the job and everyone still drains
//!   (inv. 6);
//! * a cancellation observed at a tile (`abort_cancelled`, mirroring
//!   the pool's cancel-callback path) marks the job cancelled, skips
//!   the tile's work, and still drains every participant (inv. 7);
//! * the tile set captured after quiescence — what the real solver
//!   persists as a [`fastlsa_core::CheckpointState`] — is a *consistent
//!   cut* of the dependency order, even when the run was cancelled or
//!   poisoned mid-wavefront (inv. 8; [`check_checkpoint_schedule`]).

use std::sync::{Arc, Mutex};

use flsa_wavefront::JobCore;

use crate::exec::{run_schedule, ScheduleOutcome, TilePanic};
use crate::explore::SchedPolicy;
use crate::vsync::{RaceCell, VirtSync};

/// One pool-model configuration: grid shape, participant count, skip
/// mask, and an optional tile that panics when it runs.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Tile-grid rows.
    pub rows: usize,
    /// Tile-grid columns.
    pub cols: usize,
    /// Total participants, including the submitting virtual thread.
    pub threads: usize,
    /// `skip[r * cols + c]`: tile does not exist (paper Fig. 13 shape).
    pub skip: Vec<bool>,
    /// Tile whose `work` panics (invariant-6 scenarios).
    pub panic_at: Option<(usize, usize)>,
    /// Tile at which a participant observes cancellation and calls
    /// `abort_cancelled` instead of running the work (invariant-7
    /// scenarios, mirroring `WorkerPool::run_traced`).
    pub cancel_at: Option<(usize, usize)>,
}

impl ModelSpec {
    /// A dense grid with no panics.
    pub fn dense(rows: usize, cols: usize, threads: usize) -> Self {
        ModelSpec {
            rows,
            cols,
            threads,
            skip: vec![false; rows * cols],
            panic_at: None,
            cancel_at: None,
        }
    }

    /// Same spec with the FastLSA bottom-right skip block: tiles with
    /// `r >= rows - skip_rows && c >= cols - skip_cols` don't exist.
    pub fn with_skip_block(mut self, skip_rows: usize, skip_cols: usize) -> Self {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r + skip_rows >= self.rows && c + skip_cols >= self.cols {
                    self.skip[r * self.cols + c] = true;
                }
            }
        }
        self
    }

    /// Same spec with tile `(r, c)` panicking when it runs.
    pub fn with_panic_at(mut self, r: usize, c: usize) -> Self {
        self.panic_at = Some((r, c));
        self
    }

    /// Same spec with cancellation observed at tile `(r, c)`.
    pub fn with_cancel_at(mut self, r: usize, c: usize) -> Self {
        self.cancel_at = Some((r, c));
        self
    }

    fn live(&self) -> usize {
        self.skip.iter().filter(|&&s| !s).count()
    }
}

/// Everything shared between the participants of one modeled job.
struct Shared {
    core: JobCore<VirtSync>,
    /// One cell per tile: 0 = not run, 1 = run. Written by the tile,
    /// read by its dependents — the vehicle for invariants 1, 2 and 5.
    cells: Vec<RaceCell<u32>>,
    /// Models the lifetime of the pool's borrowed work closure: the
    /// submitter plain-writes `false` after quiescence; any `work` still
    /// reading it would be a detected race or a failed assert (inv. 3).
    alive: RaceCell<bool>,
}

/// The per-tile work body every participant runs.
fn tile_work(shared: &Shared, spec: &ModelSpec, runs: &Mutex<Vec<u32>>, r: usize, c: usize) {
    let cols = spec.cols;
    let idx = r * cols + c;
    assert!(
        shared.alive.get(),
        "work({r},{c}) executed after the job was dropped"
    );
    if spec.cancel_at == Some((r, c)) {
        // The pool's cancel callback fires before the tile body runs:
        // mark the job cancelled and skip the work. Everyone drains.
        shared.core.abort_cancelled();
        return;
    }
    if r > 0 && !spec.skip[(r - 1) * cols + c] {
        assert_eq!(
            shared.cells[(r - 1) * cols + c].get(),
            1,
            "work({r},{c}) started before its up-parent finished"
        );
    }
    if c > 0 && !spec.skip[r * cols + c - 1] {
        assert_eq!(
            shared.cells[r * cols + c - 1].get(),
            1,
            "work({r},{c}) started before its left-parent finished"
        );
    }
    assert_eq!(shared.cells[idx].get(), 0, "work({r},{c}) ran twice");
    shared.cells[idx].set(1);
    runs.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)[idx] += 1;
    if spec.panic_at == Some((r, c)) {
        std::panic::panic_any(TilePanic);
    }
}

/// Runs one schedule of the pool scenario under `policy` and checks every
/// protocol invariant. `Ok` carries the schedule outcome (hash, step
/// count, DFS trace); `Err` describes the violated invariant.
pub fn check_schedule(policy: SchedPolicy, spec: &ModelSpec) -> Result<ScheduleOutcome, String> {
    let n = spec.rows * spec.cols;
    // Host-side mirror of per-tile run counts: lives outside the virtual
    // world (physically serialized by the runtime, so a plain std mutex
    // is fine) and survives even schedules that fail mid-way.
    let runs: Mutex<Vec<u32>> = Mutex::new(vec![0; n]);
    let final_state: Mutex<Option<(bool, bool, bool)>> = Mutex::new(None);

    let outcome = run_schedule(policy, |scope| {
        let shared = Arc::new(Shared {
            core: JobCore::new(spec.rows, spec.cols, spec.skip.clone()),
            cells: (0..n).map(|_| RaceCell::new(0)).collect(),
            alive: RaceCell::new(true),
        });
        for _ in 1..spec.threads {
            let shared = Arc::clone(&shared);
            let runs = &runs;
            scope.spawn(move || {
                shared
                    .core
                    .participate(|r, c| tile_work(&shared, spec, runs, r, c));
            });
        }
        // The submitting thread, mirroring WorkerPool::run: participate,
        // wait for quiescence (even when its own tile panicked), then let
        // the "closure" die and re-raise.
        let participation = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared
                .core
                .participate(|r, c| tile_work(&shared, spec, &runs, r, c));
        }));
        shared.core.wait_quiescent();
        shared.alive.set(false);
        *final_state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((
            shared.core.is_drained(),
            shared.core.is_poisoned(),
            shared.core.is_cancelled(),
        ));
        if let Err(payload) = participation {
            std::panic::resume_unwind(payload);
        }
    });

    if let Some(dl) = &outcome.deadlock {
        return Err(format!("schedule {:#x}: {dl}", outcome.schedule_hash));
    }
    let panics = outcome.real_panics();
    if !panics.is_empty() {
        return Err(format!(
            "schedule {:#x}: {}",
            outcome.schedule_hash,
            panics.join("; ")
        ));
    }
    if spec.panic_at.is_some() && !outcome.tile_panicked() {
        return Err(format!(
            "schedule {:#x}: injected tile panic never surfaced on any participant",
            outcome.schedule_hash
        ));
    }

    let runs = runs
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut ran = 0usize;
    for (idx, &count) in runs.iter().enumerate() {
        let (r, c) = (idx / spec.cols, idx % spec.cols);
        if spec.skip[idx] && count != 0 {
            return Err(format!("skipped tile ({r},{c}) ran {count} times"));
        }
        if count > 1 {
            return Err(format!("tile ({r},{c}) ran {count} times"));
        }
        ran += count as usize;
    }
    let (drained, poisoned, cancelled) = final_state
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .ok_or_else(|| "submitter never recorded the final job state".to_string())?;
    if !drained {
        return Err("job not drained after quiescence".to_string());
    }
    if let Some((r, c)) = spec.cancel_at {
        // Invariant 7: the cancellation is visible, the cancelled tile's
        // work never ran, and nothing ran more than live (checked above).
        if !cancelled {
            return Err("cancelled job not reported cancelled".to_string());
        }
        if runs[r * spec.cols + c] != 0 {
            return Err(format!("cancelled tile ({r},{c}) ran its work"));
        }
        if ran >= spec.live() {
            return Err(format!(
                "{ran} of {} live tiles ran despite cancellation",
                spec.live()
            ));
        }
        return Ok(outcome);
    }
    if cancelled {
        return Err("job reported cancelled without a cancel injection".to_string());
    }
    match spec.panic_at {
        None => {
            if poisoned {
                return Err("clean job reported poisoned".to_string());
            }
            if ran != spec.live() {
                return Err(format!(
                    "{ran} of {} live tiles ran (exactly-once violated)",
                    spec.live()
                ));
            }
        }
        Some((r, c)) => {
            if !poisoned {
                return Err("panicked job not reported poisoned".to_string());
            }
            if runs[r * spec.cols + c] != 1 {
                return Err(format!("panicking tile ({r},{c}) did not run exactly once"));
            }
        }
    }
    Ok(outcome)
}

/// Runs one schedule of the pool scenario and captures the tile cut the
/// submitter would persist as a checkpoint, checking invariant 8: the
/// captured set is a *consistent cut* of the wavefront dependency order
/// (down-closed: a done tile's live parents are done), so a resume can
/// rebuild the frontier from it without re-running finished work or
/// starting a tile whose inputs are missing.
///
/// The spec may cancel or panic mid-wavefront (that is the interesting
/// case — the cut is partial, and *which* tiles made it in depends on
/// the preemption point). After `wait_quiescent` the submitter
/// plain-reads every tile cell, exactly like the real checkpoint sink
/// reading solver state after the workers drained; the [`RaceCell`]s
/// turn any missing happens-before edge on that capture into a failed
/// schedule. Returns the outcome and the cut (`cut[r * cols + c]`).
pub fn check_checkpoint_schedule(
    policy: SchedPolicy,
    spec: &ModelSpec,
) -> Result<(ScheduleOutcome, Vec<bool>), String> {
    let n = spec.rows * spec.cols;
    let runs: Mutex<Vec<u32>> = Mutex::new(vec![0; n]);
    let captured: Mutex<Option<Vec<bool>>> = Mutex::new(None);

    let outcome = run_schedule(policy, |scope| {
        let shared = Arc::new(Shared {
            core: JobCore::new(spec.rows, spec.cols, spec.skip.clone()),
            cells: (0..n).map(|_| RaceCell::new(0)).collect(),
            alive: RaceCell::new(true),
        });
        for _ in 1..spec.threads {
            let shared = Arc::clone(&shared);
            let runs = &runs;
            scope.spawn(move || {
                shared
                    .core
                    .participate(|r, c| tile_work(&shared, spec, runs, r, c));
            });
        }
        let participation = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared
                .core
                .participate(|r, c| tile_work(&shared, spec, &runs, r, c));
        }));
        shared.core.wait_quiescent();
        // The checkpoint capture: a plain read of every tile's cell.
        // Safe only because quiescence established a happens-before
        // edge from every worker — which the race detector verifies.
        let cut: Vec<bool> = shared.cells.iter().map(|c| c.get() == 1).collect();
        *captured
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(cut);
        shared.alive.set(false);
        if let Err(payload) = participation {
            std::panic::resume_unwind(payload);
        }
    });

    if let Some(dl) = &outcome.deadlock {
        return Err(format!("schedule {:#x}: {dl}", outcome.schedule_hash));
    }
    let panics = outcome.real_panics();
    if !panics.is_empty() {
        return Err(format!(
            "schedule {:#x}: {}",
            outcome.schedule_hash,
            panics.join("; ")
        ));
    }

    let cut = captured
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .ok_or_else(|| "submitter never captured the checkpoint cut".to_string())?;
    let runs = runs
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (idx, &done) in cut.iter().enumerate() {
        let (r, c) = (idx / spec.cols, idx % spec.cols);
        if spec.skip[idx] && done {
            return Err(format!("checkpoint cut contains skipped tile ({r},{c})"));
        }
        // The capture must agree with the host-side mirror: a tile is in
        // the cut iff its work ran (no lost or phantom publication).
        if done != (runs[idx] == 1) {
            return Err(format!(
                "cut disagrees with run counts at ({r},{c}): done={done}, runs={}",
                runs[idx]
            ));
        }
        if !done {
            continue;
        }
        // Invariant 8: down-closure under the wavefront dependency order.
        if r > 0 && !spec.skip[(r - 1) * spec.cols + c] && !cut[(r - 1) * spec.cols + c] {
            return Err(format!(
                "inconsistent cut: ({r},{c}) done but up-parent ({},{c}) missing",
                r - 1
            ));
        }
        if c > 0 && !spec.skip[r * spec.cols + c - 1] && !cut[r * spec.cols + c - 1] {
            return Err(format!(
                "inconsistent cut: ({r},{c}) done but left-parent ({r},{}) missing",
                c - 1
            ));
        }
    }
    if spec.panic_at.is_none() && spec.cancel_at.is_none() {
        let done = cut.iter().filter(|&&d| d).count();
        if done != spec.live() {
            return Err(format!(
                "clean run captured a partial cut: {done} of {} live tiles",
                spec.live()
            ));
        }
    }
    Ok((outcome, cut))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_grid_random_schedules_hold_every_invariant() {
        let spec = ModelSpec::dense(2, 2, 2);
        for seed in 0..30 {
            check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn skip_block_grid_holds_invariants() {
        let spec = ModelSpec::dense(3, 3, 2).with_skip_block(2, 2);
        // The 2×2 bottom-right block is skipped: row 0 and column 0 stay.
        assert_eq!(spec.live(), 5);
        for seed in 0..20 {
            check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn injected_panic_poisons_and_drains_without_deadlock() {
        let spec = ModelSpec::dense(2, 2, 2).with_panic_at(0, 1);
        for seed in 0..30 {
            check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn cancellation_marks_the_job_and_drains_without_deadlock() {
        let spec = ModelSpec::dense(2, 2, 2).with_cancel_at(0, 1);
        for seed in 0..30 {
            check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn checkpoint_cut_is_complete_on_clean_runs() {
        let spec = ModelSpec::dense(2, 2, 2);
        for seed in 0..20 {
            let (_, cut) = check_checkpoint_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(cut.iter().all(|&d| d), "seed {seed}: partial cut {cut:?}");
        }
    }

    #[test]
    fn cancelled_checkpoint_cut_is_consistent_and_partial() {
        let spec = ModelSpec::dense(2, 2, 2).with_cancel_at(1, 0);
        for seed in 0..30 {
            // check_checkpoint_schedule itself asserts down-closure; the
            // cancelled tile must additionally never be in the cut.
            let (_, cut) = check_checkpoint_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!cut[2], "seed {seed}: cancelled tile captured as done");
        }
    }

    #[test]
    fn three_participants_also_hold() {
        let spec = ModelSpec::dense(2, 2, 3);
        for seed in 0..15 {
            check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
