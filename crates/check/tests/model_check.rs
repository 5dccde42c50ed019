//! Model-checking suite for the wavefront pool protocol.
//!
//! Every test replays the *real* `JobCore` code (monomorphized over the
//! virtual sync primitives) under controlled interleavings and asserts
//! the protocol invariants documented in `flsa_wavefront::protocol` —
//! exactly-once, dependency order, quiescence, no deadlock / lost
//! wakeups, happens-before publication, and panic abort.

use std::collections::HashSet;

use flsa_check::explore::{DfsExplorer, SchedPolicy};
use flsa_check::model::{check_schedule, ModelSpec};

/// Exhaustively explores `spec` under `bound` preemptions, checking the
/// invariants on every schedule; returns the distinct-schedule hashes.
fn explore_exhaustive(spec: &ModelSpec, bound: u32, cap: u64) -> HashSet<u64> {
    let mut dfs = DfsExplorer::new(bound);
    let mut distinct = HashSet::new();
    let mut n = 0u64;
    while let Some(policy) = dfs.next_policy() {
        let out = check_schedule(policy, spec)
            .unwrap_or_else(|e| panic!("schedule {n} (bound {bound}): {e}"));
        distinct.insert(out.schedule_hash);
        dfs.advance(out.policy.trace());
        n += 1;
        assert!(n <= cap, "DFS exceeded the expected schedule budget");
    }
    assert!(dfs.exhausted());
    distinct
}

/// Runs `seeds` random schedules of `spec`, checking invariants; returns
/// the distinct hashes.
fn explore_random(
    spec: &ModelSpec,
    seeds: std::ops::Range<u64>,
    spurious_pct: u32,
) -> HashSet<u64> {
    let mut distinct = HashSet::new();
    for seed in seeds {
        let out = check_schedule(SchedPolicy::random(seed, 40, spurious_pct), spec)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        distinct.insert(out.schedule_hash);
    }
    distinct
}

#[test]
fn dense_2x2_two_participants_exhaustive_one_preemption() {
    // Small enough to eyeball: every schedule with at most one voluntary
    // preemption, all invariants hold, every schedule distinct.
    let spec = ModelSpec::dense(2, 2, 2);
    let distinct = explore_exhaustive(&spec, 1, 500);
    assert!(
        distinct.len() >= 40,
        "expected a non-trivial schedule tree, got {}",
        distinct.len()
    );
}

#[test]
fn dense_2x2_two_participants_exhaustive_two_preemptions() {
    let spec = ModelSpec::dense(2, 2, 2);
    let distinct = explore_exhaustive(&spec, 2, 5_000);
    assert!(distinct.len() >= 800, "got {}", distinct.len());
}

#[test]
fn dense_2x2_three_participants_exhaustive() {
    let spec = ModelSpec::dense(2, 2, 3);
    let distinct = explore_exhaustive(&spec, 1, 5_000);
    assert!(distinct.len() >= 500, "got {}", distinct.len());
}

#[test]
fn ten_thousand_distinct_schedules_of_3x3_hold_all_invariants() {
    // The acceptance bar: ≥ 10_000 distinct interleavings of a 3×3 pool
    // job, every one passing every invariant. Bounded-exhaustive DFS
    // (preemption bound 2) supplies systematic coverage near the
    // sequential schedule; seeded random schedules (with spurious condvar
    // wakeups) cover the wilder interleavings.
    let spec = ModelSpec::dense(3, 3, 2);
    let mut distinct = explore_exhaustive(&spec, 2, 10_000);
    let dfs_count = distinct.len();
    assert!(dfs_count >= 3_000, "DFS explored only {dfs_count}");
    let mut seed = 0u64;
    while distinct.len() < 10_000 {
        let out = check_schedule(SchedPolicy::random(seed, 40, 10), &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        distinct.insert(out.schedule_hash);
        seed += 1;
        assert!(
            seed < 40_000,
            "random exploration stalled at {} distinct schedules",
            distinct.len()
        );
    }
    assert!(distinct.len() >= 10_000);
}

#[test]
fn skip_block_grid_holds_invariants_exhaustive_and_random() {
    // The FastLSA Fig. 13 shape: bottom-right block of tiles skipped.
    let spec = ModelSpec::dense(3, 3, 2).with_skip_block(2, 2);
    explore_exhaustive(&spec, 1, 2_000);
    explore_random(&spec, 0..300, 10);
}

#[test]
fn injected_tile_panic_always_poisons_and_never_deadlocks() {
    // Invariant 6 under systematic exploration: whichever participant
    // runs the panicking tile, on whatever schedule, the job poisons,
    // every thread drains, and quiescence is still reached before the
    // modeled closure is dropped.
    for (r, c) in [(0, 0), (0, 1), (1, 1)] {
        let spec = ModelSpec::dense(2, 2, 2).with_panic_at(r, c);
        explore_exhaustive(&spec, 1, 1_000);
        explore_random(&spec, 0..200, 10);
    }
}

#[test]
fn cancellation_at_any_tile_drains_and_never_deadlocks() {
    // Invariant 7 under systematic exploration: whichever participant
    // observes the cancellation, on whatever schedule, the job reports
    // cancelled, the cancelled tile's work is skipped, and every thread
    // still drains to quiescence.
    for (r, c) in [(0, 0), (0, 1), (1, 1)] {
        let spec = ModelSpec::dense(2, 2, 2).with_cancel_at(r, c);
        explore_exhaustive(&spec, 1, 1_000);
        explore_random(&spec, 0..200, 10);
    }
}

#[test]
fn spurious_wakeups_are_harmless() {
    // Crank the spurious-wakeup probability: predicate re-check loops
    // must absorb them without double-runs or lost work.
    let spec = ModelSpec::dense(2, 3, 2);
    explore_random(&spec, 0..400, 40);
}

#[test]
fn single_participant_schedules_degenerate_to_sequential() {
    let spec = ModelSpec::dense(3, 3, 1);
    // With one participant there is exactly one schedule per policy
    // regardless of seed: no preemption choices exist.
    let hashes = explore_random(&spec, 0..20, 0);
    assert_eq!(hashes.len(), 1, "sequential execution must be unique");
}

#[test]
fn replaying_a_dfs_trace_reproduces_the_schedule() {
    // Determinism spot-check on the full model: re-running a DFS prefix
    // yields the identical schedule hash (what makes failures debuggable).
    let spec = ModelSpec::dense(2, 2, 2);
    let mut dfs = DfsExplorer::new(2);
    let mut replayed = 0;
    while let Some(policy) = dfs.next_policy() {
        let prefix: Vec<u32> = match &policy {
            SchedPolicy::Dfs { prefix, .. } => prefix.clone(),
            SchedPolicy::Random { .. } => unreachable!(),
        };
        let out = check_schedule(policy, &spec).expect("schedule holds invariants");
        let again =
            check_schedule(SchedPolicy::dfs(prefix, 2), &spec).expect("replay holds invariants");
        assert_eq!(out.schedule_hash, again.schedule_hash, "replay diverged");
        dfs.advance(out.policy.trace());
        replayed += 1;
        if replayed >= 25 {
            break;
        }
    }
}

// ---- invariant 8: checkpoint capture is a consistent, resumable cut ----

use fastlsa_core::{CheckpointState, FastLsaConfig, FrameState, GapState, GridState};
use flsa_check::model::check_checkpoint_schedule;
use flsa_scoring::GapModel;

/// Exhaustively explores `spec` under `bound` preemptions through the
/// checkpoint-capture scenario; returns the distinct captured cuts.
fn explore_checkpoint_exhaustive(spec: &ModelSpec, bound: u32, cap: u64) -> HashSet<Vec<bool>> {
    let mut dfs = DfsExplorer::new(bound);
    let mut cuts = HashSet::new();
    let mut n = 0u64;
    while let Some(policy) = dfs.next_policy() {
        let (out, cut) = check_checkpoint_schedule(policy, spec)
            .unwrap_or_else(|e| panic!("schedule {n} (bound {bound}): {e}"));
        cuts.insert(cut);
        dfs.advance(out.policy.trace());
        n += 1;
        assert!(n <= cap, "DFS exceeded the expected schedule budget");
    }
    assert!(dfs.exhausted());
    cuts
}

/// Maps a captured tile cut onto the `CheckpointState` the solver would
/// persist at that point: a root frame over the DP rectangle the tile
/// grid covers, gridded along the tile boundaries, with the head at the
/// frontier's staircase corner. `check_checkpoint_schedule` has already
/// proven the cut down-closed, which is exactly what makes this frame
/// geometry well-formed.
fn state_from_cut(rows: usize, cols: usize, cut: &[bool]) -> CheckpointState {
    const TILE: usize = 4; // DP cells per tile edge
    let (m, n) = (rows * TILE, cols * TILE);
    let full_rows = (0..rows)
        .take_while(|&r| (0..cols).all(|c| cut[r * cols + c]))
        .count();
    let next_row_done = if full_rows < rows {
        (0..cols).take_while(|&c| cut[full_rows * cols + c]).count()
    } else {
        0
    };
    CheckpointState {
        config: FastLsaConfig::new(rows.max(cols).max(2), 64),
        blocks_done: cut.iter().filter(|&&d| d).count() as u64,
        generation: 0,
        rev_moves: Vec::new(),
        frames: vec![FrameState {
            r0: 0,
            c0: 0,
            rows: m,
            cols: n,
            head: (full_rows * TILE, next_row_done * TILE),
            head_state: GapState::H,
            top: vec![0; n + 1],
            left: vec![0; m + 1],
            grid: Some(GridState {
                row_bounds: (0..=rows).map(|r| r * TILE).collect(),
                col_bounds: (0..=cols).map(|c| c * TILE).collect(),
                rows_cache: vec![vec![0; n + 1]; rows - 1],
                cols_cache: vec![vec![0; m + 1]; cols - 1],
            }),
        }],
    }
}

#[test]
fn checkpoint_cut_exhaustive_cancel_preemption_yields_resumable_snapshots() {
    // Invariant 8, the interesting case: a 2-worker wavefront cancelled
    // mid-flight at tile (1,0). Exhaustively preempting around the
    // capture varies *which* tiles are in the snapshot; every captured
    // cut must be down-closed (checked inside check_checkpoint_schedule)
    // and must decode to a CheckpointState that validates against the
    // problem dimensions — i.e. a resume could rebuild the frontier.
    let spec = ModelSpec::dense(2, 2, 2).with_cancel_at(1, 0);
    let cuts = explore_checkpoint_exhaustive(&spec, 2, 10_000);
    assert!(
        cuts.len() >= 2,
        "preemption should vary the captured cut, got {cuts:?}"
    );
    for cut in &cuts {
        // Tile (1,0) in the 2-wide grid is index 2.
        assert!(!cut[2], "cancelled tile captured as done: {cut:?}");
        let state = state_from_cut(2, 2, cut);
        state
            .validate(2 * 4, 2 * 4, &GapModel::PAPER_DEFAULT)
            .unwrap_or_else(|e| panic!("cut {cut:?} produced an unresumable state: {e}"));
    }
}

#[test]
fn checkpoint_cut_exhaustive_panic_preemption_yields_resumable_snapshots() {
    // Same bar with a poisoned (crashed) run: whatever the interleaving
    // around the panic at (0,1), the post-drain snapshot stays a
    // consistent cut and decodes to a resumable state.
    let spec = ModelSpec::dense(2, 2, 2).with_panic_at(0, 1);
    let cuts = explore_checkpoint_exhaustive(&spec, 1, 2_000);
    for cut in &cuts {
        let state = state_from_cut(2, 2, cut);
        state
            .validate(2 * 4, 2 * 4, &GapModel::PAPER_DEFAULT)
            .unwrap_or_else(|e| panic!("cut {cut:?} produced an unresumable state: {e}"));
    }
}

#[test]
fn checkpoint_cut_clean_runs_capture_the_full_grid() {
    // Without a fault the capture must be the complete grid on every
    // interleaving — a partial "checkpoint" of a finished job would
    // make the resume re-run work.
    let spec = ModelSpec::dense(2, 2, 2);
    let cuts = explore_checkpoint_exhaustive(&spec, 1, 2_000);
    assert_eq!(
        cuts.len(),
        1,
        "clean runs must all capture the same (full) cut"
    );
    assert!(cuts.iter().next().unwrap().iter().all(|&d| d));
    let full = state_from_cut(2, 2, cuts.iter().next().unwrap());
    assert!(full.validate(8, 8, &GapModel::PAPER_DEFAULT).is_ok());
    assert_eq!(full.blocks_done, 4);
}
