//! Differential property test for the wavefront substrate: the results a
//! real `WorkerPool` execution produces at 1..=4 threads must be
//! byte-identical to the sequential anti-diagonal fill, for random skip
//! masks. This is the production-side complement of the model checker in
//! `flsa-check`, which replays the same protocol under controlled
//! schedules — here the schedules come from the actual OS.

use std::sync::atomic::{AtomicU64, Ordering};

use fastlsa::wavefront::{sequential_wavefront, WorkerPool};

/// SplitMix64: deterministic masks without external dependencies.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_mask(rows: usize, cols: usize, density_pct: u64, seed: u64) -> Vec<bool> {
    let mut state = seed;
    (0..rows * cols)
        .map(|_| splitmix(&mut state) % 100 < density_pct)
        .collect()
}

/// The tile computation: each live tile derives its value from both
/// parents' values (skipped/absent parents contribute a coordinate-based
/// default), so any ordering or visibility mistake changes the bytes.
fn tile_value(cells: &[AtomicU64], rows_cols: (usize, usize), r: usize, c: usize) -> u64 {
    let (_, cols) = rows_cols;
    let up = if r > 0 {
        cells[(r - 1) * cols + c].load(Ordering::Acquire)
    } else {
        r as u64 + 1
    };
    let left = if c > 0 {
        cells[r * cols + c - 1].load(Ordering::Acquire)
    } else {
        c as u64 + 7
    };
    up.wrapping_mul(0x100_0000_01b3)
        .wrapping_add(left)
        .wrapping_add((r * cols + c) as u64)
}

fn fill_sequential(rows: usize, cols: usize, mask: &[bool]) -> Vec<u64> {
    let cells: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
    sequential_wavefront(
        rows,
        cols,
        |r, c| mask[r * cols + c],
        |r, c| {
            let v = tile_value(&cells, (rows, cols), r, c);
            cells[r * cols + c].store(v, Ordering::Release);
        },
    );
    cells.into_iter().map(AtomicU64::into_inner).collect()
}

fn fill_pool(pool: &mut WorkerPool, rows: usize, cols: usize, mask: &[bool]) -> Vec<u64> {
    let cells: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
    pool.run(rows, cols, |r, c| mask[r * cols + c], &|r, c| {
        let v = tile_value(&cells, (rows, cols), r, c);
        cells[r * cols + c].store(v, Ordering::Release);
    })
    .unwrap();
    cells.into_iter().map(AtomicU64::into_inner).collect()
}

#[test]
fn executor_matches_sequential_fill_for_random_masks() {
    // One job per freshly built pool: the first job a set of workers
    // sees, followed by shutdown, must match the sequential fill too.
    for (rows, cols) in [(1, 1), (1, 7), (5, 1), (4, 4), (7, 5), (9, 9)] {
        for (seed, density) in [(1, 0), (2, 20), (3, 45), (4, 70)] {
            let mask = random_mask(rows, cols, density, seed);
            let expected = fill_sequential(rows, cols, &mask);
            for threads in 1..=4 {
                let got = fill_pool(&mut WorkerPool::new(threads), rows, cols, &mask);
                assert_eq!(
                    got, expected,
                    "fresh WorkerPool diverged: {rows}x{cols}, seed {seed}, \
                     density {density}%, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn worker_pool_matches_sequential_fill_for_random_masks() {
    for threads in 1..=4 {
        let mut pool = WorkerPool::new(threads);
        for (rows, cols) in [
            (1, 1),
            (1, 6),
            (1, 7),
            (5, 1),
            (4, 4),
            (6, 3),
            (7, 5),
            (8, 8),
            (9, 9),
        ] {
            for (seed, density) in [
                (1, 0),
                (2, 20),
                (3, 45),
                (4, 70),
                (11, 0),
                (12, 30),
                (13, 60),
            ] {
                let mask = random_mask(rows, cols, density, seed);
                let expected = fill_sequential(rows, cols, &mask);
                let got = fill_pool(&mut pool, rows, cols, &mask);
                assert_eq!(
                    got, expected,
                    "WorkerPool diverged: {rows}x{cols}, seed {seed}, \
                     density {density}%, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn repeated_jobs_on_one_pool_stay_identical() {
    // The pool reuses its workers across jobs; a stale-state bug would
    // show up as drift between repetitions of the same job.
    let mut pool = WorkerPool::new(4);
    let (rows, cols) = (6, 6);
    let mask = random_mask(rows, cols, 25, 99);
    let expected = fill_sequential(rows, cols, &mask);
    for _ in 0..50 {
        assert_eq!(fill_pool(&mut pool, rows, cols, &mask), expected);
    }
}
