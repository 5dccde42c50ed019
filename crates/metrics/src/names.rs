//! The single authoritative namespace for metric names.
//!
//! Every metric the engine registers lives here as a constant, and lint
//! rule R7 (`flsa-check`) rejects inline string literals at
//! `counter("…")`/`gauge("…")`/`histogram("…")` call sites anywhere else
//! in the workspace. That keeps the Prometheus namespace collision-free
//! and greppable: this file *is* the catalogue of what the engine
//! exports.
//!
//! Conventions: `flsa_` prefix, `_total` suffix for counters, `_bytes` /
//! `_ns` unit suffixes, no dots or dashes (Prometheus name charset).

// --- DP layer (flsa-dp) -------------------------------------------------

/// DPM cells computed by fill kernels (counter).
pub const CELLS_TOTAL: &str = "flsa_cells_total";
/// Subset of cells computed inside base-case full-matrix solves (counter).
pub const CELLS_BASE_CASE_TOTAL: &str = "flsa_cells_base_case_total";
/// Fill-kernel invocations (counter).
pub const KERNEL_CALLS_TOTAL: &str = "flsa_kernel_calls_total";
/// FindPath traceback steps (counter).
pub const TRACEBACK_STEPS_TOTAL: &str = "flsa_traceback_steps_total";
/// Currently tracked auxiliary bytes (gauge, moved by `Metrics::track_alloc`).
pub const TRACKED_BYTES: &str = "flsa_tracked_bytes";
/// High-water mark of tracked auxiliary bytes (gauge).
pub const TRACKED_PEAK_BYTES: &str = "flsa_tracked_peak_bytes";

/// Kernel backend names, in the order of `flsa_dp::KernelBackend::ALL`
/// (the DP layer indexes its per-backend counters by that enum).
pub const BACKENDS: [&str; 4] = ["scalar", "sse4.1", "avx2", "avx512"];
/// Per-backend cell counters (each a subset of [`CELLS_TOTAL`]),
/// index-aligned with [`BACKENDS`].
pub const CELLS_BACKEND_TOTAL: [&str; 4] = [
    "flsa_cells_backend_scalar_total",
    "flsa_cells_backend_sse41_total",
    "flsa_cells_backend_avx2_total",
    "flsa_cells_backend_avx512_total",
];

// --- Core engine (fastlsa-core) -----------------------------------------

/// Grid-cache blocks filled (counter; base cases count one block).
pub const BLOCKS_FILLED_TOTAL: &str = "flsa_blocks_filled_total";
/// Degradation-ladder rungs taken across the run (counter).
pub const DEGRADE_STEPS_TOTAL: &str = "flsa_degrade_steps_total";
/// Current FindPath recursion depth (frame-stack height, gauge).
pub const RECURSION_DEPTH: &str = "flsa_recursion_depth";
/// Peak FindPath recursion depth (gauge).
pub const RECURSION_DEPTH_PEAK: &str = "flsa_recursion_depth_peak";
/// Solver drive-loop iterations (counter).
pub const SOLVER_STEPS_TOTAL: &str = "flsa_solver_steps_total";
/// Current engine phase, one of the `PHASE_*` values (gauge).
pub const PHASE: &str = "flsa_phase";
/// Expected total DPM cells for the run (gauge; `m*n` lower bound set by
/// the caller, used for progress/ETA).
pub const RUN_CELLS_EXPECTED: &str = "flsa_run_cells_expected";

/// [`PHASE`] gauge values.
pub const PHASE_IDLE: i64 = 0;
pub const PHASE_GRID_FILL: i64 = 1;
pub const PHASE_BASE_CASE: i64 = 2;
pub const PHASE_TRACEBACK: i64 = 3;

/// Display name for a [`PHASE`] gauge value.
pub fn phase_name(v: i64) -> &'static str {
    match v {
        PHASE_GRID_FILL => "grid-fill",
        PHASE_BASE_CASE => "base-case",
        PHASE_TRACEBACK => "traceback",
        _ => "idle",
    }
}

// --- Memory governor ----------------------------------------------------

/// Configured byte budget (gauge; 0 = unbounded).
pub const MEM_BUDGET_BYTES: &str = "flsa_mem_budget_bytes";
/// Bytes currently reserved against the budget (gauge).
pub const MEM_RESERVED_BYTES: &str = "flsa_mem_reserved_bytes";
/// High-water mark of reserved bytes (gauge).
pub const MEM_PEAK_BYTES: &str = "flsa_mem_peak_bytes";
/// Reservations refused by the governor (counter).
pub const MEM_REFUSED_TOTAL: &str = "flsa_mem_refused_total";

// --- Kernel arena (flsa-dp, observed from the solver) -------------------

/// Bytes currently held by the kernel buffer arena (gauge).
pub const ARENA_HELD_BYTES: &str = "flsa_arena_held_bytes";
/// Buffers the arena had to allocate fresh (gauge, monotone per run).
pub const ARENA_FRESH_ALLOCS: &str = "flsa_arena_fresh_allocs";
/// Buffers served from the arena pool (gauge, monotone per run).
pub const ARENA_REUSES: &str = "flsa_arena_reuses";

// --- Wavefront pool (flsa-wavefront) ------------------------------------

/// Nanoseconds workers spent inside tile work closures (counter).
pub const WORKER_BUSY_NS_TOTAL: &str = "flsa_worker_busy_ns_total";
/// Nanoseconds workers spent parked waiting for a fill (counter).
pub const WORKER_IDLE_NS_TOTAL: &str = "flsa_worker_idle_ns_total";
/// Times a worker parked on the dispatch channel (counter).
pub const WORKER_PARKS_TOTAL: &str = "flsa_worker_parks_total";
/// Wavefront tiles executed (counter).
pub const TILES_TOTAL: &str = "flsa_tiles_total";
/// Tiles currently executing (gauge).
pub const TILES_INFLIGHT: &str = "flsa_tiles_inflight";
/// Peak tiles executing at once — the observable proxy for ready-queue
/// pressure (gauge).
pub const TILES_INFLIGHT_PEAK: &str = "flsa_tiles_inflight_peak";
/// Per-tile wall time in nanoseconds (histogram).
pub const TILE_NS: &str = "flsa_tile_ns";

// --- Checkpointing (flsa-checkpoint) ------------------------------------

/// Snapshots durably saved (counter).
pub const CHECKPOINT_SAVES_TOTAL: &str = "flsa_checkpoint_saves_total";
/// Encoded snapshot bytes written (counter).
pub const CHECKPOINT_BYTES_TOTAL: &str = "flsa_checkpoint_bytes_total";
/// Wall time of the durability portion of a save — fsync + rename + dir
/// fsync — in nanoseconds (histogram).
pub const CHECKPOINT_FSYNC_NS: &str = "flsa_checkpoint_fsync_ns";

// --- Alignment service (flsa-serve) -------------------------------------

/// Alignment requests accepted off the wire (counter).
pub const SERVE_REQUESTS_TOTAL: &str = "flsa_serve_requests_total";
/// Requests refused at admission — queue full or job estimate over the
/// byte budget (counter).
pub const SERVE_REJECTED_TOTAL: &str = "flsa_serve_rejected_total";
/// Jobs currently parked in the admission queue (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "flsa_serve_queue_depth";
/// High-water mark of the admission queue (gauge).
pub const SERVE_QUEUE_DEPTH_PEAK: &str = "flsa_serve_queue_depth_peak";
/// Jobs currently executing on the worker pool (gauge).
pub const SERVE_INFLIGHT: &str = "flsa_serve_inflight_jobs";
/// Jobs that completed with a result (counter).
pub const SERVE_COMPLETED_TOTAL: &str = "flsa_serve_completed_total";
/// Jobs that terminated with a typed error (counter).
pub const SERVE_FAILED_TOTAL: &str = "flsa_serve_failed_total";
/// Execution retries after a contained worker panic (counter).
pub const SERVE_RETRIES_TOTAL: &str = "flsa_serve_retries_total";
/// Worker panics contained by the job harness (counter).
pub const SERVE_PANICS_TOTAL: &str = "flsa_serve_worker_panics_total";
/// Jobs whose deadline expired before completion (counter).
pub const SERVE_DEADLINE_EXPIRED_TOTAL: &str = "flsa_serve_deadline_expired_total";
/// Malformed frames answered with a typed protocol error (counter).
pub const SERVE_PROTOCOL_ERRORS_TOTAL: &str = "flsa_serve_protocol_errors_total";
/// Connections accepted over the daemon's lifetime (counter).
pub const SERVE_CONNECTIONS_TOTAL: &str = "flsa_serve_connections_total";
/// Jobs spooled durably for crash recovery (counter).
pub const SERVE_SPOOLED_TOTAL: &str = "flsa_serve_spooled_jobs_total";
/// Spooled jobs recovered (fresh or from a snapshot) at startup (counter).
pub const SERVE_RECOVERED_TOTAL: &str = "flsa_serve_recovered_jobs_total";
/// End-to-end request latency, arrival to response, in ns (histogram).
pub const SERVE_REQUEST_NS: &str = "flsa_serve_request_ns";
/// Time jobs spent parked waiting for admission bytes, in ns (histogram).
pub const SERVE_ADMIT_WAIT_NS: &str = "flsa_serve_admit_wait_ns";
/// Batched dispatches executed on the inter-sequence batch kernel, which
/// is gone (counter). The daemon no longer coalesces jobs into batches,
/// so nothing increments it: readers of older snapshots (the ledger's
/// `serve.batch_fill` and `serve.batched_share`) now read 0.
pub const SERVE_BATCHES_TOTAL: &str = "flsa_serve_batches_total";
/// Jobs that ran inside a batched dispatch (counter). Like
/// [`SERVE_BATCHES_TOTAL`], no longer incremented.
pub const SERVE_BATCHED_JOBS_TOTAL: &str = "flsa_serve_batched_jobs_total";

// --- Sharded execution (flsa-shard) --------------------------------------

/// Block tasks handed to a worker process (counter; re-dispatches of the
/// same task count again).
pub const SHARD_TASKS_DISPATCHED_TOTAL: &str = "flsa_shard_tasks_dispatched_total";
/// Block tasks whose result was accepted (counter).
pub const SHARD_TASKS_COMPLETED_TOTAL: &str = "flsa_shard_tasks_completed_total";
/// Tasks put back on the ready queue after a worker failure (counter).
pub const SHARD_TASKS_REASSIGNED_TOTAL: &str = "flsa_shard_tasks_reassigned_total";
/// Tasks executed in-process after exhausting their remote retry budget
/// or because no healthy worker remained (counter).
pub const SHARD_TASKS_INPROCESS_TOTAL: &str = "flsa_shard_tasks_inprocess_total";
/// Result frames rejected by CRC or decode validation (counter).
pub const SHARD_RESULTS_CORRUPT_TOTAL: &str = "flsa_shard_results_corrupt_total";
/// Worker processes spawned, including respawns (counter).
pub const SHARD_WORKERS_SPAWNED_TOTAL: &str = "flsa_shard_workers_spawned_total";
/// Workers killed by the coordinator — missed deadline, stale heartbeat,
/// or protocol desync (counter).
pub const SHARD_WORKERS_KILLED_TOTAL: &str = "flsa_shard_workers_killed_total";
/// Worker slots currently quarantined after repeated failures (gauge).
pub const SHARD_WORKERS_QUARANTINED: &str = "flsa_shard_workers_quarantined";
/// Worker processes currently alive (gauge; back to 0 after every run).
pub const SHARD_WORKERS_LIVE: &str = "flsa_shard_workers_live";
/// Tasks currently executing on a worker (gauge; 0 between runs).
pub const SHARD_TASKS_INFLIGHT: &str = "flsa_shard_tasks_inflight";
/// Heartbeat frames received from workers (counter).
pub const SHARD_HEARTBEATS_TOTAL: &str = "flsa_shard_heartbeats_total";
/// Wall time of one remote task, dispatch to accepted result, in ns
/// (histogram).
pub const SHARD_TASK_NS: &str = "flsa_shard_task_ns";

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<&'static str> {
        let mut v = vec![
            CELLS_TOTAL,
            CELLS_BASE_CASE_TOTAL,
            KERNEL_CALLS_TOTAL,
            TRACEBACK_STEPS_TOTAL,
            TRACKED_BYTES,
            TRACKED_PEAK_BYTES,
            BLOCKS_FILLED_TOTAL,
            DEGRADE_STEPS_TOTAL,
            RECURSION_DEPTH,
            RECURSION_DEPTH_PEAK,
            SOLVER_STEPS_TOTAL,
            PHASE,
            RUN_CELLS_EXPECTED,
            MEM_BUDGET_BYTES,
            MEM_RESERVED_BYTES,
            MEM_PEAK_BYTES,
            MEM_REFUSED_TOTAL,
            ARENA_HELD_BYTES,
            ARENA_FRESH_ALLOCS,
            ARENA_REUSES,
            WORKER_BUSY_NS_TOTAL,
            WORKER_IDLE_NS_TOTAL,
            WORKER_PARKS_TOTAL,
            TILES_TOTAL,
            TILES_INFLIGHT,
            TILES_INFLIGHT_PEAK,
            TILE_NS,
            CHECKPOINT_SAVES_TOTAL,
            CHECKPOINT_BYTES_TOTAL,
            CHECKPOINT_FSYNC_NS,
            SERVE_REQUESTS_TOTAL,
            SERVE_REJECTED_TOTAL,
            SERVE_QUEUE_DEPTH,
            SERVE_QUEUE_DEPTH_PEAK,
            SERVE_INFLIGHT,
            SERVE_COMPLETED_TOTAL,
            SERVE_FAILED_TOTAL,
            SERVE_RETRIES_TOTAL,
            SERVE_PANICS_TOTAL,
            SERVE_DEADLINE_EXPIRED_TOTAL,
            SERVE_PROTOCOL_ERRORS_TOTAL,
            SERVE_CONNECTIONS_TOTAL,
            SERVE_SPOOLED_TOTAL,
            SERVE_RECOVERED_TOTAL,
            SERVE_REQUEST_NS,
            SERVE_ADMIT_WAIT_NS,
            SERVE_BATCHES_TOTAL,
            SERVE_BATCHED_JOBS_TOTAL,
            SHARD_TASKS_DISPATCHED_TOTAL,
            SHARD_TASKS_COMPLETED_TOTAL,
            SHARD_TASKS_REASSIGNED_TOTAL,
            SHARD_TASKS_INPROCESS_TOTAL,
            SHARD_RESULTS_CORRUPT_TOTAL,
            SHARD_WORKERS_SPAWNED_TOTAL,
            SHARD_WORKERS_KILLED_TOTAL,
            SHARD_WORKERS_QUARANTINED,
            SHARD_WORKERS_LIVE,
            SHARD_TASKS_INFLIGHT,
            SHARD_HEARTBEATS_TOTAL,
            SHARD_TASK_NS,
        ];
        v.extend_from_slice(&CELLS_BACKEND_TOTAL);
        v
    }

    #[test]
    fn names_are_unique_and_prometheus_safe() {
        let names = all_names();
        let mut seen = std::collections::BTreeSet::new();
        for n in &names {
            assert!(seen.insert(n), "duplicate metric name {n}");
            assert!(n.starts_with("flsa_"), "{n}: missing flsa_ prefix");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{n}: invalid character for a Prometheus metric name"
            );
        }
    }

    #[test]
    fn phase_names_cover_all_values() {
        assert_eq!(phase_name(PHASE_IDLE), "idle");
        assert_eq!(phase_name(PHASE_GRID_FILL), "grid-fill");
        assert_eq!(phase_name(PHASE_BASE_CASE), "base-case");
        assert_eq!(phase_name(PHASE_TRACEBACK), "traceback");
        assert_eq!(phase_name(42), "idle");
    }
}
