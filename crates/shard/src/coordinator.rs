//! The shard coordinator: owns the grid cache, farms block tasks out to
//! worker processes, and survives any mix of worker failures without
//! changing a byte of the answer.
//!
//! # Execution model
//!
//! The coordinator decomposes the `m × n` alignment into a single-level
//! `k_r × k_c` block grid (cut points from [`fastlsa_core::grid::partition`],
//! exactly as the sequential solver's top recursion level) and runs two
//! phases:
//!
//! 1. **Fill**: every block except the bottom-right one is a Fill-Cache
//!    task — given exact `top`/`left` boundary vectors, compute the
//!    block's last row and/or column. Tasks become ready along the
//!    anti-diagonal wavefront as their up/left neighbours complete, and
//!    results land in the coordinator's `rows_cache`/`cols_cache`.
//! 2. **Trace**: a sequential chain of Base-Case tasks from `(m, n)`:
//!    each task full-fills one block and tracebacks from the current
//!    path head to the block boundary; the exit coordinate names the
//!    next block ([`fastlsa_core::grid::segment_of`]).
//!
//! # Why the answer is byte-identical
//!
//! Every global cell `(i, j)` with `i, j ≥ 1` is an interior decision
//! point of **exactly one** block — `(segment_of(i), segment_of(j))` —
//! and a block filled from exact boundary vectors reproduces the exact
//! global DP values. The traceback is a per-cell greedy walk over those
//! values with the fixed Diag ≻ Up ≻ Left tie-break of
//! [`flsa_dp::traceback::trace_from`], so the path is a pure function
//! of the DP values: it cannot matter which process computed a block,
//! how many times it was recomputed after a SIGKILL, or whether the
//! coordinator computed it itself on the last degradation rung. The
//! final forced `Up`/`Left` run to `(0, 0)` mirrors the sequential
//! solver's `finish_path`.
//!
//! # Failure ladder
//!
//! Per-task deadlines and heartbeat staleness detect dead, hung, and
//! wedged workers; a CRC-failing or semantically invalid result frame
//! burns trust in its worker. Every detection takes the same path:
//! kill + reap the process, reassign its task with bounded backoff,
//! respawn into the slot. A slot that fails [`ShardPolicy::quarantine_after`]
//! times (or when the spawn budget runs dry) is quarantined; a task
//! failing [`ShardPolicy::max_task_attempts`] times runs in-process on
//! the coordinator; when every slot is quarantined the whole run
//! degrades to sequential in-process execution (or a typed
//! [`ShardError::NoWorkers`] if the fallback is disabled).
//!
//! Worker I/O is fully decoupled from the control loop: a per-slot
//! writer thread owns the stdin pipe (a hung worker can never block the
//! coordinator) and a per-slot reader thread turns frames into events.
//! Each spawn gets a fresh generation number; events from a killed
//! worker's threads carry the old generation and are discarded, so a
//! slow frame from a replaced worker can never double-apply a task.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastlsa_core::grid::{partition, segment_of};
use fastlsa_core::{align_opts, AlignError, AlignOptions, FastLsaConfig};
use flsa_checkpoint::wire::{self, WireError};
use flsa_dp::{AlignResult, Kernel, Metrics, Move, PathBuilder};
use flsa_metrics::{names, Counter, Gauge, Histogram, Registry};
use flsa_scoring::{tables, ScoringScheme};
use flsa_seq::Sequence;
use flsa_trace::{EventKind, SpanKind};

use crate::compute;
use crate::protocol::{self, Frame, TaskKind, TaskOutput, TaskSpec};

/// Everything that can go wrong in a sharded run. Worker deaths, hangs,
/// and corrupt results are *not* errors — they are handled by the
/// reassignment ladder; these are the conditions the ladder cannot (or
/// must not) absorb.
#[derive(Debug)]
pub enum ShardError {
    /// The run was misconfigured (unknown matrix, zero shards, empty
    /// worker command, scoring span too large). Maps to CLI exit 2.
    Config {
        /// Human-readable description.
        detail: String,
    },
    /// Every worker slot is quarantined and the in-process fallback is
    /// disabled by policy.
    NoWorkers {
        /// How the slots were lost.
        detail: String,
    },
    /// A task failed even when executed in-process — a bug, not a
    /// fault; the error is surfaced verbatim rather than retried.
    TaskFailed {
        /// Which task and why.
        detail: String,
    },
    /// The degenerate-input path delegated to the sequential engine and
    /// it refused.
    Align(AlignError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Config { detail } => write!(f, "shard configuration: {detail}"),
            ShardError::NoWorkers { detail } => {
                write!(f, "all worker slots quarantined: {detail}")
            }
            ShardError::TaskFailed { detail } => write!(f, "task failed in-process: {detail}"),
            ShardError::Align(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<AlignError> for ShardError {
    fn from(e: AlignError) -> Self {
        ShardError::Align(e)
    }
}

/// Fault-tolerance policy knobs. The defaults are tuned for tests and
/// interactive runs: failures are detected in tens of milliseconds and
/// a pathological worker set degrades to in-process execution in well
/// under a second.
#[derive(Debug, Clone)]
pub struct ShardPolicy {
    /// Hard deadline for one dispatched task; exceeding it fails the
    /// worker (covers hangs that keep heartbeating, e.g. a stalled
    /// mid-frame write).
    pub task_timeout: Duration,
    /// Heartbeat cadence requested from workers.
    pub heartbeat_ms: u64,
    /// Silence longer than this fails the worker, busy or idle.
    pub heartbeat_timeout: Duration,
    /// After this many dispatch attempts, a task runs in-process on the
    /// coordinator (the final per-task degradation rung). Must be ≥ 1.
    pub max_task_attempts: u32,
    /// A slot with this many worker failures is quarantined — no
    /// respawns, no more dispatches.
    pub quarantine_after: u32,
    /// Total process-spawn budget across all slots; 0 means
    /// `4 × shards`. Exhausting it quarantines slots on their next
    /// failure instead of respawning.
    pub max_spawns: usize,
    /// Base reassignment backoff; doubles per attempt (capped).
    pub backoff: Duration,
    /// When every slot is quarantined: `true` finishes the run
    /// in-process (byte-identical, slower); `false` returns
    /// [`ShardError::NoWorkers`].
    pub fallback_inprocess: bool,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            task_timeout: Duration::from_secs(10),
            heartbeat_ms: 25,
            heartbeat_timeout: Duration::from_millis(1500),
            max_task_attempts: 3,
            quarantine_after: 2,
            max_spawns: 0,
            backoff: Duration::from_millis(10),
            fallback_inprocess: true,
        }
    }
}

/// One sharded run's configuration.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of worker slots (processes kept alive at once). Must be
    /// ≥ 1.
    pub shards: usize,
    /// Worker command line: program plus leading arguments (e.g.
    /// `["/path/to/flsa", "shard-worker"]` or the standalone
    /// `flsa-shard-worker` binary). `--heartbeat-ms`/`--fault` are
    /// appended by the coordinator.
    pub worker_cmd: Vec<String>,
    /// Per-slot `--fault` specs for chaos runs (see
    /// [`crate::worker::WorkerFault::parse`]); slot `i` uses entry `i`,
    /// missing entries mean no fault. Empty for production runs.
    pub worker_faults: Vec<String>,
    /// When `true`, a respawned worker inherits its slot's fault spec
    /// (models a cursed host driving the slot into quarantine); when
    /// `false` (default), respawns are clean (models one faulty
    /// process).
    pub refault_respawns: bool,
    /// Fault-tolerance policy.
    pub policy: ShardPolicy,
    /// Metrics registry for the `flsa_shard_*` instrument family.
    pub registry: Option<Arc<Registry>>,
}

impl ShardOptions {
    /// Options for `shards` workers launched via `worker_cmd`.
    pub fn new(shards: usize, worker_cmd: Vec<String>) -> Self {
        ShardOptions {
            shards,
            worker_cmd,
            worker_faults: Vec::new(),
            refault_respawns: false,
            policy: ShardPolicy::default(),
            registry: None,
        }
    }
}

/// Cached metric handles (lint rule R7: names only from
/// [`flsa_metrics::names`]).
struct Obs {
    dispatched: Counter,
    completed: Counter,
    reassigned: Counter,
    inprocess: Counter,
    corrupt: Counter,
    spawned: Counter,
    killed: Counter,
    heartbeats: Counter,
    quarantined: Gauge,
    live: Gauge,
    inflight: Gauge,
    task_ns: Histogram,
}

impl Obs {
    fn new(r: &Registry) -> Obs {
        Obs {
            dispatched: r.counter(names::SHARD_TASKS_DISPATCHED_TOTAL),
            completed: r.counter(names::SHARD_TASKS_COMPLETED_TOTAL),
            reassigned: r.counter(names::SHARD_TASKS_REASSIGNED_TOTAL),
            inprocess: r.counter(names::SHARD_TASKS_INPROCESS_TOTAL),
            corrupt: r.counter(names::SHARD_RESULTS_CORRUPT_TOTAL),
            spawned: r.counter(names::SHARD_WORKERS_SPAWNED_TOTAL),
            killed: r.counter(names::SHARD_WORKERS_KILLED_TOTAL),
            heartbeats: r.counter(names::SHARD_HEARTBEATS_TOTAL),
            quarantined: r.gauge(names::SHARD_WORKERS_QUARANTINED),
            live: r.gauge(names::SHARD_WORKERS_LIVE),
            inflight: r.gauge(names::SHARD_TASKS_INFLIGHT),
            task_ns: r.histogram(names::SHARD_TASK_NS),
        }
    }
}

/// What a reader thread tells the control loop. `gen` is the spawn
/// generation of the worker the thread belongs to; stale generations
/// are discarded.
enum Event {
    /// A well-formed frame arrived.
    Frame { slot: usize, gen: u64, frame: Frame },
    /// A frame failed its CRC or decoded to garbage — the worker (or
    /// its pipe) is lying; trust is gone.
    Corrupt {
        slot: usize,
        gen: u64,
        detail: String,
    },
    /// The pipe died (EOF, mid-frame truncation, I/O error).
    Dead {
        slot: usize,
        gen: u64,
        detail: String,
    },
}

/// A live worker process attached to a slot.
struct WorkerConn {
    child: Child,
    /// Encoded frames queued to the writer thread (preamble first).
    writer: Sender<Vec<u8>>,
    /// Spawn generation, for filtering stale reader events.
    gen: u64,
    /// Last frame of any kind (result, heartbeat, hello).
    last_seen: Instant,
    /// Currently dispatched task, with its dispatch instant.
    task: Option<(u64, Instant)>,
}

/// One worker slot: at most one live process, plus failure history.
struct Slot {
    conn: Option<WorkerConn>,
    failures: u32,
    quarantined: bool,
    /// `--fault` spec for this slot's first spawn (chaos runs).
    fault: String,
}

#[derive(Clone, Copy)]
enum TaskMeta {
    /// Fill-Cache for grid block `(s, t)`.
    Fill { s: usize, t: usize },
    /// Base-Case trace through block `(s, t)` from block-local `head`.
    Trace {
        s: usize,
        t: usize,
        head: (usize, usize),
    },
}

struct TaskState {
    meta: TaskMeta,
    /// Dispatch attempts so far (0 = never dispatched).
    attempts: u32,
    /// Backoff gate: not dispatched before this instant.
    not_before: Instant,
    /// Unfinished upstream fill tasks (wavefront dependency count).
    deps_left: u32,
    done: bool,
}

struct Coordinator<'a> {
    a: &'a Sequence,
    b: &'a Sequence,
    scheme: ScoringScheme,
    matrix: String,
    gap: i32,
    row_bounds: Vec<usize>,
    col_bounds: Vec<usize>,
    k_r: usize,
    k_c: usize,
    /// `rows_cache[s]` = DP row `row_bounds[s+1]`, full width `n + 1`.
    rows_cache: Vec<Vec<i32>>,
    /// `cols_cache[t]` = DP column `col_bounds[t+1]`, full height `m + 1`.
    cols_cache: Vec<Vec<i32>>,
    /// Global gap ramps (DP row 0 / column 0).
    top_ramp: Vec<i32>,
    left_ramp: Vec<i32>,

    slots: Vec<Slot>,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    next_gen: u64,
    spawns_used: usize,
    max_spawns: usize,
    /// All slots quarantined + fallback allowed: execute everything
    /// in-process from here on.
    inprocess_only: bool,
    /// Most recent worker-failure description, for the NoWorkers error.
    last_failure: String,

    tasks: HashMap<u64, TaskState>,
    ready: Vec<u64>,
    pending: usize,
    next_task_id: u64,

    /// Partial optimal path, accumulated back-to-front through the
    /// trace chain exactly like the sequential solver's builder.
    path: PathBuilder,
    /// Current global path head; trace phase runs until a coordinate
    /// hits 0.
    head: (usize, usize),

    kernel: Kernel,
    metrics: &'a Metrics,
    obs: Option<Obs>,
    opts: &'a ShardOptions,
}

/// Aligns `a` and `b` across `opts.shards` worker processes,
/// byte-identical to [`fastlsa_core::align_with`] under the same
/// scoring, whatever the workers do.
///
/// `matrix`/`gap` name the scoring scheme by table
/// ([`flsa_scoring::tables::scheme_by_name`]) because worker processes
/// must reconstruct it from the wire. Degenerate inputs (either
/// sequence shorter than 2) run in-process directly.
pub fn align_sharded(
    a: &Sequence,
    b: &Sequence,
    matrix: &str,
    gap: i32,
    config: FastLsaConfig,
    opts: &ShardOptions,
    metrics: &Metrics,
) -> Result<AlignResult, ShardError> {
    let scheme = tables::scheme_by_name(matrix, gap).ok_or_else(|| ShardError::Config {
        detail: format!("unknown scoring matrix {matrix:?}"),
    })?;
    if opts.shards == 0 {
        return Err(ShardError::Config {
            detail: "shards must be ≥ 1".to_string(),
        });
    }
    if opts.worker_cmd.is_empty() || opts.worker_cmd[0].is_empty() {
        return Err(ShardError::Config {
            detail: "worker command is empty".to_string(),
        });
    }
    config
        .validate_run(&scheme, a.len(), b.len())
        .map_err(|e| ShardError::Config {
            detail: e.to_string(),
        })?;
    let n_symbols = scheme.alphabet().len();
    if a.codes()
        .iter()
        .chain(b.codes().iter())
        .any(|&c| c as usize >= n_symbols)
    {
        return Err(ShardError::Config {
            detail: format!("sequence code outside the {n_symbols}-symbol alphabet of {matrix:?}"),
        });
    }

    let (m, n) = (a.len(), b.len());
    if m < 2 || n < 2 {
        // Too small to decompose; the sequential engine is the
        // degenerate case of "every block in-process" anyway.
        return align_opts(a, b, &scheme, config, &AlignOptions::default(), metrics)
            .map_err(ShardError::Align);
    }

    let (k_r, k_c) = choose_grid(m, n, &config, opts.shards);
    let cache_bytes = (k_r - 1)
        .saturating_mul(n + 1)
        .saturating_add((k_c - 1).saturating_mul(m + 1))
        .saturating_mul(std::mem::size_of::<i32>());
    let cache_guard = metrics.track_alloc(cache_bytes);

    let mut coord = Coordinator::new(a, b, scheme, matrix, gap, k_r, k_c, opts, metrics);
    let result = coord.run();
    coord.shutdown();
    drop(cache_guard);
    result
}

/// Chooses the block grid: square-ish blocks whose full DP matrix fits
/// the configured base-case buffer (so trace tasks never exceed the
/// sequential solver's base-case footprint), with at least
/// `max(config.k, shards)` cuts per axis so there is real wavefront
/// parallelism to farm out.
fn choose_grid(m: usize, n: usize, config: &FastLsaConfig, shards: usize) -> (usize, usize) {
    let base = config.base_cells.max(16);
    let side = (base as f64).sqrt() as usize;
    let side = side.saturating_sub(1).max(1);
    let want = config.k.max(shards).max(2);
    let k_r = m.div_ceil(side).max(want).min(m).max(2);
    let k_c = n.div_ceil(side).max(want).min(n).max(2);
    (k_r, k_c)
}

impl<'a> Coordinator<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        a: &'a Sequence,
        b: &'a Sequence,
        scheme: ScoringScheme,
        matrix: &str,
        gap: i32,
        k_r: usize,
        k_c: usize,
        opts: &'a ShardOptions,
        metrics: &'a Metrics,
    ) -> Self {
        let (m, n) = (a.len(), b.len());
        let (events_tx, events_rx) = mpsc::channel();
        let slots = (0..opts.shards)
            .map(|i| Slot {
                conn: None,
                failures: 0,
                quarantined: false,
                fault: opts.worker_faults.get(i).cloned().unwrap_or_default(),
            })
            .collect();
        let max_spawns = if opts.policy.max_spawns == 0 {
            opts.shards.saturating_mul(4)
        } else {
            opts.policy.max_spawns
        };
        Coordinator {
            a,
            b,
            scheme,
            matrix: matrix.to_string(),
            gap,
            row_bounds: partition(m, k_r),
            col_bounds: partition(n, k_c),
            k_r,
            k_c,
            rows_cache: vec![vec![0i32; n + 1]; k_r - 1],
            cols_cache: vec![vec![0i32; m + 1]; k_c - 1],
            top_ramp: (0..=n).map(|j| (j as i32).wrapping_mul(gap)).collect(),
            left_ramp: (0..=m).map(|i| (i as i32).wrapping_mul(gap)).collect(),
            slots,
            events_tx,
            events_rx,
            next_gen: 1,
            spawns_used: 0,
            max_spawns,
            inprocess_only: false,
            last_failure: "no worker ever spawned".to_string(),
            tasks: HashMap::new(),
            ready: Vec::new(),
            pending: 0,
            next_task_id: (k_r * k_c) as u64,
            path: PathBuilder::new(),
            head: (m, n),
            kernel: Kernel::auto(),
            metrics,
            obs: opts.registry.as_deref().map(Obs::new),
            opts,
        }
    }

    fn run(&mut self) -> Result<AlignResult, ShardError> {
        self.spawn_initial();
        self.create_fill_tasks();
        self.run_pending()?;
        self.run_trace()?;

        // finish_path: extend along the gap-ramp boundary to (0, 0),
        // exactly like the sequential solver.
        let mut builder = std::mem::take(&mut self.path);
        for _ in 0..self.head.0 {
            builder.push_back(Move::Up);
        }
        for _ in 0..self.head.1 {
            builder.push_back(Move::Left);
        }
        let path = builder.finish((0, 0));
        let score = path.score(self.a, self.b, &self.scheme);
        Ok(AlignResult { score, path })
    }

    // ----- task graph -------------------------------------------------

    fn fill_task_id(&self, s: usize, t: usize) -> u64 {
        (s * self.k_c + t) as u64
    }

    fn create_fill_tasks(&mut self) {
        let now = Instant::now();
        for s in 0..self.k_r {
            for t in 0..self.k_c {
                if s == self.k_r - 1 && t == self.k_c - 1 {
                    continue; // the trace chain full-fills this block
                }
                let id = self.fill_task_id(s, t);
                let deps = u32::from(s > 0) + u32::from(t > 0);
                self.tasks.insert(
                    id,
                    TaskState {
                        meta: TaskMeta::Fill { s, t },
                        attempts: 0,
                        not_before: now,
                        deps_left: deps,
                        done: false,
                    },
                );
                if deps == 0 {
                    self.ready.push(id);
                }
                self.pending += 1;
            }
        }
    }

    fn run_trace(&mut self) -> Result<(), ShardError> {
        while self.head.0 > 0 && self.head.1 > 0 {
            let s = segment_of(&self.row_bounds, self.head.0);
            let t = segment_of(&self.col_bounds, self.head.1);
            let local = (
                self.head.0 - self.row_bounds[s],
                self.head.1 - self.col_bounds[t],
            );
            let id = self.next_task_id;
            self.next_task_id += 1;
            self.tasks.insert(
                id,
                TaskState {
                    meta: TaskMeta::Trace { s, t, head: local },
                    attempts: 0,
                    not_before: Instant::now(),
                    deps_left: 0,
                    done: false,
                },
            );
            self.ready.push(id);
            self.pending += 1;
            self.run_pending()?;
        }
        Ok(())
    }

    /// Block bounds `(r0, r1, c0, c1)` for grid block `(s, t)`.
    fn block_bounds(&self, s: usize, t: usize) -> (usize, usize, usize, usize) {
        (
            self.row_bounds[s],
            self.row_bounds[s + 1],
            self.col_bounds[t],
            self.col_bounds[t + 1],
        )
    }

    fn make_spec(&self, id: u64) -> Result<TaskSpec, ShardError> {
        let st = self.tasks.get(&id).ok_or_else(|| ShardError::TaskFailed {
            detail: format!("unknown task {id}"),
        })?;
        let (s, t, kind) = match st.meta {
            TaskMeta::Fill { s, t } => (
                s,
                t,
                TaskKind::Fill {
                    want_bottom: s + 1 < self.k_r,
                    want_right: t + 1 < self.k_c,
                },
            ),
            TaskMeta::Trace { s, t, head } => (
                s,
                t,
                TaskKind::Trace {
                    head: (head.0 as u64, head.1 as u64),
                },
            ),
        };
        let (r0, r1, c0, c1) = self.block_bounds(s, t);
        let top = if s == 0 {
            self.top_ramp[c0..=c1].to_vec()
        } else {
            self.rows_cache[s - 1][c0..=c1].to_vec()
        };
        let left = if t == 0 {
            self.left_ramp[r0..=r1].to_vec()
        } else {
            self.cols_cache[t - 1][r0..=r1].to_vec()
        };
        Ok(TaskSpec {
            task_id: id,
            matrix: self.matrix.clone(),
            gap: self.gap,
            a: self.a.codes()[r0..r1].to_vec(),
            b: self.b.codes()[c0..c1].to_vec(),
            top,
            left,
            kind,
        })
    }

    /// Applies a validated task result: updates caches / the path,
    /// marks the task done, releases wavefront dependents, and records
    /// a trace span. Errors mean the output is semantically invalid.
    fn apply(&mut self, task_id: u64, output: TaskOutput, elapsed: Duration) -> Result<(), String> {
        let st = self
            .tasks
            .get(&task_id)
            .ok_or_else(|| format!("unknown task {task_id}"))?;
        if st.done {
            return Ok(()); // duplicate delivery; first result stands
        }
        let meta = st.meta;
        let span_kind;
        let (rows, cols);
        match meta {
            TaskMeta::Fill { s, t } => {
                let TaskOutput::Fill { bottom, right } = output else {
                    return Err(format!("task {task_id}: expected a Fill result"));
                };
                let (r0, r1, c0, c1) = self.block_bounds(s, t);
                rows = r1 - r0;
                cols = c1 - c0;
                span_kind = SpanKind::FillCache;
                if s + 1 < self.k_r {
                    if bottom.len() != cols + 1 {
                        return Err(format!(
                            "task {task_id}: bottom row has {} entries, want {}",
                            bottom.len(),
                            cols + 1
                        ));
                    }
                    self.rows_cache[s][c0..=c1].copy_from_slice(&bottom);
                }
                if t + 1 < self.k_c {
                    if right.len() != rows + 1 {
                        return Err(format!(
                            "task {task_id}: right column has {} entries, want {}",
                            right.len(),
                            rows + 1
                        ));
                    }
                    self.cols_cache[t][r0..=r1].copy_from_slice(&right);
                }
                // Release the wavefront: the block below needs our
                // bottom row, the block to the right needs our column.
                let mut unlocked = Vec::new();
                if s + 1 < self.k_r && !(s + 1 == self.k_r - 1 && t == self.k_c - 1) {
                    unlocked.push(self.fill_task_id(s + 1, t));
                }
                if t + 1 < self.k_c && !(s == self.k_r - 1 && t + 1 == self.k_c - 1) {
                    unlocked.push(self.fill_task_id(s, t + 1));
                }
                for dep in unlocked {
                    if let Some(d) = self.tasks.get_mut(&dep) {
                        d.deps_left -= 1;
                        if d.deps_left == 0 {
                            self.ready.push(dep);
                        }
                    }
                }
            }
            TaskMeta::Trace { s, t, head } => {
                let TaskOutput::Trace { rev_moves, exit } = output else {
                    return Err(format!("task {task_id}: expected a Trace result"));
                };
                let (r0, r1, c0, c1) = self.block_bounds(s, t);
                rows = r1 - r0;
                cols = c1 - c0;
                span_kind = SpanKind::BaseCase;
                if rev_moves.is_empty() {
                    return Err(format!("task {task_id}: empty trace"));
                }
                // Re-walk the claimed moves from the head: every step
                // must be a legal interior decision, and the walk must
                // land exactly on the claimed boundary exit. A worker
                // cannot smuggle in a wrong path shape — only DP-exact
                // values decide between *valid* shapes, and those are
                // recomputed identically on any retry.
                let mut moves = Vec::with_capacity(rev_moves.len());
                let (mut i, mut j) = head;
                for &code in &rev_moves {
                    let mv = Move::from_code(code)
                        .ok_or_else(|| format!("task {task_id}: bad move code {code}"))?;
                    if i == 0 || j == 0 {
                        return Err(format!("task {task_id}: trace walked past the boundary"));
                    }
                    match mv {
                        Move::Diag => {
                            i -= 1;
                            j -= 1;
                        }
                        Move::Up => i -= 1,
                        Move::Left => j -= 1,
                    }
                    moves.push(mv);
                }
                if i != 0 && j != 0 {
                    return Err(format!(
                        "task {task_id}: trace stopped in the interior at ({i},{j})"
                    ));
                }
                if (exit.0, exit.1) != (i as u64, j as u64) {
                    return Err(format!(
                        "task {task_id}: claimed exit ({},{}) but moves land on ({i},{j})",
                        exit.0, exit.1
                    ));
                }
                for mv in moves {
                    self.path.push_back(mv);
                }
                self.head = (r0 + i, c0 + j);
            }
        }
        if let Some(st) = self.tasks.get_mut(&task_id) {
            st.done = true;
        }
        self.pending -= 1;
        if let Some(r) = self.metrics.recorder() {
            let end = r.now_ns();
            let start = end.saturating_sub(elapsed.as_nanos() as u64);
            r.record(
                start,
                end,
                EventKind::Span {
                    kind: span_kind,
                    depth: 0,
                    rows: rows as u64,
                    cols: cols as u64,
                    k_r: 0,
                    k_c: 0,
                    cells: (rows as u64) * (cols as u64),
                },
            );
        }
        Ok(())
    }

    // ----- control loop -----------------------------------------------

    fn run_pending(&mut self) -> Result<(), ShardError> {
        while self.pending > 0 {
            if !self.inprocess_only && self.slots.iter().all(|s| s.quarantined) {
                // Last rung of the ladder: no slot left to dispatch to.
                if self.opts.policy.fallback_inprocess {
                    self.inprocess_only = true;
                } else {
                    return Err(ShardError::NoWorkers {
                        detail: format!("last failure: {}", self.last_failure),
                    });
                }
            }
            if self.inprocess_only {
                self.drain_inprocess()?;
                continue;
            }
            self.dispatch_ready()?;
            if self.pending == 0 {
                break;
            }
            match self.events_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(ev) => self.handle_event(ev)?,
                Err(RecvTimeoutError::Timeout) => {}
                // We hold a sender clone, so this cannot happen; treat
                // it as "no workers" rather than panicking.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ShardError::NoWorkers {
                        detail: "event channel disconnected".to_string(),
                    })
                }
            }
            self.check_deadlines()?;
        }
        Ok(())
    }

    fn drain_inprocess(&mut self) -> Result<(), ShardError> {
        while self.pending > 0 {
            self.ready.sort_unstable();
            if self.ready.is_empty() {
                return Err(ShardError::TaskFailed {
                    detail: "scheduler stalled: pending tasks but none ready".to_string(),
                });
            }
            let id = self.ready.remove(0);
            self.execute_inprocess(id)?;
        }
        Ok(())
    }

    fn dispatch_ready(&mut self) -> Result<(), ShardError> {
        loop {
            if self.inprocess_only {
                return Ok(());
            }
            let now = Instant::now();
            self.ready.sort_unstable();
            let Some(pos) = self
                .ready
                .iter()
                .position(|id| self.tasks.get(id).is_some_and(|t| t.not_before <= now))
            else {
                return Ok(());
            };
            let Some(slot_idx) = self
                .slots
                .iter()
                .position(|s| !s.quarantined && s.conn.as_ref().is_some_and(|c| c.task.is_none()))
            else {
                return Ok(());
            };
            let id = self.ready.remove(pos);
            let bytes = protocol::encode_frame(&Frame::Task(self.make_spec(id)?));
            let sent = match self.slots[slot_idx].conn.as_mut() {
                Some(conn) if conn.writer.send(bytes).is_ok() => {
                    conn.task = Some((id, now));
                    true
                }
                _ => false,
            };
            if sent {
                if let Some(o) = &self.obs {
                    o.dispatched.inc();
                    o.inflight.add(1);
                }
            } else {
                self.ready.push(id);
                self.fail_worker(slot_idx, "writer pipe closed".to_string())?;
            }
        }
    }

    fn gen_current(&self, slot: usize, gen: u64) -> bool {
        self.slots
            .get(slot)
            .and_then(|s| s.conn.as_ref())
            .is_some_and(|c| c.gen == gen)
    }

    fn handle_event(&mut self, ev: Event) -> Result<(), ShardError> {
        match ev {
            Event::Frame { slot, gen, frame } => {
                if !self.gen_current(slot, gen) {
                    return Ok(()); // echo of a replaced worker
                }
                if let Some(conn) = self.slots[slot].conn.as_mut() {
                    conn.last_seen = Instant::now();
                }
                match frame {
                    Frame::Hello { .. } => Ok(()),
                    Frame::Heartbeat { .. } => {
                        if let Some(o) = &self.obs {
                            o.heartbeats.inc();
                        }
                        Ok(())
                    }
                    Frame::Result { task_id, output } => self.on_result(slot, task_id, output),
                    Frame::Task(_) | Frame::Shutdown => {
                        self.fail_worker(slot, "coordinator-only frame from worker".to_string())
                    }
                }
            }
            Event::Corrupt { slot, gen, detail } => {
                if self.gen_current(slot, gen) {
                    if let Some(o) = &self.obs {
                        o.corrupt.inc();
                    }
                    self.fail_worker(slot, format!("corrupt frame: {detail}"))
                } else {
                    Ok(())
                }
            }
            Event::Dead { slot, gen, detail } => {
                if self.gen_current(slot, gen) {
                    self.fail_worker(slot, detail)
                } else {
                    Ok(())
                }
            }
        }
    }

    fn on_result(
        &mut self,
        slot: usize,
        task_id: u64,
        output: TaskOutput,
    ) -> Result<(), ShardError> {
        let assigned = self
            .slots
            .get(slot)
            .and_then(|s| s.conn.as_ref())
            .and_then(|c| c.task);
        let Some((expected, since)) = assigned else {
            return self.fail_worker(slot, format!("unsolicited result for task {task_id}"));
        };
        if expected != task_id {
            return self.fail_worker(
                slot,
                format!("result for task {task_id} while task {expected} was dispatched"),
            );
        }
        let elapsed = since.elapsed();
        // Account worker-side compute in the coordinator's metrics (the
        // worker's own counters die with its process) exactly as
        // `compute::execute` accounts a task run in-process: one fill,
        // on the backend the worker's `Kernel::auto()` picks for the
        // block, plus, for a trace task, its base-case cells and steps.
        let steps = match &output {
            TaskOutput::Fill { .. } => None,
            TaskOutput::Trace { rev_moves, .. } => Some(rev_moves.len() as u64),
        };
        match self.apply(task_id, output, elapsed) {
            Ok(()) => {
                if let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.conn.as_mut()) {
                    conn.task = None;
                }
                if let Some(st) = self.tasks.get(&task_id) {
                    let (TaskMeta::Fill { s, t } | TaskMeta::Trace { s, t, .. }) = st.meta;
                    let (r0, r1, c0, c1) = self.block_bounds(s, t);
                    let (rows, cols) = (r1 - r0, c1 - c0);
                    let cells = rows as u64 * cols as u64;
                    self.metrics
                        .add_cells(cells, self.kernel.backend_for(rows, cols));
                    if let Some(steps) = steps {
                        self.metrics.add_base_case_cells(cells);
                        self.metrics.add_traceback_steps(steps);
                    }
                }
                if let Some(o) = &self.obs {
                    o.completed.inc();
                    o.inflight.sub(1);
                    o.task_ns.record(elapsed.as_nanos() as u64);
                }
                Ok(())
            }
            Err(detail) => {
                if let Some(o) = &self.obs {
                    o.corrupt.inc();
                }
                self.fail_worker(slot, format!("semantically invalid result: {detail}"))
            }
        }
    }

    fn check_deadlines(&mut self) -> Result<(), ShardError> {
        let now = Instant::now();
        let mut failed = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(conn) = &slot.conn else { continue };
            if conn
                .task
                .is_some_and(|(_, since)| now.duration_since(since) > self.opts.policy.task_timeout)
            {
                failed.push((idx, "task deadline exceeded"));
            } else if now.duration_since(conn.last_seen) > self.opts.policy.heartbeat_timeout {
                failed.push((idx, "heartbeats stopped"));
            }
        }
        for (idx, why) in failed {
            self.fail_worker(idx, why.to_string())?;
        }
        Ok(())
    }

    // ----- failure ladder ---------------------------------------------

    /// Kills and reaps the slot's worker, reassigns its task, and
    /// either respawns into the slot or quarantines it. The single
    /// funnel for every kind of worker failure.
    fn fail_worker(&mut self, idx: usize, detail: String) -> Result<(), ShardError> {
        let Some(mut conn) = self.slots.get_mut(idx).and_then(|s| s.conn.take()) else {
            return Ok(());
        };
        let _ = conn.child.kill();
        let _ = conn.child.wait();
        if let Some(o) = &self.obs {
            o.killed.inc();
            o.live.sub(1);
        }
        let lost_task = conn.task.map(|(id, _)| id);
        if lost_task.is_some() {
            if let Some(o) = &self.obs {
                o.inflight.sub(1);
            }
        }
        drop(conn);

        self.slots[idx].failures += 1;
        let failures = self.slots[idx].failures;
        if failures >= self.opts.policy.quarantine_after || self.spawns_used >= self.max_spawns {
            self.quarantine(idx);
        } else if self.spawn_into(idx).is_err() {
            // Could not replace the process (bad binary, fork limits);
            // the slot is as good as gone.
            self.quarantine(idx);
        }

        self.last_failure = detail;
        // Reassign after the respawn so an immediately-ready task can
        // land on the fresh worker.
        if let Some(task_id) = lost_task {
            self.requeue(task_id)?;
        }
        Ok(())
    }

    fn quarantine(&mut self, idx: usize) {
        if !self.slots[idx].quarantined {
            self.slots[idx].quarantined = true;
            if let Some(o) = &self.obs {
                o.quarantined.add(1);
            }
        }
    }

    fn requeue(&mut self, task_id: u64) -> Result<(), ShardError> {
        let attempts = match self.tasks.get_mut(&task_id) {
            Some(st) if !st.done => {
                st.attempts += 1;
                st.attempts
            }
            _ => return Ok(()),
        };
        if attempts >= self.opts.policy.max_task_attempts {
            // Final per-task rung: the coordinator computes it itself.
            self.execute_inprocess(task_id)
        } else {
            if let Some(o) = &self.obs {
                o.reassigned.inc();
            }
            let shift = (attempts - 1).min(6);
            let delay = self.opts.policy.backoff.saturating_mul(1u32 << shift);
            if let Some(st) = self.tasks.get_mut(&task_id) {
                st.not_before = Instant::now() + delay;
            }
            self.ready.push(task_id);
            Ok(())
        }
    }

    fn execute_inprocess(&mut self, task_id: u64) -> Result<(), ShardError> {
        if let Some(o) = &self.obs {
            o.inprocess.inc();
        }
        let spec = self.make_spec(task_id)?;
        let started = Instant::now();
        let out = compute::execute(&self.kernel, &spec, self.metrics).map_err(|detail| {
            ShardError::TaskFailed {
                detail: format!("task {task_id}: {detail}"),
            }
        })?;
        self.apply(task_id, out, started.elapsed())
            .map_err(|detail| ShardError::TaskFailed {
                detail: format!("task {task_id}: {detail}"),
            })
    }

    // ----- process management -----------------------------------------

    fn spawn_initial(&mut self) {
        for idx in 0..self.slots.len() {
            if let Err(detail) = self.spawn_into(idx) {
                self.slots[idx].failures += 1;
                self.last_failure = detail;
                self.quarantine(idx);
            }
        }
    }

    fn spawn_into(&mut self, idx: usize) -> Result<(), String> {
        if self.spawns_used >= self.max_spawns {
            return Err("spawn budget exhausted".to_string());
        }
        self.spawns_used += 1;

        let mut cmd = Command::new(&self.opts.worker_cmd[0]);
        cmd.args(&self.opts.worker_cmd[1..]);
        cmd.arg("--heartbeat-ms")
            .arg(self.opts.policy.heartbeat_ms.to_string());
        let first_spawn_here = self.slots[idx].failures == 0;
        let fault = &self.slots[idx].fault;
        if !fault.is_empty() && (first_spawn_here || self.opts.refault_respawns) {
            cmd.arg("--fault").arg(fault);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", self.opts.worker_cmd[0]))?;
        let stdin = child.stdin.take().ok_or("worker stdin not piped")?;
        let stdout = child.stdout.take().ok_or("worker stdout not piped")?;

        let gen = self.next_gen;
        self.next_gen += 1;

        // Writer thread: owns the stdin pipe so a worker that stops
        // reading can never block the control loop. The preamble goes
        // out as the first queued message.
        let (writer, writer_rx) = mpsc::channel::<Vec<u8>>();
        let _ = writer.send(protocol::PREAMBLE.to_vec());
        std::thread::spawn(move || {
            let mut stdin = stdin;
            while let Ok(bytes) = writer_rx.recv() {
                if stdin
                    .write_all(&bytes)
                    .and_then(|()| stdin.flush())
                    .is_err()
                {
                    return;
                }
            }
        });

        // Reader thread: frames → events, tagged with this spawn's
        // generation so echoes from replaced workers are discarded.
        let events = self.events_tx.clone();
        std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            if let Err(e) = wire::read_preamble(&mut out, protocol::PREAMBLE) {
                let _ = events.send(Event::Dead {
                    slot: idx,
                    gen,
                    detail: format!("worker preamble: {e}"),
                });
                return;
            }
            loop {
                match protocol::read_frame(&mut out) {
                    Ok(frame) => {
                        if events
                            .send(Event::Frame {
                                slot: idx,
                                gen,
                                frame,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(WireError::Malformed { detail }) => {
                        let _ = events.send(Event::Corrupt {
                            slot: idx,
                            gen,
                            detail,
                        });
                        return;
                    }
                    Err(e) => {
                        let _ = events.send(Event::Dead {
                            slot: idx,
                            gen,
                            detail: e.to_string(),
                        });
                        return;
                    }
                }
            }
        });

        self.slots[idx].conn = Some(WorkerConn {
            child,
            writer,
            gen,
            last_seen: Instant::now(),
            task: None,
        });
        if let Some(o) = &self.obs {
            o.spawned.inc();
            o.live.add(1);
        }
        Ok(())
    }

    /// Graceful worker teardown and gauge reset: send Shutdown, give
    /// the fleet a short grace window, kill stragglers, and return all
    /// liveness gauges to their baseline.
    fn shutdown(&mut self) {
        let bye = protocol::encode_frame(&Frame::Shutdown);
        for slot in &self.slots {
            if let Some(conn) = &slot.conn {
                let _ = conn.writer.send(bye.clone());
            }
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for slot in &mut self.slots {
            let Some(mut conn) = slot.conn.take() else {
                continue;
            };
            if conn.task.is_some() {
                if let Some(o) = &self.obs {
                    o.inflight.sub(1);
                }
            }
            loop {
                match conn.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = conn.child.kill();
                        let _ = conn.child.wait();
                        if let Some(o) = &self.obs {
                            o.killed.inc();
                        }
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => {
                        let _ = conn.child.kill();
                        let _ = conn.child.wait();
                        break;
                    }
                }
            }
            if let Some(o) = &self.obs {
                o.live.sub(1);
            }
        }
        for slot in &mut self.slots {
            if slot.quarantined {
                slot.quarantined = false;
                if let Some(o) = &self.obs {
                    o.quarantined.sub(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_choice_keeps_trace_blocks_within_base_cells() {
        for (m, n, base) in [
            (100usize, 100usize, 1usize << 10),
            (5000, 37, 1 << 12),
            (37, 5000, 1 << 12),
            (2, 2, 16),
            (10_000, 10_000, 1 << 20),
        ] {
            let config = FastLsaConfig::new(8, base);
            let (k_r, k_c) = choose_grid(m, n, &config, 4);
            assert!((2..=m).contains(&k_r), "k_r={k_r} for m={m}");
            assert!((2..=n).contains(&k_c), "k_c={k_c} for n={n}");
            let block_rows = m.div_ceil(k_r);
            let block_cols = n.div_ceil(k_c);
            assert!(
                (block_rows + 1) * (block_cols + 1) <= base.max(16),
                "block {block_rows}x{block_cols} exceeds base {base}"
            );
        }
    }

    #[test]
    fn policy_defaults_are_sane() {
        let p = ShardPolicy::default();
        assert!(p.max_task_attempts >= 1);
        assert!(p.quarantine_after >= 1);
        assert!(p.fallback_inprocess);
    }
}
