//! The FastLSA recursion (paper Figure 2), run as an explicit stack
//! machine.
//!
//! Invariant maintained by the drive loop: the path head enters a
//! sub-problem on its **bottom row or right column** and leaves on its
//! **top row or left column**. The paper's prose puts the initial head at
//! the bottom-right corner; after the first sub-recursion the head sits
//! anywhere on the next block's bottom/right edge, so the implementation
//! uses the general invariant throughout (DESIGN.md §6).
//!
//! The recursion is materialized as a [`Frame`] stack rather than call
//! frames so the live state can be snapshotted (DESIGN.md §10): at the
//! top of every drive-loop iteration, the stack plus the partial path is
//! *exactly* the remaining work — every grid fill and base case has
//! either fully completed or not started. That is the consistent point
//! where [`CheckpointPolicy`] snapshots are taken and where resumed runs
//! re-enter.

use flsa_dp::traceback::trace_from;
use flsa_dp::{AlignResult, Kernel, MemGuard, Metrics, PathBuilder};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;
use flsa_trace::{EventKind, Recorder, SpanKind};

use crate::checkpoint::{CheckpointState, FrameState, GridState};
use crate::config::FastLsaConfig;
use crate::costlog::{CostEvent, CostLog};
use crate::error::AlignError;
use crate::governor::{AlignOptions, RunCtx};
use crate::grid::{segment_of, Grid};
use crate::metrics::CoreMetrics;
use crate::parallel;

/// One suspended rectangle of the FastLSA recursion. Coordinates `r0`/
/// `c0` are absolute; `head`, `top`, and `left` are local to the
/// rectangle. `grid` is `None` until fillGridCache has run.
struct Frame<'m> {
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    /// Input top boundary, length `cols + 1` (owned so the frame is
    /// self-contained and snapshot-able).
    top: Vec<i32>,
    /// Input left boundary, length `rows + 1`.
    left: Vec<i32>,
    /// Path head in local coordinates.
    head: (usize, usize),
    grid: Option<Grid>,
    /// Metrics accounting for the grid cache, dropped with the frame.
    grid_guard: Option<MemGuard<'m>>,
}

/// One FastLSA run's mutable state: configuration, reusable buffers, the
/// recursion-frame stack, and the execution trace.
pub(crate) struct Solver<'s> {
    pub scheme: &'s ScoringScheme,
    pub config: FastLsaConfig,
    pub metrics: &'s Metrics,
    /// The pre-allocated Base Case buffer (paper: "BM units of memory are
    /// reserved"), recycled across base-case solves.
    base_storage: Vec<i32>,
    /// Scratch for discarded block outputs during sequential grid fills.
    scratch_row: Vec<i32>,
    scratch_col: Vec<i32>,
    /// Persistent worker pool for parallel fills (spawned once per run,
    /// as in the paper's implementation).
    pub(crate) pool: Option<flsa_wavefront::WorkerPool>,
    /// Execution trace for schedule replay.
    pub log: CostLog,
    /// Depth of the frame currently being processed (0 = whole problem),
    /// recorded on trace spans.
    depth: u32,
    /// The explicit recursion stack, outermost frame first.
    frames: Vec<Frame<'s>>,
    /// Completed grid blocks (filled blocks + base cases), the
    /// checkpoint cadence's progress measure.
    blocks_done: u64,
    /// `blocks_done` at the last persisted snapshot.
    last_ckpt_blocks: u64,
    /// Snapshot sequence number within this process lifetime.
    ckpt_seq: u32,
    /// Resume generation (0 = fresh run), embedded in snapshots.
    generation: u32,
    /// Fallible-execution context: memory governor, cancellation,
    /// fault-injection hooks, checkpoint policy.
    pub(crate) ctx: RunCtx,
    /// DP kernel dispatch handle (backend + scratch arena), shared with
    /// the parallel tile executor.
    pub(crate) kernel: Kernel,
    /// Arena bytes currently charged against the governor's budget;
    /// settled at the drive loop's consistent points.
    arena_charged: usize,
    /// Entries of the Base Case buffer reservation charged against the
    /// governor's budget (0 until `run`/`resume` reserved it).
    base_reserved: usize,
    /// Engine-level registry handles (blocks, depth, phase, arena);
    /// `None` when no registry is attached (DESIGN.md §12).
    obs: Option<CoreMetrics>,
}

impl<'s> Solver<'s> {
    /// Builds a solver. The caller (`align_opts`) is responsible for
    /// validating `config` first.
    pub fn new(
        scheme: &'s ScoringScheme,
        config: FastLsaConfig,
        metrics: &'s Metrics,
        opts: &AlignOptions,
    ) -> Self {
        let pool = (config.threads() > 1).then(|| {
            let pool = flsa_wavefront::WorkerPool::new(config.threads());
            if let Some(reg) = opts.registry.as_deref() {
                pool.set_metrics(flsa_wavefront::PoolMetrics::new(reg));
            }
            pool
        });
        // `align_opts` validates availability up front, so an explicit
        // request can only fail here on a resumed snapshot from another
        // machine — fall back to auto-detection rather than erroring.
        let kernel = match opts.kernel {
            Some(b) => Kernel::try_new(b).unwrap_or_else(|_| Kernel::auto()),
            None => Kernel::auto(),
        };
        Solver {
            scheme,
            config,
            metrics,
            base_storage: Vec::new(),
            scratch_row: Vec::new(),
            scratch_col: Vec::new(),
            pool,
            log: CostLog::default(),
            depth: 0,
            frames: Vec::new(),
            blocks_done: 0,
            last_ckpt_blocks: 0,
            ckpt_seq: 0,
            generation: 0,
            ctx: RunCtx::from_options(opts),
            kernel,
            arena_charged: 0,
            base_reserved: 0,
            obs: opts.registry.as_deref().map(CoreMetrics::new),
        }
    }

    /// Sets the run-phase gauge (see [`flsa_metrics::names::PHASE`]).
    #[inline]
    fn set_phase(&self, phase: i64) {
        if let Some(obs) = &self.obs {
            obs.phase.set(phase);
        }
    }

    /// The attached trace recorder, if any. Detached from `&mut self`
    /// borrows because `metrics` is itself a shared reference.
    #[inline]
    pub(crate) fn recorder(&self) -> Option<&'s Recorder> {
        self.metrics.recorder()
    }

    /// Records one recursion span if tracing is on. `k_r`/`k_c` are 0 for
    /// base cases and tracebacks.
    #[inline]
    fn record_span(
        &self,
        started_ns: Option<u64>,
        kind: SpanKind,
        rows: usize,
        cols: usize,
        k_r: usize,
        k_c: usize,
    ) {
        if let (Some(r), Some(start)) = (self.recorder(), started_ns) {
            r.record(
                start,
                r.now_ns(),
                EventKind::Span {
                    kind,
                    depth: self.depth,
                    rows: rows as u64,
                    cols: cols as u64,
                    k_r: k_r as u32,
                    k_c: k_c as u32,
                    cells: rows as u64 * cols as u64,
                },
            );
        }
    }

    fn check_alphabets(&self, a: &Sequence, b: &Sequence) -> Result<(), AlignError> {
        for s in [a, b] {
            if s.alphabet() != self.scheme.alphabet() {
                return Err(AlignError::AlphabetMismatch {
                    expected: self.scheme.alphabet().name().to_string(),
                    found: s.alphabet().name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Aligns two sequences, returning the optimal score and path, or a
    /// structured error (bad alphabet, refused allocation, cancellation,
    /// worker panic). No panic escapes this method for any input.
    pub fn run(&mut self, a: &Sequence, b: &Sequence) -> Result<AlignResult, AlignError> {
        self.check_alphabets(a, b)?;
        let (m, n) = (a.len(), b.len());
        let gap = self.scheme.gap().linear_penalty();
        if let Some(obs) = &self.obs {
            // `m·n` is a lower bound on total cells (grid-cache refills
            // push the real total above it); the progress line caps its
            // percentage accordingly.
            obs.run_expected.set((m as i64).saturating_mul(n as i64));
        }

        let base_guard = self.reserve_base()?;

        let top: Vec<i32> = (0..=n as i64).map(|j| (j * gap as i64) as i32).collect();
        let left: Vec<i32> = (0..=m as i64).map(|i| (i * gap as i64) as i32).collect();
        self.frames.push(Frame {
            r0: 0,
            c0: 0,
            rows: m,
            cols: n,
            top,
            left,
            head: (m, n),
            grid: None,
            grid_guard: None,
        });

        let mut builder = PathBuilder::new();
        let exit = self.drive(a.codes(), b.codes(), &mut builder)?;
        drop(base_guard);
        self.set_phase(flsa_metrics::names::PHASE_IDLE);
        Ok(self.finish_path(a, b, builder, exit))
    }

    /// Continues an interrupted run from a validated snapshot: rebuilds
    /// the frame stack and partial path, emits an
    /// [`EventKind::Resume`] marker, and drives to completion. The
    /// result is byte-identical to what the uninterrupted run would have
    /// produced — resuming replays no completed work and skips none.
    pub fn resume(
        &mut self,
        a: &Sequence,
        b: &Sequence,
        state: CheckpointState,
    ) -> Result<AlignResult, AlignError> {
        self.check_alphabets(a, b)?;
        state
            .validate(a.len(), b.len())
            .map_err(|detail| AlignError::CorruptCheckpoint { detail })?;
        if let Some(obs) = &self.obs {
            obs.run_expected
                .set((a.len() as i64).saturating_mul(b.len() as i64));
        }

        let base_guard = self.reserve_base()?;

        for fs in state.frames {
            let FrameState {
                r0,
                c0,
                rows,
                cols,
                head,
                top,
                left,
                grid,
            } = fs;
            let grid = match grid {
                Some(gs) => Some(Grid::from_parts(gs, &self.ctx.governor)?),
                None => None,
            };
            let grid_guard = grid
                .as_ref()
                .map(|g| self.metrics.track_alloc(g.cache_entries() * 4));
            self.frames.push(Frame {
                r0,
                c0,
                rows,
                cols,
                top,
                left,
                head,
                grid,
                grid_guard,
            });
        }
        self.blocks_done = state.blocks_done;
        self.last_ckpt_blocks = state.blocks_done;
        self.generation = state.generation + 1;
        if let Some(r) = self.recorder() {
            let now = r.now_ns();
            r.record(
                now,
                now,
                EventKind::Resume {
                    generation: self.generation,
                    blocks: self.blocks_done,
                    frames: self.frames.len() as u32,
                },
            );
        }

        let mut builder = PathBuilder::from_rev_moves(state.rev_moves);
        let exit = self.drive(a.codes(), b.codes(), &mut builder)?;
        drop(base_guard);
        self.set_phase(flsa_metrics::names::PHASE_IDLE);
        Ok(self.finish_path(a, b, builder, exit))
    }

    /// Reserves the Base Case buffer up front, as the paper does —
    /// fallibly, through the governor, so an over-budget `BM` surfaces
    /// as `AllocFailed` before any work happens. The reservation is
    /// returned when the solver is dropped.
    fn reserve_base(&mut self) -> Result<MemGuard<'s>, AlignError> {
        let cells = self.config.base_cells;
        self.base_storage = self.ctx.governor.try_alloc_i32(cells, "base-case buffer")?;
        self.base_reserved = cells;
        Ok(self.metrics.track_alloc(cells * std::mem::size_of::<i32>()))
    }

    /// Extends the partial path from the recursion's exit point along
    /// the gap-ramp boundary to the top-left corner (paper: "this
    /// partial optimal path can then be extended to the top-left
    /// entry") and scores it.
    fn finish_path(
        &self,
        a: &Sequence,
        b: &Sequence,
        mut builder: PathBuilder,
        exit: (usize, usize),
    ) -> AlignResult {
        for _ in 0..exit.0 {
            builder.push_back(flsa_dp::Move::Up);
        }
        for _ in 0..exit.1 {
            builder.push_back(flsa_dp::Move::Left);
        }
        let path = builder.finish((0, 0));
        debug_assert!(path.is_global(a.len(), b.len()));
        let score = path.score(a, b, self.scheme);
        AlignResult { score, path }
    }

    /// The stack-machine drive loop (Figure 2, iteratively). Each
    /// iteration inspects the top frame and either pops it (head on the
    /// exit boundary), solves it as a base case, fills its grid cache,
    /// or descends into the sub-block containing the head. Returns the
    /// absolute exit point on the whole problem's top/left boundary.
    fn drive(
        &mut self,
        a: &[u8],
        b: &[u8],
        out: &mut PathBuilder,
    ) -> Result<(usize, usize), AlignError> {
        loop {
            // Consistent point: the frame stack plus `out` is exactly
            // the remaining work. Snapshots happen here and nowhere else,
            // and the kernel arena (no buffers checked out here) settles
            // its growth against the budget.
            self.charge_arena();
            if let Some(obs) = &self.obs {
                obs.solver_steps.inc();
                let depth = self.frames.len() as i64;
                obs.depth.set(depth);
                obs.depth_peak.fetch_max(depth);
            }
            self.maybe_checkpoint(out, false)?;
            if let Err(e) = self.ctx.step() {
                return Err(self.fail_with_snapshot(out, e));
            }

            let Some(f) = self.frames.last() else {
                // The root frame always returns through the pop branch;
                // an empty stack here means a caller-provided state was
                // inconsistent in a way validation cannot express.
                return Err(AlignError::CorruptCheckpoint {
                    detail: "drive loop ran out of frames".to_string(),
                });
            };

            // 1. Head on the exit boundary: pop and propagate.
            if f.head.0 == 0 || f.head.1 == 0 {
                let exit = (f.r0 + f.head.0, f.c0 + f.head.1);
                if let Some(frame) = self.frames.pop() {
                    self.release_frame(frame);
                }
                match self.frames.last_mut() {
                    Some(p) => p.head = (exit.0 - p.r0, exit.1 - p.c0),
                    None => return Ok(exit),
                }
                continue;
            }

            // 2. Filled grid: descend into the block containing the head
            //    (Figure 2 lines 8-13).
            if let Some(grid) = &f.grid {
                let (i, j) = f.head;
                let s = segment_of(&grid.row_bounds, i);
                let t = segment_of(&grid.col_bounds, j);
                let r0 = grid.row_bounds[s];
                let r1 = grid.row_bounds[s + 1];
                let c0 = grid.col_bounds[t];
                let c1 = grid.col_bounds[t + 1];
                let sub_top = grid.cached_row(s, t).unwrap_or(&f.top[c0..=c1]).to_vec();
                let sub_left = grid.cached_col(s, t).unwrap_or(&f.left[r0..=r1]).to_vec();
                let child = Frame {
                    r0: f.r0 + r0,
                    c0: f.c0 + c0,
                    rows: r1 - r0,
                    cols: c1 - c0,
                    top: sub_top,
                    left: sub_left,
                    head: (i - r0, j - c0),
                    grid: None,
                    grid_guard: None,
                };
                debug_assert!(
                    child.head.0 == child.rows || child.head.1 == child.cols,
                    "path head must enter on the bottom row or right column"
                );
                self.frames.push(child);
                continue;
            }

            // 3. BASE CASE (Figure 2 lines 1-2): the rectangle fits the
            //    buffer. Rectangles thinner than 2 residues are also
            //    solved directly — their full matrix is at most 2
            //    rows/columns, i.e. linear size.
            let cells = (f.rows + 1).saturating_mul(f.cols + 1);
            let is_base = cells <= self.config.base_cells || f.rows < 2 || f.cols < 2;
            let Some(frame) = self.frames.pop() else {
                continue;
            };
            self.depth = self.frames.len() as u32;
            let fa = &a[frame.r0..frame.r0 + frame.rows];
            let fb = &b[frame.c0..frame.c0 + frame.cols];

            if is_base {
                let local_exit = self.base_case(fa, fb, &frame.top, &frame.left, frame.head, out);
                self.blocks_done += 1;
                if let Some(obs) = &self.obs {
                    obs.blocks.inc();
                }
                let exit = (frame.r0 + local_exit.0, frame.c0 + local_exit.1);
                match self.frames.last_mut() {
                    Some(p) => p.head = (exit.0 - p.r0, exit.1 - p.c0),
                    None => return Ok(exit),
                }
                continue;
            }

            // 4. GENERAL CASE (Figure 2 lines 3-15): fillGridCache.
            match self.fill_grid(fa, fb, frame) {
                Ok(()) => {}
                Err((frame, e)) => {
                    self.frames.push(frame);
                    return Err(self.fail_with_snapshot(out, e));
                }
            }
        }
    }

    /// Settles the kernel arena's byte usage against the governor. The
    /// arena is an opportunistic cache: if the budget refuses its
    /// growth, the kernel degrades to the scalar backend (bit-identical
    /// results, caller-owned buffers only) and the pooled scratch is
    /// freed — a graceful fallback, never an error, and deliberately
    /// outside the fault hooks and the degradation ladder.
    fn charge_arena(&mut self) {
        let held = self.kernel.arena().held_bytes();
        if held > self.arena_charged {
            if self
                .ctx
                .governor
                .try_charge_bytes(held - self.arena_charged)
            {
                self.arena_charged = held;
            } else {
                self.kernel.degrade_to_scalar();
                self.ctx.governor.release_bytes(self.arena_charged);
                self.arena_charged = 0;
            }
        } else if held < self.arena_charged {
            self.ctx.governor.release_bytes(self.arena_charged - held);
            self.arena_charged = held;
        }
        // The arena stats are observed here — the drive loop's consistent
        // point — rather than instrumented inside the arena's hot
        // take/put path.
        if let Some(obs) = &self.obs {
            let arena = self.kernel.arena();
            obs.arena_held.set(arena.held_bytes() as i64);
            obs.arena_fresh.set(arena.fresh_allocs() as i64);
            obs.arena_reuses.set(arena.reuses() as i64);
        }
    }

    /// Allocates and fills `frame`'s grid cache, then pushes the frame
    /// back with the grid attached. On failure the frame is returned
    /// untouched (grid still `None`) so the caller can restore it.
    #[allow(clippy::result_large_err)] // Err hands the frame back for push-back + snapshot
    fn fill_grid(
        &mut self,
        fa: &[u8],
        fb: &[u8],
        mut frame: Frame<'s>,
    ) -> Result<(), (Frame<'s>, AlignError)> {
        let (rows, cols) = (frame.rows, frame.cols);
        let k_r = self.config.k.min(rows);
        let k_c = self.config.k.min(cols);
        let mut grid = match Grid::try_new(rows, cols, k_r, k_c, &self.ctx.governor) {
            Ok(g) => g,
            Err(e) => return Err((frame, e)),
        };
        let grid_guard = self
            .metrics
            .track_alloc(grid.cache_entries() * std::mem::size_of::<i32>());
        self.log.events.push(CostEvent::GridFill {
            rows,
            cols,
            k_r,
            k_c,
        });

        // fillGridCache (Figure 2 line 5 / Figure 3d).
        self.set_phase(flsa_metrics::names::PHASE_GRID_FILL);
        let fill_start = self.recorder().map(Recorder::now_ns);
        let filled = if self.config.threads() > 1 {
            parallel::fill_grid_parallel(self, fa, fb, &frame.top, &frame.left, &mut grid)
        } else {
            self.fill_grid_sequential(fa, fb, &frame.top, &frame.left, &mut grid);
            Ok(())
        };
        if let Err(e) = filled {
            // The fill did not complete: undo the partial cost-log entry
            // and the grid's budget charge, hand the frame back intact.
            self.log.events.pop();
            self.ctx.governor.release_i32(grid.cache_entries());
            return Err((frame, e));
        }
        self.record_span(fill_start, SpanKind::FillCache, rows, cols, k_r, k_c);
        // All blocks except the bottom-right one are now complete.
        self.blocks_done += (k_r * k_c - 1) as u64;
        if let Some(obs) = &self.obs {
            obs.blocks.add((k_r * k_c - 1) as u64);
        }
        frame.grid = Some(grid);
        frame.grid_guard = Some(grid_guard);
        self.frames.push(frame);
        Ok(())
    }

    /// Drops a popped frame, returning its grid cache's bytes to the
    /// governor (the metrics guard drops with the frame).
    fn release_frame(&self, frame: Frame<'_>) {
        if let Some(g) = &frame.grid {
            self.ctx.governor.release_i32(g.cache_entries());
        }
    }

    /// On cancellation, force one final snapshot at the current (still
    /// consistent) state so `resume` can pick up exactly here; other
    /// errors pass through. Snapshot failures never mask the original
    /// error.
    fn fail_with_snapshot(&mut self, out: &PathBuilder, e: AlignError) -> AlignError {
        if matches!(e, AlignError::Cancelled) {
            let _ = self.maybe_checkpoint(out, true);
        }
        e
    }

    /// Captures and persists a snapshot if a policy is attached and the
    /// cadence (or `force`) says so.
    fn maybe_checkpoint(&mut self, out: &PathBuilder, force: bool) -> Result<(), AlignError> {
        let Some(policy) = self.ctx.checkpoint.clone() else {
            return Ok(());
        };
        let due =
            self.blocks_done.saturating_sub(self.last_ckpt_blocks) >= policy.every_blocks.max(1);
        if !(due || force) {
            return Ok(());
        }
        let state = self.capture_state(out);
        let frames = state.frames.len() as u32;
        let blocks = state.blocks_done;
        match policy.sink.save(&state) {
            Ok(bytes) => {
                self.last_ckpt_blocks = self.blocks_done;
                if let Some(r) = self.recorder() {
                    let now = r.now_ns();
                    r.record(
                        now,
                        now,
                        EventKind::Checkpoint {
                            seq: self.ckpt_seq,
                            blocks,
                            frames,
                            bytes,
                        },
                    );
                }
                self.ckpt_seq += 1;
                Ok(())
            }
            Err(detail) => Err(AlignError::CheckpointSave { detail }),
        }
    }

    /// Copies the live state into a plain-data [`CheckpointState`]. By
    /// Theorem 2 this is `O(k·(m+n))` cells: one boundary pair plus at
    /// most one grid cache per stack level.
    fn capture_state(&self, out: &PathBuilder) -> CheckpointState {
        CheckpointState {
            config: self.config,
            blocks_done: self.blocks_done,
            generation: self.generation,
            rev_moves: out.rev_moves().to_vec(),
            frames: self
                .frames
                .iter()
                .map(|f| FrameState {
                    r0: f.r0,
                    c0: f.c0,
                    rows: f.rows,
                    cols: f.cols,
                    head: f.head,
                    top: f.top.clone(),
                    left: f.left.clone(),
                    grid: f.grid.as_ref().map(|g| GridState {
                        row_bounds: g.row_bounds.clone(),
                        col_bounds: g.col_bounds.clone(),
                        rows_cache: g.rows_cache.clone(),
                        cols_cache: g.cols_cache.clone(),
                    }),
                })
                .collect(),
        }
    }

    /// Figure 2's BASE CASE: full-matrix solve in the reserved buffer,
    /// on this thread and the vector kernel at any thread count (a
    /// base case is too small to repay tiling it over the pool; DESIGN.md
    /// §6). It runs in the buffer reserved before the run began, so it
    /// returns no error.
    fn base_case(
        &mut self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        head: (usize, usize),
        out: &mut PathBuilder,
    ) -> (usize, usize) {
        let (rows, cols) = (a.len(), b.len());
        self.log.events.push(CostEvent::BaseFill { rows, cols });

        self.set_phase(flsa_metrics::names::PHASE_BASE_CASE);
        let fill_start = self.recorder().map(Recorder::now_ns);
        let storage = std::mem::take(&mut self.base_storage);
        let dpm =
            self.kernel
                .fill_full_reusing(a, b, top, left, self.scheme, storage, self.metrics);
        self.record_span(fill_start, SpanKind::BaseCase, rows, cols, 0, 0);
        self.metrics.add_base_case_cells(rows as u64 * cols as u64);

        let before = out.len();
        self.set_phase(flsa_metrics::names::PHASE_TRACEBACK);
        let trace_start = self.recorder().map(Recorder::now_ns);
        let exit = trace_from(&dpm, a, b, self.scheme, head, out, self.metrics);
        self.record_span(trace_start, SpanKind::Traceback, rows, cols, 0, 0);
        self.log.events.push(CostEvent::Trace {
            steps: (out.len() - before) as u64,
        });

        // Return the buffer for the next base case (keep the larger one).
        let storage = dpm.into_vec();
        if storage.capacity() > self.base_storage.capacity() {
            self.base_storage = storage;
        }
        exit
    }

    /// Sequential fillGridCache: every block except the bottom-right one,
    /// in row-major order (a valid topological order of the block DAG).
    fn fill_grid_sequential(
        &mut self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        grid: &mut Grid,
    ) {
        let k_r = grid.k_r();
        let k_c = grid.k_c();
        let mut top_buf: Vec<i32> = Vec::new();
        let mut left_buf: Vec<i32> = Vec::new();
        for s in 0..k_r {
            for t in 0..k_c {
                if s == k_r - 1 && t == k_c - 1 {
                    continue; // bottom-right block: solved by recursion instead
                }
                let r0 = grid.row_bounds[s];
                let r1 = grid.row_bounds[s + 1];
                let c0 = grid.col_bounds[t];
                let c1 = grid.col_bounds[t + 1];

                // Copy the input boundary out of the grid first so the
                // output borrows below don't conflict.
                top_buf.clear();
                top_buf.extend_from_slice(grid.cached_row(s, t).unwrap_or(&top[c0..=c1]));
                left_buf.clear();
                left_buf.extend_from_slice(grid.cached_col(s, t).unwrap_or(&left[r0..=r1]));

                self.scratch_row.resize(c1 - c0 + 1, 0);
                self.scratch_col.resize(r1 - r0 + 1, 0);
                flsa_dp::boundary::check_boundary(&top_buf, &left_buf, r1 - r0, c1 - c0);
                self.kernel.fill_last_row_col(
                    &a[r0..r1],
                    &b[c0..c1],
                    &top_buf,
                    &left_buf,
                    self.scheme,
                    &mut self.scratch_row,
                    Some(&mut self.scratch_col),
                    self.metrics,
                );
                if s + 1 < k_r {
                    grid.rows_cache[s][c0..=c1].copy_from_slice(&self.scratch_row);
                }
                if t + 1 < k_c {
                    grid.cols_cache[t][r0..=r1].copy_from_slice(&self.scratch_col);
                }
            }
        }
    }
}

impl Drop for Solver<'_> {
    /// Returns the Base Case buffer reservation and the arena charge to
    /// the governor, whether the run completed or failed, so its
    /// reserved-bytes gauge reads 0 after a completed run.
    fn drop(&mut self) {
        self.ctx.governor.release_i32(self.base_reserved);
        self.ctx.governor.release_bytes(self.arena_charged);
    }
}
