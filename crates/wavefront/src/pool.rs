//! A persistent worker pool for repeated wavefront jobs.
//!
//! FastLSA executes one wavefront fill per recursion node — hundreds per
//! alignment. [`WorkerPool`] keeps `P − 1` workers alive across jobs (the
//! paper's implementation likewise reuses its processes), so no fill pays
//! a thread spawn.
//!
//! ## Safety architecture
//!
//! Jobs borrow non-`'static` state (the tile closure captures the DP
//! buffers of the current fill), but pool threads are `'static`. The
//! lifetime is erased behind a raw pointer inside the internal `JobState`
//! with this protocol (the scheduling half lives in
//! [`JobCore`](crate::protocol::JobCore) and is model-checked by
//! `flsa-check`; see the invariant list in [`crate::protocol`]):
//!
//! * a worker may dereference the work pointer **only while executing a
//!   popped tile**, and claiming a tile increments the `in_work` census
//!   under the ready-queue monitor;
//! * [`WorkerPool::run`] exits — by return *or* unwind — only after
//!   [`JobCore::wait_quiescent`] observed `remaining == 0` with an empty
//!   in-work census, so every work call has finished and none can start
//!   (checked invariant 3, which holds on the abort path too);
//! * workers that receive the job message late observe `remaining == 0`
//!   (Acquire) and return without ever touching the pointer. The
//!   `JobState` itself is reference-counted, so late observers only touch
//!   owned memory.
//!
//! A panic inside a tile poisons the job (checked invariant 6): the other
//! participants drain without deadlock, the worker thread survives for
//! the next job, and [`WorkerPool::run`] surfaces the failure as
//! [`JobError::TilePanicked`] on the submitting thread. Cooperative
//! cancellation ([`WorkerPool::run_traced`]) drains the same way and
//! surfaces as [`JobError::Cancelled`].

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use flsa_metrics::{names, Counter, Gauge, Histogram, Registry};
use flsa_trace::TileTracer;

pub use crate::protocol::JobError;
use crate::protocol::{sequential_wavefront, JobCore};
use crate::sync::StdSync;

/// The borrowed tile closure a job runs.
type WorkFn = dyn Fn(usize, usize) + Sync;

/// The borrowed cancel predicate a job polls before each tile.
type CancelFn = dyn Fn() -> bool + Sync;

/// Type-erased wavefront job shared between the submitting thread and the
/// pool workers.
struct JobState {
    core: JobCore<StdSync>,
    /// Borrowed tile closure; see the module-level safety protocol.
    work: *const WorkFn,
    /// Borrowed cancel predicate, erased and guarded exactly like `work`
    /// (polled only while a claimed tile is in the `in_work` census).
    cancel: Option<*const CancelFn>,
}

// SAFETY: the raw `work` pointer is only dereferenced under the protocol
// documented at module level, which guarantees the referent outlives
// every dereference; all other fields are owned and Sync.
unsafe impl Send for JobState {}
// SAFETY: as for `Send` — aliasing of the raw pointer is governed by the
// module-level protocol, and `JobCore` is Sync by construction.
unsafe impl Sync for JobState {}

impl JobState {
    fn participate(&self) {
        self.core.participate(|r, c| {
            if let Some(cancel) = self.cancel {
                // SAFETY: same protocol as `work` below — the predicate is
                // only dereferenced while this tile is in the `in_work`
                // census, which `run` waits out before returning.
                if unsafe { &*cancel }() {
                    self.core.abort_cancelled();
                    return;
                }
            }
            // SAFETY: this closure runs only while its tile is counted in
            // the `in_work` census, and `run` blocks in `wait_quiescent`
            // until that census is empty — even when a tile panics — so
            // the submitting thread's frame (and the closure it borrows)
            // outlives every dereference here.
            let work = unsafe { &*self.work };
            work(r, c);
        });
    }
}

/// Cached registry handles for pool occupancy accounting.
///
/// Everything is recorded *around* the protocol, never inside
/// [`JobCore`] (which is model-checked and must stay metric-free): tile
/// work is timed by the pool's tile shim, and idle time is
/// measured around the dispatch-channel `recv` in the worker loop. The
/// ready queue itself lives inside the protocol monitor, so queue
/// pressure is exposed as the in-flight tile census
/// ([`names::TILES_INFLIGHT`] / [`names::TILES_INFLIGHT_PEAK`]) rather
/// than a queue-length gauge.
#[derive(Clone, Debug)]
pub struct PoolMetrics {
    busy_ns: Counter,
    idle_ns: Counter,
    parks: Counter,
    tiles: Counter,
    inflight: Gauge,
    inflight_peak: Gauge,
    tile_ns: Histogram,
}

impl PoolMetrics {
    /// Binds the wavefront occupancy handles in `reg`.
    pub fn new(reg: &Registry) -> Self {
        PoolMetrics {
            busy_ns: reg.counter(names::WORKER_BUSY_NS_TOTAL),
            idle_ns: reg.counter(names::WORKER_IDLE_NS_TOTAL),
            parks: reg.counter(names::WORKER_PARKS_TOTAL),
            tiles: reg.counter(names::TILES_TOTAL),
            inflight: reg.gauge(names::TILES_INFLIGHT),
            inflight_peak: reg.gauge(names::TILES_INFLIGHT_PEAK),
            tile_ns: reg.histogram(names::TILE_NS),
        }
    }

    /// Counts one tile into the in-flight census until the returned
    /// guard drops — on unwind too: a panicking tile poisons its job but
    /// must not wedge the census gauge for the rest of the process.
    fn enter_tile(&self) -> impl Drop + '_ {
        struct InflightGuard<'a>(&'a Gauge);
        impl Drop for InflightGuard<'_> {
            fn drop(&mut self) {
                self.0.sub(1);
            }
        }
        let now = self.inflight.add_get(1);
        // Advisory peak: the cheap load-and-compare keeps the common
        // steady-state case (census at or below the known peak) off the
        // contended RMW; racing threads under-count transient spikes by
        // at most the number of racers, fine for an occupancy indicator.
        if now > self.inflight_peak.get() {
            self.inflight_peak.fetch_max(now);
        }
        InflightGuard(&self.inflight)
    }

    /// Attributes one finished tile's `ns` to busy time, the tile
    /// latency histogram, and the tile count.
    fn tile_done(&self, ns: u64) {
        self.busy_ns.add(ns);
        self.tile_ns.record(ns);
        self.tiles.inc();
    }
}

/// A pool of `threads − 1` persistent workers plus the submitting thread.
///
/// # Examples
///
/// ```
/// use flsa_wavefront::pool::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let mut pool = WorkerPool::new(4);
/// let count = AtomicU64::new(0);
/// pool.run(8, 8, |_, _| false, &|_r, _c| {
///     count.fetch_add(1, Ordering::Relaxed);
/// })
/// .unwrap();
/// assert_eq!(count.into_inner(), 64);
/// ```
pub struct WorkerPool {
    threads: usize,
    sender: Option<Sender<Arc<JobState>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Occupancy handles, shared with the worker threads (which are
    /// spawned before metrics can be attached, hence the `OnceLock`).
    metrics: Arc<OnceLock<PoolMetrics>>,
}

impl WorkerPool {
    /// Spawns a pool that executes jobs on `threads` threads total (the
    /// caller's thread participates, so `threads - 1` are spawned).
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        let (sender, receiver) = unbounded::<Arc<JobState>>();
        let metrics: Arc<OnceLock<PoolMetrics>> = Arc::new(OnceLock::new());
        let mut handles = Vec::with_capacity(threads - 1);
        for _ in 1..threads {
            let rx = receiver.clone();
            let slot = Arc::clone(&metrics);
            handles.push(std::thread::spawn(move || {
                loop {
                    // The blocking `recv` is the pool's only idle point:
                    // time it so busy/idle occupancy can be computed, and
                    // count each successful wake-up as one park cycle.
                    let wait = Instant::now();
                    let Ok(job) = rx.recv() else { break };
                    if let Some(m) = slot.get() {
                        m.idle_ns.add(wait.elapsed().as_nanos() as u64);
                        m.parks.inc();
                    }
                    // A panicking tile poisons the job (the submitting
                    // thread re-raises it); swallow the unwind here so
                    // this worker survives for the next job.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job.participate();
                    }));
                }
            }));
        }
        WorkerPool {
            threads,
            sender: Some(sender),
            handles,
            metrics,
        }
    }

    /// Total threads (including the submitting one).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches occupancy metrics to this pool. All subsequent jobs (on
    /// every thread) record busy/idle time, park counts, and per-tile
    /// latency through the handles. A second call is a no-op: the worker
    /// threads hold a `OnceLock` view of the handles.
    pub fn set_metrics(&self, metrics: PoolMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// [`WorkerPool::run_traced`] with neither cancellation nor tracing.
    pub fn run(
        &mut self,
        rows: usize,
        cols: usize,
        skip: impl Fn(usize, usize) -> bool,
        work: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), JobError> {
        self.run_traced(rows, cols, skip, work, None, None)
    }

    /// Runs one wavefront job, blocking until every live tile finished:
    /// `work(r, c)` runs once per non-skipped tile, after its up/left
    /// neighbours (one thread runs the tiles in anti-diagonal order).
    ///
    /// `cancel` is polled before each tile on whichever thread claims
    /// it. When it first returns `true` the job aborts via
    /// [`JobCore::abort_cancelled`](crate::protocol::JobCore::abort_cancelled):
    /// tiles already inside `work` finish and nothing new starts.
    ///
    /// A shim times each tile once; that start/end pair feeds the
    /// attached [`PoolMetrics`] and the `tracer`'s tile event. The tracer
    /// also records the job as one fill region. With neither attached,
    /// `work` runs unwrapped.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::TilePanicked`] when a tile's `work` panicked
    /// (on whichever thread it ran); the panic payload is contained and
    /// the pool stays usable for subsequent jobs. Returns
    /// [`JobError::Cancelled`] once a cancelled job drained. This call
    /// never returns before the job is quiescent, so on the error paths
    /// too every in-flight `work` call has finished.
    pub fn run_traced(
        &mut self,
        rows: usize,
        cols: usize,
        skip: impl Fn(usize, usize) -> bool,
        work: &(dyn Fn(usize, usize) + Sync),
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
        tracer: Option<&TileTracer<'_>>,
    ) -> Result<(), JobError> {
        // The shim lives in this frame, which the job only leaves once
        // quiescent, so the lifetime-erasure protocol is unchanged.
        let metrics = self.metrics.get();
        let epoch = Instant::now();
        let now = || tracer.map_or_else(|| epoch.elapsed().as_nanos() as u64, TileTracer::now_ns);
        let timed = |r: usize, c: usize| {
            let _census = metrics.map(PoolMetrics::enter_tile);
            let start = now();
            work(r, c);
            let end = now();
            if let Some(m) = metrics {
                m.tile_done(end - start);
            }
            if let Some(t) = tracer {
                t.record_tile(r, c, start, end);
            }
        };
        let work: &(dyn Fn(usize, usize) + Sync) = if metrics.is_none() && tracer.is_none() {
            work
        } else {
            &timed
        };
        match tracer {
            Some(t) => t.region(rows, cols, self.threads, || {
                self.execute(rows, cols, skip, work, cancel)
            }),
            None => self.execute(rows, cols, skip, work, cancel),
        }
    }

    /// Schedules one job over the pool's threads (see
    /// [`WorkerPool::run_traced`]).
    fn execute(
        &self,
        rows: usize,
        cols: usize,
        skip: impl Fn(usize, usize) -> bool,
        work: &(dyn Fn(usize, usize) + Sync),
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(), JobError> {
        if rows == 0 || cols == 0 {
            return Ok(());
        }
        let skip_mask: Vec<bool> = (0..rows * cols).map(|i| skip(i / cols, i % cols)).collect();

        if self.threads == 1 {
            let cancelled = std::cell::Cell::new(false);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sequential_wavefront(
                    rows,
                    cols,
                    |r, c| skip_mask[r * cols + c],
                    |r, c| {
                        if cancelled.get() {
                            return;
                        }
                        if let Some(cancel) = cancel {
                            if cancel() {
                                cancelled.set(true);
                                return;
                            }
                        }
                        work(r, c);
                    },
                );
            }));
            return match outcome {
                Err(_) => Err(JobError::TilePanicked),
                Ok(()) if cancelled.get() => Err(JobError::Cancelled),
                Ok(()) => Ok(()),
            };
        }

        let core = JobCore::<StdSync>::new(rows, cols, skip_mask);
        if core.live() == 0 {
            return Ok(());
        }

        // SAFETY: lifetime erasure — sound per the module-level protocol
        // because this function blocks until the job is quiescent (no
        // worker inside `work`, none able to start), so the erased borrow
        // outlives every dereference.
        // The source lifetime must stay inferred: naming it forces the
        // borrow to outlive 'static *before* the transmute launders it.
        #[allow(clippy::missing_transmute_annotations)]
        let work_erased: *const WorkFn = unsafe { std::mem::transmute::<_, &'static WorkFn>(work) };
        #[allow(clippy::missing_transmute_annotations)]
        let cancel_erased: Option<*const CancelFn> = cancel.map(|c| {
            // SAFETY: as for `work` — same erasure, same quiescence guarantee.
            (unsafe { std::mem::transmute::<_, &'static CancelFn>(c) }) as *const _
        });
        let job = Arc::new(JobState {
            core,
            work: work_erased,
            cancel: cancel_erased,
        });
        // flsa-check: allow(unwrap) — sender is Some until drop
        let sender = self.sender.as_ref().expect("pool is alive");
        for _ in 1..self.threads {
            sender
                .send(Arc::clone(&job))
                // flsa-check: allow(unwrap) — receivers live as long as the pool
                .expect("workers outlive the pool");
        }
        // The submitting thread participates too. Whether its own
        // participation returns cleanly or unwinds (a tile panicked right
        // here), `run` must not exit before the job is quiescent: workers
        // may still be inside `work`, and the closure dies with this frame.
        let participation =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.participate()));
        job.core.wait_quiescent();
        debug_assert!(job.core.is_drained());
        // A submitter-side tile panic already poisoned the core via the
        // unwind guard; the payload is dropped in favour of the structured
        // error so both worker- and submitter-side failures look alike.
        if job.core.is_cancelled() {
            Err(JobError::Cancelled)
        } else if participation.is_err() || job.core.is_poisoned() {
            Err(JobError::TilePanicked)
        } else {
            Ok(())
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel stops the workers; join to surface panics.
        self.sender.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn pool_runs_every_tile_once() {
        let mut pool = WorkerPool::new(4);
        let visited = StdMutex::new(Vec::new());
        pool.run(5, 7, |_, _| false, &|r, c| {
            visited.lock().unwrap().push((r, c))
        })
        .unwrap();
        let mut v = visited.into_inner().unwrap();
        v.sort_unstable();
        let mut expect: Vec<(usize, usize)> =
            (0..5).flat_map(|r| (0..7).map(move |c| (r, c))).collect();
        expect.sort_unstable();
        assert_eq!(v, expect);
    }

    #[test]
    fn pool_respects_dependencies_across_repeated_jobs() {
        // Many consecutive jobs through the same pool — the FastLSA usage
        // pattern — each checked for dependency order via stamps.
        let mut pool = WorkerPool::new(3);
        for round in 0..50 {
            let rows = 1 + round % 5;
            let cols = 1 + (round * 3) % 6;
            let cells: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
            pool.run(rows, cols, |_, _| false, &|r, c| {
                if r > 0 {
                    assert_ne!(cells[(r - 1) * cols + c].load(Ordering::Acquire), 0);
                }
                if c > 0 {
                    assert_ne!(cells[r * cols + c - 1].load(Ordering::Acquire), 0);
                }
                cells[r * cols + c].store(1 + (r * cols + c) as u64, Ordering::Release);
            })
            .unwrap();
            assert!(
                cells.iter().all(|c| c.load(Ordering::Relaxed) != 0),
                "round {round}"
            );
        }
    }

    #[test]
    fn pool_results_match_across_thread_counts() {
        let rows = 9;
        let cols = 11;
        let compute_pool = |threads: usize| -> Vec<u64> {
            let mut pool = WorkerPool::new(threads);
            let table: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
            pool.run(rows, cols, |_, _| false, &|r, c| {
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
        let seq = compute_pool(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(compute_pool(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn pool_honours_skip_mask() {
        let mut pool = WorkerPool::new(4);
        let count = AtomicU64::new(0);
        pool.run(6, 6, |r, c| r >= 4 && c >= 3, &|_r, _c| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.into_inner(), 36 - 6);
    }

    #[test]
    fn single_thread_pool_is_sequential() {
        let mut pool = WorkerPool::new(1);
        let order = StdMutex::new(Vec::new());
        pool.run(3, 3, |_, _| false, &|r, c| {
            order.lock().unwrap().push((r, c))
        })
        .unwrap();
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 9);
        assert_eq!(order[0], (0, 0));
        assert_eq!(*order.last().unwrap(), (2, 2));
    }

    #[test]
    fn empty_and_fully_skipped_jobs_return_immediately() {
        let mut pool = WorkerPool::new(3);
        pool.run(0, 4, |_, _| false, &|_, _| panic!("no tiles"))
            .unwrap();
        pool.run(3, 3, |_, _| true, &|_, _| panic!("all skipped"))
            .unwrap();
    }

    #[test]
    fn panicking_tile_fails_the_job_but_not_the_pool() {
        for threads in [1usize, 4] {
            let mut pool = WorkerPool::new(threads);
            let result = pool.run(4, 4, |_, _| false, &|r, c| {
                if (r, c) == (2, 2) {
                    panic!("tile failure");
                }
            });
            assert_eq!(result, Err(JobError::TilePanicked), "threads={threads}");
            // The pool survives a poisoned job and runs the next one cleanly.
            let count = AtomicU64::new(0);
            pool.run(3, 3, |_, _| false, &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(count.into_inner(), 9);
        }
    }

    #[test]
    fn cancelled_job_drains_and_reports_cancelled() {
        for threads in [1usize, 4] {
            let mut pool = WorkerPool::new(threads);
            let fired = AtomicU64::new(0);
            let ran = AtomicU64::new(0);
            let result = pool.run_traced(
                8,
                8,
                |_, _| false,
                &|_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                Some(&|| fired.fetch_add(1, Ordering::Relaxed) >= 5),
                None,
            );
            assert_eq!(result, Err(JobError::Cancelled), "threads={threads}");
            assert!(
                ran.load(Ordering::Relaxed) < 64,
                "cancellation must drop the tail (threads={threads})"
            );
            // The pool stays usable after a cancelled job.
            let count = AtomicU64::new(0);
            pool.run(3, 3, |_, _| false, &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(count.into_inner(), 9);
        }
    }

    #[test]
    fn never_firing_cancel_predicate_is_harmless() {
        let mut pool = WorkerPool::new(4);
        let count = AtomicU64::new(0);
        pool.run_traced(
            5,
            5,
            |_, _| false,
            &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            },
            Some(&|| false),
            None,
        )
        .unwrap();
        assert_eq!(count.into_inner(), 25);
    }

    #[test]
    fn traced_pool_run_links_tiles_to_their_fill() {
        use flsa_trace::{EventKind, Recorder, TileKind};
        let recorder = Recorder::new();
        let reg = Registry::new();
        let mut pool = WorkerPool::new(4);
        pool.set_metrics(PoolMetrics::new(&reg));
        for round in 0..3 {
            let tracer = TileTracer::new(&recorder, TileKind::BaseFill);
            pool.run_traced(3, 3, |_, _| false, &|_, _| {}, None, Some(&tracer))
                .unwrap();
            let trace = recorder.snapshot();
            let count = |want: fn(&EventKind) -> Option<u32>| {
                trace
                    .events
                    .iter()
                    .filter(|e| want(&e.kind) == Some(tracer.fill_id()))
                    .count()
            };
            let tiles = count(|k| match *k {
                EventKind::Tile { fill, .. } => Some(fill),
                _ => None,
            });
            let fills = count(|k| match *k {
                EventKind::Fill { fill, .. } => Some(fill),
                _ => None,
            });
            assert_eq!((tiles, fills), (9, 1), "round {round}");
        }
        // The same shim timed every traced tile for the metrics too.
        assert_eq!(reg.snapshot().counter(names::TILES_TOTAL), Some(27));
        // Untraced path records nothing.
        let before = recorder.snapshot().events.len();
        pool.run_traced(2, 2, |_, _| false, &|_, _| {}, None, None)
            .unwrap();
        assert_eq!(recorder.snapshot().events.len(), before);
    }

    #[test]
    fn pool_metrics_account_tiles_and_occupancy() {
        let reg = Registry::new();
        let mut pool = WorkerPool::new(4);
        pool.set_metrics(PoolMetrics::new(&reg));
        pool.run(6, 6, |_, _| false, &|_, _| {
            std::hint::black_box(0u64);
        })
        .unwrap();
        pool.run(2, 2, |r, c| r == 1 && c == 1, &|_, _| {}).unwrap();
        // Join the workers so every park/idle sample has landed.
        drop(pool);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::TILES_TOTAL), Some(36 + 3));
        let h = snap.histogram(names::TILE_NS).unwrap();
        assert_eq!(h.count, 36 + 3);
        assert!(snap.counter(names::WORKER_BUSY_NS_TOTAL).unwrap() > 0);
        // Each of the 3 workers received each of the 2 jobs once.
        assert_eq!(snap.counter(names::WORKER_PARKS_TOTAL), Some(6));
        assert_eq!(snap.gauge(names::TILES_INFLIGHT), Some(0));
        let peak = snap.gauge(names::TILES_INFLIGHT_PEAK).unwrap();
        assert!((1..=4).contains(&peak), "peak={peak}");
    }

    #[test]
    fn sequential_pool_records_tiles_without_idle_time() {
        let reg = Registry::new();
        let mut pool = WorkerPool::new(1);
        pool.set_metrics(PoolMetrics::new(&reg));
        pool.run(3, 4, |_, _| false, &|_, _| {}).unwrap();
        drop(pool);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::TILES_TOTAL), Some(12));
        assert_eq!(snap.counter(names::WORKER_PARKS_TOTAL), Some(0));
        assert_eq!(snap.counter(names::WORKER_IDLE_NS_TOTAL), Some(0));
        assert_eq!(snap.gauge(names::TILES_INFLIGHT), Some(0));
    }

    #[test]
    fn metrics_inflight_census_recovers_from_tile_panics() {
        let reg = Registry::new();
        let mut pool = WorkerPool::new(2);
        pool.set_metrics(PoolMetrics::new(&reg));
        let result = pool.run(3, 3, |_, _| false, &|r, c| {
            if (r, c) == (1, 1) {
                panic!("tile failure");
            }
        });
        assert_eq!(result, Err(JobError::TilePanicked));
        drop(pool);
        assert_eq!(reg.snapshot().gauge(names::TILES_INFLIGHT), Some(0));
    }

    #[test]
    fn pool_survives_many_tiny_jobs() {
        let mut pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..500 {
            pool.run(1, 1, |_, _| false, &|_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.into_inner(), 500);
    }
}
