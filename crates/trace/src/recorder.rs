//! The event sink: per-thread sharded buffers merged on snapshot.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventKind, TileKind, Trace, TraceMeta};

/// Shard count; recording threads map `tid % SHARDS`, so up to `SHARDS`
/// threads record with no lock contention at all.
const SHARDS: usize = 64;

static RECORDER_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(recorder id, dense tid)` pairs for this OS thread. Linear scan:
    /// a thread rarely touches more than a couple of live recorders.
    static THREAD_IDS: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Collects [`Event`]s from any number of threads with minimal overhead.
///
/// Each recording thread is lazily assigned a dense thread id (0, 1, …)
/// the first time it records; events land in the shard owned by that id.
/// Timestamps are nanoseconds since the recorder's creation instant.
pub struct Recorder {
    id: u64,
    epoch: Instant,
    shards: Vec<Mutex<Vec<Event>>>,
    next_tid: AtomicU32,
    next_fill: AtomicU32,
    meta: Mutex<TraceMeta>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("id", &self.id)
            // Relaxed: debug readout of a counter.
            .field("threads_seen", &self.next_tid.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed), // Relaxed: unique-id tick
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            next_tid: AtomicU32::new(0),
            next_fill: AtomicU32::new(0),
            meta: Mutex::new(TraceMeta::default()),
        }
    }

    /// Nanoseconds since this recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The calling thread's dense id under this recorder (assigned on
    /// first use).
    pub fn thread_id(&self) -> u32 {
        THREAD_IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            if let Some(&(_, tid)) = ids.iter().find(|&&(rid, _)| rid == self.id) {
                return tid;
            }
            // Relaxed: dense-id allocation; the id itself carries the data.
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            ids.push((self.id, tid));
            tid
        })
    }

    /// A fresh wavefront-fill id (links a fill region to its tiles).
    pub fn next_fill_id(&self) -> u32 {
        self.next_fill.fetch_add(1, Ordering::Relaxed) // Relaxed: unique-id tick
    }

    /// Records one event on the calling thread's timeline.
    pub fn record(&self, start_ns: u64, end_ns: u64, kind: EventKind) {
        let tid = self.thread_id();
        let event = Event {
            tid,
            start_ns,
            end_ns,
            kind,
        };
        let shard = &self.shards[tid as usize % SHARDS];
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }

    /// Records one kernel invocation that computed `cells` on `backend`
    /// (an interned [`crate::event::KERNEL_BACKENDS`] name) as an
    /// instant event.
    #[inline]
    pub fn record_kernel(&self, cells: u64, backend: &'static str) {
        let now = self.now_ns();
        self.record(now, now, EventKind::Kernel { cells, backend });
    }

    /// Sets the run label shown in reports and exports.
    pub fn set_label(&self, label: impl Into<String>) {
        self.meta
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .label = label.into();
    }

    /// Sets the configured thread count recorded in the trace metadata.
    pub fn set_threads(&self, threads: u32) {
        self.meta
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .threads = threads;
    }

    /// Number of distinct threads that have recorded so far.
    pub fn threads_seen(&self) -> u32 {
        self.next_tid.load(Ordering::Relaxed) // Relaxed: approximate readout
    }

    /// Copies all events out into a start-time-ordered [`Trace`].
    /// Non-destructive: recording may continue afterwards.
    pub fn snapshot(&self) -> Trace {
        let mut events = Vec::new();
        for shard in &self.shards {
            events.extend_from_slice(
                &shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        let meta = self
            .meta
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        Trace { meta, events }.sorted()
    }
}

/// Per-fill tile instrumentation handle, passed into the wavefront layer.
///
/// Holds the fill id and kind so the pool's per-tile timing shim only
/// pushes one event per tile. `Sync` because tiles run on pool worker
/// threads.
pub struct TileTracer<'r> {
    recorder: &'r Recorder,
    kind: TileKind,
    fill: u32,
}

impl<'r> TileTracer<'r> {
    /// Creates a tracer for one wavefront fill, drawing a fresh fill id.
    pub fn new(recorder: &'r Recorder, kind: TileKind) -> Self {
        TileTracer {
            recorder,
            kind,
            fill: recorder.next_fill_id(),
        }
    }

    pub fn fill_id(&self) -> u32 {
        self.fill
    }

    /// Nanoseconds on the recorder's clock, for timing a tile.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Records the tile event of tile `(row, col)`, which ran from
    /// `start_ns` to `end_ns` on [`TileTracer::now_ns`]'s clock.
    #[inline]
    pub fn record_tile(&self, row: usize, col: usize, start_ns: u64, end_ns: u64) {
        self.recorder.record(
            start_ns,
            end_ns,
            EventKind::Tile {
                kind: self.kind,
                fill: self.fill,
                row: row as u32,
                col: col as u32,
                diag: (row + col) as u32,
            },
        );
    }

    /// Times the whole fill region (an `rows × cols` tile grid run on
    /// `threads` threads) around `run`, recording the fill event.
    pub fn region<T, F: FnOnce() -> T>(
        &self,
        rows: usize,
        cols: usize,
        threads: usize,
        run: F,
    ) -> T {
        let start = self.recorder.now_ns();
        let out = run();
        self.recorder.record(
            start,
            self.recorder.now_ns(),
            EventKind::Fill {
                kind: self.kind,
                fill: self.fill,
                rows: rows as u32,
                cols: cols as u32,
                threads: threads as u32,
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn dense_thread_ids_and_merged_snapshot() {
        let recorder = std::sync::Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = std::sync::Arc::clone(&recorder);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    r.record(
                        0,
                        0,
                        EventKind::Kernel {
                            cells: 5,
                            backend: "scalar",
                        },
                    );
                }
                r.thread_id()
            }));
        }
        let mut tids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
        let trace = recorder.snapshot();
        assert_eq!(trace.events.len(), 40);
        assert_eq!(trace.kernel_cells(), 200);
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn distinct_recorders_assign_independent_ids() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.record(
            0,
            0,
            EventKind::Kernel {
                cells: 1,
                backend: "scalar",
            },
        );
        assert_eq!(a.thread_id(), 0);
        assert_eq!(b.thread_id(), 0, "each recorder numbers threads from 0");
    }

    #[test]
    fn tile_tracer_links_fill_and_tiles() {
        let recorder = Recorder::new();
        let tracer = TileTracer::new(&recorder, TileKind::GridFill);
        tracer.region(2, 2, 1, || {
            for r in 0..2 {
                for c in 0..2 {
                    let start = tracer.now_ns();
                    tracer.record_tile(r, c, start, tracer.now_ns());
                }
            }
        });
        let trace = recorder.snapshot();
        let tiles: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Tile { fill, diag, .. } => Some((fill, diag)),
                _ => None,
            })
            .collect();
        assert_eq!(tiles.len(), 4);
        assert!(tiles.iter().all(|&(f, _)| f == tracer.fill_id()));
        assert_eq!(tiles.iter().filter(|&&(_, d)| d == 1).count(), 2);
        let fills = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Fill { .. }))
            .count();
        assert_eq!(fills, 1);
    }
}
