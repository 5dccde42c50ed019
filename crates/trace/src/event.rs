//! The event model: what one FastLSA run's timeline is made of.

/// Phase of a FastLSA recursion node (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// fillGridCache: computing the grid cache rows/columns of one
    /// rectangle (Figure 2 line 5).
    FillCache,
    /// The base-case full-matrix solve (Figure 2 lines 1–2), fill only.
    BaseCase,
    /// FindPath traceback through a solved base-case matrix.
    Traceback,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FillCache => "FillCache",
            SpanKind::BaseCase => "BaseCase",
            SpanKind::Traceback => "Traceback",
        }
    }
}

/// Which kind of wavefront fill a tile belongs to (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// Tiled fillGridCache (Figure 13): boundary-only tiles.
    GridFill,
    /// Tiled Base Case: every entry stored. The solver runs base cases
    /// untiled, so only traces saved by older builds carry it.
    BaseFill,
}

impl TileKind {
    pub fn name(self) -> &'static str {
        match self {
            TileKind::GridFill => "GridFill",
            TileKind::BaseFill => "BaseFill",
        }
    }
}

/// Why the engine stepped down the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// An allocation was refused (budget, allocator, or injected fault).
    AllocFailed,
    /// A parallel worker panicked; the retry strips parallelism.
    WorkerPanic,
}

impl DegradeReason {
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::AllocFailed => "AllocFailed",
            DegradeReason::WorkerPanic => "WorkerPanic",
        }
    }
}

/// Payload of one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One recursion phase over a `rows × cols` rectangle at `depth` in
    /// the FastLSA recursion tree. `k_r`/`k_c` are the division factors
    /// in effect (0 for base cases); `cells` is the rectangle area.
    Span {
        kind: SpanKind,
        depth: u32,
        rows: u64,
        cols: u64,
        k_r: u32,
        k_c: u32,
        cells: u64,
    },
    /// One whole wavefront fill region: an `rows × cols` **tile grid**
    /// executed on `threads` threads. `fill` links its tiles.
    Fill {
        kind: TileKind,
        fill: u32,
        rows: u32,
        cols: u32,
        threads: u32,
    },
    /// One tile of wavefront fill `fill` at tile coordinates
    /// `(row, col)`, anti-diagonal `diag = row + col`.
    Tile {
        kind: TileKind,
        fill: u32,
        row: u32,
        col: u32,
        diag: u32,
    },
    /// One fill-kernel invocation computing `cells` DPM entries
    /// (instant event: `start_ns == end_ns`). Summing `cells` over a
    /// trace reproduces `Metrics::cells_computed`. `backend` is the
    /// interned name of the DP kernel backend that ran ("scalar",
    /// "sse4.1", "avx2", "avx512") so reports can break throughput down
    /// per backend.
    Kernel { cells: u64, backend: &'static str },
    /// The engine degraded its configuration (instant event): attempt
    /// `rung` failed for `reason` and the run was retried with the given
    /// `k`/`base_cells`/`threads`. `flsa report` surfaces these so a
    /// degraded run is visible after the fact.
    Degrade {
        reason: DegradeReason,
        rung: u32,
        k: u32,
        base_cells: u64,
        threads: u32,
    },
    /// A consistent snapshot of the recursion state was persisted
    /// (instant event). `seq` numbers snapshots within one process
    /// lifetime; `blocks` is the completed-grid-block progress counter;
    /// `frames` the recursion-stack depth captured; `bytes` the
    /// serialized snapshot size.
    Checkpoint {
        seq: u32,
        blocks: u64,
        frames: u32,
        bytes: u64,
    },
    /// The run was reconstructed from a durable snapshot (instant
    /// event). `generation` counts resumes in the lineage (1 = first
    /// resume); `blocks`/`frames` describe the snapshot picked up.
    Resume {
        generation: u32,
        blocks: u64,
        frames: u32,
    },
}

/// One timeline entry: who, when, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Dense per-recorder thread id (0 = first thread that recorded).
    pub tid: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for instant events.
    pub end_ns: u64,
    pub kind: EventKind,
}

impl Event {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The kernel backend names [`EventKind::Kernel`] may carry. Interning
/// keeps `EventKind` `Copy` while exports stay human-readable.
pub const KERNEL_BACKENDS: [&str; 4] = ["scalar", "sse4.1", "avx2", "avx512"];

/// Maps a backend name read from an external trace file back to its
/// interned `'static` form. Unknown names (future backends, foreign
/// traces) collapse to `"unknown"` rather than failing the parse.
pub fn intern_backend(name: &str) -> &'static str {
    for known in KERNEL_BACKENDS {
        if name == known {
            return known;
        }
    }
    "unknown"
}

/// Run-level context carried alongside the events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Free-form run label (e.g. "fastlsa 10000x10000").
    pub label: String,
    /// Threads the run was configured with (0 = unknown).
    pub threads: u32,
}

/// A collected run timeline.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub meta: TraceMeta,
    pub events: Vec<Event>,
}

impl Trace {
    /// Events ordered by start time (ties: by end, then thread).
    pub fn sorted(mut self) -> Self {
        self.events.sort_by_key(|e| (e.start_ns, e.end_ns, e.tid));
        self
    }

    /// Wall-clock extent covered by the events, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        let lo = self.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let hi = self.events.iter().map(|e| e.end_ns).max().unwrap_or(0);
        hi.saturating_sub(lo)
    }

    /// Total cells recorded by kernel events.
    pub fn kernel_cells(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                EventKind::Kernel { cells, .. } => cells,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_and_kernel_totals() {
        let t = Trace {
            meta: TraceMeta::default(),
            events: vec![
                Event {
                    tid: 0,
                    start_ns: 10,
                    end_ns: 30,
                    kind: EventKind::Kernel {
                        cells: 7,
                        backend: "scalar",
                    },
                },
                Event {
                    tid: 1,
                    start_ns: 5,
                    end_ns: 25,
                    kind: EventKind::Tile {
                        kind: TileKind::GridFill,
                        fill: 0,
                        row: 0,
                        col: 0,
                        diag: 0,
                    },
                },
                Event {
                    tid: 0,
                    start_ns: 40,
                    end_ns: 40,
                    kind: EventKind::Kernel {
                        cells: 3,
                        backend: "avx2",
                    },
                },
            ],
        };
        assert_eq!(t.wall_ns(), 35);
        assert_eq!(t.kernel_cells(), 10);
        let sorted = t.sorted();
        assert_eq!(sorted.events[0].start_ns, 5);
    }
}
