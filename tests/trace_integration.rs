//! End-to-end tracing guarantees on a real parallel FastLSA run:
//!
//! (a) the kernel events in the trace reproduce `Metrics::cells_computed`
//!     exactly;
//! (b) tile timestamps respect the wavefront dependency order — no tile
//!     starts before both of its parents ended;
//! (c) the measured per-fill ramp-up/saturated/drain census equals the §5
//!     analytical census (`phase_breakdown`) of the same live tile set,
//!     and on a hole-free grid the closed-form census with no mask;
//! (d) an affine run records the same recursion spans, properly nested,
//!     with every kernel call inside a fill span.

use std::collections::HashMap;
use std::sync::Arc;

use fastlsa::prelude::*;
use fastlsa::trace::{analyze, EventKind, Recorder, SpanKind, TileKind, TileTracer, Trace};
use fastlsa::wavefront::phases::phase_breakdown;
use fastlsa::wavefront::WorkerPool;

fn traced_run(threads: usize) -> (Trace, fastlsa::dp::MetricsSnapshot) {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 2500, 0.85, 11).unwrap();
    let recorder = Arc::new(Recorder::new());
    let metrics = Metrics::with_recorder(Arc::clone(&recorder));
    // base = 2^17 makes the k=8 sub-blocks of a 2500-residue problem
    // (~313x313) direct base cases. Base cases run on one thread, so
    // every wavefront in the trace is a GridFill with the bottom-right
    // block's hole skipped.
    let cfg = FastLsaConfig::new(8, 1 << 17).with_threads(threads);
    let result = fastlsa::align_with(&a, &b, &scheme, cfg, &metrics).unwrap();
    assert_eq!(result.path.score(&a, &b, &scheme), result.score);
    recorder.set_threads(threads as u32);
    (recorder.snapshot(), metrics.snapshot())
}

struct TileRec {
    row: usize,
    col: usize,
    start: u64,
    end: u64,
}

fn tiles_by_fill(trace: &Trace) -> HashMap<u32, Vec<TileRec>> {
    let mut out: HashMap<u32, Vec<TileRec>> = HashMap::new();
    for e in &trace.events {
        if let EventKind::Tile { fill, row, col, .. } = e.kind {
            out.entry(fill).or_default().push(TileRec {
                row: row as usize,
                col: col as usize,
                start: e.start_ns,
                end: e.end_ns,
            });
        }
    }
    out
}

#[test]
fn traced_cells_equal_metrics_counter() {
    for threads in [1, 4] {
        let (trace, snap) = traced_run(threads);
        assert_eq!(
            trace.kernel_cells(),
            snap.cells_computed,
            "threads={threads}: kernel events must reproduce cells_computed"
        );
        let kernel_events = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Kernel { .. }))
            .count();
        assert_eq!(kernel_events as u64, snap.kernel_calls, "threads={threads}");
    }
}

#[test]
fn tile_timestamps_respect_wavefront_dependencies() {
    let (trace, _) = traced_run(4);
    let fills = tiles_by_fill(&trace);
    assert!(
        !fills.is_empty(),
        "parallel run must record wavefront fills"
    );
    for (fill, tiles) in &fills {
        let mut ends: HashMap<(usize, usize), u64> = HashMap::new();
        for t in tiles {
            assert!(
                ends.insert((t.row, t.col), t.end).is_none(),
                "fill {fill}: tile ({},{}) recorded twice",
                t.row,
                t.col
            );
        }
        for t in tiles {
            for parent in [
                (t.row.wrapping_sub(1), t.col),
                (t.row, t.col.wrapping_sub(1)),
            ] {
                if let Some(&parent_end) = ends.get(&parent) {
                    assert!(
                        parent_end <= t.start,
                        "fill {fill}: tile ({},{}) started at {} before parent {:?} ended at {}",
                        t.row,
                        t.col,
                        t.start,
                        parent,
                        parent_end
                    );
                }
            }
        }
    }
}

#[test]
fn measured_phase_census_matches_section5_formulas() {
    let (trace, _) = traced_run(4);
    let fills = tiles_by_fill(&trace);
    let analysis = analyze(&trace);
    assert!(!analysis.fills.is_empty());
    for f in &analysis.fills {
        let tiles = &fills[&f.fill];
        let live: HashMap<(usize, usize), ()> =
            tiles.iter().map(|t| ((t.row, t.col), ())).collect();
        let skip = |r: usize, c: usize| !live.contains_key(&(r, c));
        let pb = phase_breakdown(
            f.rows as usize,
            f.cols as usize,
            f.threads as usize,
            Some(&skip),
        );
        assert_eq!(
            [f.phases[0].tiles, f.phases[1].tiles, f.phases[2].tiles],
            [pb.ramp_tiles, pb.saturated_tiles, pb.drain_tiles],
            "fill {}: measured census diverges from the analytical breakdown",
            f.fill
        );
        assert_eq!(
            [f.phases[0].lines, f.phases[1].lines, f.phases[2].lines],
            [pb.ramp_lines, pb.saturated_lines, pb.drain_lines],
            "fill {}",
            f.fill
        );
        assert_eq!(f.tiles, pb.total_tiles());
    }

    // A hole-free grid, the exact §5 model input, run straight on the
    // pool: its measured census must equal the closed form with no mask.
    let recorder = Recorder::new();
    let threads = 4;
    let mut pool = WorkerPool::new(threads);
    for (rows, cols) in [(8, 8), (5, 11), (12, 3)] {
        let tracer = TileTracer::new(&recorder, TileKind::GridFill);
        pool.run_traced(rows, cols, |_, _| false, &|_, _| {}, None, Some(&tracer))
            .unwrap();
    }
    let analysis = analyze(&recorder.snapshot());
    assert_eq!(analysis.fills.len(), 3);
    for f in &analysis.fills {
        let (rows, cols) = (f.rows as usize, f.cols as usize);
        assert_eq!(f.tiles, rows * cols, "fill {}: hole-free", f.fill);
        let model = phase_breakdown(rows, cols, threads, None);
        assert_eq!(
            [f.phases[0].tiles, f.phases[1].tiles, f.phases[2].tiles],
            [model.ramp_tiles, model.saturated_tiles, model.drain_tiles],
            "fill {}: {rows}x{cols}",
            f.fill
        );
        assert_eq!(
            [f.phases[0].lines, f.phases[1].lines, f.phases[2].lines],
            [model.ramp_lines, model.saturated_lines, model.drain_lines],
            "fill {}: {rows}x{cols}",
            f.fill
        );
    }
}

#[test]
fn recursion_spans_cover_the_whole_tree() {
    let (trace, snap) = traced_run(4);
    let mut fill_cache = 0u64;
    let mut base_cells = 0u64;
    let mut tracebacks = 0u64;
    for e in &trace.events {
        if let EventKind::Span { kind, cells, .. } = e.kind {
            match kind {
                SpanKind::FillCache => fill_cache += 1,
                SpanKind::BaseCase => base_cells += cells,
                SpanKind::Traceback => tracebacks += 1,
            }
        }
    }
    assert!(fill_cache > 0, "at least the root FillCache span");
    // Every base-case rectangle's area is recorded once on its span, so
    // the sum equals the metrics' base-case cell counter.
    assert_eq!(base_cells, snap.cells_base_case);
    assert!(tracebacks > 0);
    // Depth 0 must be the whole problem's FillCache.
    let root = trace
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Span {
                kind: SpanKind::FillCache,
                depth: 0,
                rows,
                cols,
                ..
            } => Some((rows, cols)),
            _ => None,
        })
        .expect("root span");
    assert!(root.0 >= 2400 && root.1 >= 2400, "{root:?}");
}

#[test]
fn export_round_trip_preserves_a_real_trace() {
    let (trace, _) = traced_run(2);
    let mut chrome = Vec::new();
    fastlsa::trace::write_chrome(&trace, &mut chrome).unwrap();
    let back = fastlsa::trace::read_trace(std::str::from_utf8(&chrome).unwrap()).unwrap();
    assert_eq!(back.events, trace.events);
    assert_eq!(back.meta, trace.meta);
    // Analysis of the round-tripped trace is identical.
    let a0 = analyze(&trace);
    let a1 = analyze(&back);
    assert_eq!(a0.kernel_cells, a1.kernel_cells);
    assert_eq!(a0.fills.len(), a1.fills.len());
    assert_eq!(a0.threads.len(), a1.threads.len());
}

/// Affine FastLSA runs on the one solver, so it records the linear run's
/// spans: FillCache, BaseCase and Traceback spans that nest (never
/// overlap partially), and every kernel event inside a FillCache or
/// BaseCase span, whose cells add up to `cells_computed`.
#[test]
fn affine_spans_nest_and_hold_every_kernel_cell() {
    let scheme = ScoringScheme::new(
        fastlsa::scoring::tables::blosum62(),
        GapModel::affine(-11, -1),
    );
    let (a, b) = generate::homologous_pair("t", &Alphabet::protein(), 900, 0.7, 3).unwrap();
    let recorder = Arc::new(Recorder::new());
    let metrics = Metrics::with_recorder(Arc::clone(&recorder));
    let cfg = FastLsaConfig::new(4, 1 << 14);
    let result = fastlsa::core::align_affine(&a, &b, &scheme, cfg, &metrics).unwrap();
    assert_eq!(result.path.score(&a, &b, &scheme), result.score);
    let (trace, snap) = (recorder.snapshot(), metrics.snapshot());

    let mut spans: Vec<(u64, u64, SpanKind)> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { kind, .. } => Some((e.start_ns, e.end_ns, kind)),
            _ => None,
        })
        .collect();
    // Parents sort before their children: by start, longest first.
    spans.sort_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
    let mut open: Vec<u64> = Vec::new();
    for &(start, end, kind) in &spans {
        while open.last().is_some_and(|&top| top <= start) {
            open.pop();
        }
        if let Some(&top) = open.last() {
            assert!(
                end <= top,
                "{kind:?} span overlaps its parent without nesting"
            );
        }
        open.push(end);
    }
    let count = |k: SpanKind| spans.iter().filter(|s| s.2 == k).count();
    assert!(count(SpanKind::FillCache) > 0 && count(SpanKind::BaseCase) > 0);
    assert!(count(SpanKind::Traceback) > 0);

    let mut inside = 0u64;
    for e in &trace.events {
        if let EventKind::Kernel { cells, .. } = e.kind {
            let owner = spans.iter().find(|&&(start, end, kind)| {
                kind != SpanKind::Traceback && start <= e.start_ns && e.start_ns <= end
            });
            assert!(
                owner.is_some(),
                "kernel event at {} ns outside every fill span",
                e.start_ns
            );
            inside += cells;
        }
    }
    assert_eq!(inside, snap.cells_computed);
}
