//! Metrics ↔ trace agreement on real runs.
//!
//! Each kernel call is recorded once, by `Metrics::add_cells`, with the
//! backend of the fill that ran (DESIGN.md §12); the registry counters
//! and the trace's kernel events both carry that one record, so their
//! numbers agree *exactly* — total cells, kernel calls, and the
//! per-backend split. The same snapshot must also survive both export
//! formats round-trip, because `flsa resume --metrics` seeds a fresh
//! registry from whichever file the killed run left behind.

use std::sync::Arc;

use fastlsa::dp::{Kernel, KernelBackend};
use fastlsa::hirschberg::{hirschberg_kernel, HirschbergConfig};
use fastlsa::metrics::{names, MetricsSnapshot, Registry};
use fastlsa::prelude::*;
use fastlsa::trace::event::KERNEL_BACKENDS;
use fastlsa::trace::{analyze, Analysis, Recorder};

fn metered_traced_run(threads: usize) -> (Registry, fastlsa::trace::Trace) {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("m", &Alphabet::dna(), 2000, 0.85, 23).unwrap();
    let recorder = Arc::new(Recorder::new());
    let registry = Registry::new();
    let metrics = Metrics::with_recorder(Arc::clone(&recorder)).with_registry(&registry);
    // Same shape rationale as tests/trace_integration.rs: base = 2^17
    // keeps the k=8 sub-blocks large enough for the parallel tiled fill.
    let cfg = FastLsaConfig::new(8, 1 << 17).with_threads(threads);
    let opts = AlignOptions {
        registry: Some(Arc::new(Registry::new())),
        ..AlignOptions::default()
    };
    // The engine-level registry (opts.registry) and the kernel-level one
    // (metrics.with_registry) are deliberately distinct here: this test
    // pins the kernel-side counters against the trace.
    let result = fastlsa::align_opts(&a, &b, &scheme, cfg, &opts, &metrics).unwrap();
    assert_eq!(result.path.score(&a, &b, &scheme), result.score);
    (registry, recorder.snapshot())
}

/// Asserts that the registry's kernel counters equal the trace's kernel
/// events: total cells, calls, and every backend's cells.
fn assert_registry_matches_trace(snap: &MetricsSnapshot, analysis: &Analysis, what: &str) {
    assert_eq!(
        snap.counter(names::CELLS_TOTAL),
        Some(analysis.kernel_cells),
        "{what}: total cells"
    );
    assert_eq!(
        snap.counter(names::KERNEL_CALLS_TOTAL),
        Some(analysis.kernel_events as u64),
        "{what}: kernel calls"
    );
    assert!(!analysis.kernel_backends.is_empty());
    let mut split_sum = 0u64;
    for (name, metric) in names::BACKENDS.iter().zip(names::CELLS_BACKEND_TOTAL) {
        let traced = analysis
            .kernel_backends
            .iter()
            .find(|b| b.backend == *name)
            .map_or(0, |b| b.cells);
        assert_eq!(snap.counter(metric), Some(traced), "{what}: cells[{name}]");
        split_sum += traced;
    }
    assert_eq!(split_sum, analysis.kernel_cells, "{what}: backend split");
}

#[test]
fn per_backend_cell_counts_match_the_trace_exactly() {
    for threads in [1, 4] {
        let (registry, trace) = metered_traced_run(threads);
        assert_registry_matches_trace(
            &registry.snapshot(),
            &analyze(&trace),
            &format!("threads={threads}"),
        );
    }
}

#[test]
fn hirschberg_files_wide_block_cells_under_the_detected_backend() {
    // Hirschberg never configures a backend anywhere: the kernel that
    // runs each fill names it. Its last-row fills and 64×64 FM base
    // cases are wide enough for the vector path, so the detected backend
    // must carry most cells; only sub-16-column fills fall to scalar.
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("h", &Alphabet::dna(), 1500, 0.85, 29).unwrap();
    let recorder = Arc::new(Recorder::new());
    let registry = Registry::new();
    let metrics = Metrics::with_recorder(Arc::clone(&recorder)).with_registry(&registry);
    let kernel = Kernel::auto();
    let r = hirschberg_kernel(
        &a,
        &b,
        &scheme,
        HirschbergConfig::default(),
        &kernel,
        &metrics,
    );
    assert_eq!(r.path.score(&a, &b, &scheme), r.score);

    let snap = registry.snapshot();
    assert_registry_matches_trace(&snap, &analyze(&recorder.snapshot()), "hirschberg");
    let best = KernelBackend::detect_best();
    let cells = |backend: KernelBackend| {
        snap.counter(names::CELLS_BACKEND_TOTAL[backend as usize])
            .unwrap_or(0)
    };
    let total = metrics.snapshot().cells_computed;
    assert!(
        cells(best) * 2 > total,
        "{best}: {} of {total} cells",
        cells(best)
    );
    let vector = if best == KernelBackend::Scalar {
        0
    } else {
        cells(best)
    };
    assert_eq!(
        vector + cells(KernelBackend::Scalar),
        total,
        "cells ran on {best} or, below the vector cutoff, on scalar"
    );
}

#[test]
fn backend_tables_follow_the_kernel_backend_enum() {
    // `Metrics` indexes its per-backend counters by `backend as usize`,
    // and the exports name them through these tables.
    for (i, backend) in KernelBackend::ALL.into_iter().enumerate() {
        assert_eq!(backend as usize, i);
        assert_eq!(names::BACKENDS[i], backend.name());
        assert_eq!(KERNEL_BACKENDS[i], backend.name());
        assert_eq!(
            names::CELLS_BACKEND_TOTAL[i],
            format!(
                "flsa_cells_backend_{}_total",
                backend.name().replace('.', "")
            )
        );
    }
}

#[test]
fn snapshot_survives_both_export_formats() {
    let (registry, _) = metered_traced_run(2);
    let snap = registry.snapshot();

    let from_prom = MetricsSnapshot::parse(&snap.to_prometheus()).unwrap();
    let from_json = MetricsSnapshot::parse(&snap.to_json()).unwrap();
    for back in [&from_prom, &from_json] {
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms.len(), snap.histograms.len());
        for (h0, h1) in snap.histograms.iter().zip(&back.histograms) {
            assert_eq!(h0.name, h1.name);
            assert_eq!(h0.count, h1.count);
            assert_eq!(h0.sum, h1.sum);
            assert_eq!(h0.buckets, h1.buckets);
        }
    }
}

#[test]
fn seeding_a_registry_composes_counters_across_restarts() {
    // A resumed run folds the killed run's export into a fresh registry;
    // counters must add and gauges must carry, and the composed snapshot
    // must again survive an export round-trip.
    let (first, _) = metered_traced_run(1);
    let exported = first.snapshot();

    let resumed = Registry::new();
    resumed.seed(&exported);
    resumed.counter(names::CELLS_TOTAL).add(100);

    let snap = resumed.snapshot();
    assert_eq!(
        snap.counter(names::CELLS_TOTAL),
        exported.counter(names::CELLS_TOTAL).map(|c| c + 100)
    );
    assert!(exported.gauge(names::TRACKED_PEAK_BYTES).unwrap_or(0) > 0);
    assert_eq!(
        snap.gauge(names::TRACKED_PEAK_BYTES),
        exported.gauge(names::TRACKED_PEAK_BYTES)
    );
    let back = MetricsSnapshot::parse(&snap.to_prometheus()).unwrap();
    assert_eq!(back.counters, snap.counters);
}
