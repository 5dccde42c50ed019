//! Operation and memory accounting.
//!
//! The paper's analytical results (Theorems 1–4) bound the number of DPM
//! entries each algorithm computes and the auxiliary space it uses. Every
//! aligner in this workspace threads a [`Metrics`] through its kernels so
//! those bounds become executable assertions (experiment E11) and so the
//! experiment harness can report cells/bytes next to wall times.
//!
//! Each count is kept once, in a `flsa-metrics` handle: detached by
//! default, the registry's own series after [`Metrics::with_registry`].
//! The export and [`Metrics::snapshot`] therefore read the same atomics,
//! and one [`Metrics::add_cells`] call also logs the trace's kernel event
//! from the same `(cells, backend)` pair. Counters are bumped once per
//! *kernel call* (with the whole rectangle's cell count), not per cell,
//! so the overhead is unmeasurable and the type stays `Sync` for the
//! parallel fills.

use std::sync::Arc;

use flsa_metrics::{names, Counter, Gauge, Registry};
use flsa_trace::Recorder;

use crate::simd::KernelBackend;

/// Shared accounting for one alignment run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Optional event recorder; when present, every kernel call is also
    /// logged as a trace event (so traced cells always equal
    /// `cells_computed` by construction).
    recorder: Option<Arc<Recorder>>,
    /// DPM entries computed by FindScore-phase kernels (fills of any kind).
    cells: Counter,
    /// `cells` split by the backend that computed them, indexed by
    /// `backend as usize` (the order of [`KernelBackend::ALL`] and of
    /// [`names::CELLS_BACKEND_TOTAL`]).
    cells_by_backend: [Counter; KernelBackend::ALL.len()],
    /// Subset of `cells` spent inside base-case (full-matrix) solves —
    /// FastLSA's "useful" work; the rest is grid-cache fill.
    base_cells: Counter,
    /// Kernel invocations (fills), a proxy for recursion overhead.
    kernel_calls: Counter,
    /// FindPath traceback steps (one per path move).
    traceback_steps: Counter,
    /// Currently tracked auxiliary bytes.
    tracked: Gauge,
    /// High-water mark of `tracked`.
    tracked_peak: Gauge,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// DPM entries computed by FindScore-phase kernels.
    pub cells_computed: u64,
    /// Cells computed inside base-case full-matrix solves.
    pub cells_base_case: u64,
    /// FindPath traceback steps.
    pub traceback_steps: u64,
    /// Fill-kernel invocations.
    pub kernel_calls: u64,
    /// Peak tracked auxiliary memory in bytes.
    pub peak_bytes: u64,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Fresh metrics that also log every kernel call to `recorder`.
    pub fn with_recorder(recorder: Arc<Recorder>) -> Self {
        Metrics {
            recorder: Some(recorder),
            ..Metrics::default()
        }
    }

    /// Records every count in `registry`'s own series from now on
    /// (chainable: `Metrics::new().with_registry(&reg)`; bind before
    /// recording). Counters continue from what the registry holds, which
    /// is non-zero only for a resumed run whose registry was seeded with
    /// the killed run's export: [`Metrics::snapshot`] then reports the
    /// whole lineage, as the export does. The tracked-bytes level starts
    /// at 0, since a new `Metrics` holds no tracked allocation.
    pub fn with_registry(self, registry: &Registry) -> Self {
        let tracked = registry.gauge(names::TRACKED_BYTES);
        tracked.set(0);
        Metrics {
            recorder: self.recorder,
            cells: registry.counter(names::CELLS_TOTAL),
            cells_by_backend: names::CELLS_BACKEND_TOTAL.map(|name| registry.counter(name)),
            base_cells: registry.counter(names::CELLS_BASE_CASE_TOTAL),
            kernel_calls: registry.counter(names::KERNEL_CALLS_TOTAL),
            traceback_steps: registry.counter(names::TRACEBACK_STEPS_TOTAL),
            tracked,
            tracked_peak: registry.gauge(names::TRACKED_PEAK_BYTES),
        }
    }

    /// The attached event recorder, if tracing is on. Layers above pass
    /// this down so the disabled path stays a `None` check.
    #[inline]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Records one fill-kernel call that computed `n` DPM entries on
    /// `backend` — the backend that actually ran the fill, which the
    /// calling kernel knows. With a recorder attached, the same pair is
    /// logged as the call's trace event.
    #[inline]
    pub fn add_cells(&self, n: u64, backend: KernelBackend) {
        self.cells.add(n);
        self.cells_by_backend[backend as usize].add(n);
        self.kernel_calls.inc();
        if let Some(r) = &self.recorder {
            r.record_kernel(n, backend.name());
        }
    }

    /// Records `n` DPM entries computed inside a base-case solve (these are
    /// *also* reported through [`Metrics::add_cells`] by the kernel; this
    /// counter just classifies them).
    #[inline]
    pub fn add_base_case_cells(&self, n: u64) {
        self.base_cells.add(n);
    }

    /// Records `n` traceback steps.
    #[inline]
    pub fn add_traceback_steps(&self, n: u64) {
        self.traceback_steps.add(n);
    }

    /// Tracks an auxiliary allocation of `bytes`, returning a guard that
    /// un-tracks it on drop. Algorithms wrap their large buffers (score
    /// matrices, grid caches, tile buffers) in these guards; tiny
    /// allocations (recursion frames, path vectors) are deliberately not
    /// tracked, matching how the paper counts "space".
    pub fn track_alloc(&self, bytes: usize) -> MemGuard<'_> {
        let b = bytes as i64;
        self.tracked_peak.fetch_max(self.tracked.add_get(b));
        MemGuard {
            metrics: self,
            bytes: b,
        }
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cells_computed: self.cells.get(),
            cells_base_case: self.base_cells.get(),
            traceback_steps: self.traceback_steps.get(),
            kernel_calls: self.kernel_calls.get(),
            peak_bytes: self.tracked_peak.get().max(0) as u64,
        }
    }
}

/// RAII guard for one tracked allocation (see [`Metrics::track_alloc`]).
#[derive(Debug)]
pub struct MemGuard<'m> {
    metrics: &'m Metrics,
    bytes: i64,
}

impl Drop for MemGuard<'_> {
    fn drop(&mut self) {
        self.metrics.tracked.sub(self.bytes);
    }
}

impl MetricsSnapshot {
    /// Cells computed per input cell: the paper's "re-computation factor"
    /// (1.0 for FM, ~2.0 for Hirschberg, between 1 and 2 for FastLSA).
    pub fn cell_factor(&self, m: usize, n: usize) -> f64 {
        self.cells_computed as f64 / (m as f64 * n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_cells(100, KernelBackend::Scalar);
        m.add_cells(50, KernelBackend::Scalar);
        m.add_base_case_cells(50);
        m.add_traceback_steps(7);
        let s = m.snapshot();
        assert_eq!(s.cells_computed, 150);
        assert_eq!(s.cells_base_case, 50);
        assert_eq!(s.traceback_steps, 7);
        assert_eq!(s.kernel_calls, 2);
    }

    #[test]
    fn peak_memory_tracks_high_water_mark() {
        let m = Metrics::new();
        {
            let _a = m.track_alloc(1000);
            {
                let _b = m.track_alloc(500);
                assert_eq!(m.snapshot().peak_bytes, 1500);
            }
            let _c = m.track_alloc(100);
            // Peak stays at the high-water mark even after frees.
            assert_eq!(m.snapshot().peak_bytes, 1500);
        }
        let _d = m.track_alloc(200);
        assert_eq!(m.snapshot().peak_bytes, 1500);
    }

    #[test]
    fn cell_factor_normalizes_by_problem_area() {
        let m = Metrics::new();
        m.add_cells(200, KernelBackend::Scalar);
        assert!((m.snapshot().cell_factor(10, 10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Metrics>();
    }

    #[test]
    fn binding_a_seeded_registry_restarts_tracked_bytes_at_zero() {
        // A resumed run seeds its registry with the killed run's export,
        // whose tracked-bytes level was whatever was live at the kill.
        let reg = Registry::new();
        reg.gauge(names::TRACKED_BYTES).set(5_538_976);
        let m = Metrics::new().with_registry(&reg);
        {
            let _g = m.track_alloc(1000);
            assert_eq!(reg.snapshot().gauge(names::TRACKED_BYTES), Some(1000));
        }
        assert_eq!(reg.snapshot().gauge(names::TRACKED_BYTES), Some(0));
    }

    #[test]
    fn recorder_sees_every_kernel_call() {
        let recorder = Arc::new(Recorder::new());
        let m = Metrics::with_recorder(Arc::clone(&recorder));
        m.add_cells(64, KernelBackend::Scalar);
        m.add_cells(36, KernelBackend::Avx2);
        let trace = recorder.snapshot();
        assert_eq!(trace.kernel_cells(), m.snapshot().cells_computed);
        assert_eq!(trace.events.len(), m.snapshot().kernel_calls as usize);
    }
}
