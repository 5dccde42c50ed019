//! The memory governor and degradation ladder (DESIGN.md §9).
//!
//! The paper's central claim is that FastLSA *adapts to the amount of
//! memory available*. [`MemoryGovernor`] makes that adaptation a runtime
//! property: every structural allocation (the Base Case buffer, the grid
//! caches, the parallel tile boundaries) goes through fallible
//! reservation against an optional byte budget, and on
//! [`AlignError::AllocFailed`] the driver in [`crate::align_opts`]
//! retries down the ladder FM → FastLSA(smaller `BM`) → FastLSA(smaller
//! `k`) — bottoming out at the Hirschberg-style minimal footprint
//! (`k = 2`, a tiny base buffer) — recording each step as a trace event.

use std::cell::Cell;
use std::sync::Arc;

use flsa_metrics::{names, Counter, Gauge, Registry};

use crate::cancel::CancelToken;
use crate::checkpoint::CheckpointPolicy;
use crate::config::FastLsaConfig;
use crate::error::AlignError;

/// The smallest Base Case buffer the ladder will degrade to: enough for a
/// handful of rows, i.e. the Hirschberg-style footprint where virtually
/// everything is solved by recursion over linear boundaries.
pub const MIN_BASE_CELLS: usize = 64;

/// Deterministic fault-injection hooks, threaded through the solver by
/// [`crate::AlignOptions`]. Production runs pass `None`; the `flsa-fault`
/// harness implements this to inject failures at exact points.
pub trait FaultHooks: Send + Sync {
    /// Called before every governed allocation; returning `true` makes
    /// the allocation fail as if the budget or allocator refused it.
    fn on_alloc(&self, bytes: usize) -> bool {
        let _ = bytes;
        false
    }

    /// Called at the start of every parallel tile; may panic to simulate
    /// a worker fault (the wavefront contains it as a poisoned job).
    fn on_tile(&self, r: usize, c: usize) {
        let _ = (r, c);
    }

    /// Called once per recursion step with a monotone counter; the fault
    /// harness uses it to fire cancellation at an exact step.
    fn on_step(&self, step: u64) {
        let _ = step;
    }
}

/// Options for [`crate::align_opts`]: a byte budget for the governor,
/// a cancellation token, and (for the fault harness) injection hooks.
#[derive(Clone, Default)]
pub struct AlignOptions {
    /// Byte budget for the run's structural allocations; `None` = only
    /// the allocator itself (`try_reserve`) can refuse.
    pub budget_bytes: Option<usize>,
    /// Cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault-injection hooks.
    pub hooks: Option<Arc<dyn FaultHooks>>,
    /// Periodic crash-safe snapshots of the recursion state
    /// (DESIGN.md §10); `None` = no checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// DP kernel backend to use (DESIGN.md §11); `None` = auto-detect
    /// the best available SIMD backend.
    pub kernel: Option<flsa_dp::KernelBackend>,
    /// Metrics registry (DESIGN.md §12); `None` = no metrics are
    /// recorded. The same registry should also be attached to the run's
    /// [`flsa_dp::Metrics`] (via `with_registry`) so the DP-layer
    /// counters land next to the engine's.
    pub registry: Option<Arc<Registry>>,
}

/// Owns the run's byte budget and performs fallible allocation for the
/// solver's structural buffers.
pub struct MemoryGovernor {
    budget: Option<usize>,
    used: Cell<usize>,
    hooks: Option<Arc<dyn FaultHooks>>,
    metrics: Option<GovernorMetrics>,
}

/// Cached registry handles mirroring the governor's budget accounting.
struct GovernorMetrics {
    reserved: Gauge,
    peak: Gauge,
    refused: Counter,
}

impl MemoryGovernor {
    /// A governor with an optional byte budget and no fault hooks.
    pub fn new(budget_bytes: Option<usize>) -> Self {
        MemoryGovernor {
            budget: budget_bytes,
            used: Cell::new(0),
            hooks: None,
            metrics: None,
        }
    }

    pub(crate) fn with_hooks(
        budget_bytes: Option<usize>,
        hooks: Option<Arc<dyn FaultHooks>>,
        registry: Option<&Registry>,
    ) -> Self {
        let metrics = registry.map(|reg| {
            reg.gauge(names::MEM_BUDGET_BYTES)
                .set(budget_bytes.map(|b| b as i64).unwrap_or(0));
            GovernorMetrics {
                reserved: reg.gauge(names::MEM_RESERVED_BYTES),
                peak: reg.gauge(names::MEM_PEAK_BYTES),
                refused: reg.counter(names::MEM_REFUSED_TOTAL),
            }
        });
        MemoryGovernor {
            budget: budget_bytes,
            used: Cell::new(0),
            hooks,
            metrics,
        }
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used.get()
    }

    /// Mirrors the current usage (and its peak) into the registry.
    fn note_usage(&self) {
        if let Some(m) = &self.metrics {
            let used = self.used.get() as i64;
            m.reserved.set(used);
            m.peak.fetch_max(used);
        }
    }

    /// Counts one refused reservation in the registry.
    fn note_refused(&self) {
        if let Some(m) = &self.metrics {
            m.refused.inc();
        }
    }

    /// Charges `len * 4` bytes without allocating (for buffers owned by
    /// other types, e.g. the parallel fill's shared tile boundaries).
    /// Balance with [`MemoryGovernor::release`].
    pub fn reserve_i32(&self, len: usize, what: &'static str) -> Result<(), AlignError> {
        let bytes = len.saturating_mul(std::mem::size_of::<i32>());
        if let Some(h) = &self.hooks {
            if h.on_alloc(bytes) {
                self.note_refused();
                return Err(AlignError::AllocFailed { bytes, what });
            }
        }
        if let Some(budget) = self.budget {
            if self.used.get().saturating_add(bytes) > budget {
                self.note_refused();
                return Err(AlignError::AllocFailed { bytes, what });
            }
        }
        self.used.set(self.used.get() + bytes);
        self.note_usage();
        Ok(())
    }

    /// Fallibly allocates a zeroed `Vec<i32>` of length `len`, charging it
    /// against the budget. Fails via the injection hook, the byte budget,
    /// or the allocator's own `try_reserve`.
    pub fn try_alloc_i32(&self, len: usize, what: &'static str) -> Result<Vec<i32>, AlignError> {
        let mut v = self.try_with_capacity_i32(len, what)?;
        v.resize(len, 0);
        Ok(v)
    }

    /// [`MemoryGovernor::try_alloc_i32`] without the writes: an empty
    /// `Vec<i32>` with capacity for exactly `len` entries, all charged
    /// against the budget up front. The caller fills only what it uses.
    pub fn try_with_capacity_i32(
        &self,
        len: usize,
        what: &'static str,
    ) -> Result<Vec<i32>, AlignError> {
        self.reserve_i32(len, what)?;
        let mut v: Vec<i32> = Vec::new();
        if v.try_reserve_exact(len).is_err() {
            self.release_i32(len);
            let bytes = len.saturating_mul(std::mem::size_of::<i32>());
            return Err(AlignError::AllocFailed { bytes, what });
        }
        Ok(v)
    }

    /// Returns `len * 4` bytes to the budget (the buffer was dropped).
    pub fn release_i32(&self, len: usize) {
        let bytes = len.saturating_mul(std::mem::size_of::<i32>());
        self.used.set(self.used.get().saturating_sub(bytes));
        self.note_usage();
    }

    /// Charges raw bytes against the budget *without* consulting the
    /// fault hooks, returning whether the budget admits them. Used for
    /// opportunistic caches (the kernel arena) whose refusal is handled
    /// by graceful fallback rather than the degradation ladder — routing
    /// them through `on_alloc` would shift the deterministic allocation
    /// counts the fault harness keys on. Balance with
    /// [`MemoryGovernor::release_bytes`].
    pub fn try_charge_bytes(&self, bytes: usize) -> bool {
        if let Some(budget) = self.budget {
            if self.used.get().saturating_add(bytes) > budget {
                self.note_refused();
                return false;
            }
        }
        self.used.set(self.used.get() + bytes);
        self.note_usage();
        true
    }

    /// Returns bytes charged via [`MemoryGovernor::try_charge_bytes`].
    pub fn release_bytes(&self, bytes: usize) {
        self.used.set(self.used.get().saturating_sub(bytes));
        self.note_usage();
    }
}

/// The next rung down the degradation ladder, or `None` at the bottom.
///
/// Order follows the paper's space/recomputation trade-off: first halve
/// the Base Case buffer (`BM` is the dominant term and shrinking it only
/// deepens the recursion), then halve `k` (fewer grid lines per level, at
/// the cost of more recomputation), bottoming out at `k = 2` with a
/// [`MIN_BASE_CELLS`] buffer — the Hirschberg-style minimal footprint.
pub fn next_rung(cfg: &FastLsaConfig) -> Option<FastLsaConfig> {
    if cfg.base_cells > MIN_BASE_CELLS {
        Some(FastLsaConfig {
            base_cells: (cfg.base_cells / 2).max(MIN_BASE_CELLS),
            ..*cfg
        })
    } else if cfg.k > 2 {
        Some(FastLsaConfig {
            k: (cfg.k / 2).max(2),
            ..*cfg
        })
    } else {
        None
    }
}

/// Every configuration [`crate::align_opts`] may retry with, starting
/// from `cfg` itself and ending at the minimal-footprint rung.
pub fn degradation_ladder(cfg: &FastLsaConfig) -> Vec<FastLsaConfig> {
    let mut out = vec![*cfg];
    let mut cur = *cfg;
    while let Some(next) = next_rung(&cur) {
        out.push(next);
        cur = next;
    }
    out
}

/// Per-run fallible-execution context threaded through the solver.
pub(crate) struct RunCtx {
    pub governor: MemoryGovernor,
    pub cancel: Option<CancelToken>,
    pub hooks: Option<Arc<dyn FaultHooks>>,
    /// Monotone recursion-step counter for `FaultHooks::on_step`.
    pub steps: Cell<u64>,
    /// Checkpoint cadence and sink, if the run is checkpointed.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl RunCtx {
    pub fn from_options(opts: &AlignOptions) -> Self {
        RunCtx {
            governor: MemoryGovernor::with_hooks(
                opts.budget_bytes,
                opts.hooks.clone(),
                opts.registry.as_deref(),
            ),
            cancel: opts.cancel.clone(),
            hooks: opts.hooks.clone(),
            steps: Cell::new(0),
            checkpoint: opts.checkpoint.clone(),
        }
    }

    /// Advances the step counter, fires `on_step`, and reports whether
    /// the run is cancelled. Called at every recursion entry.
    pub fn step(&self) -> Result<(), AlignError> {
        let step = self.steps.get();
        self.steps.set(step + 1);
        if let Some(h) = &self.hooks {
            h.on_step(step);
        }
        self.check_cancelled()
    }

    pub fn check_cancelled(&self) -> Result<(), AlignError> {
        match &self.cancel {
            Some(t) if t.is_cancelled() => Err(AlignError::Cancelled),
            _ => Ok(()),
        }
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx::from_options(&AlignOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_refuses_oversized_allocations() {
        let g = MemoryGovernor::new(Some(1024));
        let v = g.try_alloc_i32(128, "small").unwrap();
        assert_eq!(v.len(), 128);
        assert_eq!(g.used_bytes(), 512);
        let err = g.try_alloc_i32(256, "too big").unwrap_err();
        assert!(matches!(err, AlignError::AllocFailed { bytes: 1024, .. }));
        g.release_i32(128);
        assert_eq!(g.used_bytes(), 0);
        g.try_alloc_i32(256, "fits now").unwrap();
    }

    #[test]
    fn with_capacity_charges_the_whole_reservation_and_writes_nothing() {
        let g = MemoryGovernor::new(Some(1024));
        let v = g.try_with_capacity_i32(200, "reserved").unwrap();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), 200);
        assert_eq!(g.used_bytes(), 800);
        let err = g.try_with_capacity_i32(64, "too big").unwrap_err();
        assert!(matches!(err, AlignError::AllocFailed { bytes: 256, .. }));
        assert_eq!(g.used_bytes(), 800, "a refusal charges nothing");
    }

    #[test]
    fn unbudgeted_governor_allocates_freely() {
        let g = MemoryGovernor::new(None);
        let v = g.try_alloc_i32(1 << 16, "big").unwrap();
        assert_eq!(v.len(), 1 << 16);
    }

    #[test]
    fn charge_bytes_respects_budget_but_skips_hooks() {
        struct AlwaysFail;
        impl FaultHooks for AlwaysFail {
            fn on_alloc(&self, _bytes: usize) -> bool {
                true
            }
        }
        let g = MemoryGovernor::with_hooks(Some(1024), Some(Arc::new(AlwaysFail)), None);
        // Hooks refuse every governed allocation…
        assert!(g.try_alloc_i32(8, "hooked").is_err());
        // …but raw charges bypass them and only the budget applies.
        assert!(g.try_charge_bytes(1000));
        assert_eq!(g.used_bytes(), 1000);
        assert!(!g.try_charge_bytes(100), "over budget");
        assert_eq!(g.used_bytes(), 1000, "failed charge leaves usage alone");
        g.release_bytes(1000);
        assert_eq!(g.used_bytes(), 0);
    }

    #[test]
    fn hook_injects_alloc_failure() {
        struct FailSecond(std::sync::atomic::AtomicUsize);
        impl FaultHooks for FailSecond {
            fn on_alloc(&self, _bytes: usize) -> bool {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1
            }
        }
        let g = MemoryGovernor::with_hooks(
            None,
            Some(Arc::new(FailSecond(std::sync::atomic::AtomicUsize::new(0)))),
            None,
        );
        g.try_alloc_i32(8, "first").unwrap();
        assert!(g.try_alloc_i32(8, "second").is_err());
        g.try_alloc_i32(8, "third").unwrap();
    }

    #[test]
    fn ladder_descends_to_minimal_footprint() {
        let cfg = FastLsaConfig {
            k: 8,
            base_cells: 1 << 20,
            parallel: None,
        };
        let ladder = degradation_ladder(&cfg);
        assert_eq!(ladder[0], cfg);
        // Strictly monotone descent: base_cells halves to the floor, then
        // k halves to 2.
        for w in ladder.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                b.base_cells < a.base_cells || b.k < a.k,
                "no progress between rungs"
            );
            assert!(b.base_cells >= MIN_BASE_CELLS);
            assert!(b.k >= 2);
        }
        let bottom = *ladder.last().unwrap();
        assert_eq!(bottom.k, 2);
        assert_eq!(bottom.base_cells, MIN_BASE_CELLS);
        assert!(next_rung(&bottom).is_none());
        // The ladder is bounded: log2 steps in each dimension.
        assert!(ladder.len() < 64);
    }

    #[test]
    fn governor_mirrors_usage_into_the_registry() {
        let reg = Registry::new();
        let g = MemoryGovernor::with_hooks(Some(1024), None, Some(&reg));
        let v = g.try_alloc_i32(128, "small").unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(names::MEM_BUDGET_BYTES), Some(1024));
        assert_eq!(snap.gauge(names::MEM_RESERVED_BYTES), Some(512));
        assert_eq!(snap.gauge(names::MEM_PEAK_BYTES), Some(512));
        assert_eq!(snap.counter(names::MEM_REFUSED_TOTAL), Some(0));

        assert!(g.try_alloc_i32(256, "too big").is_err());
        drop(v);
        g.release_i32(128);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(names::MEM_RESERVED_BYTES), Some(0));
        assert_eq!(snap.gauge(names::MEM_PEAK_BYTES), Some(512), "peak sticks");
        assert_eq!(snap.counter(names::MEM_REFUSED_TOTAL), Some(1));
    }

    #[test]
    fn run_ctx_steps_and_cancels() {
        let token = CancelToken::new();
        let ctx = RunCtx::from_options(&AlignOptions {
            cancel: Some(token.clone()),
            ..AlignOptions::default()
        });
        ctx.step().unwrap();
        ctx.step().unwrap();
        assert_eq!(ctx.steps.get(), 2);
        token.cancel();
        assert_eq!(ctx.step().unwrap_err(), AlignError::Cancelled);
    }
}
