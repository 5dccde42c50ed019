//! FastLSA tuning parameters.
//!
//! The paper's central claim is that FastLSA *adapts to the amount of
//! space available*: the grid division factor `k` and the Base Case
//! buffer size `BM` trade memory for recomputation. [`FastLsaConfig`]
//! carries both, plus the parallel-execution knobs of §5.

use flsa_scoring::{GapModel, ScoringScheme};

use crate::error::ConfigError;

/// Parallel execution parameters (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads `P` (1 = sequential execution through the parallel
    /// code path).
    pub threads: usize,
    /// Tile subdivision factor `f`: every Fill Cache step tiles each grid
    /// block `f × f`, giving an `R × C = k·f × k·f` tile wavefront
    /// (Fig. 13's `u = v = f`). Larger `f` improves load balance at the
    /// cost of more synchronization and tile-boundary storage.
    pub tiles_per_block: usize,
}

impl ParallelConfig {
    /// A sensible default for `threads` workers: `f` chosen so each
    /// wavefront has roughly `2·P` tiles in the saturated phase.
    /// `threads == 0` is rejected by [`FastLsaConfig::validate`].
    pub fn for_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            tiles_per_block: (2 * threads).div_ceil(8).max(1),
        }
    }
}

/// FastLSA configuration (paper §3: `k`, `BM`; §5: parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLsaConfig {
    /// Grid division factor: each general-case rectangle is split into
    /// `k × k` blocks (`k ≥ 2`). Larger `k` stores more grid lines and
    /// recomputes less (the `(k/(k−1))²` factor of Theorem 2).
    pub k: usize,
    /// Base Case buffer size `BM` in DPM entries: sub-problems with
    /// `(rows+1)·(cols+1) ≤ base_cells` are solved with the full-matrix
    /// algorithm. As in the paper, the buffer is reserved once per run
    /// and reused by every base case; a run reserves at most its pair's
    /// whole `(m+1)·(n+1)` matrix, never zero-fills the reservation, and
    /// grows it through the memory governor only for a base case thinner
    /// than 2 rows or columns that exceeds `BM`.
    pub base_cells: usize,
    /// Parallel execution; `None` = the sequential algorithm of §3.
    pub parallel: Option<ParallelConfig>,
}

impl Default for FastLsaConfig {
    /// `k = 8` (the paper's experiments find moderate `k` best), a 1 Mi-entry
    /// (4 MiB) base-case buffer — roughly a processor-cache-sized footprint,
    /// matching the paper's guidance to size `BM` for cache — and
    /// sequential execution.
    fn default() -> Self {
        FastLsaConfig {
            k: 8,
            base_cells: 1 << 20,
            parallel: None,
        }
    }
}

impl FastLsaConfig {
    /// Sequential configuration with explicit `k` and base buffer. The
    /// value is not checked here; the `align*` entry points (and
    /// [`FastLsaConfig::validate`]) reject invalid configurations with
    /// [`ConfigError`] instead of panicking.
    pub fn new(k: usize, base_cells: usize) -> Self {
        FastLsaConfig {
            k,
            base_cells,
            parallel: None,
        }
    }

    /// Adds parallel execution with `threads` workers (default tiling).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallel = Some(ParallelConfig::for_threads(threads));
        self
    }

    /// Adds parallel execution with explicit tiling.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// Checks invariants: `k ≥ 2`, and a parallel config (when present)
    /// has at least one thread and one tile per block.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k < 2 {
            return Err(ConfigError::KTooSmall { k: self.k });
        }
        if let Some(p) = self.parallel {
            if p.threads < 1 {
                return Err(ConfigError::ZeroThreads);
            }
            if p.tiles_per_block < 1 {
                return Err(ConfigError::ZeroTiles);
            }
        }
        Ok(())
    }

    /// Checks [`FastLsaConfig::validate`]'s structural invariants plus
    /// the run-specific ones: the wavefront-parallel fill (`threads > 1`)
    /// runs linear gaps only ([`ConfigError::GapModelNotLinear`]), and
    /// the span `m + n` must not exceed [`ScoringScheme::max_safe_span`],
    /// or a pathological input could wrap cell scores and return a
    /// silently wrong alignment.
    pub fn validate_run(
        &self,
        scheme: &ScoringScheme,
        m: usize,
        n: usize,
    ) -> Result<(), ConfigError> {
        self.validate()?;
        if self.threads() > 1 && matches!(scheme.gap(), GapModel::Affine { .. }) {
            return Err(ConfigError::GapModelNotLinear);
        }
        let span = m.saturating_add(n);
        let max_span = scheme.max_safe_span();
        if span > max_span {
            return Err(ConfigError::ScoreOverflow { span, max_span });
        }
        Ok(())
    }

    /// The paper's memory-adaptive configuration (§3): given a memory
    /// budget of `bytes` for auxiliary storage and the problem size,
    /// choose `k` and `BM`.
    ///
    /// * If the whole DPM fits, FastLSA degenerates to the FM algorithm
    ///   (one base case covering everything) — the paper's
    ///   "`RM > m×n` ⇒ use a full matrix algorithm".
    /// * Otherwise the budget is split between the Base Case buffer and
    ///   the grid caches, choosing the largest `k ≤ 64` whose grid lines
    ///   fit (grid lines across all recursion levels total at most
    ///   `2·(k−1)·(m+n+2)` entries; the factor 2 over-covers the
    ///   geometric level sum).
    pub fn for_memory(bytes: usize, m: usize, n: usize) -> Self {
        let cell_budget = (bytes / std::mem::size_of::<i32>()).max(64);
        let whole = (m + 1).saturating_mul(n + 1);
        if whole <= cell_budget {
            return FastLsaConfig {
                k: 2,
                base_cells: whole,
                parallel: None,
            };
        }
        let grid_budget = cell_budget / 2;
        let per_k_unit = 2 * (m + n + 2); // entries per unit of (k-1), all levels
        let mut k = 2;
        for cand in 3..=64 {
            if (cand - 1) * per_k_unit <= grid_budget {
                k = cand;
            } else {
                break;
            }
        }
        // k = 2 is the structural minimum: its grid lines may exceed a
        // very small budget, in which case base_cells shrinks to the floor
        // and actual use is the k = 2 minimum footprint.
        let grid_cells = (k - 1) * per_k_unit;
        let base_cells = cell_budget.saturating_sub(grid_cells).max(64);
        FastLsaConfig {
            k,
            base_cells,
            parallel: None,
        }
    }

    /// Worker thread count (1 when sequential).
    pub fn threads(&self) -> usize {
        self.parallel.map(|p| p.threads).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_k8() {
        let c = FastLsaConfig::default();
        assert_eq!(c.k, 8);
        assert!(c.parallel.is_none());
        assert_eq!(c.threads(), 1);
        c.validate().unwrap();
    }

    #[test]
    fn k_below_two_rejected() {
        let err = FastLsaConfig::new(1, 1024).validate().unwrap_err();
        assert_eq!(err, ConfigError::KTooSmall { k: 1 });
        assert!(err.to_string().contains("k must be >= 2"));
    }

    #[test]
    fn zero_threads_and_zero_tiles_rejected() {
        let c = FastLsaConfig::default().with_parallel(ParallelConfig {
            threads: 0,
            tiles_per_block: 1,
        });
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroThreads);
        let c = FastLsaConfig::default().with_parallel(ParallelConfig {
            threads: 2,
            tiles_per_block: 0,
        });
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroTiles);
    }

    #[test]
    fn for_memory_degenerates_to_fm_when_everything_fits() {
        let c = FastLsaConfig::for_memory(100 << 20, 1000, 1000);
        assert_eq!(c.base_cells, 1001 * 1001);
    }

    #[test]
    fn for_memory_scales_k_with_budget() {
        let m = 100_000;
        let n = 100_000;
        let tight = FastLsaConfig::for_memory(4 << 20, m, n);
        let roomy = FastLsaConfig::for_memory(256 << 20, m, n);
        assert!(tight.k >= 2);
        assert!(
            roomy.k > tight.k,
            "roomy k {} vs tight k {}",
            roomy.k,
            tight.k
        );
        assert!(roomy.base_cells > tight.base_cells);
        // Neither fits the whole DPM.
        assert!(tight.base_cells < (m + 1) * (n + 1));
    }

    #[test]
    fn for_memory_budget_is_respected() {
        let m = 50_000;
        let n = 50_000;
        // The structural floor: k = 2 grid lines plus the minimum buffer.
        let floor_bytes = (2 * (m + n + 2) + 64) * 4;
        for bytes in [1 << 20, 16 << 20, 64 << 20] {
            let c = FastLsaConfig::for_memory(bytes, m, n);
            let grid_entries = 2 * (c.k - 1) * (m + n + 2);
            let total_bytes = (c.base_cells + grid_entries) * 4;
            assert!(
                total_bytes <= bytes.max(floor_bytes) + (64 * 4),
                "budget {bytes} exceeded: {total_bytes}"
            );
        }
    }

    #[test]
    fn parallel_defaults_scale_tiles_with_threads() {
        let p1 = ParallelConfig::for_threads(1);
        let p16 = ParallelConfig::for_threads(16);
        assert_eq!(p1.tiles_per_block, 1);
        assert!(p16.tiles_per_block >= 2);
    }
}
