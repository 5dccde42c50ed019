//! **FastLSA** — the paper's primary contribution: a fast, linear-space,
//! parallel and sequential algorithm for pairwise sequence alignment
//! (Driga, Lu, Schaeffer, Szafron, Charter, Parsons; ICPP 2003).
//!
//! FastLSA produces exactly the same optimal alignment as the
//! full-matrix (Needleman–Wunsch) and Hirschberg algorithms for a given
//! scoring function; it differs in the space/computation trade-off:
//!
//! | algorithm | space | cells computed |
//! |---|---|---|
//! | full matrix | `O(m·n)` | `m·n` |
//! | Hirschberg | `O(min(m,n))` | ≈ `2·m·n` |
//! | FastLSA(`k`, `BM`) | `O(k·(m+n)) + BM` | ≤ `m·n·(k/(k−1))²`, →`m·n` as `BM` grows |
//!
//! # Quick start
//!
//! ```
//! use fastlsa_core::{align, FastLsaConfig};
//! use flsa_dp::Metrics;
//! use flsa_scoring::ScoringScheme;
//! use flsa_seq::Sequence;
//!
//! // The paper's worked example (Table 1 scoring, gap -10).
//! let scheme = ScoringScheme::paper_example();
//! let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
//! let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
//! let metrics = Metrics::new();
//! let result = align(&a, &b, &scheme, &metrics).unwrap();
//! assert_eq!(result.score, 82);
//!
//! // Tune for a memory budget, or run the parallel version:
//! let cfg = FastLsaConfig::for_memory(8 << 20, a.len(), b.len()).with_threads(4);
//! let result2 = fastlsa_core::align_with(&a, &b, &scheme, cfg, &Metrics::new()).unwrap();
//! assert_eq!(result2.score, 82);
//! ```
//!
//! # Failure model
//!
//! Every `align*` entry point returns `Result<_, `[`AlignError`]`>`; no
//! panic escapes the public API. [`align_opts`] additionally accepts
//! [`AlignOptions`] — a byte budget enforced by the [`MemoryGovernor`],
//! a [`CancelToken`] with optional deadline, and fault-injection hooks —
//! and on a refused allocation automatically retries down the
//! degradation ladder (see [`next_rung`]), recording each step as a
//! trace event so `flsa report` can show what degraded and why.

pub mod affine;
pub mod cancel;
pub mod checkpoint;
pub mod config;
pub mod costlog;
pub mod error;
pub mod governor;
pub mod grid;
mod metrics;
pub mod model;
mod parallel;
mod solver;

pub use affine::align_affine;
pub use cancel::CancelToken;
pub use checkpoint::{CheckpointPolicy, CheckpointSink, CheckpointState, FrameState, GridState};
pub use config::{FastLsaConfig, ParallelConfig};
pub use costlog::{CostEvent, CostLog};
pub use error::{AlignError, ConfigError};
pub use governor::{
    degradation_ladder, next_rung, AlignOptions, FaultHooks, MemoryGovernor, MIN_BASE_CELLS,
};
pub use model::{replay, replay_with_comm, ReplayReport};

// Kernel dispatch re-exports so callers can populate
// [`AlignOptions::kernel`] without depending on `flsa-dp` directly.
pub use flsa_dp::{BatchKernel, KernelArena, KernelBackend};

use flsa_dp::{AlignResult, BatchJob, Kernel, Metrics};
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;
use flsa_trace::{DegradeReason, EventKind};

/// Aligns two sequences with the default configuration
/// ([`FastLsaConfig::default`]: sequential, `k = 8`, 4 MiB base buffer).
///
/// # Errors
///
/// As for [`align_opts`]; in particular an affine scheme returns
/// [`ConfigError::GapModelNotLinear`] before any work.
pub fn align(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    align_with(a, b, scheme, FastLsaConfig::default(), metrics)
}

/// Aligns two sequences with an explicit configuration (sequential or
/// parallel).
///
/// # Errors
///
/// As for [`align_opts`]; in particular an affine scheme returns
/// [`ConfigError::GapModelNotLinear`] before any work.
pub fn align_with(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    align_opts(a, b, scheme, config, &AlignOptions::default(), metrics)
}

/// Aligns two sequences under a memory budget, cancellation token, and
/// (for testing) fault-injection hooks.
///
/// On [`AlignError::AllocFailed`] the run is retried with the next rung
/// of the degradation ladder (halved `base_cells`, then halved `k`, down
/// to the Hirschberg-style minimal footprint); on
/// [`AlignError::WorkerPanic`] the retry strips parallelism. Every retry
/// is recorded as an [`EventKind::Degrade`] trace event when a recorder
/// is attached. Other errors — and failures at the bottom of the ladder
/// — are returned to the caller.
///
/// # Errors
///
/// Before any work: [`ConfigError::GapModelNotLinear`] for an affine
/// scheme (use [`align_affine`]), the other [`ConfigError`]s of
/// [`FastLsaConfig::validate_run`], and
/// [`ConfigError::KernelUnavailable`]. During the run:
/// [`AlignError::AlphabetMismatch`], [`AlignError::AllocFailed`] at the
/// bottom of the ladder, [`AlignError::Cancelled`],
/// [`AlignError::CheckpointSave`], and [`AlignError::WorkerPanic`] when
/// no rung is left to retry on.
pub fn align_opts(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    opts: &AlignOptions,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    require_linear(scheme)?;
    config.validate_run(scheme, a.len(), b.len())?;
    validate_kernel(opts)?;
    run_ladder(scheme, config, opts, metrics, |solver| solver.run(a, b))
}

/// Continues an interrupted run from a [`CheckpointState`] snapshot.
///
/// The snapshot is validated structurally against the input dimensions
/// (digest/CRC validation happens in the serialization layer before the
/// state ever reaches this function); any inconsistency is returned as
/// [`AlignError::CorruptCheckpoint`] — never a wrong alignment. The run
/// restarts under the snapshot's own configuration (which may already be
/// a degraded rung) and keeps degrading from there on further faults:
/// frames are self-describing, so a retry with a smaller `base_cells` or
/// `k` reuses every already-filled grid cache and only shapes *future*
/// frames differently.
///
/// # Errors
///
/// As for [`align_opts`] (an affine scheme returns
/// [`ConfigError::GapModelNotLinear`] before any work), plus
/// [`AlignError::CorruptCheckpoint`] for a snapshot that does not fit the
/// inputs.
pub fn align_resume(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    state: CheckpointState,
    opts: &AlignOptions,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    require_linear(scheme)?;
    state.config.validate_run(scheme, a.len(), b.len())?;
    validate_kernel(opts)?;
    run_ladder(scheme, state.config, opts, metrics, |solver| {
        solver.resume(a, b, state.clone())
    })
}

/// The degradation ladder shared by [`align_opts`] and [`align_resume`]:
/// runs one attempt (`attempt` on a fresh solver) per rung, starting at
/// `config`. On [`AlignError::AllocFailed`] the next attempt takes the
/// next rung (see [`next_rung`]); on [`AlignError::WorkerPanic`] it
/// strips parallelism. This is the one place a step is recorded: the
/// [`flsa_metrics::names::DEGRADE_STEPS_TOTAL`] counter, an
/// [`EventKind::Degrade`] trace event, and the checkpoint sink's degrade
/// note.
fn run_ladder(
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    opts: &AlignOptions,
    metrics: &Metrics,
    mut attempt: impl FnMut(&mut solver::Solver<'_>) -> Result<AlignResult, AlignError>,
) -> Result<AlignResult, AlignError> {
    let mut cfg = config;
    let mut rung: u32 = 0;
    loop {
        let err = match attempt(&mut solver::Solver::new(scheme, cfg, metrics, opts)) {
            Ok(r) => return Ok(r),
            Err(e) => e,
        };
        let (reason, next) = match &err {
            AlignError::AllocFailed { .. } => (DegradeReason::AllocFailed, next_rung(&cfg)),
            AlignError::WorkerPanic if cfg.threads() > 1 => (
                DegradeReason::WorkerPanic,
                Some(FastLsaConfig {
                    parallel: None,
                    ..cfg
                }),
            ),
            _ => return Err(err),
        };
        let Some(next) = next else {
            // Bottom of the ladder: give the caller the real failure.
            return Err(err);
        };
        rung += 1;
        if let Some(reg) = &opts.registry {
            reg.counter(flsa_metrics::names::DEGRADE_STEPS_TOTAL).inc();
        }
        if let Some(r) = metrics.recorder() {
            let now = r.now_ns();
            r.record(
                now,
                now,
                EventKind::Degrade {
                    reason,
                    rung,
                    k: next.k as u32,
                    base_cells: next.base_cells as u64,
                    threads: next.threads() as u32,
                },
            );
        }
        if let Some(p) = &opts.checkpoint {
            p.sink.note_degrade(reason.name(), rung, &next);
        }
        cfg = next;
    }
}

/// Aligns many **independent** pairs at once on the inter-sequence
/// [`BatchKernel`] (one pair per SIMD lane), under a shared linear-gap
/// scoring scheme.
///
/// Results come back in input order and are **bit-identical** to aligning
/// each pair alone with [`align`]: the batch kernel runs `i16` lanes with
/// saturation detection and transparently recomputes any lane whose
/// scores leave the exact range on the single-pair `i32` path. Pairs too
/// long or too wide-scoring for `i16` simply take the single-pair path —
/// batching is a throughput optimization, never a semantics change.
///
/// Unlike the FastLSA entry points this holds each pair's full direction
/// matrix (`m·n` bytes per lane), so it is meant for the many-small-pairs
/// regime (database search, service request coalescing), not for two
/// megabase genomes. `opts` contributes the kernel-backend override
/// ([`AlignOptions::kernel`]); budget/cancel/checkpoint options do not
/// apply to batch jobs.
///
/// # Errors
///
/// Before any pair is aligned: [`ConfigError::GapModelNotLinear`] for an
/// affine scheme, [`ConfigError::KernelUnavailable`],
/// [`AlignError::AlphabetMismatch`], and [`ConfigError::ScoreOverflow`]
/// for a pair whose span exceeds [`ScoringScheme::max_safe_span`].
pub fn align_batch(
    pairs: &[(&Sequence, &Sequence)],
    scheme: &ScoringScheme,
    opts: &AlignOptions,
    metrics: &Metrics,
) -> Result<Vec<AlignResult>, AlignError> {
    require_linear(scheme)?;
    validate_kernel(opts)?;
    let max_span = scheme.max_safe_span();
    for (a, b) in pairs {
        for s in [a, b] {
            if s.alphabet() != scheme.alphabet() {
                return Err(AlignError::AlphabetMismatch {
                    expected: scheme.alphabet().name().to_string(),
                    found: s.alphabet().name().to_string(),
                });
            }
        }
        let span = a.len().saturating_add(b.len());
        if span > max_span {
            return Err(ConfigError::ScoreOverflow { span, max_span }.into());
        }
    }
    let kernel = match opts.kernel {
        // validate_kernel above already rejected unavailable backends.
        Some(b) => Kernel::try_new(b).map_err(|e| ConfigError::KernelUnavailable {
            backend: e.backend.name(),
        })?,
        None => Kernel::auto(),
    };
    let batch = BatchKernel::new(kernel);
    let jobs: Vec<BatchJob<'_>> = pairs
        .iter()
        .map(|(a, b)| BatchJob {
            a: a.codes(),
            b: b.codes(),
            scheme,
        })
        .collect();
    Ok(batch.align_batch(&jobs, metrics))
}

/// Rejects an affine scheme on the linear-gap entry points, whose solver
/// and batch kernel price every gap symbol with one
/// [`GapModel::linear_penalty`].
fn require_linear(scheme: &ScoringScheme) -> Result<(), ConfigError> {
    match scheme.gap() {
        GapModel::Linear { .. } => Ok(()),
        GapModel::Affine { .. } => Err(ConfigError::GapModelNotLinear),
    }
}

/// Rejects an explicitly requested kernel backend that this CPU cannot
/// run (auto-detection, `opts.kernel = None`, never fails).
fn validate_kernel(opts: &AlignOptions) -> Result<(), ConfigError> {
    match opts.kernel {
        Some(b) if !b.is_available() => Err(ConfigError::KernelUnavailable { backend: b.name() }),
        _ => Ok(()),
    }
}

/// Like [`align_with`], additionally returning the execution trace for
/// schedule replay (experiments E7/E8; see [`model::replay`]).
///
/// # Errors
///
/// As for [`align_with`], without the degradation ladder: an affine
/// scheme returns [`ConfigError::GapModelNotLinear`] before any work, and
/// a run-time fault is returned as it happens.
pub fn align_traced(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    metrics: &Metrics,
) -> Result<(AlignResult, CostLog), AlignError> {
    require_linear(scheme)?;
    config.validate_run(scheme, a.len(), b.len())?;
    let mut solver = solver::Solver::new(scheme, config, metrics, &AlignOptions::default());
    let result = solver.run(a, b)?;
    Ok((result, std::mem::take(&mut solver.log)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_fullmatrix::needleman_wunsch;
    use flsa_hirschberg::hirschberg;
    use flsa_seq::generate::homologous_pair;
    use flsa_seq::Alphabet;

    fn paper_pair() -> (Sequence, Sequence, ScoringScheme) {
        let scheme = ScoringScheme::paper_example();
        let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
        (a, b, scheme)
    }

    #[test]
    fn paper_example_scores_82() {
        let (a, b, scheme) = paper_pair();
        let metrics = Metrics::new();
        let r = align(&a, &b, &scheme, &metrics).unwrap();
        assert_eq!(r.score, 82);
        assert_eq!(r.path.score(&a, &b, &scheme), 82);
    }

    #[test]
    fn paper_example_with_tiny_base_case_recurses_and_still_scores_82() {
        let (a, b, scheme) = paper_pair();
        for k in 2..=6 {
            let metrics = Metrics::new();
            let cfg = FastLsaConfig::new(k, 16);
            let r = align_with(&a, &b, &scheme, cfg, &metrics).unwrap();
            assert_eq!(r.score, 82, "k={k}");
        }
    }

    #[test]
    fn agrees_with_nw_and_hirschberg_across_k_and_base() {
        let scheme = ScoringScheme::dna_default();
        for seed in 0..6 {
            let (a, b) = homologous_pair("t", &Alphabet::dna(), 300, 0.8, seed).unwrap();
            let metrics = Metrics::new();
            let nw = needleman_wunsch(&a, &b, &scheme, &metrics);
            let hb = hirschberg(&a, &b, &scheme, &metrics);
            assert_eq!(nw.score, hb.score);
            for k in [2usize, 3, 5, 8] {
                for base in [32usize, 1024, 1 << 20] {
                    let m = Metrics::new();
                    let r = align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &m).unwrap();
                    assert_eq!(r.score, nw.score, "seed={seed} k={k} base={base}");
                    assert_eq!(r.path.score(&a, &b, &scheme), r.score);
                    assert!(r.path.is_global(a.len(), b.len()));
                }
            }
        }
    }

    #[test]
    fn path_identical_to_full_matrix_path() {
        // Shared Diag > Up > Left tie-break: FastLSA recovers the same
        // canonical optimal path as the FM traceback, not just the score.
        let scheme = ScoringScheme::dna_default();
        for seed in 0..4 {
            let (a, b) = homologous_pair("t", &Alphabet::dna(), 257, 0.75, seed + 50).unwrap();
            let metrics = Metrics::new();
            let nw = needleman_wunsch(&a, &b, &scheme, &metrics);
            let r = align_with(&a, &b, &scheme, FastLsaConfig::new(4, 256), &metrics).unwrap();
            assert_eq!(nw.path, r.path, "seed={seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 600, 0.8, 99).unwrap();
        let metrics = Metrics::new();
        let seq = align_with(&a, &b, &scheme, FastLsaConfig::new(4, 2048), &metrics).unwrap();
        for threads in [1usize, 2, 3, 4, 8] {
            let m = Metrics::new();
            let cfg = FastLsaConfig::new(4, 2048).with_threads(threads);
            let par = align_with(&a, &b, &scheme, cfg, &m).unwrap();
            assert_eq!(par.score, seq.score, "threads={threads}");
            assert_eq!(par.path, seq.path, "threads={threads}");
            // Same work regardless of thread count.
            assert_eq!(
                m.snapshot().cells_computed,
                metrics.snapshot().cells_computed,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn huge_base_case_degenerates_to_full_matrix() {
        // Paper: if RM > m×n a full-matrix algorithm is used; FastLSA with
        // base_cells covering the whole DPM must compute exactly m·n cells.
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 400, 0.8, 5).unwrap();
        let metrics = Metrics::new();
        let cfg = FastLsaConfig {
            k: 8,
            base_cells: (a.len() + 1) * (b.len() + 1),
            parallel: None,
        };
        align_with(&a, &b, &scheme, cfg, &metrics).unwrap();
        assert_eq!(
            metrics.snapshot().cells_computed,
            (a.len() * b.len()) as u64
        );
    }

    #[test]
    fn measured_cells_obey_theorem_bound() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 1500, 0.8, 11).unwrap();
        for k in [2usize, 4, 8] {
            let base = 4096;
            let metrics = Metrics::new();
            align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
            let measured = metrics.snapshot().cells_computed as f64;
            let bound = model::fastlsa_cells_bound(a.len(), b.len(), k, base);
            // Allow the non-divisible-length rounding slack (DESIGN.md §6).
            assert!(
                measured <= bound * 1.05,
                "k={k}: measured {measured} > bound {bound}"
            );
            // And FastLSA must beat Hirschberg's 2·m·n for k > 2.
            if k > 2 {
                assert!(measured < model::hirschberg_cells(a.len(), b.len()));
            }
        }
    }

    #[test]
    fn memory_grows_with_k_but_stays_linear() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 3000, 0.85, 21).unwrap();
        let base = 1 << 12;
        let mut prev_peak = 0u64;
        for k in [2usize, 4, 8, 16] {
            let metrics = Metrics::new();
            align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
            let peak = metrics.snapshot().peak_bytes;
            let bound = model::fastlsa_space_entries(a.len(), b.len(), k, base) * 4.0;
            assert!(
                peak as f64 <= bound * 1.10,
                "k={k}: peak {peak} > bound {bound}"
            );
            assert!(peak >= prev_peak, "peak should grow with k");
            prev_peak = peak;
            // Far below the quadratic FM footprint.
            let fm = ((a.len() + 1) * (b.len() + 1) * 4) as u64;
            assert!(peak * 10 < fm, "k={k}");
        }
    }

    #[test]
    fn traced_log_accounts_for_all_fill_cells() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 800, 0.8, 31).unwrap();
        let metrics = Metrics::new();
        let (_, log) =
            align_traced(&a, &b, &scheme, FastLsaConfig::new(4, 1024), &metrics).unwrap();
        assert_eq!(log.total_fill_cells(), metrics.snapshot().cells_computed);
        assert_eq!(log.total_trace_steps(), metrics.snapshot().traceback_steps);
    }

    #[test]
    fn asymmetric_and_tiny_inputs() {
        let scheme = ScoringScheme::dna_default();
        let cases = [
            ("", "ACGT"),
            ("ACGT", ""),
            ("A", "A"),
            ("A", "ACGTACGTACGT"),
            ("ACGTACGTACGTACGTACGT", "AC"),
        ];
        for (sa, sb) in cases {
            let a = Sequence::from_str("a", scheme.alphabet(), sa).unwrap();
            let b = Sequence::from_str("b", scheme.alphabet(), sb).unwrap();
            let metrics = Metrics::new();
            let nw = needleman_wunsch(&a, &b, &scheme, &metrics);
            let r = align_with(&a, &b, &scheme, FastLsaConfig::new(2, 8), &metrics).unwrap();
            assert_eq!(r.score, nw.score, "case {sa:?} vs {sb:?}");
        }
    }

    /// Test sink that keeps every captured state in memory.
    struct CaptureSink(std::sync::Mutex<Vec<CheckpointState>>);

    impl CaptureSink {
        fn new() -> std::sync::Arc<Self> {
            std::sync::Arc::new(CaptureSink(std::sync::Mutex::new(Vec::new())))
        }
        fn states(&self) -> Vec<CheckpointState> {
            self.0.lock().unwrap().clone()
        }
    }

    impl CheckpointSink for CaptureSink {
        fn save(&self, state: &CheckpointState) -> Result<u64, String> {
            self.0.lock().unwrap().push(state.clone());
            Ok(0)
        }
    }

    #[test]
    fn resume_from_every_snapshot_reproduces_the_exact_result() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 400, 0.8, 7).unwrap();
        for threads in [1usize, 3] {
            let cfg = FastLsaConfig::new(4, 512).with_threads(threads);
            let reference = align_with(&a, &b, &scheme, cfg, &Metrics::new()).unwrap();

            let sink = CaptureSink::new();
            let opts = AlignOptions {
                checkpoint: Some(checkpoint::CheckpointPolicy::new(1, sink.clone())),
                ..AlignOptions::default()
            };
            let ckpt_run = align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();
            assert_eq!(ckpt_run.score, reference.score);
            assert_eq!(ckpt_run.path, reference.path);

            let states = sink.states();
            assert!(
                states.len() > 5,
                "every_blocks=1 should checkpoint often (got {})",
                states.len()
            );
            // Resuming from ANY intermediate snapshot must land on the
            // same optimal score and path — no work replayed or skipped.
            for (i, state) in states.into_iter().enumerate() {
                let r = align_resume(
                    &a,
                    &b,
                    &scheme,
                    state,
                    &AlignOptions::default(),
                    &Metrics::new(),
                )
                .unwrap();
                assert_eq!(r.score, reference.score, "threads={threads} snapshot {i}");
                assert_eq!(r.path, reference.path, "threads={threads} snapshot {i}");
            }
        }
    }

    #[test]
    fn cancellation_forces_a_final_resumable_snapshot() {
        struct CancelAt {
            at: u64,
            token: CancelToken,
        }
        impl FaultHooks for CancelAt {
            fn on_step(&self, step: u64) {
                if step == self.at {
                    self.token.cancel();
                }
            }
        }
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 350, 0.8, 13).unwrap();
        let cfg = FastLsaConfig::new(4, 256);
        let reference = align_with(&a, &b, &scheme, cfg, &Metrics::new()).unwrap();

        let mut resumed_any = false;
        for cancel_at in [2u64, 5, 9, 14] {
            let token = CancelToken::new();
            let sink = CaptureSink::new();
            let opts = AlignOptions {
                cancel: Some(token.clone()),
                hooks: Some(std::sync::Arc::new(CancelAt {
                    at: cancel_at,
                    token: token.clone(),
                })),
                // Cadence so sparse that only the forced final snapshot
                // can realistically fire before the cancellation point.
                checkpoint: Some(checkpoint::CheckpointPolicy::new(u64::MAX, sink.clone())),
                ..AlignOptions::default()
            };
            let err = align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap_err();
            assert_eq!(err, AlignError::Cancelled);
            let Some(state) = sink.states().pop() else {
                // Cancelled before any frame existed; nothing to resume.
                continue;
            };
            resumed_any = true;
            let r = align_resume(
                &a,
                &b,
                &scheme,
                state,
                &AlignOptions::default(),
                &Metrics::new(),
            )
            .unwrap();
            assert_eq!(r.score, reference.score, "cancel_at={cancel_at}");
            assert_eq!(r.path, reference.path, "cancel_at={cancel_at}");
        }
        assert!(resumed_any, "no cancellation produced a snapshot");
    }

    #[test]
    fn corrupt_states_are_rejected_structurally() {
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 200, 0.8, 3).unwrap();
        let sink = CaptureSink::new();
        let opts = AlignOptions {
            checkpoint: Some(checkpoint::CheckpointPolicy::new(1, sink.clone())),
            ..AlignOptions::default()
        };
        let cfg = FastLsaConfig::new(4, 256);
        align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();
        let state = sink.states().pop().unwrap();

        type Mutation = Box<dyn Fn(&mut CheckpointState)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(|s| s.frames.clear()),
            Box::new(|s| s.frames[0].rows += 1),
            Box::new(|s| s.frames[0].head.1 = s.frames[0].cols + 1),
            Box::new(|s| s.frames[0].top.pop().map(|_| ()).unwrap_or(())),
            Box::new(|s| {
                if let Some(g) = &mut s.frames[0].grid {
                    g.rows_cache.pop();
                }
            }),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut bad = state.clone();
            mutate(&mut bad);
            let err = align_resume(
                &a,
                &b,
                &scheme,
                bad,
                &AlignOptions::default(),
                &Metrics::new(),
            )
            .unwrap_err();
            assert!(
                matches!(err, AlignError::CorruptCheckpoint { .. }),
                "mutation {i}: got {err:?}"
            );
        }
    }

    #[test]
    fn registry_attached_run_exports_engine_counters() {
        use flsa_metrics::{names, Registry};
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 300, 0.8, 17).unwrap();
        let reg = std::sync::Arc::new(Registry::new());
        let metrics = Metrics::new().with_registry(&reg);
        let opts = AlignOptions {
            registry: Some(reg.clone()),
            ..AlignOptions::default()
        };
        let cfg = FastLsaConfig::new(4, 256).with_threads(3);
        align_opts(&a, &b, &scheme, cfg, &opts, &metrics).unwrap();

        let snap = reg.snapshot();
        // Engine-level state: blocks, depth, steps, phase back to idle.
        assert!(snap.counter(names::BLOCKS_FILLED_TOTAL).unwrap() > 0);
        assert!(snap.counter(names::SOLVER_STEPS_TOTAL).unwrap() > 0);
        assert!(snap.gauge(names::RECURSION_DEPTH_PEAK).unwrap() >= 1);
        assert_eq!(snap.gauge(names::PHASE), Some(names::PHASE_IDLE));
        assert_eq!(
            snap.gauge(names::RUN_CELLS_EXPECTED),
            Some((a.len() * b.len()) as i64)
        );
        // Governor peak tracked; wavefront occupancy recorded.
        assert!(snap.gauge(names::MEM_PEAK_BYTES).unwrap() > 0);
        assert!(snap.counter(names::TILES_TOTAL).unwrap() > 0);
        assert_eq!(snap.gauge(names::TILES_INFLIGHT), Some(0));
        // Every reservation, the base-case buffer and the arena charge
        // included, went back to the governor.
        assert_eq!(snap.gauge(names::MEM_RESERVED_BYTES), Some(0));
        // Registered lazily on the first degrade, so absent on a clean run.
        assert_eq!(snap.counter(names::DEGRADE_STEPS_TOTAL), None);
    }

    #[test]
    fn degradation_ladder_steps_are_counted() {
        use flsa_metrics::{names, Registry};
        let scheme = ScoringScheme::dna_default();
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 200, 0.8, 23).unwrap();
        let reg = std::sync::Arc::new(Registry::new());
        // A budget too small for the initial base buffer but workable
        // further down the ladder forces at least one degrade step.
        let opts = AlignOptions {
            budget_bytes: Some(64 << 10),
            registry: Some(reg.clone()),
            ..AlignOptions::default()
        };
        let cfg = FastLsaConfig::new(4, 1 << 20);
        let reference =
            align_with(&a, &b, &scheme, FastLsaConfig::new(4, 256), &Metrics::new()).unwrap();
        let r = align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();
        assert_eq!(r.score, reference.score);
        let snap = reg.snapshot();
        assert!(snap.counter(names::DEGRADE_STEPS_TOTAL).unwrap() >= 1);
        assert!(snap.counter(names::MEM_REFUSED_TOTAL).unwrap() >= 1);
    }

    #[test]
    fn batch_api_matches_single_pair_alignment() {
        let scheme = ScoringScheme::dna_default();
        let pairs: Vec<(Sequence, Sequence)> = (0..11)
            .map(|seed| {
                homologous_pair("t", &Alphabet::dna(), 80 + seed * 7, 0.8, seed as u64).unwrap()
            })
            .collect();
        let refs: Vec<(&Sequence, &Sequence)> = pairs.iter().map(|(a, b)| (a, b)).collect();
        let got = align_batch(&refs, &scheme, &AlignOptions::default(), &Metrics::new()).unwrap();
        assert_eq!(got.len(), pairs.len());
        for ((a, b), r) in pairs.iter().zip(&got) {
            let want = align(a, b, &scheme, &Metrics::new()).unwrap();
            assert_eq!(r.score, want.score);
            assert_eq!(r.path, want.path);
        }
    }

    #[test]
    fn batch_api_rejects_bad_alphabet_and_unavailable_kernel() {
        let scheme = ScoringScheme::dna_default();
        let p = Sequence::from_str("p", &Alphabet::protein(), "ACD").unwrap();
        let d = Sequence::from_str("d", scheme.alphabet(), "ACGT").unwrap();
        let err = align_batch(
            &[(&d, &p)],
            &scheme,
            &AlignOptions::default(),
            &Metrics::new(),
        )
        .unwrap_err();
        assert!(matches!(err, AlignError::AlphabetMismatch { .. }));
    }

    #[test]
    fn protein_scoring_matches_baselines() {
        let scheme = ScoringScheme::protein_default();
        let (a, b) = homologous_pair("t", &Alphabet::protein(), 350, 0.7, 77).unwrap();
        let metrics = Metrics::new();
        let nw = needleman_wunsch(&a, &b, &scheme, &metrics);
        let r = align_with(&a, &b, &scheme, FastLsaConfig::new(6, 512), &metrics).unwrap();
        assert_eq!(r.score, nw.score);
    }
}
