//! **fastlsa** — a reproduction of *"FastLSA: A Fast, Linear-Space,
//! Parallel and Sequential Algorithm for Sequence Alignment"* (Driga, Lu,
//! Schaeffer, Szafron, Charter, Parsons; ICPP 2003).
//!
//! This facade crate re-exports the whole workspace so downstream users
//! depend on one crate:
//!
//! * [`core`] ([`fastlsa_core`]) — FastLSA itself, sequential and parallel;
//! * [`fullmatrix`] — Needleman–Wunsch / Smith–Waterman / Gotoh baselines;
//! * [`hirschberg`] — the linear-space baseline;
//! * [`seq`] — alphabets, sequences, FASTA, synthetic workloads;
//! * [`scoring`] — substitution matrices and gap models;
//! * [`dp`] — the shared DP kernels, paths and metrics;
//! * [`wavefront`] — the wavefront scheduling substrate;
//! * [`cachesim`] — the cache-hierarchy simulator behind experiment E10;
//! * [`trace`] — the execution-trace recorder, analysis and exporters
//!   behind `flsa align --trace` / `flsa report`;
//! * [`metrics`] — the low-overhead counters/gauges/histograms behind
//!   `flsa align --metrics` / `--progress` (DESIGN.md §12);
//! * [`serve`] — the fault-tolerant alignment daemon behind `flsa serve`
//!   (admission control, deadlines, bounded retry, crash-safe spool;
//!   DESIGN.md §14).
//!
//! # Example
//!
//! ```
//! use fastlsa::prelude::*;
//!
//! let scheme = ScoringScheme::dna_default();
//! let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACGTTACG").unwrap();
//! let b = Sequence::from_str("b", scheme.alphabet(), "ACGTCGTTAACG").unwrap();
//! let metrics = Metrics::new();
//! let result = fastlsa::align(&a, &b, &scheme, &metrics).unwrap();
//! assert_eq!(result.path.score(&a, &b, &scheme), result.score);
//! ```
//!
//! The `align*` entry points are fallible: they return
//! [`AlignError`] instead of panicking, degrade gracefully under a byte
//! budget ([`AlignOptions::budget_bytes`]), and honor cancellation
//! ([`CancelToken`]):
//!
//! ```
//! use fastlsa::prelude::*;
//! use std::time::Duration;
//!
//! let scheme = ScoringScheme::dna_default();
//! let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACGTTACG").unwrap();
//! let b = Sequence::from_str("b", scheme.alphabet(), "ACGTCGTTAACG").unwrap();
//! let opts = AlignOptions {
//!     cancel: Some(CancelToken::with_deadline(Duration::ZERO)),
//!     ..AlignOptions::default()
//! };
//! let err = fastlsa::align_opts(
//!     &a, &b, &scheme, FastLsaConfig::default(), &opts, &Metrics::new(),
//! ).unwrap_err();
//! assert_eq!(err, AlignError::Cancelled);
//! ```
#![forbid(unsafe_code)]

pub use fastlsa_core as core;
pub use flsa_cachesim as cachesim;
pub use flsa_dp as dp;
pub use flsa_fullmatrix as fullmatrix;
pub use flsa_hirschberg as hirschberg;
pub use flsa_metrics as metrics;
pub use flsa_msa as msa;
pub use flsa_scoring as scoring;
pub use flsa_seq as seq;
pub use flsa_serve as serve;
pub use flsa_shard as shard;
pub use flsa_trace as trace;
pub use flsa_wavefront as wavefront;

pub use fastlsa_core::{
    align, align_opts, align_traced, align_with, degradation_ladder, AlignError, AlignOptions,
    CancelToken, ConfigError, FastLsaConfig, FaultHooks, MemoryGovernor, ParallelConfig,
};

/// The names most programs need.
pub mod prelude {
    pub use crate::core::{
        AlignError, AlignOptions, CancelToken, ConfigError, FastLsaConfig, ParallelConfig,
    };
    pub use crate::dp::{AlignResult, Alignment, Metrics, Move, Path};
    pub use crate::scoring::{GapModel, ScoringScheme, SubstitutionMatrix};
    pub use crate::seq::{fasta, generate, workload, Alphabet, Sequence};
}
