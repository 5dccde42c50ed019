//! Dynamic-programming substrate shared by every aligner in the FastLSA
//! reproduction.
//!
//! The paper's algorithms (full-matrix, Hirschberg, FastLSA) all compute
//! the same dynamic-program matrix (DPM) recurrence and differ only in how
//! much of it they *store*. This crate factors the common machinery out:
//!
//! * [`kernel`] — the FindScore recurrences: full-rectangle fill and the
//!   linear-space "last row/column" scan (the paper's `LastRow` routine),
//!   both taking an arbitrary input boundary so they work on any
//!   sub-rectangle of the logical DPM;
//! * [`matrix`] — dense score matrices and the packed 2-bit direction
//!   matrix the paper describes as an FM traceback alternative;
//! * [`boundary`] — input boundaries (cached row + column) for
//!   sub-rectangles;
//! * [`path`] — alignment paths (the FindPath product), validation,
//!   re-scoring, and rendering;
//! * [`traceback`] — the shared backward path-recovery routine with the
//!   deterministic Diag ≻ Up ≻ Left tie-break;
//! * [`affine`] — the affine-gap (Gotoh) fills and stateful traceback,
//!   the one affine recurrence every affine aligner runs on;
//! * [`metrics`] — operation and memory accounting used to verify the
//!   paper's analytical bounds (Theorems 1–4);
//! * [`simd`] — vectorized kernel backends (SSE4.1, AVX2, AVX-512)
//!   behind the [`simd::Kernel`] dispatch handle, bit-identical to
//!   the scalar kernels;
//! * [`batch`] — the inter-sequence [`batch::BatchKernel`]: many small
//!   independent pairs aligned one-pair-per-SIMD-lane with `i16`
//!   saturation-detect fallback, bit-identical to the scalar path;
//! * [`arena`] — the reusable scratch-buffer pool the vectorized kernels
//!   and the block executors draw from.
//!
//! The only `unsafe` in this crate is the `core::arch` intrinsics in
//! `simd/x86.rs`, confined there by `flsa-check` lint rule R6 and guarded
//! by runtime feature detection.

pub mod affine;
pub mod arena;
pub mod batch;
pub mod boundary;
pub mod kernel;
pub mod matrix;
pub mod metrics;
pub mod path;
pub mod result;
pub mod simd;
pub mod traceback;

pub use arena::KernelArena;
pub use batch::{BatchJob, BatchKernel};
pub use boundary::Boundary;
pub use matrix::{DirMatrix, ScoreMatrix};
pub use metrics::{MemGuard, Metrics, MetricsSnapshot};
pub use path::{Alignment, Move, Path, PathBuilder};
pub use result::AlignResult;
pub use simd::{detected_cpu_features, Kernel, KernelBackend, UnsupportedBackend};
