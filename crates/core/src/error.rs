//! The alignment error taxonomy (DESIGN.md §9).
//!
//! The public `align*` functions return `Result<_, AlignError>`: no panic
//! escapes the API. Configuration problems are separated into
//! [`ConfigError`] so callers (the CLI in particular) can distinguish
//! "bad request" from "runtime fault".

use flsa_wavefront::JobError;

/// A structurally invalid [`crate::FastLsaConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The grid division factor must be at least 2 (a 1×1 "grid" never
    /// shrinks the problem).
    KTooSmall {
        /// The rejected value.
        k: usize,
    },
    /// A parallel config must have at least one worker thread.
    ZeroThreads,
    /// A parallel config must subdivide each block into at least one tile.
    ZeroTiles,
    /// [`crate::align_affine`] requires [`flsa_scoring::GapModel::Affine`]
    /// (use the linear entry points for linear gaps).
    GapModelNotAffine,
    /// The linear-gap entry points ([`crate::align_opts`] and the
    /// functions built on it, [`crate::align_resume`],
    /// [`crate::align_traced`], [`crate::align_batch`]) require
    /// [`flsa_scoring::GapModel::Linear`] (use [`crate::align_affine`]
    /// for affine gaps).
    GapModelNotLinear,
    /// The combined sequence span `m + n` is large enough that the DP
    /// recurrence could overflow `i32` cell scores under this scoring
    /// scheme (see [`flsa_scoring::ScoringScheme::max_safe_span`] and the audit's R10
    /// overflow certificate).
    ScoreOverflow {
        /// The rejected span `m + n`.
        span: usize,
        /// The largest span the scheme admits.
        max_span: usize,
    },
    /// The requested DP kernel backend is not available on this CPU
    /// (e.g. `avx2` on a machine without AVX2).
    KernelUnavailable {
        /// Name of the rejected backend.
        backend: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::KTooSmall { k } => write!(f, "k must be >= 2 (k = {k})"),
            ConfigError::ZeroThreads => write!(f, "threads must be >= 1"),
            ConfigError::ZeroTiles => write!(f, "tiles_per_block must be >= 1"),
            ConfigError::GapModelNotAffine => {
                write!(f, "align_affine requires GapModel::Affine")
            }
            ConfigError::GapModelNotLinear => write!(
                f,
                "this entry point requires GapModel::Linear (use align_affine for affine gaps)"
            ),
            ConfigError::ScoreOverflow { span, max_span } => write!(
                f,
                "sequence span m + n = {span} exceeds the i32-safe limit {max_span} \
                 for this scoring scheme"
            ),
            ConfigError::KernelUnavailable { backend } => {
                write!(f, "kernel backend {backend} is not available on this CPU")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why an alignment run failed. Produced by the fallible `align*` API;
/// recoverable variants ([`AlignError::AllocFailed`],
/// [`AlignError::WorkerPanic`]) are retried down the degradation ladder by
/// [`crate::align_opts`] before being surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// The configuration was rejected before any work started.
    Config(ConfigError),
    /// The sequences are not encoded in the scoring scheme's alphabet.
    AlphabetMismatch {
        /// Name of the scheme's alphabet.
        expected: String,
        /// Name of the offending sequence's alphabet.
        found: String,
    },
    /// An allocation was refused — by the memory governor's byte budget,
    /// by the allocator (`try_reserve` failed), or by an injected fault.
    AllocFailed {
        /// Size of the refused allocation.
        bytes: usize,
        /// What the allocation was for (e.g. "base-case buffer").
        what: &'static str,
    },
    /// The run was cancelled (explicitly or by deadline) and every
    /// parallel fill drained cleanly before this was returned.
    Cancelled,
    /// A worker panicked inside a parallel tile; the job drained and the
    /// panic payload was contained.
    WorkerPanic,
    /// A checkpoint snapshot could not be written by the configured
    /// [`CheckpointSink`](crate::CheckpointSink). The run is aborted
    /// rather than silently continuing without durability.
    CheckpointSave {
        /// Sink-provided reason (e.g. the I/O error).
        detail: String,
    },
    /// A checkpoint snapshot failed validation — framing/CRC damage,
    /// digest mismatch against the inputs, or structural inconsistency.
    /// Resume refuses to continue: a corrupt snapshot must surface as an
    /// error, never as a wrong alignment.
    CorruptCheckpoint {
        /// What failed to validate.
        detail: String,
    },
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::Config(e) => write!(f, "invalid configuration: {e}"),
            AlignError::AlphabetMismatch { expected, found } => write!(
                f,
                "sequences must be encoded in the scoring scheme's alphabet \
                 (scheme: {expected}, sequence: {found})"
            ),
            AlignError::AllocFailed { bytes, what } => {
                write!(f, "allocation of {bytes} bytes for {what} failed")
            }
            AlignError::Cancelled => write!(f, "alignment cancelled"),
            AlignError::WorkerPanic => write!(f, "a worker panicked during a parallel fill"),
            AlignError::CheckpointSave { detail } => {
                write!(f, "failed to write checkpoint snapshot: {detail}")
            }
            AlignError::CorruptCheckpoint { detail } => {
                write!(f, "checkpoint snapshot rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for AlignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlignError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for AlignError {
    fn from(e: ConfigError) -> Self {
        AlignError::Config(e)
    }
}

impl From<JobError> for AlignError {
    fn from(e: JobError) -> Self {
        match e {
            JobError::TilePanicked => AlignError::WorkerPanic,
            JobError::Cancelled => AlignError::Cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = AlignError::Config(ConfigError::KTooSmall { k: 1 });
        assert!(e.to_string().contains("k must be >= 2"));
        let e = AlignError::AllocFailed {
            bytes: 4096,
            what: "grid cache",
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("grid cache"));
        assert!(AlignError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn job_errors_map_to_align_errors() {
        assert_eq!(
            AlignError::from(JobError::TilePanicked),
            AlignError::WorkerPanic
        );
        assert_eq!(AlignError::from(JobError::Cancelled), AlignError::Cancelled);
    }

    #[test]
    fn config_error_is_the_source() {
        use std::error::Error;
        let e = AlignError::Config(ConfigError::ZeroThreads);
        assert!(e.source().is_some());
        assert!(AlignError::Cancelled.source().is_none());
    }
}
