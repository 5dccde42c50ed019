//! Crash-safe checkpoint/resume for FastLSA (DESIGN.md §10).
//!
//! The linear-space recursion keeps all of its live state in an explicit
//! frame stack ([`fastlsa_core::CheckpointState`]); this crate gives that
//! state a durable on-disk form:
//!
//! - [`wire`]: the one frame codec (length, tag, CRC32, caps checked
//!   before allocation) that snapshots, shard pipes, serve sockets and
//!   the serve spool all share.
//! - [`format`]: a versioned binary snapshot, one codec frame per
//!   section, embedding the inputs (sequences, scheme digest, config)
//!   next to the recursion state, so a snapshot can be resumed with
//!   nothing but the file — and can *never* be resumed against the
//!   wrong inputs.
//! - [`FileCheckpointSink`]: an atomic, double-buffered file writer
//!   (write temp → fsync → rename) wired into
//!   [`fastlsa_core::AlignOptions::checkpoint`]; a crash mid-write
//!   always leaves the previous valid snapshot behind.
//! - [`resume_from_snapshot`]: the one-call entry point the CLI's
//!   `flsa resume` uses — decode, validate, rebuild, continue.
//!
//! Corruption anywhere — a flipped bit, a truncated file, a swapped
//! input — surfaces as a structured [`CheckpointError`], never a panic
//! and never a silently wrong alignment.
#![forbid(unsafe_code)]

mod format;
mod sink;
pub mod wire;

pub use format::{
    decode, encode, scheme_digest, sequence_digest, DegradeNote, Snapshot, SnapshotMeta,
    FORMAT_VERSION, MAGIC,
};
pub use sink::{read_snapshot, CheckpointMetrics, FileCheckpointSink, MemorySink};

use fastlsa_core::{align_resume, AlignError, AlignOptions};
use flsa_dp::{AlignResult, Metrics};
use flsa_scoring::ScoringScheme;

/// Why a snapshot could not be read or used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes are not a valid snapshot: bad magic, failed CRC,
    /// truncation, or an internally inconsistent recursion state.
    Corrupt(String),
    /// The snapshot is well-formed but belongs to a different run
    /// (scheme digest or alphabet disagrees with the caller's).
    Mismatch(String),
    /// The file could not be read or written.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(d) => write!(f, "corrupt checkpoint: {d}"),
            CheckpointError::Mismatch(d) => write!(f, "checkpoint/input mismatch: {d}"),
            CheckpointError::Io(d) => write!(f, "checkpoint i/o error: {d}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Every codec failure inside a snapshot is corruption.
impl From<wire::WireError> for CheckpointError {
    fn from(e: wire::WireError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

impl From<CheckpointError> for AlignError {
    fn from(e: CheckpointError) -> Self {
        AlignError::CorruptCheckpoint {
            detail: e.to_string(),
        }
    }
}

/// Resumes an interrupted run from a decoded snapshot.
///
/// The caller reconstructs the scoring scheme named in `snapshot.meta`
/// (the digest is verified here); the sequences come out of the snapshot
/// itself. `opts` should carry a fresh checkpoint sink so the resumed
/// run keeps checkpointing.
pub fn resume_from_snapshot(
    snapshot: &Snapshot,
    scheme: &ScoringScheme,
    opts: &AlignOptions,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    let (a, b) = snapshot.sequences(scheme)?;
    align_resume(&a, &b, scheme, snapshot.state.clone(), opts, metrics)
}
