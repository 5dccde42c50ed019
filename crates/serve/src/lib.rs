//! **flsa-serve** — alignment-as-a-service (DESIGN.md §14).
//!
//! A long-running daemon that accepts alignment jobs over a CRC32-framed
//! TCP protocol ([`wire`]) and runs them on the FastLSA
//! engine, composing the robustness machinery the workspace already has
//! into a server that stays correct under overload, worker failure, and
//! crashes:
//!
//! - **Admission control** ([`admission`]): a server-wide
//!   [`fastlsa_core::MemoryGovernor`] holds the byte budget. Jobs are
//!   *never* silently degraded at admission — a job larger than the
//!   whole budget gets a typed `TooLarge` failure, a job that does not
//!   fit *right now* parks in a bounded queue, and a full queue answers
//!   `Overloaded` with a retry-after hint.
//! - **Deadlines**: every request may carry a deadline, mapped onto a
//!   [`fastlsa_core::CancelToken`] that covers queue wait *and* run
//!   time; expiry drains the run cooperatively and surfaces as a typed
//!   `DeadlineExpired` failure.
//! - **Bounded retry**: a panicking worker attempt is contained with
//!   `catch_unwind` and retried with backoff a bounded number of times
//!   before a typed `WorkerPanic` failure is returned.
//! - **Crash safety** ([`spool`]): jobs past a size threshold are
//!   spooled to disk and checkpointed with §10 snapshots; a
//!   SIGKILL'd daemon resumes queued and in-flight work on restart and
//!   completes it byte-identically.
//! - **Graceful drain**: SIGTERM (or a `Shutdown` frame) stops the
//!   listener, lets short in-flight jobs finish, checkpoints long ones,
//!   answers everything still queued with a typed `Draining` error, and
//!   exits cleanly.
//!
//! The failure matrix — which fault produces which wire-level response —
//! is in DESIGN.md §14. Everything here is `std`-only: no async runtime,
//! one reader thread per connection, a fixed worker pool.

pub mod admission;
pub mod client;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod signal;
pub mod spool;
pub mod wire;

pub use admission::Admission;
pub use client::Client;
pub use job::JobSpec;
pub use metrics::ServeMetrics;
pub use server::{DrainSummary, JobHooks, ServeConfig, ServeError, Server};
pub use spool::{Spool, SpoolError};
pub use wire::{AlignFail, AlignOk, AlignRequest, ErrorCode, Frame, WireError};

/// Locks a mutex, recovering from poisoning. Worker threads run
/// user-triggerable code under `catch_unwind`, so a panic between lock
/// and unlock must not wedge the whole daemon: every structure guarded
/// by these mutexes (queue, governor, write side of a connection) is
/// left in a consistent state at each await point, so continuing past a
/// poison marker is safe.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
