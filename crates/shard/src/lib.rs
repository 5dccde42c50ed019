//! **flsa-shard** — fault-tolerant multi-process sharded FastLSA
//! execution (DESIGN.md §15).
//!
//! A [`coordinator`] owns the grid cache and farms Fill-Cache and
//! Base-Case block tasks out to worker *processes* over the `FLSASHD2`
//! pipe [`protocol`] (frames of the same CRC32 codec as checkpoints and
//! `flsa serve`, `flsa_checkpoint::wire`). The [`worker`] side is
//! deliberately dumb — read task, [`compute`], write result — because
//! all fault tolerance lives on the coordinator's side of the pipe:
//!
//! - per-task **deadlines** and **heartbeats** detect dead, hung, and
//!   wedged workers;
//! - failed tasks are **reassigned** with bounded backoff, and a task
//!   that keeps failing runs **in-process** on the coordinator;
//! - repeatedly-failing worker slots are **quarantined**, and when
//!   every slot is gone the run degrades to sequential in-process
//!   execution (or a typed [`ShardError::NoWorkers`]);
//! - CRC-failing or semantically invalid results burn the offending
//!   worker's trust and are recomputed.
//!
//! The headline guarantee: [`align_sharded`] is **byte-identical** to
//! the sequential engine's output under *any* mix of worker failures —
//! the chaos matrix in `flsa_fault::shard` kills, hangs, corrupts, and
//! stalls workers at every wavefront phase and asserts exactly that.

#![forbid(unsafe_code)]

pub mod compute;
pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{align_sharded, ShardError, ShardOptions, ShardPolicy};
pub use protocol::{Frame, TaskKind, TaskOutput, TaskSpec};
pub use worker::{WorkerFault, WorkerOptions};
