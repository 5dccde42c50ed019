//! Wavefront (anti-diagonal) tile scheduling substrate.
//!
//! Parallel FastLSA (paper §5, Figures 7 and 13) partitions each Fill
//! Cache / Base Case computation into an `R × C` grid of tiles. Tile
//! `(r, c)` depends on `(r−1, c)` and `(r, c−1)`; tiles on the same
//! anti-diagonal are independent and run in parallel. This crate provides
//! that substrate, decoupled from alignment so it can be tested (and
//! reused) on its own:
//!
//! * [`sync`] — the synchronization shim ([`sync::SyncModel`]): the
//!   primitive surface the protocol is written against, with the real
//!   `parking_lot`/`std::sync::atomic` implementation ([`sync::StdSync`])
//!   for production and an instrumented virtual implementation in the
//!   `flsa-check` model checker;
//! * [`protocol`] — [`protocol::JobCore`], the generic wavefront
//!   scheduling protocol (ready queue + in-degrees + drain counter), with
//!   its checked invariants documented;
//! * [`pool`] — [`pool::WorkerPool`], which runs tile DAGs on persistent
//!   real threads over that protocol;
//! * [`shared`] — [`shared::DisjointBuf`], the guarded shared buffer that
//!   lets tiles write disjoint segments of a common boundary vector;
//! * [`phases`] — the paper's three-phase pipeline census (ramp-up /
//!   saturated / drain) and the Theorem 4 `α` factor;
//! * [`sim`] — a deterministic virtual-processor schedule simulator used
//!   to reproduce the paper's speedup/efficiency figures on hardware with
//!   fewer cores than the paper's testbed (see DESIGN.md §2).

pub mod phases;
pub mod pool;
pub mod protocol;
pub mod shared;
pub mod sim;
pub mod sync;

pub use phases::{alpha_factor, PhaseBreakdown};
pub use pool::{PoolMetrics, WorkerPool};
pub use protocol::{sequential_wavefront, JobCore, JobError};
pub use shared::DisjointBuf;
pub use sim::{simulate_schedule, ScheduleResult};
