//! Full-matrix (FM) baseline aligners.
//!
//! The paper's FM family (§2.1): algorithms that store the whole dynamic
//! program matrix, minimizing computation (`m·n` cells, zero
//! recomputation) at `O(m·n)` space. These are the baselines FastLSA is
//! measured against and the solver FastLSA itself uses for base-case
//! subproblems.
//!
//! * [`needleman_wunsch`] — global alignment over a full `i32` score
//!   matrix, score-comparison traceback;
//! * [`needleman_wunsch_packed`] — global alignment storing packed 2-bit
//!   directions (¼ byte/entry; the paper's low-memory FM traceback
//!   variant);
//! * [`smith_waterman`] — local alignment (the paper cites
//!   Smith–Waterman as the other canonical FM algorithm);
//! * [`gotoh()`] — affine-gap global alignment (production extension; not
//!   part of the paper's evaluation).
#![forbid(unsafe_code)]

pub mod banded;
pub mod gotoh;
pub mod nw;
pub mod semiglobal;
pub mod sw;

pub use banded::banded_needleman_wunsch;
pub use gotoh::gotoh;
pub use nw::{needleman_wunsch, needleman_wunsch_kernel, needleman_wunsch_packed, nw_score_only};
pub use semiglobal::{semiglobal, EndsFree};
pub use sw::{smith_waterman, LocalAlignResult};
