//! Scoring functions for pairwise alignment.
//!
//! The paper scores alignments with a similarity table (its Table 1 shows a
//! fragment of the PepTool-scaled Dayhoff MDM78 matrix) plus a linear gap
//! penalty of −10. This crate provides:
//!
//! * [`SubstitutionMatrix`] — a dense, alphabet-indexed similarity table,
//! * [`tables`] — built-in matrices (the paper's Table 1 fragment,
//!   BLOSUM62, PAM250, DNA match/mismatch, identity),
//! * [`GapModel`] — linear (the paper's model) and affine (Gotoh
//!   extension) gap penalties,
//! * [`ScoringScheme`] — the bundle every aligner consumes.
#![forbid(unsafe_code)]

pub mod gap;
pub mod matrix;
pub mod parser;
pub mod profile;
pub mod scheme;
pub mod tables;

pub use gap::GapModel;
pub use matrix::SubstitutionMatrix;
pub use parser::{parse_ncbi, to_ncbi, MatrixParseError};
pub use profile::QueryProfile;
pub use scheme::ScoringScheme;
