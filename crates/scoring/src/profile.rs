//! Query profiles: substitution scores flattened along one sequence.
//!
//! A DP kernel that scores cell `(i, j)` via `matrix.score(a[i-1], b[j-1])`
//! performs a strided 2-D table lookup in its innermost loop. A *query
//! profile* hoists that lookup out of the loop: for a fixed sequence `b`
//! it precomputes, for every alphabet code `c`, the contiguous row
//! `P[c][j] = S(c, b[j])`. A row fill for residue `a[i-1]` then streams
//! `P[a[i-1]]` with unit stride — the form both the autovectorizer and the
//! explicit SIMD kernels in `flsa-dp` want.
//!
//! The profile costs `alphabet.len() × b.len()` i32s, which for the paper's
//! setting (protein alphabet, sequences of a few thousand residues) is a
//! few hundred KB at most and is reused across every row of the rectangle.

use crate::SubstitutionMatrix;

/// Flattened per-code score rows for one fixed sequence.
///
/// `row(c)[j]` equals `matrix.score(c, b[j])` for every code `c` of the
/// matrix's alphabet and every position `j` of the profiled sequence.
///
/// # Examples
///
/// ```
/// use flsa_scoring::{QueryProfile, SubstitutionMatrix};
/// use flsa_seq::Alphabet;
///
/// let m = SubstitutionMatrix::match_mismatch("unit", Alphabet::dna(), 5, -4);
/// let b = [0u8, 1, 2, 3, 0]; // ACGTA
/// let p = QueryProfile::build(&m, &b);
/// assert_eq!(p.row(0), &[5, -4, -4, -4, 5]);
/// assert_eq!(p.row(2)[2], 5);
/// ```
#[derive(Debug, Clone)]
pub struct QueryProfile {
    codes: usize,
    len: usize,
    table: Vec<i32>,
}

impl QueryProfile {
    /// Builds a profile for sequence `b` (alphabet codes) under `matrix`.
    pub fn build(matrix: &SubstitutionMatrix, b: &[u8]) -> Self {
        QueryProfile::build_in(matrix, b, Vec::new())
    }

    /// Like [`QueryProfile::build`], but reuses `storage` for the table so
    /// repeated profile builds (one per recursed block) stay allocation-free
    /// once the storage has grown to its high-water mark. Recover the
    /// storage with [`QueryProfile::into_storage`].
    pub fn build_in(matrix: &SubstitutionMatrix, b: &[u8], mut storage: Vec<i32>) -> Self {
        let codes = matrix.alphabet().len();
        let len = b.len();
        storage.clear();
        storage.resize(codes * len, 0);
        for c in 0..codes {
            let row = &mut storage[c * len..(c + 1) * len];
            for (slot, &bj) in row.iter_mut().zip(b.iter()) {
                *slot = matrix.score(c as u8, bj);
            }
        }
        QueryProfile {
            codes,
            len,
            table: storage,
        }
    }

    /// The contiguous score row for code `c`: `row(c)[j] == S(c, b[j])`.
    #[inline(always)]
    pub fn row(&self, c: u8) -> &[i32] {
        let c = c as usize;
        debug_assert!(c < self.codes, "code {c} outside profile alphabet");
        &self.table[c * self.len..(c + 1) * self.len]
    }

    /// Number of alphabet codes (rows) in the profile.
    pub fn codes(&self) -> usize {
        self.codes
    }

    /// Length of the profiled sequence (columns per row).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the profiled sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the profile table (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<i32>()
    }

    /// Consumes the profile, returning its backing storage for reuse.
    pub fn into_storage(self) -> Vec<i32> {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_seq::Alphabet;

    #[test]
    fn profile_matches_matrix_lookup() {
        let m = crate::tables::blosum62();
        let b: Vec<u8> = (0..m.alphabet().len() as u8).cycle().take(57).collect();
        let p = QueryProfile::build(&m, &b);
        assert_eq!(p.codes(), m.alphabet().len());
        assert_eq!(p.len(), b.len());
        for c in 0..m.alphabet().len() as u8 {
            for (j, &bj) in b.iter().enumerate() {
                assert_eq!(p.row(c)[j], m.score(c, bj), "code {c} position {j}");
            }
        }
    }

    #[test]
    fn build_in_reuses_storage_without_reallocating() {
        let m = SubstitutionMatrix::match_mismatch("unit", Alphabet::dna(), 1, -1);
        let b = vec![2u8; 100];
        let p = QueryProfile::build_in(&m, &b, Vec::with_capacity(4 * 100));
        let storage = p.into_storage();
        let cap = storage.capacity();
        let ptr = storage.as_ptr();
        let p2 = QueryProfile::build_in(&m, &b[..50], storage);
        assert_eq!(p2.row(2), &[1; 50][..]);
        let storage = p2.into_storage();
        assert_eq!(storage.capacity(), cap);
        assert_eq!(storage.as_ptr(), ptr);
    }

    #[test]
    fn empty_sequence_profile() {
        let m = SubstitutionMatrix::match_mismatch("unit", Alphabet::dna(), 1, -1);
        let p = QueryProfile::build(&m, &[]);
        assert!(p.is_empty());
        assert_eq!(p.row(0), &[] as &[i32]);
    }
}
