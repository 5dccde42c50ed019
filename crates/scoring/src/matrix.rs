//! Dense substitution matrices.

use flsa_seq::Alphabet;

/// A dense similarity table indexed by alphabet codes.
///
/// Higher scores mean higher similarity (the paper's convention — alignment
/// maximizes total score). Matrices are square over the alphabet's code
/// space and, for all the built-ins, symmetric.
///
/// # Examples
///
/// ```
/// use flsa_scoring::tables;
/// let m = tables::blosum62();
/// let l = m.alphabet().encode_symbol('L').unwrap();
/// let v = m.alphabet().encode_symbol('V').unwrap();
/// assert_eq!(m.score(l, v), 1);
/// assert_eq!(m.score(l, l), 4);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SubstitutionMatrix {
    name: String,
    alphabet: Alphabet,
    n: usize,
    table: Vec<i32>,
}

impl std::fmt::Debug for SubstitutionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SubstitutionMatrix({}, {}x{})",
            self.name, self.n, self.n
        )
    }
}

impl SubstitutionMatrix {
    /// Builds a matrix from a row-major table of `alphabet.len()²` scores.
    ///
    /// # Panics
    ///
    /// Panics when the table size does not match the alphabet — matrices
    /// are static configuration, so this is a programming error.
    pub fn from_table(name: &str, alphabet: Alphabet, table: Vec<i32>) -> Self {
        let n = alphabet.len();
        assert_eq!(table.len(), n * n, "substitution table must be {n}x{n}");
        SubstitutionMatrix {
            name: name.to_string(),
            alphabet,
            n,
            table,
        }
    }

    /// Builds a uniform match/mismatch matrix over `alphabet`.
    pub fn match_mismatch(name: &str, alphabet: Alphabet, mat: i32, mis: i32) -> Self {
        let n = alphabet.len();
        let mut table = vec![mis; n * n];
        for i in 0..n {
            table[i * n + i] = mat;
        }
        SubstitutionMatrix {
            name: name.to_string(),
            alphabet,
            n,
            table,
        }
    }

    /// Matrix name (for diagnostics and experiment logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The alphabet whose codes index this matrix.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The row-major table of `alphabet.len()²` scores: `score(a, b)` at
    /// `a·len + b`.
    pub fn table(&self) -> &[i32] {
        &self.table
    }

    /// Similarity score of two residue codes.
    ///
    /// This is the innermost call of every DP kernel, hence `#[inline]` and
    /// unchecked-feeling but actually bounds-checked indexing (the codes
    /// come from `Sequence`, which guarantees range).
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.table[a as usize * self.n + b as usize]
    }

    /// Similarity score of two characters (test/diagnostic convenience).
    pub fn score_chars(&self, a: char, b: char) -> Option<i32> {
        Some(self.score(
            self.alphabet.encode_symbol(a)?,
            self.alphabet.encode_symbol(b)?,
        ))
    }

    /// True when the matrix is symmetric (all built-ins are).
    pub fn is_symmetric(&self) -> bool {
        (0..self.n)
            .all(|i| (0..i).all(|j| self.table[i * self.n + j] == self.table[j * self.n + i]))
    }

    /// Largest score in the table (used for overflow reasoning and for the
    /// score upper bound `min(m,n) * max_score`).
    pub fn max_score(&self) -> i32 {
        self.table.iter().copied().max().unwrap_or(0)
    }

    /// Smallest score in the table.
    pub fn min_score(&self) -> i32 {
        self.table.iter().copied().min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_mismatch_scores() {
        let m = SubstitutionMatrix::match_mismatch("unit", Alphabet::dna(), 5, -4);
        assert_eq!(m.score_chars('A', 'A'), Some(5));
        assert_eq!(m.score_chars('A', 'C'), Some(-4));
        assert!(m.is_symmetric());
        assert_eq!(m.max_score(), 5);
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    #[should_panic(expected = "substitution table must be")]
    fn wrong_table_size_panics() {
        SubstitutionMatrix::from_table("bad", Alphabet::dna(), vec![0; 3]);
    }

    #[test]
    fn score_chars_rejects_unknown() {
        let m = SubstitutionMatrix::match_mismatch("unit", Alphabet::dna(), 1, 0);
        assert_eq!(m.score_chars('A', 'U'), None);
    }
}
