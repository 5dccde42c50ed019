//! Built-in substitution matrices.
//!
//! * [`mdm_fragment`] — the exact fragment of the PepTool-scaled Dayhoff
//!   MDM78 matrix printed as Table 1 of the paper (symbols `A D K L T V`),
//!   used to reproduce the paper's worked example (score 82, Figure 1).
//! * [`blosum62`], [`pam250`] — the standard NCBI protein matrices.
//! * [`dna_default`] — the +5/−4 DNA matrix (EDNAFULL-style core).
//! * [`identity`] — match 1 / mismatch 0 (turns global alignment into the
//!   longest-common-subsequence problem Hirschberg's algorithm was
//!   originally designed for).

use flsa_seq::Alphabet;

use crate::{GapModel, ScoringScheme, SubstitutionMatrix};

/// Alphabet of the paper's Table 1 fragment, in the table's own order.
pub fn mdm_fragment_alphabet() -> Alphabet {
    Alphabet::new("mdm-fragment", "ADKLTV")
}

/// The Table 1 fragment of the scaled Dayhoff MDM78 matrix.
///
/// Diagonal: A=16, D=K=L=T=V=20; the single similar pair is L/V = 12; every
/// other off-diagonal entry is 0 (the table is printed lower-triangular in
/// the paper; it is symmetric).
///
/// # Examples
///
/// ```
/// use flsa_scoring::tables;
/// let m = tables::mdm_fragment();
/// assert_eq!(m.score_chars('L', 'V'), Some(12));
/// assert_eq!(m.score_chars('K', 'L'), Some(0));
/// assert_eq!(m.score_chars('T', 'T'), Some(20));
/// ```
pub fn mdm_fragment() -> SubstitutionMatrix {
    let alphabet = mdm_fragment_alphabet();
    let n = alphabet.len();
    let mut table = vec![0i32; n * n];
    let set = |table: &mut Vec<i32>, a: char, b: char, v: i32| {
        // flsa-check: allow(unwrap) — callers pass symbols of this alphabet
        let i = alphabet.encode_symbol(a).unwrap() as usize;
        // flsa-check: allow(unwrap) — same invariant as above
        let j = alphabet.encode_symbol(b).unwrap() as usize;
        table[i * n + j] = v;
        table[j * n + i] = v;
    };
    set(&mut table, 'A', 'A', 16);
    for c in ['D', 'K', 'L', 'T', 'V'] {
        set(&mut table, c, c, 20);
    }
    set(&mut table, 'L', 'V', 12);
    SubstitutionMatrix::from_table("mdm78-fragment", alphabet, table)
}

/// BLOSUM62 over the 24-code protein alphabet (`ARNDCQEGHILKMFPSTWYVBZX*`).
pub fn blosum62() -> SubstitutionMatrix {
    #[rustfmt::skip]
    const T: [i32; 24 * 24] = [
    //   A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
         4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4,
        -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4,
        -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4,
        -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4,
         0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4,
        -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4,
        -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4,
         0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4,
        -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4,
        -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4,
        -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4,
        -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4,
        -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4,
        -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4,
        -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4,
         1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4,
         0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4,
        -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4,
        -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4,
         0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4,
        -2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4,
        -1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4,
         0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4,
        -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1,
    ];
    SubstitutionMatrix::from_table("blosum62", Alphabet::protein(), T.to_vec())
}

/// PAM250 over the 24-code protein alphabet. PAM250 is the descendant of the
/// Dayhoff MDM78 family the paper's PepTool table was scaled from.
pub fn pam250() -> SubstitutionMatrix {
    #[rustfmt::skip]
    const T: [i32; 24 * 24] = [
    //   A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
         2, -2,  0,  0, -2,  0,  0,  1, -1, -1, -2, -1, -1, -3,  1,  1,  1, -6, -3,  0,  0,  0,  0, -8,
        -2,  6,  0, -1, -4,  1, -1, -3,  2, -2, -3,  3,  0, -4,  0,  0, -1,  2, -4, -2, -1,  0, -1, -8,
         0,  0,  2,  2, -4,  1,  1,  0,  2, -2, -3,  1, -2, -3,  0,  1,  0, -4, -2, -2,  2,  1,  0, -8,
         0, -1,  2,  4, -5,  2,  3,  1,  1, -2, -4,  0, -3, -6, -1,  0,  0, -7, -4, -2,  3,  3, -1, -8,
        -2, -4, -4, -5, 12, -5, -5, -3, -3, -2, -6, -5, -5, -4, -3,  0, -2, -8,  0, -2, -4, -5, -3, -8,
         0,  1,  1,  2, -5,  4,  2, -1,  3, -2, -2,  1, -1, -5,  0, -1, -1, -5, -4, -2,  1,  3, -1, -8,
         0, -1,  1,  3, -5,  2,  4,  0,  1, -2, -3,  0, -2, -5, -1,  0,  0, -7, -4, -2,  3,  3, -1, -8,
         1, -3,  0,  1, -3, -1,  0,  5, -2, -3, -4, -2, -3, -5,  0,  1,  0, -7, -5, -1,  0,  0, -1, -8,
        -1,  2,  2,  1, -3,  3,  1, -2,  6, -2, -2,  0, -2, -2,  0, -1, -1, -3,  0, -2,  1,  2, -1, -8,
        -1, -2, -2, -2, -2, -2, -2, -3, -2,  5,  2, -2,  2,  1, -2, -1,  0, -5, -1,  4, -2, -2, -1, -8,
        -2, -3, -3, -4, -6, -2, -3, -4, -2,  2,  6, -3,  4,  2, -3, -3, -2, -2, -1,  2, -3, -3, -1, -8,
        -1,  3,  1,  0, -5,  1,  0, -2,  0, -2, -3,  5,  0, -5, -1,  0,  0, -3, -4, -2,  1,  0, -1, -8,
        -1,  0, -2, -3, -5, -1, -2, -3, -2,  2,  4,  0,  6,  0, -2, -2, -1, -4, -2,  2, -2, -2, -1, -8,
        -3, -4, -3, -6, -4, -5, -5, -5, -2,  1,  2, -5,  0,  9, -5, -3, -3,  0,  7, -1, -4, -5, -2, -8,
         1,  0,  0, -1, -3,  0, -1,  0,  0, -2, -3, -1, -2, -5,  6,  1,  0, -6, -5, -1, -1,  0, -1, -8,
         1,  0,  1,  0,  0, -1,  0,  1, -1, -1, -3,  0, -2, -3,  1,  2,  1, -2, -3, -1,  0,  0,  0, -8,
         1, -1,  0,  0, -2, -1,  0,  0, -1,  0, -2,  0, -1, -3,  0,  1,  3, -5, -3,  0,  0, -1,  0, -8,
        -6,  2, -4, -7, -8, -5, -7, -7, -3, -5, -2, -3, -4,  0, -6, -2, -5, 17,  0, -6, -5, -6, -4, -8,
        -3, -4, -2, -4,  0, -4, -4, -5,  0, -1, -1, -4, -2,  7, -5, -3, -3,  0, 10, -2, -3, -4, -2, -8,
         0, -2, -2, -2, -2, -2, -2, -1, -2,  4,  2, -2,  2, -1, -1, -1,  0, -6, -2,  4, -2, -2, -1, -8,
         0, -1,  2,  3, -4,  1,  3,  0,  1, -2, -3,  1, -2, -4, -1,  0,  0, -5, -3, -2,  3,  2, -1, -8,
         0,  0,  1,  3, -5,  3,  3,  0,  2, -2, -3,  0, -2, -5,  0,  0, -1, -6, -4, -2,  2,  3, -1, -8,
         0, -1,  0, -1, -3, -1, -1, -1, -1, -1, -1, -1, -1, -2, -1,  0,  0, -4, -2, -1, -1, -1, -1, -8,
        -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8, -8,  1,
    ];
    SubstitutionMatrix::from_table("pam250", Alphabet::protein(), T.to_vec())
}

/// The conventional +5/−4 DNA matrix; `N` matches nothing and mismatches
/// nothing (score 0 against everything, including itself).
pub fn dna_default() -> SubstitutionMatrix {
    let alphabet = Alphabet::dna();
    let n = alphabet.len();
    let mut table = vec![-4i32; n * n];
    for i in 0..4 {
        table[i * n + i] = 5;
    }
    // flsa-check: allow(unwrap) — 'N' is part of the DNA alphabet
    let nn = alphabet.encode_symbol('N').unwrap() as usize;
    for i in 0..n {
        table[nn * n + i] = 0;
        table[i * n + nn] = 0;
    }
    SubstitutionMatrix::from_table("dna+5/-4", alphabet, table)
}

/// Match 1 / mismatch 0 over `alphabet`. With a zero gap penalty this turns
/// global alignment into longest-common-subsequence, which is a useful
/// cross-check (Hirschberg's original problem).
pub fn identity(alphabet: Alphabet) -> SubstitutionMatrix {
    SubstitutionMatrix::match_mismatch("identity", alphabet, 1, 0)
}

/// Resolves a named scheme with a linear gap penalty — the single matrix
/// registry shared by the CLI, the serve daemon, and the shard protocol,
/// so every surface accepts exactly the same names. `None` for an
/// unknown name or a positive gap.
pub fn scheme_by_name(name: &str, gap: i32) -> Option<ScoringScheme> {
    scheme_for(name, gap).ok()
}

/// [`scheme_by_name`] with the error message every surface reports.
pub fn scheme_for(name: &str, gap: i32) -> Result<ScoringScheme, String> {
    let matrix = match name {
        "dna" => dna_default(),
        "blosum62" => blosum62(),
        "pam250" => pam250(),
        "identity" => identity(Alphabet::dna()),
        "paper" => mdm_fragment(),
        _ => return Err(scheme_error(name, gap)),
    };
    linear_scheme(name, matrix, gap)
}

/// `matrix` (called `name` in the error) with a linear gap penalty. A
/// positive gap makes the optimal alignment unbounded, so it is a typed
/// error here rather than [`GapModel::linear`]'s panic.
pub fn linear_scheme(
    name: &str,
    matrix: SubstitutionMatrix,
    gap: i32,
) -> Result<ScoringScheme, String> {
    if gap > 0 {
        return Err(scheme_error(name, gap));
    }
    Ok(ScoringScheme::new(matrix, GapModel::linear(gap)))
}

fn scheme_error(name: &str, gap: i32) -> String {
    format!(
        "no scoring scheme for matrix {name:?} with gap {gap}: the matrix must be \
         dna, blosum62, pam250, identity, paper or a matrix file, and the gap <= 0"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mdm_fragment_matches_table_1() {
        let m = mdm_fragment();
        assert_eq!(m.score_chars('A', 'A'), Some(16));
        for c in ['D', 'K', 'L', 'T', 'V'] {
            assert_eq!(m.score_chars(c, c), Some(20), "diag {c}");
        }
        assert_eq!(m.score_chars('L', 'V'), Some(12));
        assert_eq!(m.score_chars('V', 'L'), Some(12));
        assert_eq!(m.score_chars('K', 'L'), Some(0));
        assert_eq!(m.score_chars('T', 'D'), Some(0));
        assert!(m.is_symmetric());
    }

    #[test]
    fn blosum62_spot_checks() {
        let m = blosum62();
        assert!(m.is_symmetric());
        assert_eq!(m.score_chars('W', 'W'), Some(11));
        assert_eq!(m.score_chars('C', 'C'), Some(9));
        assert_eq!(m.score_chars('A', 'A'), Some(4));
        assert_eq!(m.score_chars('L', 'V'), Some(1));
        assert_eq!(m.score_chars('E', 'Q'), Some(2));
        assert_eq!(m.score_chars('*', '*'), Some(1));
        assert_eq!(m.score_chars('A', '*'), Some(-4));
    }

    #[test]
    fn pam250_spot_checks() {
        let m = pam250();
        assert!(m.is_symmetric());
        assert_eq!(m.score_chars('W', 'W'), Some(17));
        assert_eq!(m.score_chars('C', 'C'), Some(12));
        assert_eq!(m.score_chars('L', 'V'), Some(2));
        assert_eq!(m.score_chars('F', 'Y'), Some(7));
    }

    #[test]
    fn dna_default_scores() {
        let m = dna_default();
        assert_eq!(m.score_chars('A', 'A'), Some(5));
        assert_eq!(m.score_chars('A', 'G'), Some(-4));
        assert_eq!(m.score_chars('N', 'A'), Some(0));
        assert_eq!(m.score_chars('N', 'N'), Some(0));
        assert!(m.is_symmetric());
    }

    #[test]
    fn unknown_matrices_and_positive_gaps_are_errors_not_panics() {
        assert!(scheme_by_name("dna", 0).is_some());
        assert!(scheme_by_name("dna", 5).is_none());
        assert!(scheme_by_name("nope", -1).is_none());
        for (name, gap) in [("dna", 5), ("nope", -1)] {
            let err = scheme_for(name, gap).unwrap_err();
            assert!(
                err.contains(name) && err.contains(&gap.to_string()),
                "{err}"
            );
        }
    }

    #[test]
    fn identity_is_lcs_scoring() {
        let m = identity(Alphabet::dna());
        assert_eq!(m.score_chars('A', 'A'), Some(1));
        assert_eq!(m.score_chars('A', 'C'), Some(0));
        assert_eq!(m.max_score(), 1);
    }
}
