//! The scoring bundle consumed by every aligner.

use flsa_seq::{Alphabet, Sequence};

use crate::{GapModel, SubstitutionMatrix};

/// A complete scoring scheme: substitution matrix + gap model.
///
/// # Examples
///
/// ```
/// use flsa_scoring::ScoringScheme;
/// let scheme = ScoringScheme::paper_example();
/// assert_eq!(scheme.gap().linear_penalty(), -10);
/// assert_eq!(scheme.matrix().score_chars('L', 'V'), Some(12));
/// ```
#[derive(Debug, Clone)]
pub struct ScoringScheme {
    matrix: SubstitutionMatrix,
    gap: GapModel,
}

impl ScoringScheme {
    /// Bundles a matrix and a gap model.
    pub fn new(matrix: SubstitutionMatrix, gap: GapModel) -> Self {
        ScoringScheme { matrix, gap }
    }

    /// The paper's worked-example scheme: Table 1 fragment + gap −10.
    pub fn paper_example() -> Self {
        ScoringScheme::new(crate::tables::mdm_fragment(), GapModel::PAPER_DEFAULT)
    }

    /// BLOSUM62 + gap −10 (a reasonable protein default).
    pub fn protein_default() -> Self {
        ScoringScheme::new(crate::tables::blosum62(), GapModel::linear(-10))
    }

    /// +5/−4 DNA matrix + gap −10.
    pub fn dna_default() -> Self {
        ScoringScheme::new(crate::tables::dna_default(), GapModel::linear(-10))
    }

    /// Identity matrix + zero gap over `alphabet` (the LCS cross-check
    /// scheme).
    pub fn lcs(alphabet: Alphabet) -> Self {
        ScoringScheme::new(crate::tables::identity(alphabet), GapModel::linear(0))
    }

    /// The substitution matrix.
    pub fn matrix(&self) -> &SubstitutionMatrix {
        &self.matrix
    }

    /// The gap model.
    pub fn gap(&self) -> &GapModel {
        &self.gap
    }

    /// The alphabet the scheme scores over.
    pub fn alphabet(&self) -> &Alphabet {
        self.matrix.alphabet()
    }

    /// Substitution score of two residue codes (hot-path shorthand).
    #[inline(always)]
    pub fn sub(&self, a: u8, b: u8) -> i32 {
        self.matrix.score(a, b)
    }

    /// The largest sequence span `m + n` for which every intermediate of
    /// the i32 DP kernels provably stays in range under this scheme.
    ///
    /// Derivation (mirrored by the static audit's R10 overflow
    /// certificate — `cargo run -p flsa-check --bin audit`): with
    /// `S = max |substitution score|` and `G` the worst per-symbol gap
    /// magnitude ([`GapModel::max_penalty_abs`]), every cell satisfies
    /// `|H(i,j)| <= (i+j) * C` with `C = max(S, G)`, and the vectorized
    /// two-pass kernels' u-domain intermediates `H(i,j) - j*gap` stay
    /// within `span * (C + G) + G`. Requiring
    /// `span <= i32::MAX / (C + G) - 1` therefore covers both, with slack
    /// for the boundary ramp.
    ///
    /// The affine kernels also mark unreachable `E`/`F` cells with the
    /// sentinel `NEG = -2^29`, which must lose every max it meets.
    /// Reachable `H`, `E` and `F` values stay above `-(span * C + G)`, so
    /// affine schemes are further capped at `span <= (2^29 - 2G) / C`,
    /// which keeps every reachable value above `NEG + G`.
    pub fn max_safe_span(&self) -> usize {
        let s = i64::from(self.matrix.max_score())
            .abs()
            .max(i64::from(self.matrix.min_score()).abs())
            .max(1);
        let g = self.gap.max_penalty_abs().max(1);
        let c = s.max(g);
        let mut span = i64::from(i32::MAX) / (c + g) - 1;
        if let GapModel::Affine { .. } = self.gap {
            span = span.min(((1i64 << 29) - 2 * g) / c);
        }
        usize::try_from(span.max(0)).unwrap_or(usize::MAX)
    }

    /// Checks that both sequences are encoded in this scheme's alphabet
    /// and that their span `m + n` is within
    /// [`ScoringScheme::max_safe_span`].
    ///
    /// # Panics
    ///
    /// Panics on an alphabet mismatch: aligning sequences against the
    /// wrong matrix is never recoverable and would silently produce
    /// garbage scores. Panics on a span beyond `max_safe_span`, where the
    /// i32 DP could overflow and return a wrong alignment; entry points
    /// that take outside input check the span first and return a typed
    /// error instead.
    pub fn check_sequences(&self, a: &Sequence, b: &Sequence) {
        assert!(
            a.alphabet() == self.alphabet() && b.alphabet() == self.alphabet(),
            "sequences must be encoded in the scoring scheme's alphabet ({})",
            self.alphabet().name()
        );
        let (span, max_span) = (a.len().saturating_add(b.len()), self.max_safe_span());
        assert!(
            span <= max_span,
            "sequence span m + n = {span} exceeds the i32-safe limit {max_span} \
             for this scoring scheme"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_seq::Sequence;

    #[test]
    fn check_sequences_accepts_matching_alphabet() {
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", scheme.alphabet(), "ACGT").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "ACGA").unwrap();
        scheme.check_sequences(&a, &b);
    }

    #[test]
    #[should_panic(expected = "scoring scheme's alphabet")]
    fn check_sequences_rejects_mismatch() {
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", &Alphabet::protein(), "ACGT").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "ACGT").unwrap();
        scheme.check_sequences(&a, &b);
    }

    #[test]
    fn affine_schemes_are_capped_below_the_sentinel() {
        // Linear schemes keep the overflow bound i32::MAX / (C + G) - 1;
        // affine ones are also capped at (2^29 - 2G) / C, which binds.
        let dna = |gap| ScoringScheme::new(crate::tables::dna_default(), gap);
        assert_eq!(dna(GapModel::linear(-12)).max_safe_span(), 89_478_484);
        assert_eq!(dna(GapModel::affine(-10, -2)).max_safe_span(), 44_739_240);
        let blosum = ScoringScheme::new(crate::tables::blosum62(), GapModel::affine(-11, -1));
        assert_eq!(blosum.max_safe_span(), 44_739_240);
    }

    #[test]
    fn lcs_scheme_has_zero_gap() {
        let scheme = ScoringScheme::lcs(Alphabet::dna());
        assert_eq!(scheme.gap().linear_penalty(), 0);
        assert_eq!(scheme.sub(0, 0), 1);
        assert_eq!(scheme.sub(0, 1), 0);
    }
}
