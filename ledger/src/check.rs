//! Output checks, independent of the code under test: a CIGAR is
//! re-scored from scratch against the sequences it claims to align.

use flsa_scoring::{GapModel, ScoringScheme};

/// Re-scores a run-length CIGAR (`M` = both advance, `D` = a residue of
/// `a` against a gap, `I` = a residue of `b` against a gap) over the
/// sequences' codes. `None` when the CIGAR is malformed or not a global
/// alignment of exactly `a` against `b`.
pub fn cigar_score(cigar: &str, a: &[u8], b: &[u8], scheme: &ScoringScheme) -> Option<i64> {
    let (mut i, mut j, mut score) = (0usize, 0usize, 0i64);
    let mut count = 0usize;
    for c in cigar.bytes() {
        if c.is_ascii_digit() {
            count = count.checked_mul(10)?.checked_add(usize::from(c - b'0'))?;
            continue;
        }
        if count == 0 {
            return None;
        }
        match c {
            b'M' => {
                let (xa, xb) = (a.get(i..i + count)?, b.get(j..j + count)?);
                score += xa
                    .iter()
                    .zip(xb)
                    .map(|(&x, &y)| i64::from(scheme.sub(x, y)))
                    .sum::<i64>();
                i += count;
                j += count;
            }
            b'D' | b'I' => {
                if c == b'D' {
                    i += count;
                } else {
                    j += count;
                }
                score += match *scheme.gap() {
                    GapModel::Linear { penalty } => i64::from(penalty) * count as i64,
                    GapModel::Affine { open, extend } => {
                        i64::from(open) + i64::from(extend) * count as i64
                    }
                };
            }
            _ => return None,
        }
        count = 0;
    }
    (count == 0 && i == a.len() && j == b.len()).then_some(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_seq::Sequence;

    #[test]
    fn rescoring_matches_the_aligner_and_rejects_bad_cigars() {
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", scheme.alphabet(), "ACGTTGCA").expect("dna");
        let b = Sequence::from_str("b", scheme.alphabet(), "ACGTGCAA").expect("dna");
        let r = fastlsa_core::align(&a, &b, &scheme, &flsa_dp::Metrics::new()).expect("aligns");
        let cigar = flsa_serve::job::cigar(&r.path);
        assert_eq!(
            cigar_score(&cigar, a.codes(), b.codes(), &scheme),
            Some(r.score)
        );
        for bad in ["", "8M1X", "7M", "9M", "M", "4M4"] {
            assert_eq!(
                cigar_score(bad, a.codes(), b.codes(), &scheme),
                None,
                "{bad}"
            );
        }
    }

    #[test]
    fn affine_gaps_open_once_per_run() {
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-11, -1),
        );
        let a = Sequence::from_str("a", scheme.alphabet(), "AAAACCCC").expect("dna");
        let b = Sequence::from_str("b", scheme.alphabet(), "AAAA").expect("dna");
        assert_eq!(
            cigar_score("4M4D", a.codes(), b.codes(), &scheme),
            Some(20 - 15)
        );
        assert_eq!(
            cigar_score("4M2D2D", a.codes(), b.codes(), &scheme),
            Some(20 - 26)
        );
    }
}
