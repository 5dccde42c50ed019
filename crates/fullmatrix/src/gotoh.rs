//! Gotoh affine-gap global alignment (production extension).
//!
//! Not part of the paper's evaluation (the paper uses linear gaps
//! throughout); provided because every production aligner offers affine
//! gaps, and it gives the test suite an independent oracle for the
//! linear-gap algorithms (affine with `open = 0` must equal linear).

use flsa_dp::{AlignResult, KernelBackend, Metrics, Move, PathBuilder, ScoreMatrix};
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;

/// Sentinel "minus infinity" that survives additions without wrapping.
const NEG: i32 = i32::MIN / 4;

/// Affine-gap global alignment (Gotoh's algorithm): gap of length L costs
/// `open + L·extend`.
///
/// Uses three full matrices (best-ending-in-match `H`, gap-in-`a` `E`,
/// gap-in-`b` `F`), so memory is 3× the linear-gap FM aligner.
///
/// # Panics
///
/// Panics when `scheme.gap()` is not [`GapModel::Affine`].
pub fn gotoh(a: &Sequence, b: &Sequence, scheme: &ScoringScheme, metrics: &Metrics) -> AlignResult {
    scheme.check_sequences(a, b);
    let (open, extend) = match *scheme.gap() {
        GapModel::Affine { open, extend } => (open, extend),
        // flsa-check: allow(panic) — documented caller contract.
        GapModel::Linear { .. } => panic!("gotoh requires an affine gap model"),
    };
    let (m, n) = (a.len(), b.len());
    // Release guard for the `codes()[i - 1]` indexing below: the DP
    // loops trust `len() == codes().len()`.
    assert_eq!(a.codes().len(), m, "a codes length");
    assert_eq!(b.codes().len(), n, "b codes length");
    let matrix = scheme.matrix();

    let mut h = ScoreMatrix::new(m, n);
    let mut e = ScoreMatrix::new(m, n); // best ending with a gap in `a` (Left run)
    let mut f = ScoreMatrix::new(m, n); // best ending with a gap in `b` (Up run)
    let _mem = metrics.track_alloc(h.bytes() * 3);

    h.set(0, 0, 0);
    e.set(0, 0, NEG);
    f.set(0, 0, NEG);
    for j in 1..=n {
        let v = open + extend * j as i32;
        h.set(0, j, v);
        e.set(0, j, v);
        f.set(0, j, NEG);
    }
    for i in 1..=m {
        let v = open + extend * i as i32;
        h.set(i, 0, v);
        f.set(i, 0, v);
        e.set(i, 0, NEG);
    }

    for i in 1..=m {
        let ai = a.codes()[i - 1];
        for j in 1..=n {
            let ev = (e.get(i, j - 1) + extend).max(h.get(i, j - 1) + open + extend);
            let fv = (f.get(i - 1, j) + extend).max(h.get(i - 1, j) + open + extend);
            let hv = (h.get(i - 1, j - 1) + matrix.score(ai, b.codes()[j - 1]))
                .max(ev)
                .max(fv);
            e.set(i, j, ev);
            f.set(i, j, fv);
            h.set(i, j, hv);
        }
    }
    metrics.add_cells(m as u64 * n as u64, KernelBackend::Scalar);
    metrics.add_base_case_cells(m as u64 * n as u64);

    // State-machine traceback: state H, E (in a Left-gap run), or F (Up run).
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let mut builder = PathBuilder::new();
    let (mut i, mut j) = (m, n);
    let mut state = State::H;
    let mut steps = 0u64;
    while i > 0 || j > 0 {
        match state {
            State::H => {
                let v = h.get(i, j);
                if i > 0
                    && j > 0
                    && h.get(i - 1, j - 1) + matrix.score(a.codes()[i - 1], b.codes()[j - 1]) == v
                {
                    builder.push_back(Move::Diag);
                    steps += 1;
                    i -= 1;
                    j -= 1;
                } else if i > 0 && f.get(i, j) == v {
                    state = State::F;
                } else if j > 0 && e.get(i, j) == v {
                    state = State::E;
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("gotoh traceback stuck in H at ({i},{j})");
                }
            }
            State::E => {
                // Ending a Left-gap run: came from E (continue run) or H (open).
                let v = e.get(i, j);
                builder.push_back(Move::Left);
                steps += 1;
                let from_e = j > 1 && e.get(i, j - 1) + extend == v;
                let from_h = h.get(i, j - 1) + open + extend == v;
                j -= 1;
                state = if from_h {
                    State::H
                } else if from_e {
                    State::E
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("gotoh traceback stuck in E")
                };
            }
            State::F => {
                let v = f.get(i, j);
                builder.push_back(Move::Up);
                steps += 1;
                let from_f = i > 1 && f.get(i - 1, j) + extend == v;
                let from_h = h.get(i - 1, j) + open + extend == v;
                i -= 1;
                state = if from_h {
                    State::H
                } else if from_f {
                    State::F
                } else {
                    // flsa-check: allow(panic) — unreachable unless the DPM is corrupt.
                    panic!("gotoh traceback stuck in F")
                };
            }
        }
    }
    metrics.add_traceback_steps(steps);
    AlignResult {
        score: h.get(m, n) as i64,
        path: builder.finish((0, 0)),
    }
}

/// Scores an alignment path under an affine gap model (test oracle: the
/// linear `Path::score` cannot price gap opens).
pub fn score_path_affine(
    path: &flsa_dp::Path,
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
) -> i64 {
    let (open, extend) = match *scheme.gap() {
        GapModel::Affine { open, extend } => (open as i64, extend as i64),
        GapModel::Linear { penalty } => (0, penalty as i64),
    };
    let (mut i, mut j) = path.start();
    let (ei, ej) = path.end();
    assert!(
        ei <= a.len() && ej <= b.len(),
        "path ({ei},{ej}) exceeds sequence bounds ({}, {})",
        a.len(),
        b.len()
    );
    let mut total = 0i64;
    let mut prev: Option<Move> = None;
    for &mv in path.moves() {
        match mv {
            Move::Diag => {
                total += scheme.sub(a.codes()[i], b.codes()[j]) as i64;
                i += 1;
                j += 1;
            }
            Move::Up => {
                if prev != Some(Move::Up) {
                    total += open;
                }
                total += extend;
                i += 1;
            }
            Move::Left => {
                if prev != Some(Move::Left) {
                    total += open;
                }
                total += extend;
                j += 1;
            }
        }
        prev = Some(mv);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::needleman_wunsch;

    fn dna2(s: &str) -> Sequence {
        let scheme = ScoringScheme::dna_default();
        Sequence::from_str("s", scheme.alphabet(), s).unwrap()
    }

    #[test]
    fn zero_open_equals_linear_gap() {
        let linear = ScoringScheme::dna_default();
        let affine = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(0, -10),
        );
        let a = dna2("ACGTACGTTT");
        let b = dna2("ACGACGTT");
        let metrics = Metrics::new();
        let lin = needleman_wunsch(&a, &b, &linear, &metrics);
        let aff = gotoh(&a, &b, &affine, &metrics);
        assert_eq!(lin.score, aff.score);
        assert_eq!(aff.path.score(&a, &b, &linear), aff.score);
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // With affine gaps, one length-2 gap is cheaper than two length-1
        // gaps; the path should concentrate its gaps.
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-10, -1),
        );
        let a = dna2("AAAACCAAAA");
        let b = dna2("AAAAAAAA");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        // Expect: 8 matches (40) + one gap of length 2 (-12) = 28.
        assert_eq!(r.score, 28);
        assert_eq!(score_path_affine(&r.path, &a, &b, &scheme), r.score);
        // The two Up moves must be adjacent (single run).
        let ups: Vec<usize> = r
            .path
            .moves()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Move::Up)
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[1], ups[0] + 1);
    }

    #[test]
    fn gotoh_path_is_global_and_rescoreable() {
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-12, -2),
        );
        let a = dna2("ACGTTGCAACGT");
        let b = dna2("ACGTGCACGTT");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        assert!(r.path.is_global(a.len(), b.len()));
        assert_eq!(score_path_affine(&r.path, &a, &b, &scheme), r.score);
    }

    #[test]
    fn empty_sequences_cost_one_gap_open() {
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-10, -2),
        );
        let a = dna2("");
        let b = dna2("ACG");
        let metrics = Metrics::new();
        let r = gotoh(&a, &b, &scheme, &metrics);
        assert_eq!(r.score, -16); // -10 open + 3 * -2 extend
    }

    #[test]
    #[should_panic(expected = "affine gap model")]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        let a = dna2("ACG");
        let metrics = Metrics::new();
        gotoh(&a, &a, &scheme, &metrics);
    }
}
