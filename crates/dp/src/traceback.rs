//! FindPath: backward path recovery.
//!
//! The paper's FindPath phase (§2.1) walks the DPM backwards from a start
//! entry, at each step choosing a predecessor whose value explains the
//! current entry. With exact scores at least one predecessor always
//! qualifies; when several do (multiple optimal paths) every implementation
//! in this workspace breaks the tie identically — **Diag ≻ Up ≻ Left** —
//! so full-matrix and FastLSA tracebacks recover the *same* optimal path.

use flsa_scoring::ScoringScheme;

use crate::matrix::{Dir, DirMatrix, ScoreMatrix, TraceCodes};
use crate::path::{Move, PathBuilder};
use crate::Metrics;

/// A filled base case, as [`crate::Kernel::fill_base_reusing`] leaves it
/// for its traceback.
#[derive(Debug, Clone)]
pub enum BaseFill {
    /// The full score matrix: [`trace_from`] recovers the path.
    Scores(ScoreMatrix),
    /// The byte band's traceback codes, which record `trace_from`'s
    /// comparisons: they trace back to the same path.
    Codes(TraceCodes),
}

impl BaseFill {
    /// Walks back from `start` to the rectangle's top row or left column,
    /// prepending moves to `out`, and returns the exit: [`trace_from`] on
    /// scores, and on codes the same moves, exit and traceback steps
    /// without recomputing a score.
    pub fn trace(
        &self,
        a: &[u8],
        b: &[u8],
        scheme: &ScoringScheme,
        start: (usize, usize),
        out: &mut PathBuilder,
        metrics: &Metrics,
    ) -> (usize, usize) {
        match self {
            BaseFill::Scores(dpm) => trace_from(dpm, a, b, scheme, start, out, metrics),
            BaseFill::Codes(codes) => trace_codes(codes, start, out, metrics),
        }
    }

    /// Consumes the fill, returning its storage for the next base case.
    pub fn into_vec(self) -> Vec<i32> {
        match self {
            BaseFill::Scores(dpm) => dpm.into_vec(),
            BaseFill::Codes(codes) => codes.into_vec(),
        }
    }
}

/// Walks backwards through a filled score matrix from `start` (matrix-local
/// coordinates) until reaching the matrix's top row or left column,
/// prepending moves to `out`. Returns the exit coordinate (local).
///
/// # Panics
///
/// Panics when no predecessor explains a cell value — that can only happen
/// if the matrix was not produced by the matching fill kernel/scheme, i.e.
/// a logic error worth failing loudly on.
pub fn trace_from(
    dpm: &ScoreMatrix,
    a: &[u8],
    b: &[u8],
    scheme: &ScoringScheme,
    start: (usize, usize),
    out: &mut PathBuilder,
    metrics: &Metrics,
) -> (usize, usize) {
    let gap = scheme.gap().linear_penalty();
    let matrix = scheme.matrix();
    let (mut i, mut j) = start;
    assert!(
        i <= dpm.rows() && j <= dpm.cols(),
        "traceback start out of range"
    );
    let mut steps = 0u64;
    while i > 0 && j > 0 {
        let v = dpm.get(i, j);
        let m = if dpm.get(i - 1, j - 1) + matrix.score(a[i - 1], b[j - 1]) == v {
            i -= 1;
            j -= 1;
            Move::Diag
        } else if dpm.get(i - 1, j) + gap == v {
            i -= 1;
            Move::Up
        } else if dpm.get(i, j - 1) + gap == v {
            j -= 1;
            Move::Left
        } else {
            // flsa-check: allow(panic) — unreachable on any DPM produced
            // by the fill kernels: every interior cell has a predecessor
            // by construction, so this fires only on memory corruption.
            panic!("traceback found no predecessor at ({i},{j}): corrupt DPM");
        };
        out.push_back(m);
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    (i, j)
}

/// [`trace_from`] over the byte band's traceback codes: walks back from
/// `start` until reaching the rectangle's top row or left column,
/// prepending moves to `out`, and returns the exit. The codes record
/// `trace_from`'s own comparisons in its order (Diag ≻ Up ≻ Left), so the
/// moves and the exit are the same, and no score is recomputed.
///
/// # Panics
///
/// Panics when `start` lies outside the rectangle.
pub(crate) fn trace_codes(
    codes: &TraceCodes,
    start: (usize, usize),
    out: &mut PathBuilder,
    metrics: &Metrics,
) -> (usize, usize) {
    let (mut i, mut j) = start;
    // Release-mode guard: codes always hold `TraceCodes::storage_len`
    // entries, inside which every interior `(i, j)` indexes.
    assert!(
        i <= codes.rows() && j <= codes.cols(),
        "traceback start out of range"
    );
    let mut steps = 0u64;
    while i > 0 && j > 0 {
        let m = match codes.dir(i, j) {
            Dir::Diag => {
                i -= 1;
                j -= 1;
                Move::Diag
            }
            Dir::Up => {
                i -= 1;
                Move::Up
            }
            _ => {
                j -= 1;
                Move::Left
            }
        };
        out.push_back(m);
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    (i, j)
}

/// Walks a packed direction matrix backwards from `start` until a
/// [`Dir::Stop`] entry, prepending moves to `out`. Returns the stop
/// coordinate.
///
/// Unlike [`trace_from`] this follows row 0 / column 0 entries too (they
/// are filled as Left/Up by [`crate::kernel::fill_dir`]), so for a global
/// problem it walks all the way to `(0, 0)`.
pub fn trace_dirs(
    dirs: &DirMatrix,
    start: (usize, usize),
    out: &mut PathBuilder,
    metrics: &Metrics,
) -> (usize, usize) {
    let (mut i, mut j) = start;
    assert!(
        i <= dirs.rows() && j <= dirs.cols(),
        "traceback start out of range"
    );
    let mut steps = 0u64;
    loop {
        match dirs.get(i, j) {
            Dir::Stop => break,
            Dir::Diag => {
                debug_assert!(i > 0 && j > 0);
                i -= 1;
                j -= 1;
                out.push_back(Move::Diag);
            }
            Dir::Up => {
                debug_assert!(i > 0);
                i -= 1;
                out.push_back(Move::Up);
            }
            Dir::Left => {
                debug_assert!(j > 0);
                j -= 1;
                out.push_back(Move::Left);
            }
        }
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{fill_dir, fill_full};
    use crate::Boundary;
    use flsa_seq::Sequence;

    fn paper_setup() -> (Vec<u8>, Vec<u8>, ScoringScheme) {
        let scheme = ScoringScheme::paper_example();
        let a = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
        (a.codes().to_vec(), b.codes().to_vec(), scheme)
    }

    #[test]
    fn score_traceback_recovers_an_optimal_path() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let dpm = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let mut builder = PathBuilder::new();
        let exit = trace_from(
            &dpm,
            &a,
            &b,
            &scheme,
            (a.len(), b.len()),
            &mut builder,
            &metrics,
        );
        // The paper's optimal path reaches the top-left region; with this
        // instance it exits exactly at the origin.
        assert_eq!(exit, (0, 0));
        let path = builder.finish((0, 0));
        // Re-score: must equal the optimal 82. Note path coordinates are
        // (row, col) = (a-index, b-index).
        let a_seq = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
        let b_seq = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
        assert_eq!(path.score(&a_seq, &b_seq, &scheme), 82);
        assert!(path.is_global(a.len(), b.len()));
        assert_eq!(metrics.snapshot().traceback_steps as usize, path.len());
    }

    #[test]
    fn dir_traceback_matches_score_traceback() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();

        let dpm = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let mut sb = PathBuilder::new();
        let exit = trace_from(&dpm, &a, &b, &scheme, (a.len(), b.len()), &mut sb, &metrics);
        assert_eq!(exit, (0, 0));
        let score_path = sb.finish((0, 0));

        let (dirs, _) = fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let mut db = PathBuilder::new();
        let stop = trace_dirs(&dirs, (a.len(), b.len()), &mut db, &metrics);
        assert_eq!(stop, (0, 0));
        let dir_path = db.finish((0, 0));

        assert_eq!(score_path, dir_path, "tie-breaks must agree");
    }

    #[test]
    fn traceback_stops_at_boundary_not_origin() {
        // Start the trace from a cell on the bottom edge away from the
        // corner; the walk must stop the moment it reaches row 0 or col 0.
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let dpm = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let mut builder = PathBuilder::new();
        let (ei, ej) = trace_from(&dpm, &a, &b, &scheme, (a.len(), 2), &mut builder, &metrics);
        assert!(ei == 0 || ej == 0);
    }

    #[test]
    fn dir_traceback_follows_boundary_to_origin() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let (dirs, _) = fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        let mut builder = PathBuilder::new();
        // Start on the top row: all moves must be Left until (0,0).
        let stop = trace_dirs(&dirs, (0, 3), &mut builder, &metrics);
        assert_eq!(stop, (0, 0));
        let p = builder.finish((0, 0));
        assert_eq!(p.moves(), &[Move::Left, Move::Left, Move::Left]);
    }

    #[test]
    #[should_panic(expected = "corrupt DPM")]
    fn corrupt_matrix_is_detected() {
        let (a, b, scheme) = paper_setup();
        let bound = Boundary::global(a.len(), b.len(), -10);
        let metrics = Metrics::new();
        let mut dpm = fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
        dpm.set(3, 3, 999_999);
        let mut builder = PathBuilder::new();
        trace_from(&dpm, &a, &b, &scheme, (3, 3), &mut builder, &metrics);
    }
}
