//! Alignment paths — the product of the FindPath phase.

use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;

/// One step of an alignment path through the DPM (Figure 1's moves).
///
/// Coordinates: `i` indexes the *vertical* sequence `a` (rows), `j` the
/// *horizontal* sequence `b` (columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Move {
    /// `(i-1, j-1) → (i, j)`: align `a[i-1]` with `b[j-1]`.
    Diag,
    /// `(i-1, j) → (i, j)`: align `a[i-1]` with a gap.
    Up,
    /// `(i, j-1) → (i, j)`: align a gap with `b[j-1]`.
    Left,
}

impl Move {
    /// Stable wire encoding (checkpoint snapshots): Diag 0, Up 1, Left 2.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Move::code`]; `None` for bytes outside the encoding.
    pub fn from_code(code: u8) -> Option<Move> {
        match code {
            0 => Some(Move::Diag),
            1 => Some(Move::Up),
            2 => Some(Move::Left),
            _ => None,
        }
    }
}

/// A monotone path through the DPM from `start` (inclusive) following
/// `moves` in order. A complete global alignment starts at `(0, 0)` and
/// ends at `(m, n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    start: (usize, usize),
    moves: Vec<Move>,
}

impl Path {
    /// Builds a path from a start coordinate and a forward move list.
    pub fn new(start: (usize, usize), moves: Vec<Move>) -> Self {
        Path { start, moves }
    }

    /// The path's first DPM coordinate.
    pub fn start(&self) -> (usize, usize) {
        self.start
    }

    /// The path's last DPM coordinate.
    pub fn end(&self) -> (usize, usize) {
        let (mut i, mut j) = self.start;
        for m in &self.moves {
            match m {
                Move::Diag => {
                    i += 1;
                    j += 1;
                }
                Move::Up => i += 1,
                Move::Left => j += 1,
            }
        }
        (i, j)
    }

    /// The forward move list.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Number of moves (aligned columns in the rendered alignment).
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Checks that this is a complete global path for sequences of length
    /// `m` (vertical) and `n` (horizontal).
    pub fn is_global(&self, m: usize, n: usize) -> bool {
        self.start == (0, 0) && self.end() == (m, n)
    }

    /// Re-scores the path under `scheme` — the independent check that a
    /// reported optimal score is actually achieved by the reported path.
    ///
    /// Gaps are priced by the scheme's gap model: each run of Up or Left
    /// moves costs `open` once plus `extend` per symbol, and a linear
    /// model is the case `open = 0`.
    ///
    /// # Panics
    ///
    /// Panics when the path walks outside the sequences.
    pub fn score(&self, a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> i64 {
        let (open, extend) = match *scheme.gap() {
            GapModel::Linear { penalty } => (0, i64::from(penalty)),
            GapModel::Affine { open, extend } => (i64::from(open), i64::from(extend)),
        };
        let (mut i, mut j) = self.start;
        let mut total = 0i64;
        let mut prev = None;
        for &m in &self.moves {
            match m {
                Move::Diag => {
                    total += i64::from(scheme.sub(a.codes()[i], b.codes()[j]));
                    i += 1;
                    j += 1;
                }
                Move::Up => i += 1,
                Move::Left => j += 1,
            }
            if m != Move::Diag {
                total += extend + if prev == Some(m) { 0 } else { open };
            }
            prev = Some(m);
        }
        total
    }

    /// Counts of (diagonal, up, left) moves.
    pub fn move_counts(&self) -> (usize, usize, usize) {
        let mut d = 0;
        let mut u = 0;
        let mut l = 0;
        for m in &self.moves {
            match m {
                Move::Diag => d += 1,
                Move::Up => u += 1,
                Move::Left => l += 1,
            }
        }
        (d, u, l)
    }
}

/// Builds a path *backwards*, the way every traceback produces it: moves
/// are pushed from the path's end toward its start, then [`PathBuilder::finish`]
/// reverses once.
///
/// This is the paper's `flsaPath` accumulator: FastLSA repeatedly prepends
/// path fragments as it walks sub-problems from the bottom-right toward the
/// top-left.
#[derive(Debug, Default)]
pub struct PathBuilder {
    rev_moves: Vec<Move>,
}

impl PathBuilder {
    /// An empty builder (path head at the global end coordinate).
    pub fn new() -> Self {
        PathBuilder::default()
    }

    /// Prepends one move (the move *entering* the current head position).
    #[inline]
    pub fn push_back(&mut self, m: Move) {
        self.rev_moves.push(m);
    }

    /// Prepends a whole fragment given end-to-start (the order tracebacks
    /// naturally produce).
    pub fn extend_back(&mut self, rev_fragment: impl IntoIterator<Item = Move>) {
        self.rev_moves.extend(rev_fragment);
    }

    /// Rebuilds a builder from a reversed move list previously captured
    /// with [`PathBuilder::rev_moves`] (checkpoint/resume support).
    pub fn from_rev_moves(rev_moves: Vec<Move>) -> Self {
        PathBuilder { rev_moves }
    }

    /// The moves prepended so far, in prepend order (path end toward path
    /// start). Snapshotting this and feeding it back through
    /// [`PathBuilder::from_rev_moves`] reproduces the builder exactly.
    pub fn rev_moves(&self) -> &[Move] {
        &self.rev_moves
    }

    /// Moves prepended so far.
    pub fn len(&self) -> usize {
        self.rev_moves.len()
    }

    /// True when nothing has been prepended.
    pub fn is_empty(&self) -> bool {
        self.rev_moves.is_empty()
    }

    /// Finalizes into a forward [`Path`] starting at `start`.
    pub fn finish(mut self, start: (usize, usize)) -> Path {
        self.rev_moves.reverse();
        Path::new(start, self.rev_moves)
    }
}

/// A rendered pairwise alignment: the two sequences with gap characters
/// inserted, plus the paper-style match line (`*` identical, `|` positive
/// similarity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Aligned vertical sequence (gaps as `-`).
    pub aligned_a: String,
    /// Aligned horizontal sequence (gaps as `-`).
    pub aligned_b: String,
    /// Per-column annotation: `*` identical, `|` similarity > 0, space
    /// otherwise.
    pub markers: String,
}

impl Alignment {
    /// Renders `path` over the two sequences.
    ///
    /// # Panics
    ///
    /// Panics when the path is not a complete global path for `a`/`b`.
    pub fn from_path(a: &Sequence, b: &Sequence, path: &Path, scheme: &ScoringScheme) -> Self {
        assert!(
            path.is_global(a.len(), b.len()),
            "alignment rendering requires a complete global path"
        );
        let alpha = a.alphabet();
        let mut aligned_a = String::with_capacity(path.len());
        let mut aligned_b = String::with_capacity(path.len());
        let mut markers = String::with_capacity(path.len());
        let (mut i, mut j) = (0usize, 0usize);
        for m in path.moves() {
            match m {
                Move::Diag => {
                    let ca = a.codes()[i];
                    let cb = b.codes()[j];
                    aligned_a.push(alpha.decode(ca));
                    aligned_b.push(alpha.decode(cb));
                    markers.push(if ca == cb {
                        '*'
                    } else if scheme.sub(ca, cb) > 0 {
                        '|'
                    } else {
                        ' '
                    });
                    i += 1;
                    j += 1;
                }
                Move::Up => {
                    aligned_a.push(alpha.decode(a.codes()[i]));
                    aligned_b.push('-');
                    markers.push(' ');
                    i += 1;
                }
                Move::Left => {
                    aligned_a.push('-');
                    aligned_b.push(alpha.decode(b.codes()[j]));
                    markers.push(' ');
                    j += 1;
                }
            }
        }
        Alignment {
            aligned_a,
            aligned_b,
            markers,
        }
    }

    /// Fraction of columns that are identical residues.
    pub fn identity(&self) -> f64 {
        if self.markers.is_empty() {
            return 0.0;
        }
        let stars = self.markers.chars().filter(|&c| c == '*').count();
        stars as f64 / self.markers.len() as f64
    }
}

impl std::fmt::Display for Alignment {
    /// Block-wrapped rendering (60 columns per block), the conventional
    /// pairwise-alignment report format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const W: usize = 60;
        let a = self.aligned_a.as_bytes();
        let b = self.aligned_b.as_bytes();
        let m = self.markers.as_bytes();
        let mut pos = 0;
        while pos < a.len() {
            let end = (pos + W).min(a.len());
            writeln!(f, "{}", String::from_utf8_lossy(&a[pos..end]))?;
            writeln!(f, "{}", String::from_utf8_lossy(&m[pos..end]))?;
            writeln!(f, "{}", String::from_utf8_lossy(&b[pos..end]))?;
            if end < a.len() {
                writeln!(f)?;
            }
            pos = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_seq::Alphabet;

    fn paper_seqs() -> (Sequence, Sequence, ScoringScheme) {
        let scheme = ScoringScheme::paper_example();
        let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
        (a, b, scheme)
    }

    /// The paper's first alignment: TLDKLLK-D / T-DVL-KAD.
    fn paper_alignment_1() -> Vec<Move> {
        use Move::*;
        // T/T, L/-, D/D, K/V, L/L, L/-, K/K, -/A, D/D
        vec![Diag, Up, Diag, Diag, Diag, Up, Diag, Left, Diag]
    }

    /// The paper's second alignment: TLDKLLK-D / T-D-VLKAD.
    fn paper_alignment_2() -> Vec<Move> {
        use Move::*;
        // T/T, L/-, D/D, K/-, L/V, L/L, K/K, -/A, D/D
        vec![Diag, Up, Diag, Up, Diag, Diag, Diag, Left, Diag]
    }

    #[test]
    fn paper_example_alignment_scores_82() {
        let (a, b, scheme) = paper_seqs();
        let p = Path::new((0, 0), paper_alignment_2());
        assert!(p.is_global(a.len(), b.len()));
        assert_eq!(p.score(&a, &b, &scheme), 82);
    }

    #[test]
    fn paper_alternative_alignment_also_scores_82() {
        // The paper notes two distinct optimal alignments with 5 aligned
        // identities; the first trades K/V + L/L for L/V + the same rest.
        let (a, b, scheme) = paper_seqs();
        let p = Path::new((0, 0), paper_alignment_1());
        assert!(p.is_global(a.len(), b.len()));
        // TLDKLLK-D / T-DVL-KAD: 20 -10 +20 +0 +20 -10 +20 -10 +20 = 70.
        // (This variant aligns K with V, score 0, so it is *not* optimal —
        // the optimal second variant aligns L with V for +12.)
        assert_eq!(p.score(&a, &b, &scheme), 70);
    }

    #[test]
    fn end_tracks_moves() {
        use Move::*;
        let p = Path::new((2, 3), vec![Diag, Left, Up, Diag]);
        assert_eq!(p.end(), (5, 6));
        assert_eq!(p.move_counts(), (2, 1, 1));
    }

    #[test]
    fn builder_reverses_once() {
        use Move::*;
        let mut b = PathBuilder::new();
        // Traceback order: last move first.
        b.push_back(Diag);
        b.push_back(Left);
        b.push_back(Up);
        let p = b.finish((0, 0));
        assert_eq!(p.moves(), &[Up, Left, Diag]);
        assert_eq!(p.end(), (2, 2));
    }

    #[test]
    fn alignment_renders_paper_example() {
        let (a, b, scheme) = paper_seqs();
        let p = Path::new((0, 0), paper_alignment_2());
        let al = Alignment::from_path(&a, &b, &p, &scheme);
        assert_eq!(al.aligned_a, "TLDKLLK-D");
        assert_eq!(al.aligned_b, "T-D-VLKAD");
        // 5 identities (T, D, L, K, D) and one positive-similarity pair (L/V).
        assert_eq!(al.markers.matches('*').count(), 5);
        assert_eq!(al.markers.matches('|').count(), 1);
        assert_eq!(al.markers, "* * |** *");
    }

    #[test]
    fn display_wraps_in_blocks() {
        let alpha = Alphabet::dna();
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", &alpha, &"A".repeat(130)).unwrap();
        let b = Sequence::from_str("b", &alpha, &"A".repeat(130)).unwrap();
        let p = Path::new((0, 0), vec![Move::Diag; 130]);
        let al = Alignment::from_path(&a, &b, &p, &scheme);
        let text = format!("{al}");
        // 3 blocks of 3 lines with blank separators between blocks.
        assert_eq!(text.lines().filter(|l| !l.is_empty()).count(), 9);
        assert!((0.99..=1.0).contains(&al.identity()));
    }

    #[test]
    #[should_panic(expected = "complete global path")]
    fn rendering_rejects_partial_paths() {
        let (a, b, scheme) = paper_seqs();
        let p = Path::new((0, 0), vec![Move::Diag]);
        Alignment::from_path(&a, &b, &p, &scheme);
    }

    #[test]
    fn affine_score_charges_one_open_per_gap_run() {
        use Move::*;
        let scheme = ScoringScheme::new(
            flsa_scoring::tables::dna_default(),
            GapModel::affine(-10, -2),
        );
        let a = Sequence::from_str("a", scheme.alphabet(), "AAAACCAAAA").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "AAAAGAAAA").unwrap();
        // 8 matches (+40), an Up run of 2 (-14) and a Left run of 1 (-12).
        let one_run = Path::new(
            (0, 0),
            vec![Diag, Diag, Diag, Diag, Up, Up, Left, Diag, Diag, Diag, Diag],
        );
        assert_eq!(one_run.score(&a, &b, &scheme), 40 - 14 - 12);
        // Split by the Left move, the Ups open twice: two runs of 1.
        let split = Path::new(
            (0, 0),
            vec![Diag, Diag, Diag, Diag, Up, Left, Up, Diag, Diag, Diag, Diag],
        );
        assert_eq!(split.score(&a, &b, &scheme), 40 - 12 - 12 - 12);
    }

    #[test]
    fn score_of_empty_path_is_zero() {
        let (a, b, scheme) = paper_seqs();
        let p = Path::new((0, 0), vec![]);
        assert_eq!(p.score(&a, &b, &scheme), 0);
        assert!(p.is_empty());
    }
}
