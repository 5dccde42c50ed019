//! Myers–Miller linear-space alignment with *affine* gap penalties.
//!
//! The paper restricts its algorithms to linear gaps; Myers & Miller's
//! 1988 formulation (the one the paper cites for applying Hirschberg's
//! technique to alignment) handles the affine model `gap(L) = open +
//! L·extend` in linear space. This module implements it as the
//! workspace's linear-space affine baseline. Its forward and backward
//! scans are [`flsa_dp::affine::fill_affine_edges_in`], the affine fill
//! that full-matrix Gotoh ([`flsa_fullmatrix::gotoh()`]) and affine
//! FastLSA also run on, so it shares their recurrence; the exhaustive
//! affine oracle in the root `tests/brute_force_oracle.rs` is the
//! independent check of all three.
//!
//! The subtlety over the linear case is a vertical gap run *spanning* the
//! split row: the forward pass tracks, besides the best score `CC[j]`,
//! the best score `DD[j]` ending in an open vertical gap; the join takes
//! `max_j max(CC₁[j]+CC₂[n−j], DD₁[j]+DD₂[n−j] − open)` (the run's open
//! is counted by both halves, so one copy is removed), and the recursion
//! passes boundary-open parameters `tb`/`te` so a sub-problem whose path
//! starts/ends mid-gap at its corner does not charge the open again.

use flsa_dp::affine::{fill_affine_edges_in, AffineBoundary, NEG};
use flsa_dp::{AlignResult, KernelArena, Metrics, Move, Path};
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;

struct Ctx<'s> {
    scheme: &'s ScoringScheme,
    open: i32,
    extend: i32,
    arena: KernelArena,
    metrics: &'s Metrics,
}

impl Ctx<'_> {
    /// Forward affine scan: returns, for the rectangle `a × b` (with the
    /// path entering at the top-left corner and a vertical run down the
    /// left edge opening at cost `tb`), the last-row vectors
    /// `CC[j]` (best score ending at `(m, j)`) and
    /// `DD[j]` (best ending at `(m, j)` in vertical-gap state), checked
    /// out of the arena.
    fn scan(&self, a: &[u8], b: &[u8], tb: i32) -> (Vec<i32>, Vec<i32>) {
        let (m, n) = (a.len(), b.len());
        let ramp = |len: usize, first_open: i32| -> Vec<i32> {
            let mut v = self.arena.take(len + 1);
            for (k, x) in v.iter_mut().enumerate().skip(1) {
                *x = first_open + self.extend * k as i32;
            }
            v
        };
        let unreachable = |len: usize| -> Vec<i32> {
            let mut v = self.arena.take(len + 1);
            v.fill(NEG);
            v
        };
        let (top_h, top_v) = (ramp(n, self.open), unreachable(n));
        let (left_h, left_e) = (ramp(m, tb), unreachable(m));
        let bnd = AffineBoundary {
            top_h: &top_h,
            top_v: &top_v,
            left_h: &left_h,
            left_e: &left_e,
        };
        let edges = fill_affine_edges_in(a, b, bnd, self.scheme, &self.arena, self.metrics);
        for v in [top_h, top_v, left_h, left_e, edges.right_h, edges.right_e] {
            self.arena.put(v);
        }
        let (cc, mut dd) = (edges.bottom_h, edges.bottom_v);
        // The only path to (m, 0) is one vertical run down the left edge;
        // the fill leaves that column's `F` entry as a placeholder.
        dd[0] = cc[0];
        (cc, dd)
    }

    /// Appends the optimal path of the `a × b` rectangle, where a
    /// vertical run leaving the top-left corner opens at `tb` and one
    /// entering the bottom-right corner opens at `te` (either may be 0
    /// when the run continues across the boundary).
    fn solve(&self, a: &[u8], b: &[u8], tb: i32, te: i32, out: &mut Vec<Move>) {
        let (m, n) = (a.len(), b.len());
        if m == 0 {
            out.extend(std::iter::repeat_n(Move::Left, n));
            return;
        }
        if n == 0 {
            out.extend(std::iter::repeat_n(Move::Up, m));
            return;
        }
        if m == 1 {
            // Either delete a[0] (one vertical run, cheapest boundary
            // open) plus one horizontal run of all of b, or match a[0]
            // against some b[j].
            let gap = |len| self.scheme.gap().run_cost(len);
            let delete_score = i64::from(tb.max(te)) + i64::from(self.extend) + gap(n);
            let mut best = delete_score;
            let mut best_j = None;
            for (j, &bj) in b.iter().enumerate() {
                let s = gap(j) + i64::from(self.scheme.sub(a[0], bj)) + gap(n - 1 - j);
                if s > best {
                    best = s;
                    best_j = Some(j);
                }
            }
            match best_j {
                Some(j) => {
                    out.extend(std::iter::repeat_n(Move::Left, j));
                    out.push(Move::Diag);
                    out.extend(std::iter::repeat_n(Move::Left, n - 1 - j));
                }
                None => {
                    // Put the deletion at whichever corner granted the
                    // cheaper (= larger) open.
                    if tb >= te {
                        out.push(Move::Up);
                        out.extend(std::iter::repeat_n(Move::Left, n));
                    } else {
                        out.extend(std::iter::repeat_n(Move::Left, n));
                        out.push(Move::Up);
                    }
                }
            }
            return;
        }

        let mid = m / 2;
        // Forward over the top half.
        let (cc1, dd1) = self.scan(&a[..mid], b, tb);
        // Backward over the reversed bottom half.
        let ra: Vec<u8> = a[mid..].iter().rev().copied().collect();
        let rb: Vec<u8> = b.iter().rev().copied().collect();
        let (cc2, dd2) = self.scan(&ra, &rb, te);

        // Join: type 1 crosses row `mid` at a node; type 2 crosses inside
        // a vertical run (both halves charged the open; remove one).
        let mut best = i64::MIN;
        let mut best_j = 0usize;
        let mut mid_gap = false;
        for j in 0..=n {
            let t1 = i64::from(cc1[j]) + i64::from(cc2[n - j]);
            let t2 = i64::from(dd1[j]) + i64::from(dd2[n - j]) - i64::from(self.open);
            if t1 >= best {
                best = t1;
                best_j = j;
                mid_gap = false;
            }
            if t2 > best {
                best = t2;
                best_j = j;
                mid_gap = true;
            }
        }
        for v in [cc1, dd1, cc2, dd2] {
            self.arena.put(v);
        }

        if mid_gap {
            // The crossing run covers rows mid and mid+1 at column j*.
            self.solve(&a[..mid - 1], &b[..best_j], tb, 0, out);
            out.push(Move::Up);
            out.push(Move::Up);
            self.solve(&a[mid + 1..], &b[best_j..], 0, te, out);
        } else {
            self.solve(&a[..mid], &b[..best_j], tb, self.open, out);
            self.solve(&a[mid..], &b[best_j..], self.open, te, out);
        }
    }
}

/// Affine-gap global alignment in linear space (Myers & Miller 1988).
///
/// # Panics
///
/// Panics when `scheme.gap()` is not [`GapModel::Affine`], and as
/// [`ScoringScheme::check_sequences`] does.
///
/// # Examples
///
/// ```
/// use flsa_hirschberg::myers_miller_affine;
/// use flsa_fullmatrix::gotoh;
/// use flsa_dp::Metrics;
/// use flsa_scoring::{GapModel, ScoringScheme, tables};
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
/// let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACCCGTACGT").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "ACGTACGTACGT").unwrap();
/// let metrics = Metrics::new();
/// let mm = myers_miller_affine(&a, &b, &scheme, &metrics);
/// let full = gotoh(&a, &b, &scheme, &metrics);
/// assert_eq!(mm.score, full.score); // linear space, same optimum
/// ```
pub fn myers_miller_affine(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    metrics: &Metrics,
) -> AlignResult {
    scheme.check_sequences(a, b);
    let (open, extend) = match *scheme.gap() {
        GapModel::Affine { open, extend } => (open, extend),
        GapModel::Linear { .. } => {
            // flsa-check: allow(panic) — documented `# Panics` contract;
            // the solver routes gap models before reaching this fn
            // (ConfigError::GapModelNotAffine guards the fallible path).
            panic!("myers_miller_affine requires an affine gap model; use hirschberg() for linear gaps")
        }
    };
    let ctx = Ctx {
        scheme,
        open,
        extend,
        arena: KernelArena::new(),
        metrics,
    };
    // Working storage: each pass's boundary and edge rows (eight i32
    // rows of n + 1 between the two passes), reused across all levels.
    let _mem = metrics.track_alloc(8 * (b.len() + 1) * std::mem::size_of::<i32>());
    let mut moves = Vec::with_capacity(a.len() + b.len());
    ctx.solve(a.codes(), b.codes(), open, open, &mut moves);
    let path = Path::new((0, 0), moves);
    debug_assert!(path.is_global(a.len(), b.len()));
    let score = path.score(a, b, scheme);
    AlignResult { score, path }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_fullmatrix::gotoh;
    use flsa_scoring::tables;
    use flsa_seq::generate::homologous_pair;
    use flsa_seq::Alphabet;

    fn affine_scheme(open: i32, extend: i32) -> ScoringScheme {
        ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend))
    }

    fn dna(scheme: &ScoringScheme, s: &str) -> Sequence {
        Sequence::from_str("s", scheme.alphabet(), s).unwrap()
    }

    #[test]
    fn matches_gotoh_on_fixed_cases() {
        let scheme = affine_scheme(-10, -2);
        let cases = [
            ("ACGT", "ACGT"),
            ("ACGT", "AGT"),
            ("AAAACCAAAA", "AAAAAAAA"),
            ("ACGTACGTACGT", "TGCATGCA"),
            ("A", "TTTTTTTT"),
            ("GATTACA", "GCATGCT"),
            ("ACCCCCCCCA", "AA"),
        ];
        for (sa, sb) in cases {
            let a = dna(&scheme, sa);
            let b = dna(&scheme, sb);
            let metrics = Metrics::new();
            let full = gotoh(&a, &b, &scheme, &metrics);
            let mm = myers_miller_affine(&a, &b, &scheme, &metrics);
            assert_eq!(mm.score, full.score, "{sa} vs {sb}");
            assert!(mm.path.is_global(a.len(), b.len()));
            assert_eq!(mm.path.score(&a, &b, &scheme), mm.score);
        }
    }

    #[test]
    fn matches_gotoh_on_random_homologs() {
        let scheme = affine_scheme(-12, -1);
        for seed in 0..8 {
            let (a, b) = homologous_pair("t", &Alphabet::dna(), 180, 0.75, seed).unwrap();
            let metrics = Metrics::new();
            let full = gotoh(&a, &b, &scheme, &metrics);
            let mm = myers_miller_affine(&a, &b, &scheme, &metrics);
            assert_eq!(mm.score, full.score, "seed {seed}");
        }
    }

    #[test]
    fn matches_gotoh_on_random_unrelated() {
        use flsa_seq::generate::random_sequence;
        let scheme = affine_scheme(-8, -3);
        for seed in 0..8 {
            let a = random_sequence("a", &Alphabet::dna(), 97, seed * 2);
            let b = random_sequence("b", &Alphabet::dna(), 113, seed * 2 + 1);
            let metrics = Metrics::new();
            let full = gotoh(&a, &b, &scheme, &metrics);
            let mm = myers_miller_affine(&a, &b, &scheme, &metrics);
            assert_eq!(mm.score, full.score, "seed {seed}");
            assert_eq!(mm.path.score(&a, &b, &scheme), mm.score);
        }
    }

    #[test]
    fn gap_run_spanning_the_split_is_one_run() {
        // A 6-base deletion dead-centre: the optimal path's vertical run
        // spans the split row, exercising the DD/type-2 join.
        let scheme = affine_scheme(-20, -1);
        let a = dna(&scheme, "ACGTACCCCCCGTACGT");
        let b = dna(&scheme, "ACGTAGTACGT");
        let metrics = Metrics::new();
        let full = gotoh(&a, &b, &scheme, &metrics);
        let mm = myers_miller_affine(&a, &b, &scheme, &metrics);
        assert_eq!(mm.score, full.score);
        // The Ups must be contiguous (single run), or the rescore would
        // pay two opens and fall below the optimum — already checked by
        // the score equality above, but assert directly too.
        let ups: Vec<usize> = mm
            .path
            .moves()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Move::Up)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ups.len(), 6);
        assert!(ups.windows(2).all(|w| w[1] == w[0] + 1), "{ups:?}");
    }

    #[test]
    fn memory_is_linear() {
        let scheme = affine_scheme(-10, -2);
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 1200, 0.8, 5).unwrap();
        let m_mm = Metrics::new();
        myers_miller_affine(&a, &b, &scheme, &m_mm);
        let m_full = Metrics::new();
        gotoh(&a, &b, &scheme, &m_full);
        assert!(
            m_mm.snapshot().peak_bytes * 20 < m_full.snapshot().peak_bytes,
            "mm {} vs gotoh {}",
            m_mm.snapshot().peak_bytes,
            m_full.snapshot().peak_bytes
        );
    }

    #[test]
    fn empty_and_single_inputs() {
        let scheme = affine_scheme(-10, -2);
        let metrics = Metrics::new();
        let e = dna(&scheme, "");
        let b = dna(&scheme, "ACG");
        assert_eq!(myers_miller_affine(&e, &b, &scheme, &metrics).score, -16);
        assert_eq!(myers_miller_affine(&b, &e, &scheme, &metrics).score, -16);
        assert_eq!(myers_miller_affine(&e, &e, &scheme, &metrics).score, 0);
        let a1 = dna(&scheme, "G");
        let full = gotoh(&a1, &b, &scheme, &metrics);
        let mm = myers_miller_affine(&a1, &b, &scheme, &metrics);
        assert_eq!(mm.score, full.score);
    }

    #[test]
    #[should_panic(expected = "requires an affine gap model")]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        let a = dna(&scheme, "ACG");
        let metrics = Metrics::new();
        myers_miller_affine(&a, &a, &scheme, &metrics);
    }
}
