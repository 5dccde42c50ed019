//! Affine-gap FastLSA (extension; see DESIGN.md §6).
//!
//! The paper defines FastLSA for linear gap penalties. The same
//! grid-cache recursion carries over to the affine model once two things
//! change:
//!
//! 1. **Richer grid lines.** A horizontal grid line caches `H` *and* `F`
//!    (vertical gap runs cross it); a vertical line caches `H` and `E`.
//!    Cache storage doubles — still `O(k·(m+n))`.
//! 2. **Stateful path head.** The traceback may leave a sub-problem in
//!    the middle of a gap run; the head therefore carries a
//!    [`GapState`], and the next sub-problem's traceback resumes in that
//!    layer (the run's open cost is charged exactly once because the
//!    boundary `F`/`E` values already include it).
//!
//! The extension is sequential (the paper's evaluation does not cover
//! affine gaps; any [`FastLsaConfig::parallel`] setting is ignored). Its
//! fills run on a [`Kernel`] — the AVX-512 and AVX2 affine rows where the
//! CPU has them, bit-identical to the scalar `flsa_dp::affine` fills that
//! Gotoh and Myers–Miller keep as independent oracles — and every base
//! case fills three buffers reused for the whole run. The base-case
//! traceback is `flsa_dp::affine::trace_affine`; the exhaustive affine
//! oracle in the root `tests/brute_force_oracle.rs` checks all three
//! aligners independently.

use flsa_dp::affine::{AffineBoundary, AffineGlobalBoundary, GapState, NEG};
use flsa_dp::{AlignResult, Kernel, MemGuard, Metrics, Move, PathBuilder};
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

use crate::config::FastLsaConfig;
use crate::error::{AlignError, ConfigError};
use crate::grid::{partition, segment_of};

/// One recursion level's affine grid cache: `H`+`F` along internal rows,
/// `H`+`E` along internal columns.
struct AffineGrid {
    row_bounds: Vec<usize>,
    col_bounds: Vec<usize>,
    rows_h: Vec<Vec<i32>>,
    rows_v: Vec<Vec<i32>>,
    cols_h: Vec<Vec<i32>>,
    cols_e: Vec<Vec<i32>>,
}

impl AffineGrid {
    fn new(rows: usize, cols: usize, k_r: usize, k_c: usize) -> Self {
        AffineGrid {
            row_bounds: partition(rows, k_r),
            col_bounds: partition(cols, k_c),
            rows_h: vec![vec![0; cols + 1]; k_r - 1],
            rows_v: vec![vec![NEG; cols + 1]; k_r - 1],
            cols_h: vec![vec![0; rows + 1]; k_c - 1],
            cols_e: vec![vec![NEG; rows + 1]; k_c - 1],
        }
    }

    fn entries(&self) -> usize {
        2 * (self.rows_h.iter().map(Vec::len).sum::<usize>()
            + self.cols_h.iter().map(Vec::len).sum::<usize>())
    }
}

struct AffineSolver<'s> {
    scheme: &'s ScoringScheme,
    config: FastLsaConfig,
    metrics: &'s Metrics,
    /// The fill kernel. Its arena pools the grid fills' boundary and edge
    /// buffers: every block after the first reuses the same handful of
    /// vectors instead of allocating eight per block.
    kernel: Kernel,
    /// The Base Case buffers (`H`, `E`, `F`), reused by every base case
    /// and grown, exactly, to the largest one.
    base: [Vec<i32>; 3],
    /// Tracks the base buffers' bytes; replaced whenever they grow.
    base_guard: Option<MemGuard<'s>>,
}

impl AffineSolver<'_> {
    /// Extends the path through one rectangle; `head` is on the bottom
    /// row or right column carrying `state`; returns the exit point on
    /// the top row or left column with its state.
    fn solve(
        &mut self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        head: (usize, usize),
        state: GapState,
        out: &mut PathBuilder,
    ) -> ((usize, usize), GapState) {
        let (rows, cols) = (a.len(), b.len());
        debug_assert!(head.0 == rows || head.1 == cols);
        // Already on the exit boundary (unless mid-run pointing across it).
        let done = match state {
            GapState::H => head.0 == 0 || head.1 == 0,
            GapState::F => head.0 == 0,
            GapState::E => head.1 == 0,
        };
        if done {
            return (head, state);
        }

        let cells = (rows + 1).saturating_mul(cols + 1);
        if cells <= self.config.base_cells || rows < 2 || cols < 2 {
            return self.base_case(a, b, bnd, head, state, out);
        }

        // GENERAL CASE.
        let k_r = self.config.k.min(rows);
        let k_c = self.config.k.min(cols);
        let mut grid = AffineGrid::new(rows, cols, k_r, k_c);
        let _mem = self
            .metrics
            .track_alloc(grid.entries() * std::mem::size_of::<i32>());
        self.fill_grid(a, b, bnd, &mut grid);

        let (mut i, mut j) = head;
        let mut state = state;
        loop {
            let done = match state {
                GapState::H => i == 0 || j == 0,
                GapState::F => i == 0,
                GapState::E => j == 0,
            };
            if done {
                break;
            }
            let s = segment_of(&grid.row_bounds, i.max(1));
            let t = segment_of(&grid.col_bounds, j.max(1));
            let r0 = grid.row_bounds[s];
            let r1 = grid.row_bounds[s + 1];
            let c0 = grid.col_bounds[t];
            let c1 = grid.col_bounds[t + 1];
            let sub_bnd = AffineBoundary {
                top_h: if s == 0 {
                    &bnd.top_h[c0..=c1]
                } else {
                    &grid.rows_h[s - 1][c0..=c1]
                },
                top_v: if s == 0 {
                    &bnd.top_v[c0..=c1]
                } else {
                    &grid.rows_v[s - 1][c0..=c1]
                },
                left_h: if t == 0 {
                    &bnd.left_h[r0..=r1]
                } else {
                    &grid.cols_h[t - 1][r0..=r1]
                },
                left_e: if t == 0 {
                    &bnd.left_e[r0..=r1]
                } else {
                    &grid.cols_e[t - 1][r0..=r1]
                },
            };
            let ((ei, ej), st) = self.solve(
                &a[r0..r1],
                &b[c0..c1],
                sub_bnd,
                (i - r0, j - c0),
                state,
                out,
            );
            i = r0 + ei;
            j = c0 + ej;
            state = st;
        }
        ((i, j), state)
    }

    /// BASE CASE: three full layers in the reused buffers, plus stateful
    /// traceback.
    fn base_case(
        &mut self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        head: (usize, usize),
        state: GapState,
        out: &mut PathBuilder,
    ) -> ((usize, usize), GapState) {
        let (rows, cols) = (a.len(), b.len());
        let cells = (rows + 1) * (cols + 1);
        if self.base[0].capacity() < cells {
            self.base_guard = None;
            for buf in &mut self.base {
                buf.reserve_exact(cells - buf.len());
            }
            let bytes = 3 * cells * std::mem::size_of::<i32>();
            self.base_guard = Some(self.metrics.track_alloc(bytes));
        }
        let storage = std::mem::take(&mut self.base);
        let mats =
            self.kernel
                .fill_affine_full_reusing(a, b, bnd, self.scheme, storage, self.metrics);
        self.metrics.add_base_case_cells(rows as u64 * cols as u64);
        let exit =
            flsa_dp::affine::trace_affine(&mats, a, b, self.scheme, head, state, out, self.metrics);
        self.base = mats.into_storage();
        exit
    }

    /// Sequential fillGridCache with affine edges; every block except the
    /// bottom-right, row-major.
    fn fill_grid(&mut self, a: &[u8], b: &[u8], bnd: AffineBoundary<'_>, grid: &mut AffineGrid) {
        let k_r = grid.row_bounds.len() - 1;
        let k_c = grid.col_bounds.len() - 1;
        for s in 0..k_r {
            for t in 0..k_c {
                if s == k_r - 1 && t == k_c - 1 {
                    continue;
                }
                let r0 = grid.row_bounds[s];
                let r1 = grid.row_bounds[s + 1];
                let c0 = grid.col_bounds[t];
                let c1 = grid.col_bounds[t + 1];
                // Copy inputs first (the outputs may alias other rows of
                // the same cache vectors). Buffers come from the arena so
                // steady-state grid fills allocate nothing.
                let arena = self.kernel.arena();
                let mut top_h = arena.take(c1 - c0 + 1);
                top_h.copy_from_slice(if s == 0 {
                    &bnd.top_h[c0..=c1]
                } else {
                    &grid.rows_h[s - 1][c0..=c1]
                });
                let mut top_v = arena.take(c1 - c0 + 1);
                top_v.copy_from_slice(if s == 0 {
                    &bnd.top_v[c0..=c1]
                } else {
                    &grid.rows_v[s - 1][c0..=c1]
                });
                let mut left_h = arena.take(r1 - r0 + 1);
                left_h.copy_from_slice(if t == 0 {
                    &bnd.left_h[r0..=r1]
                } else {
                    &grid.cols_h[t - 1][r0..=r1]
                });
                let mut left_e = arena.take(r1 - r0 + 1);
                left_e.copy_from_slice(if t == 0 {
                    &bnd.left_e[r0..=r1]
                } else {
                    &grid.cols_e[t - 1][r0..=r1]
                });
                let edges = self.kernel.fill_affine_edges_in(
                    &a[r0..r1],
                    &b[c0..c1],
                    AffineBoundary {
                        top_h: &top_h,
                        top_v: &top_v,
                        left_h: &left_h,
                        left_e: &left_e,
                    },
                    self.scheme,
                    self.metrics,
                );
                arena.put(top_h);
                arena.put(top_v);
                arena.put(left_h);
                arena.put(left_e);
                if s + 1 < k_r {
                    grid.rows_h[s][c0..=c1].copy_from_slice(&edges.bottom_h);
                    // bottom_v[0] is a placeholder (the kernel never
                    // updates the V entry of its own left edge); the true
                    // corner value is the *left* neighbour's bottom_v
                    // last element, already in place. Skip index 0 so it
                    // is not clobbered.
                    grid.rows_v[s][c0 + 1..=c1].copy_from_slice(&edges.bottom_v[1..]);
                }
                if t + 1 < k_c {
                    grid.cols_h[t][r0..=r1].copy_from_slice(&edges.right_h);
                    // right_e[0] is a placeholder; keep the true value
                    // already present from the block above (or NEG at the
                    // very top, where no cell reads it).
                    grid.cols_e[t][r0 + 1..=r1].copy_from_slice(&edges.right_e[1..]);
                }
                edges.recycle(arena);
            }
        }
    }
}

/// Affine-gap global alignment with the FastLSA recursion (sequential).
///
/// Produces the same optimal score as [`flsa_fullmatrix::gotoh()`] in
/// FastLSA's adaptive memory footprint.
///
/// # Errors
///
/// Returns [`ConfigError::GapModelNotAffine`] (wrapped in
/// [`AlignError::Config`]) when `scheme.gap()` is not affine, and the
/// usual configuration/alphabet errors of the linear entry points,
/// including [`ConfigError::ScoreOverflow`] for a span beyond
/// [`ScoringScheme::max_safe_span`].
///
/// # Examples
///
/// ```
/// use fastlsa_core::{align_affine, FastLsaConfig};
/// use flsa_dp::Metrics;
/// use flsa_scoring::{tables, GapModel, ScoringScheme};
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
/// let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACCCCGTACGT").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "ACGTACGTACGT").unwrap();
/// let metrics = Metrics::new();
/// let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 256), &metrics).unwrap();
/// assert!(r.path.is_global(a.len(), b.len()));
/// // 12 matches (+60) and one length-3 gap (-13): score 47.
/// assert_eq!(r.score, 47);
/// ```
pub fn align_affine(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    config.validate_run(scheme, a.len(), b.len())?;
    if !matches!(*scheme.gap(), flsa_scoring::GapModel::Affine { .. }) {
        return Err(ConfigError::GapModelNotAffine.into());
    }
    for s in [a, b] {
        if s.alphabet() != scheme.alphabet() {
            return Err(AlignError::AlphabetMismatch {
                expected: scheme.alphabet().name().to_string(),
                found: s.alphabet().name().to_string(),
            });
        }
    }
    let (open, extend) = flsa_dp::affine::affine_params(scheme);
    let (m, n) = (a.len(), b.len());
    let bnd = AffineGlobalBoundary::new(m, n, open, extend);

    let mut solver = AffineSolver {
        scheme,
        config,
        metrics,
        kernel: Kernel::auto(),
        base: Default::default(),
        base_guard: None,
    };
    let mut builder = PathBuilder::new();
    let ((ei, ej), _state) = solver.solve(
        a.codes(),
        b.codes(),
        bnd.view(),
        (m, n),
        GapState::H,
        &mut builder,
    );
    for _ in 0..ei {
        builder.push_back(Move::Up);
    }
    for _ in 0..ej {
        builder.push_back(Move::Left);
    }

    let path = builder.finish((0, 0));
    debug_assert!(path.is_global(m, n));
    let score = path.score(a, b, scheme);
    Ok(AlignResult { score, path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_fullmatrix::gotoh::gotoh;
    use flsa_scoring::{tables, GapModel};
    use flsa_seq::generate::{homologous_pair, random_sequence};
    use flsa_seq::Alphabet;

    fn scheme(open: i32, extend: i32) -> ScoringScheme {
        ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend))
    }

    #[test]
    fn matches_gotoh_on_fixed_cases() {
        let scheme = scheme(-10, -2);
        let cases = [
            ("ACGT", "ACGT"),
            ("AAAACCAAAA", "AAAAAAAA"),
            ("ACGTACGTACGTACGTACGT", "ACGTACGACGTACGGT"),
            ("A", "GGGGGGGG"),
            ("ACCCCCCCCCCA", "AA"),
        ];
        for (sa, sb) in cases {
            let a = Sequence::from_str("a", scheme.alphabet(), sa).unwrap();
            let b = Sequence::from_str("b", scheme.alphabet(), sb).unwrap();
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            for k in [2usize, 3, 4] {
                for base in [16usize, 64, 1 << 20] {
                    let m = Metrics::new();
                    let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(k, base), &m).unwrap();
                    assert_eq!(r.score, oracle.score, "{sa}/{sb} k={k} base={base}");
                }
            }
        }
    }

    #[test]
    fn matches_gotoh_on_random_homologs() {
        let scheme = scheme(-12, -1);
        for seed in 0..6 {
            let (a, b) = homologous_pair("t", &Alphabet::dna(), 250, 0.8, seed).unwrap();
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 512), &metrics).unwrap();
            assert_eq!(r.score, oracle.score, "seed {seed}");
            assert!(r.path.is_global(a.len(), b.len()));
        }
    }

    #[test]
    fn matches_gotoh_on_random_unrelated() {
        let scheme = scheme(-8, -3);
        for seed in 0..6 {
            let a = random_sequence("a", &Alphabet::dna(), 120, seed * 2);
            let b = random_sequence("b", &Alphabet::dna(), 140, seed * 2 + 1);
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(3, 128), &metrics).unwrap();
            assert_eq!(r.score, oracle.score, "seed {seed}");
        }
    }

    #[test]
    fn long_gap_crossing_many_grid_lines() {
        // A 40-base gap with k=4 and a tiny base case: the run crosses
        // several grid rows, exercising the stateful head repeatedly.
        let scheme = scheme(-30, -1);
        let core = "ACGTACGTACGTACGTACGT";
        let a = Sequence::from_str(
            "a",
            scheme.alphabet(),
            &format!("{core}{}{core}", "C".repeat(40)),
        )
        .unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), &format!("{core}{core}")).unwrap();
        let metrics = Metrics::new();
        let oracle = gotoh(&a, &b, &scheme, &metrics);
        let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 64), &metrics).unwrap();
        assert_eq!(r.score, oracle.score);
        // The 40 Ups must be one contiguous run (single open), otherwise
        // the rescore would fall short of the oracle.
        let ups: Vec<usize> = r
            .path
            .moves()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Move::Up)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ups.len(), 40);
        assert!(ups.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn memory_stays_linear() {
        let scheme = scheme(-10, -2);
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 1500, 0.85, 4).unwrap();
        let m_fl = Metrics::new();
        align_affine(&a, &b, &scheme, FastLsaConfig::new(8, 1 << 12), &m_fl).unwrap();
        let m_g = Metrics::new();
        gotoh(&a, &b, &scheme, &m_g);
        assert!(
            m_fl.snapshot().peak_bytes * 10 < m_g.snapshot().peak_bytes,
            "fastlsa-affine {} vs gotoh {}",
            m_fl.snapshot().peak_bytes,
            m_g.snapshot().peak_bytes
        );
    }

    #[test]
    fn one_base_case_tracks_exactly_its_three_layers() {
        // A pair that fits one base case allocates the three layers and
        // nothing else: no grid, no reservation beyond the buffers.
        let scheme = scheme(-10, -2);
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 120, 0.8, 9).unwrap();
        let (m, n) = (a.len(), b.len());
        let metrics = Metrics::new();
        align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 1 << 20), &metrics).unwrap();
        let want = 3 * (m + 1) * (n + 1) * std::mem::size_of::<i32>();
        assert_eq!(metrics.snapshot().peak_bytes, want as u64);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let scheme = scheme(-10, -2);
        let metrics = Metrics::new();
        let e = Sequence::from_str("e", scheme.alphabet(), "").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "ACG").unwrap();
        let cfg = FastLsaConfig::new(2, 8);
        assert_eq!(
            align_affine(&e, &b, &scheme, cfg, &metrics).unwrap().score,
            -16
        );
        assert_eq!(
            align_affine(&b, &e, &scheme, cfg, &metrics).unwrap().score,
            -16
        );
        assert_eq!(
            align_affine(&e, &e, &scheme, cfg, &metrics).unwrap().score,
            0
        );
    }

    #[test]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", scheme.alphabet(), "ACG").unwrap();
        let metrics = Metrics::new();
        let err = align_affine(&a, &a, &scheme, FastLsaConfig::default(), &metrics).unwrap_err();
        assert_eq!(
            err,
            AlignError::Config(ConfigError::GapModelNotAffine),
            "linear gap model must be rejected as a config error"
        );
    }
}
