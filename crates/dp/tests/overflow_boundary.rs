//! Property tests at the R10 overflow-certificate boundary.
//!
//! The audit (`cargo run -p flsa-check --bin audit`) certifies that for
//! the workspace's extremal scoring magnitudes `S` (substitution) and
//! `G` (per-symbol gap), every i32 kernel intermediate stays in range
//! while `|H| + span·(max(S,G)+G) + G ≤ i32::MAX` — that is what makes
//! `ScoringScheme::max_safe_span` a sound admission cap. These tests
//! drive the real kernels (scalar plus every vector backend this CPU
//! offers) right up against that envelope: small rectangles whose boundary
//! values simulate sitting at the far corner of a certified-maximal
//! problem, so cell values come within a hair of `i32::MAX` /
//! `i32::MIN`. An `i64` reference computed in-test proves nothing
//! wrapped: any intermediate overflow in the two-pass u-domain kernels
//! would diverge from it.
//!
//! The affine fills get the same treatment at the affine cap, where
//! reachable scores come down to the `NEG` sentinel instead of `i32::MIN`:
//! an `i64` Gotoh reference (`H`, `E`, `F`) checks every backend's
//! `Kernel::fill_affine_edges_in`, prefix-scan rows included.

use flsa_dp::affine::{AffineGlobalBoundary, NEG};
use flsa_dp::{Kernel, KernelBackend, Metrics, Move, PathBuilder};
use flsa_scoring::{GapModel, ScoringScheme, SubstitutionMatrix};
use flsa_seq::Alphabet;
use proptest::prelude::*;

/// Workspace-certified extremal magnitudes (the audit derives the same
/// values from the baked tables and gap constructors; `audit_self.rs`
/// cross-checks the runtime guard against the certificate itself).
const S_MAX: i32 = 24;
const G_MAX: i32 = 14;

fn scheme_for(s: i32, g: i32) -> ScoringScheme {
    ScoringScheme::new(
        SubstitutionMatrix::match_mismatch("ovf", Alphabet::dna(), s, -s),
        GapModel::linear(-g),
    )
}

/// The largest |corner offset| the certificate's envelope leaves for a
/// `rows × cols` rectangle under magnitudes `(s, g)`: anything below it
/// keeps every cell and every u-domain intermediate inside `i32`.
fn offset_budget(rows: usize, cols: usize, s: i32, g: i32) -> i64 {
    let unit = i64::from(s.max(g) + g);
    i64::from(i32::MAX) - (rows + cols) as i64 * unit - i64::from(g)
}

/// Gap-ramp boundary starting from `offset` at the shared corner — what
/// the surrounding (certified-maximal) problem would hand this block.
fn ramp(offset: i64, len: usize, g: i32) -> Vec<i32> {
    (0..=len)
        .map(|k| i32::try_from(offset - k as i64 * i64::from(g)).expect("ramp within i32"))
        .collect()
}

/// The linear-gap recurrence in `i64`: immune to i32 wrap, so agreement
/// proves the kernels did not overflow.
fn reference_bottom(a: &[u8], b: &[u8], s: i32, g: i32, top: &[i32], left: &[i32]) -> Vec<i64> {
    let cols = b.len();
    let mut prev: Vec<i64> = top.iter().map(|&v| i64::from(v)).collect();
    let mut cur = vec![0i64; cols + 1];
    for i in 1..=a.len() {
        cur[0] = i64::from(left[i]);
        for j in 1..=cols {
            let sub = i64::from(if a[i - 1] == b[j - 1] { s } else { -s });
            cur[j] = (prev[j - 1] + sub)
                .max(prev[j] - i64::from(g))
                .max(cur[j - 1] - i64::from(g));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

fn kernel_bottom(
    kernel: &Kernel,
    a: &[u8],
    b: &[u8],
    scheme: &ScoringScheme,
    top: &[i32],
    left: &[i32],
) -> Vec<i32> {
    let metrics = Metrics::new();
    let mut bottom = vec![0i32; b.len() + 1];
    kernel.fill_last_row(a, b, top, left, scheme, &mut bottom, &metrics);
    bottom
}

fn assert_kernels_match_reference(a: &[u8], b: &[u8], s: i32, g: i32, offset: i64) {
    let scheme = scheme_for(s, g);
    let top = ramp(offset, b.len(), g);
    let left = ramp(offset, a.len(), g);
    let want = reference_bottom(a, b, s, g, &top, &left);
    for backend in KernelBackend::available() {
        let kernel = Kernel::try_new(backend).expect("available backend constructs");
        let bottom = kernel_bottom(&kernel, a, b, &scheme, &top, &left);
        for (j, &w) in want.iter().enumerate() {
            let w32 = i32::try_from(w).expect("certified envelope keeps cells in i32");
            assert_eq!(
                bottom[j],
                w32,
                "{} wrapped at column {j} (offset {offset})",
                backend.name()
            );
        }
    }
}

proptest! {
    /// Random schemes up to the certified magnitudes, rectangles pinned
    /// at a corner offset within a few thousand of the envelope edge,
    /// both score signs: i32 kernels must equal the i64 reference.
    #[test]
    fn kernels_match_i64_reference_near_certified_extremes(
        s in 1..=S_MAX,
        g in 1..=G_MAX,
        a in prop::collection::vec(0u8..4, 1..24),
        b in prop::collection::vec(0u8..4, 16..48),
        slack in 0i64..4096,
        negative in 0u8..2,
    ) {
        let budget = offset_budget(a.len(), b.len(), s, g) - slack;
        prop_assert!(budget > 0);
        let offset = if negative == 1 { -budget } else { budget };
        assert_kernels_match_reference(&a, &b, s, g, offset);
    }
}

#[test]
fn extremal_scheme_at_zero_slack_does_not_wrap() {
    // The exact corner of the certificate: maximal magnitudes, offset
    // flush against the envelope, all-mismatch and all-match inputs
    // (the two monotone extremes of the recurrence). Widths 16..48 end
    // rows at every remainder mod 16, so each partial vector block (the
    // AVX-512 masked tail included) runs at the envelope too. Heights
    // put the AVX-512 `i32` band (this DNA alphabet fits its table) on
    // both sides of its 8-row threshold, in one band, and in two bands
    // in flight with a full or partial second band. From 48 rows the
    // byte band takes over (its differences lie in [−G, S + G] = [−14,
    // 38], which fits i8, and the ramp's steps are all −G): 63–65,
    // 127–129 and 192 rows put it in one band and in two bands in flight
    // around each 64-row edge, and its i32 edges are prefix sums that
    // end within a hair of i32::MAX / i32::MIN.
    for cols in 16..48 {
        for rows in [
            7,
            8,
            16,
            20,
            31,
            33,
            63,
            64,
            65,
            64 + cols % 16,
            127,
            128,
            129,
            192,
        ] {
            let a_mis: Vec<u8> = vec![0; rows];
            let b_mis: Vec<u8> = vec![1; cols];
            let a_mat: Vec<u8> = vec![2; rows];
            let b_mat: Vec<u8> = vec![2; cols];
            for (a, b) in [(&a_mis, &b_mis), (&a_mat, &b_mat)] {
                let budget = offset_budget(a.len(), b.len(), S_MAX, G_MAX);
                assert_kernels_match_reference(a, b, S_MAX, G_MAX, budget);
                assert_kernels_match_reference(a, b, S_MAX, G_MAX, -budget);
            }
        }
    }
}

/// The optimal path into `head` by the `i64` recurrence under the
/// match/mismatch scores `±s` (see [`reference_trace_with`]).
fn reference_trace(
    a: &[u8],
    b: &[u8],
    (s, g): (i32, i32),
    (top, left): (&[i32], &[i32]),
    head: (usize, usize),
) -> ((usize, usize), Vec<Move>) {
    let score = |x: u8, y: u8| if x == y { s } else { -s };
    reference_trace_with(a, b, (&score, g), (top, left), head)
}

/// The optimal path into `head` by the `i64` recurrence with scores
/// `score` and gap `−g`, walked back under Diag ≻ Up ≻ Left to the top
/// row or left column: the exit and the moves, last move first.
fn reference_trace_with(
    a: &[u8],
    b: &[u8],
    (score, g): (&dyn Fn(u8, u8) -> i32, i32),
    (top, left): (&[i32], &[i32]),
    head: (usize, usize),
) -> ((usize, usize), Vec<Move>) {
    let g = i64::from(g);
    let cols = b.len();
    let mut h = vec![vec![0i64; cols + 1]; a.len() + 1];
    h[0] = top.iter().map(|&v| i64::from(v)).collect();
    let sub = |i: usize, j: usize| i64::from(score(a[i - 1], b[j - 1]));
    for i in 1..=a.len() {
        h[i][0] = i64::from(left[i]);
        for j in 1..=cols {
            h[i][j] = (h[i - 1][j - 1] + sub(i, j))
                .max(h[i - 1][j] - g)
                .max(h[i][j - 1] - g);
        }
    }
    let ((mut i, mut j), mut moves) = (head, Vec::new());
    while i > 0 && j > 0 {
        let m = if h[i - 1][j - 1] + sub(i, j) == h[i][j] {
            Move::Diag
        } else if h[i - 1][j] - g == h[i][j] {
            Move::Up
        } else {
            Move::Left
        };
        i -= usize::from(m != Move::Left);
        j -= usize::from(m != Move::Up);
        moves.push(m);
    }
    ((i, j), moves)
}

#[test]
fn coded_base_cases_at_the_i8_edge_trace_like_the_i64_reference() {
    // The byte band stores a base case's traceback codes only inside its
    // `i8` domain: `match_mismatch(63, −63)` with gap −64 puts the
    // differences at [−64, 127] and the diagonal terms at [−128, 63], the
    // last scheme it admits (`S − 2g` reaches 191 in its bytes); gap −65
    // falls back to the score matrix. Either way every head on the bottom
    // row and the right column traces back like the `i64` reference,
    // at heights around each 64-row band edge and widths 16..48, from
    // boundaries pinned at the certified envelope's offsets.
    let vbmi = flsa_dp::detected_cpu_features().contains(&"avx512vbmi");
    let mut x = 0x1e_d6e_u64;
    let mut random = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 5) as u8
            })
            .collect()
    };
    for (g, admitted) in [(64, true), (65, false)] {
        let scheme = scheme_for(63, g);
        for (rows, cols) in [(48, 16), (63, 47), (64, 33), (65, 20), (127, 40), (129, 31)] {
            let inputs = [
                (vec![0; rows], vec![1; cols]),
                (vec![2; rows], vec![2; cols]),
                (random(rows), random(cols)),
            ];
            let budget = offset_budget(rows, cols, 63, g);
            for ((a, b), offset) in inputs.iter().zip([budget, -budget, 0]) {
                let top = ramp(offset, cols, g);
                let left = ramp(offset, rows, g);
                for backend in KernelBackend::available() {
                    let kernel = Kernel::try_new(backend).expect("available backend constructs");
                    let metrics = Metrics::new();
                    let fill =
                        kernel.fill_base_reusing(a, b, &top, &left, &scheme, Vec::new(), &metrics);
                    let coded = matches!(fill, flsa_dp::BaseFill::Codes(_));
                    let want_coded = admitted && vbmi && backend == KernelBackend::Avx512;
                    let case = format!("gap -{g} {rows}x{cols} offset {offset} {backend}");
                    assert_eq!(coded, want_coded, "{case}: coded");
                    let heads = (1..=cols)
                        .map(|j| (rows, j))
                        .chain((1..rows).map(|i| (i, cols)));
                    for head in heads {
                        let mut out = PathBuilder::new();
                        let exit = fill.trace(a, b, &scheme, head, &mut out, &metrics);
                        let want = reference_trace(a, b, (63, g), (&top, &left), head);
                        assert_eq!(
                            (exit, out.rev_moves().to_vec()),
                            want,
                            "{case} from {head:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blosum62_at_the_i8_edge_fills_and_traces_like_the_i64_reference() {
    // BLOSUM62 (scores in [−4, 11], 24 codes in five byte-band tables)
    // is the byte band's up to gap −64: differences in [−64, 75] and
    // diagonal terms in [−128, 11], table entries `S + 128` in
    // [124, 139]. Gap −65 (2g = −130) keeps the row scan and the score
    // matrix. Either way the bottom row and every head's traceback match
    // the `i64` reference, at heights around the 64-row band edge, from
    // ramps pinned at the certified envelope's offsets.
    let vbmi = flsa_dp::detected_cpu_features().contains(&"avx512vbmi");
    let blosum = flsa_scoring::tables::blosum62();
    let score = |x: u8, y: u8| blosum.score(x, y);
    let mut x = 0xb10_5e62_u64;
    let mut random = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 24) as u8
            })
            .collect()
    };
    for (g, admitted) in [(64, true), (65, false)] {
        let scheme = ScoringScheme::new(blosum.clone(), GapModel::linear(-g));
        for (rows, cols) in [(48, 16), (64, 40), (65, 24), (129, 31)] {
            let (a, b) = (random(rows), random(cols));
            let budget = offset_budget(rows, cols, 11, g);
            for offset in [budget, -budget, 0] {
                let (top, left) = (ramp(offset, cols, g), ramp(offset, rows, g));
                let case = format!("gap -{g} {rows}x{cols} offset {offset}");
                let heads: Vec<_> = (1..=cols)
                    .map(|j| (rows, j))
                    .chain((1..rows).map(|i| (i, cols)))
                    .collect();
                let want: Vec<_> = heads
                    .iter()
                    .map(|&head| reference_trace_with(&a, &b, (&score, g), (&top, &left), head))
                    .collect();
                let want_bottom = reference_bottom_with(&a, &b, (&score, g), (&top, &left));
                for backend in KernelBackend::available() {
                    let kernel = Kernel::try_new(backend).expect("available backend constructs");
                    let bottom = kernel_bottom(&kernel, &a, &b, &scheme, &top, &left);
                    let metrics = Metrics::new();
                    let fill = kernel.fill_base_reusing(
                        &a,
                        &b,
                        &top,
                        &left,
                        &scheme,
                        Vec::new(),
                        &metrics,
                    );
                    let coded = matches!(fill, flsa_dp::BaseFill::Codes(_));
                    let want_coded = admitted && vbmi && backend == KernelBackend::Avx512;
                    assert_eq!(coded, want_coded, "{case} {backend}: coded");
                    for (&head, want) in heads.iter().zip(&want) {
                        let mut out = PathBuilder::new();
                        let exit = fill.trace(&a, &b, &scheme, head, &mut out, &metrics);
                        assert_eq!(
                            (exit, out.rev_moves().to_vec()),
                            *want,
                            "{case} {backend} from {head:?}"
                        );
                    }
                    for (j, &w) in want_bottom.iter().enumerate() {
                        let w32 = i32::try_from(w).expect("certified envelope keeps cells in i32");
                        assert_eq!(bottom[j], w32, "{case} {backend}: bottom column {j}");
                    }
                }
            }
        }
    }
}

/// The bottom row of the `i64` recurrence with scores `score` and gap
/// `−g`.
fn reference_bottom_with(
    a: &[u8],
    b: &[u8],
    (score, g): (&dyn Fn(u8, u8) -> i32, i32),
    (top, left): (&[i32], &[i32]),
) -> Vec<i64> {
    let g = i64::from(g);
    let mut prev: Vec<i64> = top.iter().map(|&v| i64::from(v)).collect();
    let mut cur = vec![0i64; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i64::from(left[i]);
        for j in 1..=b.len() {
            let sub = i64::from(score(a[i - 1], b[j - 1]));
            cur[j] = (prev[j - 1] + sub).max(prev[j] - g).max(cur[j - 1] - g);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

#[test]
fn certified_magnitudes_cover_every_baked_scheme() {
    // S_MAX/G_MAX above must stay in sync with what the workspace
    // actually bakes in; the audit certificate is derived from the
    // same sources, and audit_self.rs ties it to the runtime guard.
    for scheme in [
        ScoringScheme::paper_example(),
        ScoringScheme::protein_default(),
        ScoringScheme::dna_default(),
    ] {
        let m = scheme.matrix();
        assert!(m.max_score().abs() <= S_MAX, "{}", m.name());
        assert!(m.min_score().abs() <= S_MAX, "{}", m.name());
        assert!(scheme.gap().max_penalty_abs() <= i64::from(G_MAX));
    }
}

/// The affine recurrence in `i64`, returning the edges
/// `fill_affine_edges_in` emits: bottom `H`, bottom `F`, right `H`,
/// right `E` (the `F`/`E` entries at index 0 are placeholders and are
/// not compared).
fn affine_reference_edges(
    a: &[u8],
    b: &[u8],
    s: i32,
    (open, extend): (i32, i32),
    bnd: &AffineGlobalBoundary,
) -> [Vec<i64>; 4] {
    let (open, extend) = (i64::from(open), i64::from(extend));
    let wide = |v: &[i32]| -> Vec<i64> { v.iter().map(|&x| i64::from(x)).collect() };
    let cols = b.len();
    let mut h_prev = wide(&bnd.top_h);
    let mut f_prev = wide(&bnd.top_v);
    let mut h_cur = vec![0i64; cols + 1];
    let mut f_cur = f_prev.clone();
    let mut right_h = vec![h_prev[cols]];
    let mut right_e = vec![i64::from(NEG)];
    for i in 1..=a.len() {
        h_cur[0] = i64::from(bnd.left_h[i]);
        let mut e = i64::from(bnd.left_e[i]);
        for j in 1..=cols {
            let sub = i64::from(if a[i - 1] == b[j - 1] { s } else { -s });
            f_cur[j] = (f_prev[j] + extend).max(h_prev[j] + open + extend);
            e = (e + extend).max(h_cur[j - 1] + open + extend);
            h_cur[j] = (h_prev[j - 1] + sub).max(e).max(f_cur[j]);
        }
        right_h.push(h_cur[cols]);
        right_e.push(e);
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }
    [h_prev, f_prev, right_h, right_e]
}

/// Affine boundary hanging off `corner`: the gap ramp
/// `corner + open + k·extend` on both `H` edges, `NEG` gap states.
fn affine_ramp_boundary(
    corner: i64,
    rows: usize,
    cols: usize,
    gap: (i32, i32),
) -> AffineGlobalBoundary {
    let ramp = |len: usize| -> Vec<i32> {
        (0..=len)
            .map(|k| {
                let v = if k == 0 {
                    corner
                } else {
                    corner + i64::from(gap.0) + k as i64 * i64::from(gap.1)
                };
                i32::try_from(v).expect("ramp within i32")
            })
            .collect()
    };
    AffineGlobalBoundary {
        top_h: ramp(cols),
        top_v: vec![NEG; cols + 1],
        left_h: ramp(rows),
        left_e: vec![NEG; rows + 1],
    }
}

fn assert_affine_kernels_match_reference(a: &[u8], b: &[u8], s: i32, gap: (i32, i32), corner: i64) {
    let scheme = ScoringScheme::new(
        SubstitutionMatrix::match_mismatch("ovf", Alphabet::dna(), s, -s),
        GapModel::affine(gap.0, gap.1),
    );
    let bnd = affine_ramp_boundary(corner, a.len(), b.len(), gap);
    let want = affine_reference_edges(a, b, s, gap, &bnd);
    for backend in KernelBackend::available() {
        let kernel = Kernel::try_new(backend).expect("available backend constructs");
        let edges = kernel.fill_affine_edges_in(a, b, bnd.view(), &scheme, &Metrics::new());
        let got = [
            &edges.bottom_h,
            &edges.bottom_v,
            &edges.right_h,
            &edges.right_e,
        ];
        for (k, name) in ["bottom H", "bottom F", "right H", "right E"]
            .iter()
            .enumerate()
        {
            // Index 0 of the F and E edges is a placeholder.
            let from = k % 2;
            let got: Vec<i64> = got[k][from..].iter().map(|&v| i64::from(v)).collect();
            assert_eq!(
                got,
                want[k][from..],
                "{} {name} diverged (corner {corner})",
                backend.name()
            );
        }
    }
}

#[test]
fn affine_fills_at_the_affine_cap_do_not_wrap() {
    // The affine corner of the certificate: S = 24 and open + extend =
    // -14, so C = 24 and G = 14, and `max_safe_span` is the affine cap
    // (2^29 - 2G) / C. A block of span `rows + cols` sitting at the far
    // corner of a problem at that cap has boundary H offset up to
    // ±(2^29 - 2G - span·C): reachable scores then come within G of the
    // NEG sentinel, which both gap-state edges hold. All-match and
    // all-mismatch inputs at widths 16..48 end rows in every partial
    // block, the AVX-512 masked tail included.
    let gap: (i32, i32) = (-12, -2);
    let g = i64::from(gap.0.abs() + gap.1.abs());
    let scheme = ScoringScheme::new(
        SubstitutionMatrix::match_mismatch("ovf", Alphabet::dna(), S_MAX, -S_MAX),
        GapModel::affine(gap.0, gap.1),
    );
    let c = i64::from(S_MAX).max(g);
    assert_eq!(scheme.max_safe_span() as i64, ((1i64 << 29) - 2 * g) / c);
    for cols in 16..48 {
        let a_mis: Vec<u8> = vec![0; 20];
        let b_mis: Vec<u8> = vec![1; cols];
        let a_mat: Vec<u8> = vec![2; 20];
        let b_mat: Vec<u8> = vec![2; cols];
        for (a, b) in [(&a_mis, &b_mis), (&a_mat, &b_mat)] {
            let span = (a.len() + b.len()) as i64;
            let offset = (1i64 << 29) - 2 * g - span * c;
            assert_affine_kernels_match_reference(a, b, S_MAX, gap, offset);
            assert_affine_kernels_match_reference(a, b, S_MAX, gap, -offset);
        }
    }
}
