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
use flsa_dp::{Kernel, KernelBackend, Metrics};
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
    // AVX-512 masked tail included) runs at the envelope too.
    for cols in 16..48 {
        let a_mis: Vec<u8> = vec![0; 20];
        let b_mis: Vec<u8> = vec![1; cols];
        let a_mat: Vec<u8> = vec![2; 20];
        let b_mat: Vec<u8> = vec![2; cols];
        for (a, b) in [(&a_mis, &b_mis), (&a_mat, &b_mat)] {
            let budget = offset_budget(a.len(), b.len(), S_MAX, G_MAX);
            assert_kernels_match_reference(a, b, S_MAX, G_MAX, budget);
            assert_kernels_match_reference(a, b, S_MAX, G_MAX, -budget);
        }
    }
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
