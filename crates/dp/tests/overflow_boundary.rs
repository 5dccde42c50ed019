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
