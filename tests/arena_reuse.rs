//! Buffer-arena accounting end to end: a repeated-block workload must
//! reach a steady state with **zero net allocations** (every scratch
//! buffer comes back out of the pool), and a [`fastlsa_core`] run whose
//! memory governor refuses the arena's bytes must degrade to the scalar
//! kernel gracefully — same answer, no error.

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::affine::AffineGlobalBoundary;
use flsa_dp::{Kernel, KernelBackend, Metrics};
use flsa_hirschberg::{hirschberg_kernel, HirschbergConfig};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::Alphabet;

#[test]
fn repeated_runs_make_zero_net_allocations() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = homologous_pair("t", &Alphabet::dna(), 600, 0.8, 11).unwrap();
    let best = KernelBackend::detect_best();
    if best == KernelBackend::Scalar {
        // Scalar fills use caller-owned buffers only; nothing to pool.
        return;
    }
    let kernel = Kernel::try_new(best).unwrap();
    let cfg = HirschbergConfig { base_cells: 256 };

    // Warm-up run: populates the pool (allocations expected).
    let metrics = Metrics::new();
    let first = hirschberg_kernel(&a, &b, &scheme, cfg, &kernel, &metrics);
    let after_warmup = kernel.arena().fresh_allocs();
    assert!(after_warmup > 0, "vectorized fills must use the arena");

    // Steady state: the same workload five more times must be served
    // entirely from the pool.
    for _ in 0..5 {
        let r = hirschberg_kernel(&a, &b, &scheme, cfg, &kernel, &metrics);
        assert_eq!(r.score, first.score);
    }
    assert_eq!(
        kernel.arena().fresh_allocs(),
        after_warmup,
        "steady-state repeats must not allocate"
    );
    assert!(
        kernel.arena().reuses() > after_warmup,
        "the pool must actually serve the repeats"
    );
}

#[test]
fn repeated_affine_block_fills_make_zero_net_allocations() {
    // Affine FastLSA's two fills: edge fills whose buffers go back to the
    // kernel's arena, and base-case fills in three reused buffers.
    let scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(-11, -1));
    let (a, b) = homologous_pair("t", &Alphabet::protein(), 300, 0.8, 7).unwrap();
    let (a, b) = (a.codes(), b.codes());
    let bnd = AffineGlobalBoundary::new(a.len(), b.len(), -11, -1);
    let kernel = Kernel::auto();
    let metrics = Metrics::new();

    // Warm-up: grows the arena and the base buffers to their high-water marks.
    let first = kernel.fill_affine_edges_in(a, b, bnd.view(), &scheme, &metrics);
    let want = first.bottom_h.clone();
    first.recycle(kernel.arena());
    let storage = Default::default();
    let mut storage = kernel
        .fill_affine_full_reusing(a, b, bnd.view(), &scheme, storage, &metrics)
        .into_storage();
    let allocs = kernel.arena().fresh_allocs();
    let held = kernel.arena().held_bytes();
    let capacities = storage.each_ref().map(Vec::capacity);

    for _ in 0..5 {
        let edges = kernel.fill_affine_edges_in(a, b, bnd.view(), &scheme, &metrics);
        assert_eq!(edges.bottom_h, want);
        edges.recycle(kernel.arena());
        storage = kernel
            .fill_affine_full_reusing(a, b, bnd.view(), &scheme, storage, &metrics)
            .into_storage();
    }
    assert_eq!(
        kernel.arena().fresh_allocs(),
        allocs,
        "steady-state affine fills must not allocate"
    );
    assert_eq!(kernel.arena().held_bytes(), held);
    assert_eq!(storage.each_ref().map(Vec::capacity), capacities);
}

#[test]
fn tight_budget_degrades_kernel_instead_of_failing() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = homologous_pair("t", &Alphabet::dna(), 900, 0.8, 3).unwrap();
    let cfg = FastLsaConfig::new(4, 1 << 10);

    let metrics = Metrics::new();
    let reference = align_opts(&a, &b, &scheme, cfg, &AlignOptions::default(), &metrics).unwrap();

    // A budget with no slack: the engine's own buffers fit, but the
    // governor will refuse at least some arena growth. The run must
    // still succeed — refusal silently drops the kernel to scalar
    // (caller-owned buffers only) rather than erroring — and must
    // produce the identical alignment.
    for budget in [40_000usize, 60_000, 120_000] {
        let metrics = Metrics::new();
        let opts = AlignOptions {
            budget_bytes: Some(budget),
            kernel: Some(KernelBackend::detect_best()),
            ..AlignOptions::default()
        };
        match align_opts(&a, &b, &scheme, cfg, &opts, &metrics) {
            Ok(r) => {
                assert_eq!(r.score, reference.score, "budget {budget}");
                assert_eq!(r.path, reference.path, "budget {budget}");
            }
            // A budget too small even for the scalar engine walks the
            // ladder and may legitimately fail — but never panic.
            Err(e) => {
                assert!(
                    matches!(e, fastlsa_core::AlignError::AllocFailed { .. }),
                    "budget {budget}: unexpected error {e:?}"
                );
            }
        }
    }
}

#[test]
fn generous_budget_keeps_vectorized_kernel_and_charges_arena() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = homologous_pair("t", &Alphabet::dna(), 900, 0.8, 3).unwrap();
    let cfg = FastLsaConfig::new(4, 1 << 10);
    let metrics = Metrics::new();
    let reference = align_opts(&a, &b, &scheme, cfg, &AlignOptions::default(), &metrics).unwrap();

    let metrics = Metrics::new();
    let opts = AlignOptions {
        budget_bytes: Some(64 << 20),
        kernel: Some(KernelBackend::detect_best()),
        ..AlignOptions::default()
    };
    let r = align_opts(&a, &b, &scheme, cfg, &opts, &metrics).unwrap();
    assert_eq!(r.score, reference.score);
    assert_eq!(r.path, reference.path);
}
