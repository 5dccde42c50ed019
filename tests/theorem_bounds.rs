//! Executable versions of the paper's analytical results (experiment
//! E11): operation counts (Theorem 2 territory), space (Theorem 3),
//! parallel wall cost (Theorem 4).

use fastlsa::core::model;
use fastlsa::prelude::*;

fn pair(len: usize, seed: u64) -> (Sequence, Sequence, ScoringScheme) {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("t", scheme.alphabet(), len, 0.8, seed).unwrap();
    (a, b, scheme)
}

#[test]
fn fm_computes_exactly_mn_cells() {
    let (a, b, scheme) = pair(700, 1);
    let metrics = Metrics::new();
    fastlsa::fullmatrix::needleman_wunsch(&a, &b, &scheme, &metrics);
    assert_eq!(
        metrics.snapshot().cells_computed,
        (a.len() * b.len()) as u64
    );
}

#[test]
fn hirschberg_computes_at_most_twice_mn() {
    let (a, b, scheme) = pair(1500, 2);
    let metrics = Metrics::new();
    fastlsa::hirschberg::hirschberg(&a, &b, &scheme, &metrics);
    let factor = metrics.snapshot().cell_factor(a.len(), b.len());
    assert!((1.5..=2.05).contains(&factor), "factor {factor}");
}

#[test]
fn fastlsa_cells_obey_theorem_2_bound_across_k() {
    let (a, b, scheme) = pair(2000, 3);
    let base = 1 << 12;
    let mut prev = f64::INFINITY;
    for k in [2usize, 3, 4, 6, 8, 12, 16] {
        let metrics = Metrics::new();
        fastlsa::align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
        let measured = metrics.snapshot().cells_computed as f64;
        let bound = model::fastlsa_cells_bound(a.len(), b.len(), k, base);
        let limit = (a.len() * b.len()) as f64 * model::theorem2_limit_factor(k);
        assert!(measured <= bound * 1.05, "k={k}: {measured} > {bound}");
        assert!(
            measured <= limit * 1.05,
            "k={k}: {measured} > limit {limit}"
        );
        // Recomputation falls monotonically with k on a fixed instance.
        assert!(measured <= prev * 1.01, "k={k}");
        prev = measured;
    }
}

#[test]
fn fastlsa_linear_space_mode_is_about_1_5x_fm() {
    // The paper's abstract: "At one extreme, FastLSA uses linear space
    // with approximately 1.5 times the number of operations required by
    // the FM algorithms." With k=4 and a small base case the measured
    // factor sits at ~1.5.
    let (a, b, scheme) = pair(4000, 4);
    let metrics = Metrics::new();
    fastlsa::align_with(&a, &b, &scheme, FastLsaConfig::new(4, 1 << 12), &metrics).unwrap();
    let factor = metrics.snapshot().cell_factor(a.len(), b.len());
    assert!((1.3..=1.6).contains(&factor), "factor {factor}");
}

#[test]
fn fastlsa_quadratic_space_mode_has_no_extra_operations() {
    // "At the other extreme, FastLSA uses quadratic space with no extra
    // operations."
    let (a, b, scheme) = pair(500, 5);
    let metrics = Metrics::new();
    let cfg = FastLsaConfig {
        k: 8,
        base_cells: (a.len() + 1) * (b.len() + 1),
        parallel: None,
    };
    fastlsa::align_with(&a, &b, &scheme, cfg, &metrics).unwrap();
    assert_eq!(
        metrics.snapshot().cells_computed,
        (a.len() * b.len()) as u64
    );
}

#[test]
fn fastlsa_space_obeys_theorem_3_bound() {
    // The second pair's whole matrix is smaller than the buffer, so the
    // model and the solver must agree on reserving only that matrix.
    for (len, seed) in [(3000, 6), (100, 9)] {
        let (a, b, scheme) = pair(len, seed);
        let base = 1 << 14;
        let small = (a.len() + 1) * (b.len() + 1) < base;
        assert_eq!(small, len == 100);
        for k in [2usize, 8, 16] {
            let metrics = Metrics::new();
            fastlsa::align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
            let peak = metrics.snapshot().peak_bytes as f64;
            let bound = model::fastlsa_space_entries(a.len(), b.len(), k, base) * 4.0;
            assert!(
                peak <= bound * 1.1,
                "len={len} k={k}: peak {peak} > bound {bound}"
            );
            if small {
                // One base case and no grid: the model is the footprint.
                assert_eq!(peak, bound, "len={len} k={k}");
            }
        }
    }
}

#[test]
fn replayed_parallel_cost_obeys_theorem_4() {
    let (a, b, scheme) = pair(2000, 7);
    let k = 8;
    let f = 2;
    let metrics = Metrics::new();
    let (_, log) =
        fastlsa::align_traced(&a, &b, &scheme, FastLsaConfig::new(k, 1 << 12), &metrics).unwrap();
    for p in [1usize, 2, 4, 8, 16] {
        let rep = fastlsa::core::replay(&log, p, f);
        let bound = model::theorem4_bound(a.len(), b.len(), k, p, f);
        assert!(
            rep.units <= bound,
            "P={p}: replayed {} > Theorem 4 bound {bound}",
            rep.units
        );
    }
}

#[test]
fn speedup_is_monotone_and_bounded_by_p() {
    let (a, b, scheme) = pair(4000, 8);
    let metrics = Metrics::new();
    let (_, log) =
        fastlsa::align_traced(&a, &b, &scheme, FastLsaConfig::new(8, 1 << 14), &metrics).unwrap();
    let mut prev = 0.0;
    for p in [1usize, 2, 4, 8, 16] {
        let rep = fastlsa::core::replay(&log, p, 2);
        let s = rep.speedup();
        assert!(s >= prev - 1e-9, "P={p}");
        assert!(s <= p as f64 + 1e-9, "P={p}: superlinear {s}");
        prev = s;
    }
}

#[test]
fn efficiency_grows_with_problem_size() {
    // The paper's parallel headline: "the efficiency of Parallel FastLSA
    // increases with the size of the sequences that are aligned."
    let scheme = ScoringScheme::dna_default();
    let mut effs = Vec::new();
    for len in [1000usize, 4000, 16000] {
        let (a, b) = generate::homologous_pair("t", scheme.alphabet(), len, 0.8, 9).unwrap();
        let metrics = Metrics::new();
        let (_, log) =
            fastlsa::align_traced(&a, &b, &scheme, FastLsaConfig::new(8, 1 << 16), &metrics)
                .unwrap();
        effs.push(fastlsa::core::replay(&log, 8, 2).efficiency());
    }
    assert!(
        effs[0] <= effs[1] + 0.02 && effs[1] <= effs[2] + 0.02,
        "{effs:?}"
    );
    assert!(effs[2] > 0.8, "large-problem efficiency {}", effs[2]);
}
