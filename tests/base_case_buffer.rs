//! The Base Case buffer's footprint (paper §3: "BM units of memory are
//! reserved"): a run reserves only what its pair can use, and a thin base
//! case larger than `BM` grows the buffer through the memory governor,
//! never around it.

use std::sync::Arc;

use fastlsa::core::model;
use fastlsa::metrics::{names, Registry};
use fastlsa::prelude::*;

fn dna(len: usize, seed: u64) -> Sequence {
    generate::random_sequence("s", &Alphabet::dna(), len, seed)
}

/// Bytes of an `rows × cols` rectangle's full score matrix.
fn matrix_bytes(rows: usize, cols: usize) -> u64 {
    ((rows + 1) * (cols + 1) * 4) as u64
}

#[test]
fn a_small_pair_reserves_only_its_own_matrix() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = (dna(64, 1), dna(64, 2));
    let metrics = Metrics::new();
    let cfg = FastLsaConfig::default();
    assert!(cfg.base_cells > 65 * 65);
    let r = fastlsa::align_opts(&a, &b, &scheme, cfg, &AlignOptions::default(), &metrics).unwrap();
    let boundaries = 2 * 65 * 4;
    let peak = metrics.snapshot().peak_bytes;
    assert!(
        peak <= matrix_bytes(64, 64) + boundaries,
        "peak {peak} bytes for a 64x64 pair"
    );
    let reference = fastlsa::fullmatrix::needleman_wunsch(&a, &b, &scheme, &Metrics::new());
    assert_eq!(r.score, reference.score);
    assert_eq!(r.path, reference.path);
}

#[test]
fn a_small_pair_fits_a_64_kib_budget_without_degrading() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = (dna(64, 3), dna(64, 4));
    let reg = Arc::new(Registry::new());
    let opts = AlignOptions {
        budget_bytes: Some(64 << 10),
        registry: Some(reg.clone()),
        ..AlignOptions::default()
    };
    let metrics = Metrics::new().with_registry(&reg);
    let r =
        fastlsa::align_opts(&a, &b, &scheme, FastLsaConfig::default(), &opts, &metrics).unwrap();
    let want = fastlsa::align(&a, &b, &scheme, &Metrics::new()).unwrap();
    assert_eq!(r.score, want.score);
    assert_eq!(r.path, want.path);
    let snap = reg.snapshot();
    // Registered lazily on the first degrade step, so absent here.
    assert_eq!(snap.counter(names::DEGRADE_STEPS_TOTAL), None);
    assert_eq!(snap.counter(names::MEM_REFUSED_TOTAL), Some(0));
}

#[test]
fn a_thin_root_base_case_is_charged_to_the_governor() {
    // One residue against two million: the root is thinner than 2 rows,
    // so it is one base case of 2 × 2,000,001 entries, 4× the default
    // buffer.
    let scheme = ScoringScheme::dna_default();
    let (a, b) = (dna(1, 5), dna(2_000_000, 6));
    let thin = matrix_bytes(1, 2_000_000);
    assert_eq!(thin, 16_000_008);

    let opts = AlignOptions {
        budget_bytes: Some(8 << 20),
        ..AlignOptions::default()
    };
    match fastlsa::align_opts(
        &a,
        &b,
        &scheme,
        FastLsaConfig::default(),
        &opts,
        &Metrics::new(),
    ) {
        Err(AlignError::AllocFailed { .. }) => {}
        Err(e) => panic!("expected AllocFailed, got {e:?}"),
        Ok(r) => panic!(
            "an 8 MiB budget admitted a 16 MB base case (score {})",
            r.score
        ),
    }

    let metrics = Metrics::new();
    let r = fastlsa::align(&a, &b, &scheme, &metrics).unwrap();
    assert!(r.path.is_global(1, 2_000_000));
    assert!(metrics.snapshot().peak_bytes >= thin);
    let space = model::fastlsa_space_entries(1, 2_000_000, 8, 1 << 20) * 4.0;
    assert_eq!(
        space, thin as f64,
        "the space model counts the thin base case"
    );
}

#[test]
fn a_thin_block_below_the_root_is_charged_to_the_governor() {
    // Five rows split into five one-row blocks of 25,000 columns at depth
    // 1; each is solved whole, 12x the 4 Ki-entry buffer.
    let scheme = ScoringScheme::dna_default();
    let (m, n, k, base) = (5, 200_000, 8, 1 << 12);
    let (a, b) = (dna(m, 7), dna(n, 8));
    let reg = Arc::new(Registry::new());
    let opts = AlignOptions {
        registry: Some(reg.clone()),
        ..AlignOptions::default()
    };
    let metrics = Metrics::new();
    let cfg = FastLsaConfig::new(k, base);
    let r = fastlsa::align_opts(&a, &b, &scheme, cfg, &opts, &metrics).unwrap();
    let want = fastlsa::hirschberg::hirschberg(&a, &b, &scheme, &Metrics::new());
    assert_eq!(r.score, want.score);

    let grid = ((m - 1) * (n + 1) + (k - 1) * (m + 1)) * 4;
    let thin = matrix_bytes(1, n / k);
    assert!(thin > (base * 4) as u64);
    let needed = grid as u64 + thin;
    let peak = metrics.snapshot().peak_bytes;
    assert!(peak >= needed, "tracked peak {peak} < {needed}");
    let governed = reg.snapshot().gauge(names::MEM_PEAK_BYTES).unwrap_or(0);
    assert!(
        governed >= needed as i64,
        "governor peak {governed} < {needed}"
    );
    let space = model::fastlsa_space_entries(m, n, k, base) * 4.0;
    assert!(peak as f64 <= space, "peak {peak} > model {space}");
}
