//! Golden-output rendering checks and cross-crate stress tests.

use fastlsa::prelude::*;

#[test]
fn alignment_rendering_golden() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
    let metrics = Metrics::new();
    let r = fastlsa::align(&a, &b, &scheme, &metrics).unwrap();
    let al = Alignment::from_path(&a, &b, &r.path, &scheme);
    assert_eq!(format!("{al}"), "TLDKLLK-D\n* * |** *\nT-D-VLKAD\n");
}

#[test]
fn msa_rendering_golden() {
    let m = fastlsa::msa::Msa::new(
        vec!["seq1".into(), "s2".into()],
        vec!["AC-GT".into(), "ACCGT".into()],
    );
    assert_eq!(format!("{m}"), "seq1  AC-GT\ns2    ACCGT\n");
}

#[test]
fn fasta_fastq_interop() {
    // The same read parsed from both formats aligns identically.
    let scheme = ScoringScheme::dna_default();
    let fa = fastlsa::seq::fasta::parse_str(">r\nACGTACGT\n", scheme.alphabet()).unwrap();
    let fq =
        fastlsa::seq::fastq::parse_str("@r\nACGTACGT\n+\nIIIIIIII\n", scheme.alphabet()).unwrap();
    assert_eq!(fa[0].codes(), fq[0].seq.codes());
    let metrics = Metrics::new();
    let r = fastlsa::align(&fa[0], &fq[0].seq, &scheme, &metrics).unwrap();
    assert_eq!(r.score, 8 * 5);
}

#[test]
fn metrics_are_consistent_under_parallel_fills() {
    // Parallel runs must report exactly the same cell counts as
    // sequential (work is partitioned, not duplicated), with counters
    // bumped from many threads.
    // A 2^17-cell buffer makes the ~250x250 sub-blocks of this pair
    // direct base cases, well above 16,384 cells.
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("t", scheme.alphabet(), 2000, 0.8, 55).unwrap();
    for base_cells in [1 << 14, 1 << 17] {
        let cfg = FastLsaConfig::new(8, base_cells);
        let m_seq = Metrics::new();
        let seq = fastlsa::align_with(&a, &b, &scheme, cfg, &m_seq).unwrap();
        let m_par = Metrics::new();
        let par = fastlsa::align_with(&a, &b, &scheme, cfg.with_threads(4), &m_par).unwrap();
        assert_eq!(seq.score, par.score, "base {base_cells}");
        assert_eq!(seq.path, par.path, "base {base_cells}");
        let (s, p) = (m_seq.snapshot(), m_par.snapshot());
        assert_eq!(s.cells_computed, p.cells_computed, "base {base_cells}");
        assert_eq!(s.cells_base_case, p.cells_base_case, "base {base_cells}");
        assert_eq!(s.traceback_steps, p.traceback_steps, "base {base_cells}");
    }
}

#[test]
fn repeated_runs_reuse_allocations_without_leaking_accounting() {
    // After every run the tracked byte count must return to zero (peak
    // persists). Exercised across algorithms and configs.
    let scheme = ScoringScheme::dna_default();
    let (a, b) = generate::homologous_pair("t", scheme.alphabet(), 400, 0.8, 66).unwrap();
    let metrics = Metrics::new();
    for k in [2usize, 4, 8] {
        fastlsa::align_with(&a, &b, &scheme, FastLsaConfig::new(k, 512), &metrics).unwrap();
        fastlsa::fullmatrix::needleman_wunsch(&a, &b, &scheme, &metrics);
        fastlsa::hirschberg::hirschberg(&a, &b, &scheme, &metrics);
    }
    // track_alloc guards all dropped: a fresh small allocation must set
    // current usage from zero, i.e. peak only moves if it exceeds the old
    // peak, and a tiny guard cannot.
    let peak_before = metrics.snapshot().peak_bytes;
    let _g = metrics.track_alloc(16);
    assert_eq!(metrics.snapshot().peak_bytes, peak_before);
}

#[test]
fn workload_statistics_validate_the_suite() {
    // The Table 3 stand-in argument requires realistic composition.
    use fastlsa::seq::stats::{gc_content, kmer_diversity, SeqStats};
    for spec in fastlsa::seq::workload::up_to(16_000) {
        let (a, _) = spec.generate();
        let st = SeqStats::of(&a);
        let min_entropy = match spec.kind {
            fastlsa::seq::workload::WorkloadKind::Dna => 1.95,
            fastlsa::seq::workload::WorkloadKind::Protein => 4.1,
        };
        assert!(
            st.entropy_bits > min_entropy,
            "{}: entropy {}",
            spec.name,
            st.entropy_bits
        );
        if spec.kind == fastlsa::seq::workload::WorkloadKind::Dna {
            let gc = gc_content(&a).unwrap();
            assert!((0.45..0.55).contains(&gc), "{}: gc {gc}", spec.name);
            // k = 10: the 4^10 k-mer space dwarfs the window count, so a
            // random sequence shows near-total diversity.
            assert!(kmer_diversity(&a, 10) > 0.8, "{}", spec.name);
        }
    }
}

#[test]
fn very_skewed_aspect_ratios() {
    // 1 x 10_000 and 10_000 x 1 shaped problems across every algorithm.
    let scheme = ScoringScheme::dna_default();
    let long = Sequence::from_str("l", scheme.alphabet(), &"ACGT".repeat(2500)).unwrap();
    let short = Sequence::from_str("s", scheme.alphabet(), "TACG").unwrap();
    let metrics = Metrics::new();
    let expect = fastlsa::fullmatrix::nw_score_only(&long, &short, &scheme, &metrics);
    for (x, y) in [(&long, &short), (&short, &long)] {
        assert_eq!(
            fastlsa::align(x, y, &scheme, &metrics).unwrap().score,
            expect
        );
        assert_eq!(
            fastlsa::hirschberg::hirschberg(x, y, &scheme, &metrics).score,
            expect
        );
        let cfg = FastLsaConfig::new(4, 64).with_threads(3);
        assert_eq!(
            fastlsa::align_with(x, y, &scheme, cfg, &metrics)
                .unwrap()
                .score,
            expect
        );
    }
}
