//! The three workloads and the fixed settings each one runs with.
//!
//! A fourth, single-threaded `genome-seq` (DNA 4k–16k on one thread) was
//! dropped: on the shared 2-CPU reference host its figures spread by up
//! to 24% between seeds, against 6–16% for `genome-par`, and every layer
//! it measured is also measured by `genome-par`.

use crate::gen::{PoolSpec, DNA, DNA_IDENTITY, PROTEIN, PROTEIN_IDENTITY};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DNA pairs, linear gaps, FastLSA defaults on `nproc` threads: the
    /// dp kernel, FillCache at depths 0 and 1, and the `flsa-wavefront`
    /// pool, which no other workload runs.
    GenomePar,
    /// Protein pairs, BLOSUM62 with affine gaps (open −11, extend −1),
    /// through `align_affine`: the scalar Gotoh path only.
    ProteinAffine,
    /// An in-process `flsa-serve` daemon under a mix of small batchable
    /// pairs and mid-size single-path pairs: closed-loop slices for
    /// throughput, alternating with open-loop slices for latency.
    ServeMixed,
}

/// Open-loop send rate for serve-mixed, requests per second: about 9% of
/// this mix's closed-loop capacity (2150 req/s with 8 outstanding on a
/// 2-CPU x86-64 host with AVX-512; `--calibrate` measures it). At 60% the
/// median latency sat on the knee between requests served at once and
/// requests queued behind a mid-size pair and moved ±25% between seeds. At
/// 9% the median holds steady even when other tenants slow the shared
/// host; the p99 does not, and is reported without a bound.
pub const SERVE_RATE_RPS: f64 = 200.0;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GenomePar,
        Workload::ProteinAffine,
        Workload::ServeMixed,
    ];
    #[cfg(test)]
    pub const ALIGN: [Workload; 2] = [Workload::GenomePar, Workload::ProteinAffine];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenomePar => "genome-par",
            Workload::ProteinAffine => "protein-affine",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The distinct pairs of an align workload (`None` for serve). Pool
    /// sizes keep one pass near a second, so a run is many whole passes.
    pub fn pool_spec(self) -> Option<PoolSpec> {
        match self {
            Workload::GenomePar => Some(PoolSpec {
                residues: DNA,
                len: (12_000, 24_000),
                identity: DNA_IDENTITY,
                pairs: 16,
            }),
            Workload::ProteinAffine => Some(PoolSpec {
                residues: PROTEIN,
                len: (1_000, 4_000),
                identity: PROTEIN_IDENTITY,
                pairs: 32,
            }),
            Workload::ServeMixed => None,
        }
    }

    /// The latency limit for `goodput_rps`: per pair on the align
    /// workloads, about five times the largest pair's time on the
    /// reference host; per request, from its scheduled send, on serve.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::GenomePar => 1_000.0,
            Workload::ProteinAffine => 500.0,
            Workload::ServeMixed => 50.0,
        }
    }
}
