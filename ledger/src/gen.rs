//! Seeded input generation for every workload.
//!
//! The generator lives in the ledger, not in the library, so a change to
//! `flsa-seq` can never change what the benchmark feeds the program. The
//! program only ever sees the generator's output: FASTA text for the
//! align workloads and wire requests for serve.

/// SplitMix64: tiny, fast, and fully specified, so a seed means the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub const DNA: &[u8] = b"ACGT";
pub const PROTEIN: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

/// Largest relative difference between the two lengths of a pair.
pub const MAX_SKEW: f64 = 0.10;

/// The shape of one align workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    pub residues: &'static [u8],
    /// Range of the pairs' geometric-mean lengths; the two lengths of a
    /// pair differ by up to [`MAX_SKEW`].
    pub len: (usize, usize),
    pub identity: (f64, f64),
    /// Distinct pairs; a run cycles through them in whole passes.
    pub pairs: usize,
}

/// One generated pair, as residue letters.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    pub a: Vec<u8>,
    pub b: Vec<u8>,
    /// The identity the mutation process targeted.
    pub identity: f64,
}

/// A homologous pair whose lengths have geometric mean `len` and differ
/// by the factor `1 + skew`, so `m·n ≈ len²` whatever the skew: a random
/// ancestor `a`, and a descendant mutated to about `identity` (80% of the
/// divergence as substitutions, 20% as indels with mean length 3), then
/// trimmed or extended to its length.
pub fn homologous(rng: &mut Rng, residues: &[u8], len: f64, identity: f64, skew: f64) -> Pair {
    let m = (len / (1.0 + skew).sqrt()).round().max(1.0) as usize;
    let n = (len * (1.0 + skew).sqrt()).round().max(1.0) as usize;
    let a: Vec<u8> = (0..m)
        .map(|_| residues[rng.below(residues.len())])
        .collect();
    let div = 1.0 - identity;
    let (sub, ins, del) = (0.8 * div, 0.1 * div, 0.1 * div);
    let mut b = Vec::with_capacity(n + n / 8);
    let mut i = 0;
    while i < a.len() {
        let r = rng.unit();
        if r < del {
            i += indel_len(rng);
        } else if r < del + ins {
            for _ in 0..indel_len(rng) {
                b.push(residues[rng.below(residues.len())]);
            }
            b.push(a[i]);
            i += 1;
        } else if r < del + ins + sub {
            let mut c = residues[rng.below(residues.len())];
            while c == a[i] {
                c = residues[rng.below(residues.len())];
            }
            b.push(c);
            i += 1;
        } else {
            b.push(a[i]);
            i += 1;
        }
    }
    b.truncate(n);
    while b.len() < n {
        b.push(residues[rng.below(residues.len())]);
    }
    Pair { a, b, identity }
}

/// Geometric with mean 3.
fn indel_len(rng: &mut Rng) -> usize {
    let mut n = 1;
    while rng.unit() > 1.0 / 3.0 && n < 1000 {
        n += 1;
    }
    n
}

/// A draw from the middle 30% of the `stratum`-th of `n` equal slices of
/// `[lo, hi]`. Every seed covers the whole range evenly and no two seeds
/// differ by more than a fraction of a slice at either end, which keeps
/// run-to-run figures steady while the exact values still vary.
fn stratified(rng: &mut Rng, lo: f64, hi: f64, stratum: usize, n: usize) -> f64 {
    lo + (hi - lo) * (stratum as f64 + rng.between(0.35, 0.65)) / n as f64
}

/// The distinct pairs of an align workload, in the order a pass runs them.
pub fn pool(spec: &PoolSpec, seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    let n = spec.pairs;
    // Independent strata for length and identity so the two are not
    // correlated across the pool.
    let mut id_strata: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut id_strata);
    let mut pairs: Vec<Pair> = (0..n)
        .map(|i| {
            let len = stratified(&mut rng, spec.len.0 as f64, spec.len.1 as f64, i, n);
            let identity = stratified(&mut rng, spec.identity.0, spec.identity.1, id_strata[i], n);
            let skew = rng.between(-MAX_SKEW, MAX_SKEW);
            homologous(&mut rng, spec.residues, len, identity, skew)
        })
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// Two-record FASTA text with 60-column bodies.
pub fn fasta(pair: &Pair) -> String {
    let mut out = String::with_capacity(pair.a.len() + pair.b.len() + 64);
    for (id, seq) in [("a", &pair.a), ("b", &pair.b)] {
        out.push('>');
        out.push_str(id);
        out.push('\n');
        for line in seq.chunks(60) {
            out.push_str(std::str::from_utf8(line).expect("residue letters are ASCII"));
            out.push('\n');
        }
    }
    out
}

/// One serve request before it becomes a wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeJob {
    /// Scheme name as the daemon's registry spells it.
    pub matrix: &'static str,
    pub gap: i32,
    pub pair: Pair,
    /// A mid-size pair that takes the single FastLSA path.
    pub mid: bool,
}

/// Share of serve requests that are mid-size DNA pairs.
pub const SERVE_MID_SHARE: f64 = 0.15;
pub const SERVE_SMALL_LEN: (usize, usize) = (48, 768);
pub const SERVE_MID_LEN: (usize, usize) = (2000, 3000);
pub const DNA_IDENTITY: (f64, f64) = (0.70, 0.95);
pub const PROTEIN_IDENTITY: (f64, f64) = (0.40, 0.80);

/// `n` serve requests in send order: exactly `round(n × 15%)` mid-size
/// DNA pairs, one placed at random in each of that many equal slices of
/// the schedule, and small pairs split evenly between DNA and protein.
/// Spreading the mid-size pairs keeps a chance burst of them from setting
/// a run's tail latency, which would make the tail a property of the seed.
pub fn serve_jobs(n: usize, seed: u64) -> Vec<ServeJob> {
    let mut rng = Rng::new(seed ^ 0x5E_11E);
    let mids = (n as f64 * SERVE_MID_SHARE).round() as usize;
    let mut kinds: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    rng.shuffle(&mut kinds);
    for slice in 0..mids {
        let (lo, hi) = (slice * n / mids, (slice + 1) * n / mids);
        kinds[lo + rng.below(hi - lo)] = 2;
    }
    kinds
        .into_iter()
        .map(|kind| {
            let skew = rng.between(-MAX_SKEW, MAX_SKEW);
            let (residues, matrix, len, identity) = match kind {
                0 => (DNA, "dna", SERVE_SMALL_LEN, DNA_IDENTITY),
                1 => (PROTEIN, "blosum62", SERVE_SMALL_LEN, PROTEIN_IDENTITY),
                _ => (DNA, "dna", SERVE_MID_LEN, DNA_IDENTITY),
            };
            let len = rng.between(len.0 as f64, len.1 as f64);
            let identity = rng.between(identity.0, identity.1);
            ServeJob {
                matrix,
                gap: -10,
                pair: homologous(&mut rng, residues, len, identity, skew),
                mid: kind == 2,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// Fraction of identical columns in the optimal global alignment.
    fn aligned_identity(p: &Pair, protein: bool) -> f64 {
        let scheme = if protein {
            flsa_scoring::ScoringScheme::protein_default()
        } else {
            flsa_scoring::ScoringScheme::dna_default()
        };
        let seq = |s: &[u8]| {
            flsa_seq::Sequence::from_str(
                "s",
                scheme.alphabet(),
                std::str::from_utf8(s).expect("ASCII"),
            )
            .expect("valid residues")
        };
        let (a, b) = (seq(&p.a), seq(&p.b));
        let r = fastlsa_core::align(&a, &b, &scheme, &flsa_dp::Metrics::new()).expect("aligns");
        flsa_dp::Alignment::from_path(&a, &b, &r.path, &scheme).identity()
    }

    fn pools(seed: u64) -> Vec<Vec<Pair>> {
        Workload::ALIGN
            .iter()
            .map(|w| pool(&w.pool_spec().expect("align workload"), seed))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let fa = |seed| -> Vec<String> { pools(seed).iter().flatten().map(fasta).collect() };
        assert_eq!(fa(7), fa(7));
        assert_eq!(serve_jobs(500, 7), serve_jobs(500, 7));
    }

    #[test]
    fn different_seeds_differ() {
        let (p1, p2) = (pools(1), pools(2));
        for (x, y) in p1.iter().zip(&p2) {
            assert!(
                x.iter().zip(y).all(|(p, q)| p.a != q.a),
                "every pair changes"
            );
        }
        assert_ne!(serve_jobs(200, 1), serve_jobs(200, 2));
    }

    #[test]
    fn align_pools_match_their_descriptions() {
        for w in Workload::ALIGN {
            let spec = w.pool_spec().expect("align workload");
            for seed in [3, 11] {
                let p = pool(&spec, seed);
                assert_eq!(p.len(), spec.pairs);
                let mut lens: Vec<f64> = p
                    .iter()
                    .map(|x| ((x.a.len() * x.b.len()) as f64).sqrt())
                    .collect();
                lens.sort_by(f64::total_cmp);
                // Stratified: one length per slice, so the extremes sit
                // within one slice of the range ends.
                let (lo, hi) = (spec.len.0 as f64, spec.len.1 as f64);
                let slice = (hi - lo) / spec.pairs as f64;
                assert!(lens[0] >= lo && lens[0] <= lo + slice, "{w:?}");
                let top = lens[spec.pairs - 1];
                assert!(top <= hi && top >= hi - slice, "{w:?}");
                for x in &p {
                    let skew = x.b.len() as f64 / x.a.len() as f64 - 1.0;
                    assert!(skew.abs() <= MAX_SKEW + 1e-3, "{w:?}: skew {skew}");
                    assert!((spec.identity.0..=spec.identity.1).contains(&x.identity));
                    assert!(x.a.iter().chain(&x.b).all(|c| spec.residues.contains(c)));
                }
            }
        }
    }

    #[test]
    fn realized_identity_tracks_the_target() {
        // Gap columns count as non-identical, so the realized identity
        // sits a few points under the substitution-only target.
        let mut rng = Rng::new(5);
        for (residues, identity) in [(DNA, 0.70), (DNA, 0.95), (PROTEIN, 0.40), (PROTEIN, 0.80)] {
            let p = homologous(&mut rng, residues, 2000.0, identity, 0.0);
            let got = aligned_identity(&p, residues == PROTEIN);
            assert!(
                got < identity && got > identity - 0.1,
                "target {identity}: got {got}"
            );
        }
    }

    #[test]
    fn serve_mix_matches_its_description() {
        let jobs = serve_jobs(2000, 9);
        let mids = jobs.iter().filter(|j| j.mid).count();
        assert_eq!(mids, 300);
        let protein = jobs.iter().filter(|j| j.matrix == "blosum62").count();
        assert!(
            (protein as i64 - 850).abs() <= 50,
            "small pairs split evenly: {protein}"
        );
        for j in &jobs {
            let (lo, hi) = if j.mid {
                SERVE_MID_LEN
            } else {
                SERVE_SMALL_LEN
            };
            let len = ((j.pair.a.len() * j.pair.b.len()) as f64).sqrt();
            assert!(len >= lo as f64 - 1.0 && len <= hi as f64 + 1.0, "{len}");
            assert!(!j.mid || j.matrix == "dna");
        }
        // Mid-size pairs are spread through the schedule, never clumped:
        // one per slice of 2000 / 300 requests.
        for window in jobs.windows(7) {
            assert!(window.iter().filter(|j| j.mid).count() <= 2);
        }
    }

    #[test]
    fn fasta_round_trips_through_the_parser() {
        let p = homologous(&mut Rng::new(1), DNA, 150.0, 0.9, 0.05);
        let recs =
            flsa_seq::fasta::parse_str(&fasta(&p), &flsa_seq::Alphabet::dna()).expect("parses");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].len(), p.a.len());
        assert_eq!(recs[1].len(), p.b.len());
    }
}
