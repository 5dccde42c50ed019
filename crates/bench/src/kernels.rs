//! The `flsa bench kernels` sweep: DP kernel throughput per backend.
//!
//! Times [`Kernel::fill_last_row`] — the row-rolling fill at the heart of
//! both FastLSA's grid fill and Hirschberg's passes — on square global
//! problems, for every backend the CPU supports, and reports cells/sec
//! and ns/cell. The sweep also measures the inter-sequence
//! [`BatchKernel`]: batches of small independent pairs aligned
//! one-per-lane versus the same pairs aligned one at a time, reported as
//! pairs/sec. It also times [`Kernel::fill_affine_edges_in`] — affine
//! FastLSA's grid fill — per backend on a homologous protein pair under
//! BLOSUM62 with gaps −11/−1. The JSON report (`BENCH_kernels.json`)
//! records the detected CPU features so numbers are comparable across
//! machines, and `--gate F` turns the sweep into a regression gate: it
//! fails unless the best vectorized backend reaches `F`× the scalar
//! throughput on the largest problem, the widest backend is not slower
//! than the next one down, the batch kernel beats the single-pair path on
//! small pairs, the best affine backend reaches `F`× scalar affine, and
//! AVX-512 affine is not slower than AVX2 affine.

use std::time::Instant;

use flsa_dp::affine::AffineGlobalBoundary;
use flsa_dp::{
    detected_cpu_features, BatchJob, BatchKernel, Boundary, Kernel, KernelBackend, Metrics,
};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::Alphabet;

/// Square pair sizes the batch section measures (small jobs — the
/// regime the inter-sequence layout exists for).
pub const BATCH_LENS: [usize; 3] = [64, 256, 1024];

/// Independent pairs per batch measurement (≥ 2 full vector chunks).
pub const BATCH_PAIRS: usize = 32;

/// One (backend, problem size) measurement.
#[derive(Debug, Clone)]
pub struct KernelBenchCase {
    /// The backend measured.
    pub backend: KernelBackend,
    /// Square problem side (both sequences have this many residues).
    pub len: usize,
    /// DP cells per fill (`len²`).
    pub cells: u64,
    /// Best wall-clock time over the measured repetitions.
    pub best_ns: u64,
}

impl KernelBenchCase {
    /// Throughput in DP cells per second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.best_ns == 0 {
            0.0
        } else {
            self.cells as f64 * 1e9 / self.best_ns as f64
        }
    }

    /// Nanoseconds per DP cell.
    pub fn ns_per_cell(&self) -> f64 {
        self.best_ns as f64 / self.cells as f64
    }
}

/// One batch-vs-single measurement: `pairs` independent `len × len`
/// alignments, full result (score + traceback) both ways.
#[derive(Debug, Clone)]
pub struct BatchBenchCase {
    /// Square pair side.
    pub len: usize,
    /// Pairs per measurement.
    pub pairs: usize,
    /// Best wall-clock for one `align_batch` over all pairs.
    pub batched_ns: u64,
    /// Best wall-clock for aligning the same pairs one at a time.
    pub single_ns: u64,
}

impl BatchBenchCase {
    /// Pairs aligned per second on the batched path.
    pub fn pairs_per_sec(&self) -> f64 {
        if self.batched_ns == 0 {
            0.0
        } else {
            self.pairs as f64 * 1e9 / self.batched_ns as f64
        }
    }

    /// Batched throughput over single-pair throughput.
    pub fn speedup(&self) -> f64 {
        if self.batched_ns == 0 {
            0.0
        } else {
            self.single_ns as f64 / self.batched_ns as f64
        }
    }
}

/// Gap open and extend of the affine measurement (the protein default).
const AFFINE_GAP: (i32, i32) = (-11, -1);

/// Speedup of the best non-scalar case over scalar at the largest length
/// in `cases` (`None` when only scalar ran).
fn best_speedup_in(cases: &[KernelBenchCase]) -> Option<f64> {
    let largest = cases.iter().map(|c| c.len).max()?;
    let scalar = cells_per_sec_at(cases, largest, KernelBackend::Scalar)?;
    let best = cases
        .iter()
        .filter(|c| c.len == largest && c.backend != KernelBackend::Scalar)
        .map(KernelBenchCase::cells_per_sec)
        .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))?;
    (scalar > 0.0).then(|| best / scalar)
}

fn cells_per_sec_at(cases: &[KernelBenchCase], len: usize, b: KernelBackend) -> Option<f64> {
    cases
        .iter()
        .find(|c| c.len == len && c.backend == b)
        .map(KernelBenchCase::cells_per_sec)
}

/// A full sweep: every available backend × every requested length.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// All measurements, grouped by length then backend.
    pub cases: Vec<KernelBenchCase>,
    /// Affine edge-fill measurements, grouped like `cases`.
    pub affine: Vec<KernelBenchCase>,
    /// Batch-kernel measurements (one per [`BATCH_LENS`] entry).
    pub batch: Vec<BatchBenchCase>,
    /// The striped backend the batch measurements ran on.
    pub batch_backend: &'static str,
    /// SIMD features the CPU reports (from `is_x86_feature_detected!`).
    pub cpu_features: Vec<&'static str>,
    /// The backend [`KernelBackend::detect_best`] would pick.
    pub best_backend: KernelBackend,
}

impl KernelBenchReport {
    /// Speedup of the best vectorized backend over scalar at the largest
    /// measured length (`None` when only scalar ran).
    pub fn best_speedup(&self) -> Option<f64> {
        best_speedup_in(&self.cases)
    }

    /// Speedup of the best affine backend over scalar affine at the
    /// largest measured length (`None` when only scalar ran).
    pub fn affine_best_speedup(&self) -> Option<f64> {
        best_speedup_in(&self.affine)
    }

    /// AVX-512 affine throughput over AVX2 affine at the largest length
    /// (`None` unless both ran).
    pub fn affine_avx512_vs_avx2(&self) -> Option<f64> {
        let largest = self.affine.iter().map(|c| c.len).max()?;
        let avx2 = cells_per_sec_at(&self.affine, largest, KernelBackend::Avx2)?;
        let avx512 = cells_per_sec_at(&self.affine, largest, KernelBackend::Avx512)?;
        (avx2 > 0.0).then(|| avx512 / avx2)
    }

    /// Throughput of the widest vector backend over the next-widest at
    /// the largest length — the dispatch-order sanity ratio
    /// ([`KernelBackend::detect_best`] must not pick a slower backend).
    /// `None` when fewer than two vector backends ran.
    pub fn widest_vs_next(&self) -> Option<f64> {
        let largest = self.cases.iter().map(|c| c.len).max()?;
        // `run` pushes backends in `KernelBackend::available()` order,
        // which is narrowest → widest.
        let vec_cases: Vec<&KernelBenchCase> = self
            .cases
            .iter()
            .filter(|c| c.len == largest && c.backend != KernelBackend::Scalar)
            .collect();
        let [.., next, widest] = vec_cases.as_slice() else {
            return None;
        };
        let next = next.cells_per_sec();
        (next > 0.0).then(|| widest.cells_per_sec() / next)
    }

    /// Best batched-vs-single speedup across the batch measurements.
    pub fn batch_best_speedup(&self) -> Option<f64> {
        self.batch
            .iter()
            .map(BatchBenchCase::speedup)
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
    }

    /// The JSON body of `BENCH_kernels.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"kernels\",\n  \"cpu_features\": [");
        for (i, f) in self.cpu_features.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{f}\""));
        }
        out.push_str(&format!(
            "],\n  \"best_backend\": \"{}\",\n",
            self.best_backend.name()
        ));
        if let Some(s) = self.best_speedup() {
            out.push_str(&format!("  \"best_speedup_vs_scalar\": {s:.3},\n"));
        }
        if let Some(r) = self.widest_vs_next() {
            out.push_str(&format!("  \"widest_vs_next_vector\": {r:.3},\n"));
        }
        if let Some(s) = self.affine_best_speedup() {
            out.push_str(&format!("  \"affine_best_speedup_vs_scalar\": {s:.3},\n"));
        }
        out.push_str(&format!(
            "  \"batch_backend\": \"{}\",\n  \"batch\": [\n",
            self.batch_backend
        ));
        for (i, c) in self.batch.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"len\": {}, \"pairs\": {}, \"batched_ns\": {}, \"single_ns\": {}, \
                 \"pairs_per_sec\": {:.1}, \"speedup_vs_single\": {:.3}}}{}\n",
                c.len,
                c.pairs,
                c.batched_ns,
                c.single_ns,
                c.pairs_per_sec(),
                c.speedup(),
                if i + 1 < self.batch.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"affine\": [\n");
        push_cases_json(&mut out, &self.affine);
        out.push_str("  ],\n  \"results\": [\n");
        push_cases_json(&mut out, &self.cases);
        out.push_str("  ]\n}\n");
        out
    }

    /// A plain-text table of the sweep, with per-length speedup columns.
    pub fn render(&self) -> String {
        let mut out = render_cases(&self.cases);
        if !self.affine.is_empty() {
            let (open, extend) = AFFINE_GAP;
            out.push_str(&format!(
                "affine edge fill (protein, BLOSUM62, {open}/{extend}):\n"
            ));
            out.push_str(&render_cases(&self.affine));
        }
        if !self.batch.is_empty() {
            let mut bt = crate::Table::new(&[
                "batch len",
                "pairs",
                "batched ms",
                "single ms",
                "pairs/s",
                "vs single",
            ]);
            for c in &self.batch {
                bt.row(&[
                    format!("{}", c.len),
                    format!("{}", c.pairs),
                    format!("{:.1}", c.batched_ns as f64 / 1e6),
                    format!("{:.1}", c.single_ns as f64 / 1e6),
                    format!("{:.0}", c.pairs_per_sec()),
                    format!("{:.2}x", c.speedup()),
                ]);
            }
            out.push_str(&format!("batch kernel ({}):\n", self.batch_backend));
            out.push_str(&bt.render());
        }
        out
    }
}

/// Appends one JSON object line per case (the body of a results array).
fn push_cases_json(out: &mut String, cases: &[KernelBenchCase]) {
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"len\": {}, \"cells\": {}, \
             \"best_ns\": {}, \"cells_per_sec\": {:.0}, \"ns_per_cell\": {:.4}}}{}\n",
            c.backend.name(),
            c.len,
            c.cells,
            c.best_ns,
            c.cells_per_sec(),
            c.ns_per_cell(),
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
}

/// A per-length table of `cases` with a speedup-over-scalar column.
fn render_cases(cases: &[KernelBenchCase]) -> String {
    let mut t = crate::Table::new(&[
        "len",
        "backend",
        "best ms",
        "Mcells/s",
        "ns/cell",
        "vs scalar",
    ]);
    let mut lens: Vec<usize> = cases.iter().map(|c| c.len).collect();
    lens.dedup();
    for len in lens {
        let scalar = cells_per_sec_at(cases, len, KernelBackend::Scalar);
        for c in cases.iter().filter(|c| c.len == len) {
            let speedup = match scalar {
                Some(s) if s > 0.0 => format!("{:.2}x", c.cells_per_sec() / s),
                _ => "-".to_string(),
            };
            t.row(&[
                format!("{len}"),
                c.backend.name().to_string(),
                format!("{:.1}", c.best_ns as f64 / 1e6),
                format!("{:.0}", c.cells_per_sec() / 1e6),
                format!("{:.3}", c.ns_per_cell()),
                speedup,
            ]);
        }
    }
    t.render()
}

/// Best wall-clock of `reps` timed runs of `fill`, after one untimed run
/// that warms caches and populates the arena pool.
fn best_of(reps: usize, mut fill: impl FnMut()) -> u64 {
    let mut best_ns = u64::MAX;
    for rep in 0..=reps.max(1) {
        let start = Instant::now();
        fill();
        let ns = start.elapsed().as_nanos() as u64;
        if rep > 0 {
            best_ns = best_ns.min(ns);
        }
    }
    best_ns
}

/// Runs the standard sweep: every CPU-supported backend on square
/// `lens`×`lens` DNA problems plus the batch section at [`BATCH_LENS`],
/// one warmup fill then the best of `reps` timed fills.
pub fn run(lens: &[usize], reps: usize) -> KernelBenchReport {
    run_with(lens, &BATCH_LENS, BATCH_PAIRS, reps)
}

/// [`run`] with explicit batch-section sizes (tests use small ones).
pub fn run_with(
    lens: &[usize],
    batch_lens: &[usize],
    batch_pairs: usize,
    reps: usize,
) -> KernelBenchReport {
    let scheme = ScoringScheme::dna_default();
    let gap = scheme.gap().linear_penalty();
    let metrics = Metrics::new();
    let mut cases = Vec::new();
    for &len in lens {
        let (sa, sb) = homologous_pair("bench", &Alphabet::dna(), len, 0.8, 0xbc)
            .expect("bench sequence generation");
        let bound = Boundary::global(sa.len(), sb.len(), gap);
        let mut out = vec![0i32; sb.len() + 1];
        for backend in KernelBackend::available() {
            let kernel = Kernel::try_new(backend).expect("available backend");
            let best_ns = best_of(reps, || {
                kernel.fill_last_row(
                    sa.codes(),
                    sb.codes(),
                    &bound.top,
                    &bound.left,
                    &scheme,
                    &mut out,
                    &metrics,
                );
            });
            cases.push(KernelBenchCase {
                backend,
                len,
                cells: (sa.len() * sb.len()) as u64,
                best_ns,
            });
        }
    }
    let (open, extend) = AFFINE_GAP;
    let affine_scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(open, extend));
    let mut affine = Vec::new();
    for &len in lens {
        let (sa, sb) = homologous_pair("bench", &Alphabet::protein(), len, 0.8, 0xaf)
            .expect("bench sequence generation");
        let (a, b) = (sa.codes(), sb.codes());
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), open, extend);
        for backend in KernelBackend::available() {
            let kernel = Kernel::try_new(backend).expect("available backend");
            let best_ns = best_of(reps, || {
                kernel
                    .fill_affine_edges_in(a, b, bnd.view(), &affine_scheme, &metrics)
                    .recycle(kernel.arena());
            });
            affine.push(KernelBenchCase {
                backend,
                len,
                cells: (a.len() * b.len()) as u64,
                best_ns,
            });
        }
    }
    let batch_kernel = BatchKernel::new(Kernel::auto());
    let batch = batch_lens
        .iter()
        .map(|&len| bench_batch(&batch_kernel, &scheme, len, batch_pairs, reps))
        .collect();
    KernelBenchReport {
        cases,
        affine,
        batch,
        batch_backend: batch_kernel.backend_name(),
        cpu_features: detected_cpu_features(),
        best_backend: KernelBackend::detect_best(),
    }
}

/// One batch-vs-single measurement: `pairs` homologous `len × len` DNA
/// pairs, full alignment (score + path) through [`BatchKernel`] both as
/// one batch and as single-job batches (the exact i32 single-pair path).
fn bench_batch(
    batch_kernel: &BatchKernel,
    scheme: &ScoringScheme,
    len: usize,
    pairs: usize,
    reps: usize,
) -> BatchBenchCase {
    let metrics = Metrics::new();
    let seqs: Vec<_> = (0..pairs)
        .map(|k| {
            homologous_pair("bench", &Alphabet::dna(), len, 0.8, 0xba7c + k as u64)
                .expect("bench sequence generation")
        })
        .collect();
    let jobs: Vec<BatchJob<'_>> = seqs
        .iter()
        .map(|(sa, sb)| BatchJob {
            a: sa.codes(),
            b: sb.codes(),
            scheme,
        })
        .collect();
    let mut batched_ns = u64::MAX;
    let mut single_ns = u64::MAX;
    // Rep 0 is the untimed warmup (caches + arena pool), as above.
    for rep in 0..=reps.max(1) {
        let start = Instant::now();
        let results = batch_kernel.align_batch(&jobs, &metrics);
        let ns = start.elapsed().as_nanos() as u64;
        assert_eq!(results.len(), pairs);
        if rep > 0 {
            batched_ns = batched_ns.min(ns);
        }

        let start = Instant::now();
        // One-job batches always take the single-pair fill + traceback.
        for job in &jobs {
            let r = batch_kernel.align_batch(std::slice::from_ref(job), &metrics);
            assert_eq!(r.len(), 1);
        }
        let ns = start.elapsed().as_nanos() as u64;
        if rep > 0 {
            single_ns = single_ns.min(ns);
        }
    }
    BatchBenchCase {
        len,
        pairs,
        batched_ns,
        single_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_available_backend() {
        let report = run_with(&[64], &[16], 8, 1);
        for cases in [&report.cases, &report.affine] {
            let backends: Vec<_> = cases.iter().map(|c| c.backend).collect();
            assert_eq!(backends, KernelBackend::available());
            // Mutation introduces indels, so cells is near (not exactly) 64².
            assert!(cases.iter().all(|c| c.cells > 32 * 32));
            assert!(cases.iter().all(|c| c.best_ns > 0));
        }
    }

    #[test]
    fn json_names_every_backend_and_parses_shape() {
        let report = run_with(&[64], &[16], 8, 1);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"kernels\""));
        assert!(json.contains("\"scalar\""));
        assert!(json.contains("\"best_backend\""));
        assert!(json.contains("\"affine\": ["));
        assert!(report.render().contains("affine edge fill"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn speedup_compares_best_nonscalar_to_scalar() {
        let case = |backend, best_ns| KernelBenchCase {
            backend,
            len: 100,
            cells: 10_000,
            best_ns,
        };
        let report = KernelBenchReport {
            cases: vec![
                case(KernelBackend::Scalar, 40_000),
                case(KernelBackend::Avx2, 10_000),
                case(KernelBackend::Avx512, 8_000),
            ],
            affine: vec![
                case(KernelBackend::Scalar, 60_000),
                case(KernelBackend::Sse41, 60_000),
                case(KernelBackend::Avx2, 20_000),
                case(KernelBackend::Avx512, 12_000),
            ],
            batch: vec![],
            batch_backend: "batch-portable",
            cpu_features: vec![],
            best_backend: KernelBackend::Avx512,
        };
        let s = report.best_speedup().unwrap();
        assert!((s - 5.0).abs() < 1e-9, "{s}");
        let r = report.widest_vs_next().unwrap();
        assert!((r - 1.25).abs() < 1e-9, "{r}");
        assert!(report.batch_best_speedup().is_none());
        let s = report.affine_best_speedup().unwrap();
        assert!((s - 5.0).abs() < 1e-9, "{s}");
        let r = report.affine_avx512_vs_avx2().unwrap();
        assert!((r - 20.0 / 12.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn batch_section_measures_and_serializes() {
        let report = run_with(&[64], &[16, 40], 8, 1);
        assert_eq!(report.batch.len(), 2);
        for c in &report.batch {
            assert_eq!(c.pairs, 8);
            assert!(c.batched_ns > 0 && c.single_ns > 0);
        }
        let json = report.to_json();
        assert!(json.contains("\"batch_backend\""));
        assert!(json.contains("\"speedup_vs_single\""));
        assert!(report.render().contains("batch kernel"));
    }
}
