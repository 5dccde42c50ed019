//! The `flsa bench kernels` sweep: DP kernel throughput per backend.
//!
//! Times [`Kernel::fill_last_row`] — the fill at the heart of both
//! FastLSA's grid fill and Hirschberg's passes — on square global
//! problems, for every backend the CPU supports, and reports cells/sec
//! and ns/cell. The DNA sweep is the gated one; on AVX-512 it runs the
//! anti-diagonal band kernel. A second, report-only sweep on protein
//! (BLOSUM62, linear gap −10) times the same fill: on AVX-512 with VBMI
//! the byte band, its scores looked up in five two-register tables (four
//! for the twenty standard letters), and the row scan elsewhere. It also
//! times
//! [`Kernel::fill_affine_edges_in`] — affine
//! FastLSA's grid fill — per backend on a homologous protein pair under
//! BLOSUM62 with gaps −11/−1, and, report-only, its base case
//! [`Kernel::fill_affine_full_reusing`] (three lined layers in reused
//! buffers) at sides up to 1,024. Another report-only sweep times the
//! linear base case as the solver runs it, on DNA and on protein
//! (BLOSUM62, −10), at sides up to 1,024: [`Kernel::fill_base_reusing`]
//! into one reused buffer (on AVX-512 with VBMI, the byte band's
//! traceback codes) plus the traceback from the bottom-right corner. The
//! JSON report (`BENCH_kernels.json`)
//! opens with the [`HostStamp`] so numbers are comparable across
//! machines, and `--gate F` turns the sweep into a regression gate: it
//! fails unless the best vectorized backend reaches `F`× the scalar
//! throughput on the largest problem, the widest backend is not slower
//! than the next one down, the best affine backend reaches `F`× scalar
//! affine, and AVX-512 affine is not slower than AVX2 affine.

use std::time::Instant;

use flsa_dp::affine::AffineGlobalBoundary;
use flsa_dp::{Boundary, Kernel, KernelBackend, Metrics, PathBuilder};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::Alphabet;

use crate::HostStamp;

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

/// Gap open and extend of the affine measurement (the protein default).
const AFFINE_GAP: (i32, i32) = (-11, -1);

/// Largest requested side the base-case sweeps fill: the affine one's
/// three full layers at 10,000² would take 1.2 GB, and the solver's base
/// cases hold at most 1 Mi cells by default.
const BASE_CASE_MAX_LEN: usize = 1024;

/// Linear gap penalty of the protein measurement.
const PROTEIN_GAP: i32 = -10;

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
    /// Linear-gap protein measurements, grouped like `cases`; reported,
    /// not gated.
    pub protein: Vec<KernelBenchCase>,
    /// Affine edge-fill measurements, grouped like `cases`.
    pub affine: Vec<KernelBenchCase>,
    /// Affine base-case (full-fill) measurements at the lengths up to
    /// 1,024, grouped like `cases`; reported, not gated.
    pub affine_full: Vec<KernelBenchCase>,
    /// Linear DNA base-case measurements (fill plus traceback from the
    /// corner) at the lengths up to 1,024, grouped like `cases`;
    /// reported, not gated.
    pub base_case: Vec<KernelBenchCase>,
    /// The same base-case measurements on protein (BLOSUM62, linear gap
    /// −10); reported, not gated.
    pub protein_base_case: Vec<KernelBenchCase>,
    /// The machine the sweep ran on.
    pub host: HostStamp,
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

    /// The JSON body of `BENCH_kernels.json`.
    pub fn to_json(&self) -> String {
        let mut out = self.host.json_header("kernels");
        if let Some(s) = self.best_speedup() {
            out.push_str(&format!("  \"best_speedup_vs_scalar\": {s:.3},\n"));
        }
        if let Some(r) = self.widest_vs_next() {
            out.push_str(&format!("  \"widest_vs_next_vector\": {r:.3},\n"));
        }
        if let Some(s) = self.affine_best_speedup() {
            out.push_str(&format!("  \"affine_best_speedup_vs_scalar\": {s:.3},\n"));
        }
        out.push_str("  \"affine\": [\n");
        push_cases_json(&mut out, &self.affine);
        out.push_str("  ],\n  \"affine_full\": [\n");
        push_cases_json(&mut out, &self.affine_full);
        out.push_str("  ],\n  \"base_case\": [\n");
        push_cases_json(&mut out, &self.base_case);
        out.push_str("  ],\n  \"protein\": [\n");
        push_cases_json(&mut out, &self.protein);
        out.push_str("  ],\n  \"protein_base_case\": [\n");
        push_cases_json(&mut out, &self.protein_base_case);
        out.push_str("  ],\n  \"results\": [\n");
        push_cases_json(&mut out, &self.cases);
        out.push_str("  ]\n}\n");
        out
    }

    /// A plain-text table of the sweep, with per-length speedup columns.
    pub fn render(&self) -> String {
        let mut out = render_cases(&self.cases);
        if !self.protein.is_empty() {
            out.push_str(&format!(
                "linear fill (protein, BLOSUM62, {PROTEIN_GAP}):\n"
            ));
            out.push_str(&render_cases(&self.protein));
        }
        if !self.affine.is_empty() {
            let (open, extend) = AFFINE_GAP;
            out.push_str(&format!(
                "affine edge fill (protein, BLOSUM62, {open}/{extend}):\n"
            ));
            out.push_str(&render_cases(&self.affine));
        }
        if !self.affine_full.is_empty() {
            let (open, extend) = AFFINE_GAP;
            out.push_str(&format!(
                "affine full fill, reused buffers (protein, BLOSUM62, {open}/{extend}):\n"
            ));
            out.push_str(&render_cases(&self.affine_full));
        }
        if !self.base_case.is_empty() {
            out.push_str("base case, fill + traceback from the corner, reused buffer (DNA):\n");
            out.push_str(&render_cases(&self.base_case));
        }
        if !self.protein_base_case.is_empty() {
            out.push_str(&format!(
                "base case, fill + traceback from the corner, reused buffer \
                 (protein, BLOSUM62, {PROTEIN_GAP}):\n"
            ));
            out.push_str(&render_cases(&self.protein_base_case));
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
/// `lens`×`lens` problems, one warmup fill then the best of `reps` timed
/// fills.
pub fn run(lens: &[usize], reps: usize) -> KernelBenchReport {
    let scheme = ScoringScheme::dna_default();
    let cases = linear_sweep(lens, reps, &scheme, &Alphabet::dna(), 0xbc);
    let base_case = base_case_sweep(lens, reps, &scheme, &Alphabet::dna(), 0xbc);
    let protein_scheme = ScoringScheme::new(tables::blosum62(), GapModel::linear(PROTEIN_GAP));
    let protein = linear_sweep(lens, reps, &protein_scheme, &Alphabet::protein(), 0xaf);
    let protein_base_case =
        base_case_sweep(lens, reps, &protein_scheme, &Alphabet::protein(), 0xaf);
    let metrics = Metrics::new();
    let (open, extend) = AFFINE_GAP;
    let affine_scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(open, extend));
    let mut affine = Vec::new();
    let mut affine_full = Vec::new();
    for &len in lens {
        let (sa, sb) = homologous_pair("bench", &Alphabet::protein(), len, 0.8, 0xaf)
            .expect("bench sequence generation");
        let (a, b) = (sa.codes(), sb.codes());
        let bnd = AffineGlobalBoundary::new(a.len(), b.len(), open, extend);
        let cells = (a.len() * b.len()) as u64;
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
                cells,
                best_ns,
            });
            if len <= BASE_CASE_MAX_LEN {
                // The warmup fill sizes the layers; timed fills reuse them.
                let mut layers = Default::default();
                let best_ns = best_of(reps, || {
                    let storage = std::mem::take(&mut layers);
                    layers = kernel
                        .fill_affine_full_reusing(
                            a,
                            b,
                            bnd.view(),
                            &affine_scheme,
                            storage,
                            &metrics,
                        )
                        .into_storage();
                });
                affine_full.push(KernelBenchCase {
                    backend,
                    len,
                    cells,
                    best_ns,
                });
            }
        }
    }
    KernelBenchReport {
        cases,
        protein,
        affine,
        affine_full,
        base_case,
        protein_base_case,
        host: HostStamp::detect(),
    }
}

/// The solver's linear base case on a homologous `len × len` pair over
/// `alphabet` under `scheme`, per available backend and length up to
/// [`BASE_CASE_MAX_LEN`]: [`Kernel::fill_base_reusing`] into one buffer
/// that every fill reuses, then the traceback from the bottom-right
/// corner.
fn base_case_sweep(
    lens: &[usize],
    reps: usize,
    scheme: &ScoringScheme,
    alphabet: &Alphabet,
    seed: u64,
) -> Vec<KernelBenchCase> {
    let metrics = Metrics::new();
    let mut cases = Vec::new();
    for &len in lens.iter().filter(|&&len| len <= BASE_CASE_MAX_LEN) {
        let (sa, sb) =
            homologous_pair("bench", alphabet, len, 0.8, seed).expect("bench sequence generation");
        let (a, b) = (sa.codes(), sb.codes());
        let bound = Boundary::global(a.len(), b.len(), scheme.gap().linear_penalty());
        for backend in KernelBackend::available() {
            let kernel = Kernel::try_new(backend).expect("available backend");
            // The warmup solve sizes the buffer; timed solves reuse it.
            let mut storage = Vec::new();
            let best_ns = best_of(reps, || {
                let taken = std::mem::take(&mut storage);
                let fill = kernel.fill_base_reusing(
                    a,
                    b,
                    &bound.top,
                    &bound.left,
                    scheme,
                    taken,
                    &metrics,
                );
                let mut path = PathBuilder::new();
                fill.trace(a, b, scheme, (a.len(), b.len()), &mut path, &metrics);
                storage = fill.into_vec();
            });
            cases.push(KernelBenchCase {
                backend,
                len,
                cells: (a.len() * b.len()) as u64,
                best_ns,
            });
        }
    }
    cases
}

/// [`Kernel::fill_last_row`] on a homologous `len × len` pair over
/// `alphabet` under `scheme`, per available backend and length.
fn linear_sweep(
    lens: &[usize],
    reps: usize,
    scheme: &ScoringScheme,
    alphabet: &Alphabet,
    seed: u64,
) -> Vec<KernelBenchCase> {
    let gap = scheme.gap().linear_penalty();
    let metrics = Metrics::new();
    let mut cases = Vec::new();
    for &len in lens {
        let (sa, sb) =
            homologous_pair("bench", alphabet, len, 0.8, seed).expect("bench sequence generation");
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
                    scheme,
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
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_available_backend() {
        let report = run(&[64], 1);
        for cases in [
            &report.cases,
            &report.protein,
            &report.affine,
            &report.affine_full,
            &report.base_case,
            &report.protein_base_case,
        ] {
            let backends: Vec<_> = cases.iter().map(|c| c.backend).collect();
            assert_eq!(backends, KernelBackend::available());
            // Mutation introduces indels, so cells is near (not exactly) 64².
            assert!(cases.iter().all(|c| c.cells > 32 * 32));
            assert!(cases.iter().all(|c| c.best_ns > 0));
        }
    }

    #[test]
    fn json_names_every_backend_and_parses_shape() {
        let report = run(&[64], 1);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"kernels\""));
        assert!(json.contains("\"scalar\""));
        assert!(json.contains("\"best_backend\""));
        assert!(json.contains("\"affine\": ["));
        assert!(json.contains("\"affine_full\": ["));
        assert!(json.contains("\"base_case\": ["));
        assert!(json.contains("\"protein\": ["));
        assert!(json.contains("\"protein_base_case\": ["));
        assert!(report.render().contains("affine edge fill"));
        assert!(report.render().contains("affine full fill"));
        assert!(report.render().contains("base case, fill + traceback"));
        assert!(report.render().contains("linear fill (protein"));
        assert!(report.render().contains("reused buffer (protein"));
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
            protein: vec![],
            affine: vec![
                case(KernelBackend::Scalar, 60_000),
                case(KernelBackend::Sse41, 60_000),
                case(KernelBackend::Avx2, 20_000),
                case(KernelBackend::Avx512, 12_000),
            ],
            affine_full: vec![],
            base_case: vec![],
            protein_base_case: vec![],
            host: HostStamp {
                cpu_features: vec![],
                best_backend: KernelBackend::Avx512,
                nproc: 1,
            },
        };
        let s = report.best_speedup().unwrap();
        assert!((s - 5.0).abs() < 1e-9, "{s}");
        let r = report.widest_vs_next().unwrap();
        assert!((r - 1.25).abs() < 1e-9, "{r}");
        let s = report.affine_best_speedup().unwrap();
        assert!((s - 5.0).abs() < 1e-9, "{s}");
        let r = report.affine_avx512_vs_avx2().unwrap();
        assert!((r - 20.0 / 12.0).abs() < 1e-9, "{r}");
    }
}
