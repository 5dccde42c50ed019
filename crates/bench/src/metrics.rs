//! The `flsa bench metrics` suite: what does the always-on metrics layer
//! cost?
//!
//! Two measurements, because the layer has two failure modes. The
//! record-path nanobenches time a single `Counter::add` / `Gauge::set` /
//! `Histogram::record` in a tight loop — these must stay at a few
//! nanoseconds or the instruments are too expensive to leave in hot
//! loops. The end-to-end comparison runs the same parallel FastLSA
//! alignment with and without a registry attached and reports the
//! relative wall-clock cost; `flsa bench metrics --gate F` turns that
//! into a regression gate (DESIGN.md §12 budgets it at ≤2%). Like every
//! bench report, the JSON opens with the [`HostStamp`] so numbers are
//! comparable across machines.
//!
//! The gated statistic is the **minimum pairwise overhead**: plain and
//! metered runs alternate, and the overhead is the smallest
//! `(metered_i - plain_i) / plain_i` across adjacent pairs. A genuine
//! regression is a cost added to *every* metered run, so it raises all
//! pairs and the minimum with them; a one-sided scheduler or thermal
//! spike inflates some pairs but leaves the cleanest pair honest —
//! which keeps the gate meaningful on noisy shared hardware where
//! best-vs-best of independent sets flakes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::Metrics;
use flsa_metrics::{names, Registry};
use flsa_scoring::ScoringScheme;
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};

use crate::HostStamp;

/// Measured ns/op for each record-path instrument.
#[derive(Debug, Clone, Copy)]
pub struct RecordPathCost {
    pub counter_ns: f64,
    pub gauge_ns: f64,
    pub histogram_ns: f64,
}

/// The full overhead report behind `BENCH_metrics.json`.
#[derive(Debug, Clone)]
pub struct MetricsBenchReport {
    /// Square problem side of the end-to-end comparison.
    pub len: usize,
    /// Timed repetitions per configuration (best kept).
    pub reps: usize,
    /// Worker threads of the parallel align.
    pub threads: usize,
    pub record: RecordPathCost,
    /// Best end-to-end wall time without a registry attached, ns.
    pub plain_best_ns: u64,
    /// Best end-to-end wall time with the full registry attached, ns.
    pub metered_best_ns: u64,
    /// Per-pair `(metered - plain) / plain` percentages, one per rep.
    pub pair_overheads_pct: Vec<f64>,
    /// DPM cells one metered run computed (scale context for the times).
    pub cells: u64,
    /// The machine the measurements ran on.
    pub host: HostStamp,
}

impl MetricsBenchReport {
    /// End-to-end cost of metrics-on relative to metrics-off, percent:
    /// the minimum pairwise overhead (see the module docs for why the
    /// minimum is the noise-robust gate statistic). Negative values mean
    /// the difference drowned in run-to-run noise.
    pub fn overhead_pct(&self) -> f64 {
        let min_pair = self
            .pair_overheads_pct
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if min_pair.is_finite() {
            return min_pair;
        }
        // No pair data (hand-built report): fall back to best-vs-best.
        if self.plain_best_ns == 0 {
            return 0.0;
        }
        (self.metered_best_ns as f64 - self.plain_best_ns as f64) / self.plain_best_ns as f64
            * 100.0
    }

    /// The JSON body of `BENCH_metrics.json`.
    pub fn to_json(&self) -> String {
        let mut out = self.host.json_header("metrics");
        out.push_str(&format!(
            "  \"record_path_ns\": {{\"counter\": {:.3}, \"gauge\": {:.3}, \
             \"histogram\": {:.3}}},\n",
            self.record.counter_ns, self.record.gauge_ns, self.record.histogram_ns
        ));
        out.push_str(&format!(
            "  \"align\": {{\"len\": {}, \"threads\": {}, \"reps\": {}, \"cells\": {}, \
             \"plain_best_ns\": {}, \"metered_best_ns\": {}, \"pair_overheads_pct\": [",
            self.len, self.threads, self.reps, self.cells, self.plain_best_ns, self.metered_best_ns,
        ));
        for (i, p) in self.pair_overheads_pct.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{p:.3}"));
        }
        out.push_str(&format!(
            "], \"overhead_pct\": {:.3}}}\n}}\n",
            self.overhead_pct()
        ));
        out
    }

    /// A plain-text table of both measurements.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(&["measurement", "value"]);
        t.row(&[
            "counter record".into(),
            format!("{:.2} ns/op", self.record.counter_ns),
        ]);
        t.row(&[
            "gauge record".into(),
            format!("{:.2} ns/op", self.record.gauge_ns),
        ]);
        t.row(&[
            "histogram record".into(),
            format!("{:.2} ns/op", self.record.histogram_ns),
        ]);
        t.row(&[
            format!("align {}x{} P{} off", self.len, self.len, self.threads),
            format!("{:.1} ms", self.plain_best_ns as f64 / 1e6),
        ]);
        t.row(&[
            format!("align {}x{} P{} on", self.len, self.len, self.threads),
            format!("{:.1} ms", self.metered_best_ns as f64 / 1e6),
        ]);
        t.row(&[
            "end-to-end overhead".into(),
            format!("{:+.2}%", self.overhead_pct()),
        ]);
        t.render()
    }
}

/// Times the three record paths in tight loops. The loop bodies are
/// `black_box`ed on both sides so the compiler can neither hoist the
/// operand nor discard the result.
fn bench_record_path() -> RecordPathCost {
    const N: u64 = 4_000_000;
    let reg = Registry::new();

    let c = reg.counter(names::CELLS_TOTAL);
    let start = Instant::now();
    for i in 0..N {
        c.add(black_box(i & 7));
    }
    let counter_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(c.get());

    let g = reg.gauge(names::MEM_RESERVED_BYTES);
    let start = Instant::now();
    for i in 0..N {
        g.set(black_box(i as i64));
    }
    let gauge_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(g.get());

    let h = reg.histogram(names::TILE_NS);
    let start = Instant::now();
    for i in 0..N {
        h.record(black_box(i.wrapping_mul(2654435761)));
    }
    let histogram_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(reg.snapshot());

    RecordPathCost {
        counter_ns,
        gauge_ns,
        histogram_ns,
    }
}

/// One end-to-end align; returns (wall ns, cells computed).
fn timed_align(
    sa: &Sequence,
    sb: &Sequence,
    scheme: &ScoringScheme,
    cfg: FastLsaConfig,
    registry: Option<&Arc<Registry>>,
) -> (u64, u64) {
    let metrics = match registry {
        Some(reg) => Metrics::new().with_registry(reg),
        None => Metrics::new(),
    };
    let opts = AlignOptions {
        registry: registry.cloned(),
        ..AlignOptions::default()
    };
    let start = Instant::now();
    let r = align_opts(sa, sb, scheme, cfg, &opts, &metrics).expect("bench align");
    let ns = start.elapsed().as_nanos() as u64;
    black_box(r.score);
    (ns, metrics.snapshot().cells_computed)
}

/// Runs the suite: record-path nanobenches, then `reps` interleaved
/// metrics-off / metrics-on parallel aligns of a `len`×`len` DNA
/// problem (best time kept per configuration, one untimed warmup).
pub fn run(len: usize, reps: usize, threads: usize) -> MetricsBenchReport {
    let record = bench_record_path();
    let scheme = ScoringScheme::dna_default();
    let (sa, sb) = homologous_pair("bench", &Alphabet::dna(), len, 0.8, 0xbc)
        .expect("bench sequence generation");
    let mut cfg = FastLsaConfig::new(8, 1 << 20);
    if threads > 1 {
        cfg = cfg.with_threads(threads);
    }

    // Warmup: populates allocator and arena pools for both paths.
    timed_align(&sa, &sb, &scheme, cfg, None);

    let mut plain_best = u64::MAX;
    let mut metered_best = u64::MAX;
    let mut pair_overheads_pct = Vec::with_capacity(reps.max(1));
    let mut cells = 0u64;
    for _ in 0..reps.max(1) {
        // Interleaved so clock drift and thermal state hit both sides,
        // and paired so each rep yields its own overhead estimate.
        let (p, _) = timed_align(&sa, &sb, &scheme, cfg, None);
        plain_best = plain_best.min(p);
        let reg = Arc::new(Registry::new());
        let (m, c) = timed_align(&sa, &sb, &scheme, cfg, Some(&reg));
        metered_best = metered_best.min(m);
        pair_overheads_pct.push((m as f64 - p as f64) / p as f64 * 100.0);
        cells = c;
    }

    MetricsBenchReport {
        len,
        reps,
        threads,
        record,
        plain_best_ns: plain_best,
        metered_best_ns: metered_best,
        pair_overheads_pct,
        cells,
        host: HostStamp::detect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_path_costs_are_finite_and_small() {
        let r = bench_record_path();
        for v in [r.counter_ns, r.gauge_ns, r.histogram_ns] {
            assert!(v.is_finite() && v > 0.0, "{v}");
            // Generous CI bound; the committed report is the real gate.
            assert!(v < 1_000.0, "record path took {v} ns/op");
        }
    }

    #[test]
    fn end_to_end_report_has_sane_shape() {
        let report = run(256, 1, 2);
        assert!(report.plain_best_ns > 0);
        assert!(report.metered_best_ns > 0);
        assert!(report.cells >= 256 * 256);
        assert!(report.overhead_pct().is_finite());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"metrics\""));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"best_backend\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = report.render();
        assert!(table.contains("end-to-end overhead"), "{table}");
    }
}
