//! The per-experiment harness: one function per table/figure of the paper
//! (experiment ids E1–E14, indexed in DESIGN.md §4).
//!
//! Every function is deterministic (fixed workload seeds) and returns the
//! rendered report; `flsa paper` prints it and EXPERIMENTS.md records the
//! shape checks.

use fastlsa_core::{model, FastLsaConfig};
use flsa_cachesim::{trace_fastlsa, trace_fm, trace_hirschberg, Hierarchy};
use flsa_dp::Metrics;
use flsa_fullmatrix::{needleman_wunsch, needleman_wunsch_packed};
use flsa_hirschberg::{hirschberg_with, HirschbergConfig};
use flsa_scoring::ScoringScheme;
use flsa_seq::workload::{self, WorkloadKind, WorkloadSpec};
use flsa_seq::Sequence;
use flsa_wavefront::phases::{alpha_factor, phase_breakdown};
use flsa_wavefront::sim::simulate_schedule;

use crate::{ms, time, Table};

/// Harness options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Skip workloads with ancestor length above this.
    pub max_len: usize,
    /// Include the slow, large configurations.
    pub full: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            max_len: 16_000,
            full: false,
        }
    }
}

/// Renders one experiment's report.
pub type Experiment = fn(ExpOptions) -> String;

/// Every experiment, in the order `flsa paper all` runs them: the name
/// `flsa paper` selects it by, its id and paper artifact, and the
/// function that renders its report.
#[rustfmt::skip]
pub const EXPERIMENTS: &[(&str, &str, Experiment)] = &[
    ("example", "E1  worked example (Table 1 / Figure 1, score 82)", |_| example()),
    ("table2", "E2  analytical space/ops comparison, formulas vs measured", table2),
    ("table3", "E3  workload suite (Table 3 stand-in)", |_| table3()),
    ("seqtime", "E4  sequential timing across the suite", seqtime),
    ("ksweep", "E5  FastLSA time/recomputation vs k", ksweep),
    ("memory", "E6  peak memory vs problem size", memory),
    ("speedup", "E7  parallel speedup vs P (schedule replay)", speedup),
    ("efficiency", "E8  parallel efficiency vs problem size", efficiency),
    ("phases", "E9  three-phase wavefront census + Theorem 4 alpha", |_| phases()),
    ("cache", "E10 simulated cache hierarchy comparison", cache),
    ("theorems", "E11 executable Theorem 1-4 bound checks", theorems),
    ("basesweep", "E12 ablation: runtime vs base-case buffer size", basesweep),
    ("tilesweep", "E13 ablation: speedup vs tile subdivision factor", tilesweep),
    ("commsweep", "E14 ablation: speedup vs communication cost", commsweep),
];

fn scheme_for(spec: &WorkloadSpec) -> ScoringScheme {
    match spec.kind {
        WorkloadKind::Protein => ScoringScheme::protein_default(),
        WorkloadKind::Dna => ScoringScheme::dna_default(),
    }
}

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

/// E1 — the paper's worked example (Table 1 + Figure 1): every algorithm
/// must reproduce the optimal score of 82 and a path that re-scores to it.
pub fn example() -> String {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();

    let mut out =
        String::from("E1: paper worked example (TLDKLLKD vs TDVLKAD, Table 1, gap -10)\n\n");
    let mut t = Table::new(&["algorithm", "score", "path rescore", "ok"]);
    let metrics = Metrics::new();
    let runs: Vec<(&str, flsa_dp::AlignResult)> = vec![
        ("full-matrix", needleman_wunsch(&a, &b, &scheme, &metrics)),
        (
            "fm-packed",
            needleman_wunsch_packed(&a, &b, &scheme, &metrics),
        ),
        (
            "hirschberg",
            hirschberg_with(
                &a,
                &b,
                &scheme,
                HirschbergConfig { base_cells: 16 },
                &metrics,
            ),
        ),
        (
            "fastlsa k=2",
            fastlsa_core::align_with(&a, &b, &scheme, FastLsaConfig::new(2, 16), &metrics).unwrap(),
        ),
        (
            "fastlsa k=4",
            fastlsa_core::align_with(&a, &b, &scheme, FastLsaConfig::new(4, 16), &metrics).unwrap(),
        ),
    ];
    for (name, r) in &runs {
        let rescore = r.path.score(&a, &b, &scheme);
        t.row(&[
            name.to_string(),
            r.score.to_string(),
            rescore.to_string(),
            (r.score == 82 && rescore == 82).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\npaper-reported optimal score: 82\noptimal alignment (canonical tie-break):\n");
    let al = flsa_dp::Alignment::from_path(&a, &b, &runs[0].1.path, &scheme);
    out.push_str(&format!("{al}"));
    out
}

/// E2 — the analytical comparison table (space / operations of FM,
/// Hirschberg, FastLSA) with measured counters beside the formulas.
pub fn table2(opts: ExpOptions) -> String {
    let mut out = String::from(
        "E2: analytical space/operations vs measured (cells in units of m*n; space in DPM entries)\n\n",
    );
    let mut t = Table::new(&[
        "workload",
        "algorithm",
        "cells/mn form",
        "cells/mn meas",
        "space form",
        "space meas",
    ]);
    let base = 1 << 12;
    for spec in workload::up_to(opts.max_len.min(4_000)) {
        let (a, b) = spec.generate();
        let scheme = scheme_for(spec);
        let (m, n) = (a.len(), b.len());
        let mn = (m * n) as f64;

        let mm = Metrics::new();
        needleman_wunsch(&a, &b, &scheme, &mm);
        let s = mm.snapshot();
        t.row(&[
            spec.name.to_string(),
            "full-matrix".into(),
            fmt_f(1.0),
            fmt_f(s.cells_computed as f64 / mn),
            fmt_u64(((m + 1) * (n + 1)) as u64),
            fmt_u64(s.peak_bytes / 4),
        ]);

        let mm = Metrics::new();
        hirschberg_with(&a, &b, &scheme, HirschbergConfig { base_cells: base }, &mm);
        let s = mm.snapshot();
        t.row(&[
            spec.name.to_string(),
            "hirschberg".into(),
            fmt_f(2.0),
            fmt_f(s.cells_computed as f64 / mn),
            fmt_u64((2 * (n + 1) + base) as u64),
            fmt_u64(s.peak_bytes / 4),
        ]);

        for k in [2usize, 8] {
            let mm = Metrics::new();
            fastlsa_core::align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &mm).unwrap();
            let s = mm.snapshot();
            t.row(&[
                spec.name.to_string(),
                format!("fastlsa k={k}"),
                fmt_f(model::fastlsa_cells_bound(m, n, k, base) / mn),
                fmt_f(s.cells_computed as f64 / mn),
                fmt_u64(model::fastlsa_space_entries(m, n, k, base) as u64),
                fmt_u64(s.peak_bytes / 4),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: FM = 1.00 x mn; Hirschberg ~ 2 x mn; FastLSA between, falling with k;\nFastLSA/Hirschberg space linear, FM space quadratic.\n");
    out
}

/// E3 — the workload suite (the synthetic stand-in for the paper's
/// Table 3 of real biological pairs).
pub fn table3() -> String {
    let mut out =
        String::from("E3: workload suite (synthetic homologous pairs; see DESIGN.md *2)\n\n");
    let mut t = Table::new(&["name", "kind", "len a", "len b", "target id", "seed"]);
    for spec in workload::SUITE {
        // Materialize only the small ones eagerly; report spec lengths for
        // the giants (generation is cheap but keep the report instant).
        let (la, lb) = if spec.len <= 64_000 {
            let (a, b) = spec.generate();
            (a.len(), b.len())
        } else {
            (spec.len, spec.len)
        };
        t.row(&[
            spec.name.to_string(),
            format!("{:?}", spec.kind),
            la.to_string(),
            lb.to_string(),
            format!("{:.2}", spec.identity),
            spec.seed.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// E4 — sequential timing: FM vs Hirschberg vs FastLSA across the suite.
pub fn seqtime(opts: ExpOptions) -> String {
    let mut out = String::from("E4: sequential FindScore+FindPath wall time\n\n");
    let mut t = Table::new(&["workload", "algorithm", "time ms", "cells/mn", "peak MiB"]);
    let fm_cap = if opts.full { 8_000 } else { 4_000 };
    for spec in workload::up_to(opts.max_len) {
        let (a, b) = spec.generate();
        let scheme = scheme_for(spec);
        let mn = (a.len() * b.len()) as f64;
        let mut timed = |name: String, run: &dyn Fn(&Metrics)| {
            // One untimed call first, so the timed call finds the buffers
            // it needs already faulted in, whichever algorithm ran before.
            run(&Metrics::new());
            let mm = Metrics::new();
            let (_, d) = time(|| run(&mm));
            let s = mm.snapshot();
            t.row(&[
                spec.name.to_string(),
                name,
                ms(d),
                fmt_f(s.cells_computed as f64 / mn),
                format!("{:.1}", s.peak_bytes as f64 / (1 << 20) as f64),
            ]);
        };
        if spec.len <= fm_cap {
            timed("full-matrix".into(), &|m| {
                needleman_wunsch(&a, &b, &scheme, m);
            });
            timed("fm-packed".into(), &|m| {
                needleman_wunsch_packed(&a, &b, &scheme, m);
            });
        }
        timed("hirschberg".into(), &|m| {
            let cfg = HirschbergConfig {
                base_cells: 1 << 12,
            };
            hirschberg_with(&a, &b, &scheme, cfg, m);
        });
        for k in [4usize, 8] {
            let cfg = FastLsaConfig::new(k, 1 << 20);
            timed(format!("fastlsa k={k}"), &|m| {
                let _ = fastlsa_core::align_with(&a, &b, &scheme, cfg, m);
            });
        }
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: FastLSA <= Hirschberg everywhere (fewer recomputations);\nFastLSA ~ FM at sizes where the FM matrix still fits caches, faster beyond.\n");
    out
}

/// E5 — FastLSA time and recomputation factor vs the division factor `k`.
pub fn ksweep(opts: ExpOptions) -> String {
    let spec = if opts.max_len >= 16_000 {
        workload::by_name("dna-16k").unwrap()
    } else {
        workload::by_name("dna-4k").unwrap()
    };
    let (a, b) = spec.generate();
    let scheme = scheme_for(spec);
    let mn = (a.len() * b.len()) as f64;

    let mut out = format!("E5: k sweep on {} (base case 64 Ki entries)\n\n", spec.name);
    let mut t = Table::new(&["k", "time ms", "cells/mn", "bound/mn", "peak MiB"]);
    for k in [2usize, 3, 4, 6, 8, 12, 16, 24, 32] {
        let mm = Metrics::new();
        let cfg = FastLsaConfig::new(k, 1 << 16);
        let (_, d) = time(|| fastlsa_core::align_with(&a, &b, &scheme, cfg, &mm));
        let s = mm.snapshot();
        t.row(&[
            k.to_string(),
            ms(d),
            fmt_f(s.cells_computed as f64 / mn),
            fmt_f(model::fastlsa_cells_bound(a.len(), b.len(), k, 1 << 16) / mn),
            format!("{:.2}", s.peak_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: cells/mn falls toward 1 as k grows (Theorem 2's (k/(k-1))^2);\nmemory rises linearly with k; time bottoms out at moderate k.\n");
    out
}

/// E6 — peak auxiliary memory vs problem size for each algorithm.
pub fn memory(opts: ExpOptions) -> String {
    let mut out = String::from("E6: peak auxiliary memory (MiB)\n\n");
    let mut t = Table::new(&[
        "workload",
        "FM (analytic)",
        "hirschberg",
        "fastlsa k=4",
        "fastlsa k=16",
    ]);
    for spec in workload::up_to(opts.max_len) {
        if spec.kind != WorkloadKind::Dna {
            continue;
        }
        let (a, b) = spec.generate();
        let scheme = scheme_for(spec);
        let fm_bytes = ((a.len() + 1) * (b.len() + 1) * 4) as f64 / (1 << 20) as f64;
        let mm_h = Metrics::new();
        hirschberg_with(&a, &b, &scheme, HirschbergConfig::default(), &mm_h);
        let mut cells = Vec::new();
        for k in [4usize, 16] {
            let mm = Metrics::new();
            fastlsa_core::align_with(&a, &b, &scheme, FastLsaConfig::new(k, 1 << 16), &mm).unwrap();
            cells.push(mm.snapshot().peak_bytes as f64 / (1 << 20) as f64);
        }
        t.row(&[
            spec.name.to_string(),
            format!("{fm_bytes:.1}"),
            format!(
                "{:.3}",
                mm_h.snapshot().peak_bytes as f64 / (1 << 20) as f64
            ),
            format!("{:.3}", cells[0]),
            format!("{:.3}", cells[1]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: FM grows quadratically; Hirschberg and FastLSA grow linearly,\nwith FastLSA's slope proportional to k.\n");
    out
}

/// Measured counterpart of the §5 pipeline model: runs one real threaded
/// FastLSA with the trace recorder attached and puts each wavefront
/// fill's *measured* ramp/saturated/drain census next to the analytical
/// [`phase_breakdown`] of the same grid (and Theorem 4's α). GridFill
/// grids carry the bottom-right skip hole, so their model column uses the
/// measured tile total to flag the hole rather than a full-grid census.
fn measured_phase_occupancy(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    threads: usize,
) -> String {
    let recorder = std::sync::Arc::new(flsa_trace::Recorder::new());
    let metrics = Metrics::with_recorder(std::sync::Arc::clone(&recorder));
    let cfg = FastLsaConfig::new(8, 1 << 16).with_threads(threads);
    let _ = fastlsa_core::align_with(a, b, scheme, cfg, &metrics);
    let analysis = flsa_trace::analyze(&recorder.snapshot());

    let mut out = format!(
        "\nmeasured with real threads (P = {threads}, {} x {}): phase census per wavefront fill\n",
        a.len(),
        b.len()
    );
    let mut t = Table::new(&[
        "fill",
        "kind",
        "grid",
        "measured r/s/d tiles",
        "model r/s/d tiles",
        "busy share",
        "alpha",
    ]);
    for f in analysis.fills.iter().take(8) {
        let (rows, cols) = (f.rows as usize, f.cols as usize);
        let model = phase_breakdown(rows, cols, threads, None);
        let model_col = if f.tiles == model.total_tiles() {
            format!(
                "{}/{}/{}",
                model.ramp_tiles, model.saturated_tiles, model.drain_tiles
            )
        } else {
            format!(
                "(skip hole: {} of {} tiles live)",
                f.tiles,
                model.total_tiles()
            )
        };
        let busy: u64 = f.phases.iter().map(|p| p.busy_ns).sum();
        let busy_share = busy as f64 / (f.wall_ns.max(1) as f64 * threads as f64);
        t.row(&[
            f.fill.to_string(),
            f.kind.name().to_string(),
            format!("{rows}x{cols}"),
            format!(
                "{}/{}/{}",
                f.phases[0].tiles, f.phases[1].tiles, f.phases[2].tiles
            ),
            model_col,
            format!("{busy_share:.3}"),
            format!("{:.3}", alpha_factor(rows, cols, threads)),
        ]);
    }
    out.push_str(&t.render());
    if analysis.fills.len() > 8 {
        out.push_str(&format!(
            "({} further fills omitted)\n",
            analysis.fills.len() - 8
        ));
    }
    let wall = analysis.wall_ns.max(1) as f64;
    let mean_util = analysis
        .threads
        .iter()
        .map(|t| t.busy_ns as f64 / wall)
        .sum::<f64>()
        / analysis.threads.len().max(1) as f64;
    out.push_str(&format!(
        "mean thread occupancy {:.1}% over {} worker timelines; full-grid fills must match\nthe model census exactly (asserted by tests/trace_integration.rs).\n",
        mean_util * 100.0,
        analysis.threads.len()
    ));
    out
}

/// E7 — parallel speedup: schedule replay for P = 1..16 (and the Theorem 4
/// bound), per workload.
pub fn speedup(opts: ExpOptions) -> String {
    let mut out = String::from(
        "E7: parallel FastLSA speedup (virtual-P schedule replay of the recorded run;\nsee DESIGN.md *2 for the single-core substitution)\n\n",
    );
    let threads = [1usize, 2, 4, 8, 16];
    let mut headers = vec!["workload".to_string()];
    headers.extend(threads.iter().map(|p| format!("P={p}")));
    headers.push("T4 bound P=8".into());
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr_refs);

    for spec in workload::up_to(opts.max_len) {
        if spec.kind != WorkloadKind::Dna || spec.len < 4_000 {
            continue;
        }
        let (a, b) = spec.generate();
        let scheme = scheme_for(spec);
        let k = 8;
        let f = 2;
        let metrics = Metrics::new();
        let cfg = FastLsaConfig::new(k, 1 << 16);
        let (_, log) = fastlsa_core::align_traced(&a, &b, &scheme, cfg, &metrics).unwrap();
        let mut row = vec![spec.name.to_string()];
        for &p in &threads {
            let rep = fastlsa_core::replay(&log, p, f);
            row.push(format!("{:.2}", rep.speedup()));
        }
        // Theorem 4's bound expressed as a speedup floor: total work over
        // the bound's wall cost.
        let total = fastlsa_core::replay(&log, 1, f).total_work;
        let bound_wall = model::theorem4_bound(a.len(), b.len(), k, 8, f);
        row.push(format!("{:.2}", total / bound_wall));
        t.row(&row);
    }
    out.push_str(&t.render());
    if let Some(spec) = workload::up_to(opts.max_len)
        .into_iter()
        .find(|s| s.kind == WorkloadKind::Dna && s.len >= 4_000)
    {
        let (a, b) = spec.generate();
        out.push_str(&measured_phase_occupancy(&a, &b, &scheme_for(spec), 4));
    }
    out.push_str("\nexpected shape: near-linear speedup to P=8, flattening after (the paper's\nFig.-level observation); larger problems scale better.\n");
    out
}

/// E8 — efficiency vs problem size at fixed P = 8.
pub fn efficiency(opts: ExpOptions) -> String {
    let mut out = String::from("E8: parallel efficiency at P = 8 vs problem size\n\n");
    let mut t = Table::new(&["workload", "efficiency P=8", "efficiency P=4"]);
    for spec in workload::up_to(opts.max_len) {
        if spec.kind != WorkloadKind::Dna {
            continue;
        }
        let (a, b) = spec.generate();
        let scheme = scheme_for(spec);
        let metrics = Metrics::new();
        let cfg = FastLsaConfig::new(8, 1 << 16);
        let (_, log) = fastlsa_core::align_traced(&a, &b, &scheme, cfg, &metrics).unwrap();
        let e8 = fastlsa_core::replay(&log, 8, 2).efficiency();
        let e4 = fastlsa_core::replay(&log, 4, 2).efficiency();
        t.row(&[
            spec.name.to_string(),
            format!("{e8:.3}"),
            format!("{e4:.3}"),
        ]);
    }
    out.push_str(&t.render());
    if let Some(spec) = workload::up_to(opts.max_len)
        .into_iter()
        .filter(|s| s.kind == WorkloadKind::Dna)
        .max_by_key(|s| s.len)
    {
        let (a, b) = spec.generate();
        out.push_str(&measured_phase_occupancy(&a, &b, &scheme_for(spec), 8));
    }
    out.push_str("\nexpected shape: efficiency increases with sequence length (the paper's\nheadline parallel result).\n");
    out
}

/// E9 — the three-phase fill census (Fig. 13) and Theorem 4's alpha.
pub fn phases() -> String {
    let mut out = String::from("E9: three-phase wavefront census for one Fill Cache step\n\n");
    let mut t = Table::new(&[
        "R x C",
        "P",
        "ramp lines",
        "sat lines",
        "drain lines",
        "census bound",
        "eq31 bound",
        "sim makespan",
    ]);
    for &(k, f, p) in &[
        (6usize, 2usize, 8usize),
        (8, 2, 8),
        (8, 4, 8),
        (8, 2, 4),
        (16, 2, 16),
    ] {
        let r = k * f;
        let c = k * f;
        let skip_from = (k - 1) * f;
        let skip = move |tr: usize, tc: usize| tr >= skip_from && tc >= skip_from;
        let pb = phase_breakdown(r, c, p, Some(&skip));
        let sim = simulate_schedule(r, c, p, Some(&skip), &|_, _| 1);
        let eq31 = ((r * c + p * p - p) as f64) / p as f64;
        t.row(&[
            format!("{r}x{c}"),
            p.to_string(),
            pb.ramp_lines.to_string(),
            pb.saturated_lines.to_string(),
            pb.drain_lines.to_string(),
            format!("{:.1}", pb.time_bound_tiles(p)),
            format!("{eq31:.1}"),
            sim.makespan.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nalpha(P=8, R=C=16) = {:.4} (Theorem 4, Eq. 32); perfect parallelism would be {:.4}\n",
        alpha_factor(16, 16, 8),
        1.0 / 8.0
    ));
    out.push_str("expected shape: simulated makespan <= census bound <= Eq. 31 bound.\n");
    out
}

/// E10 — simulated cache behaviour: the paper's "caching effects" claim.
pub fn cache(opts: ExpOptions) -> String {
    let mut out = String::from(
        "E10: simulated cache hierarchy (32 KiB L1 / 1 MiB L2, 4/14/120-cycle AMAT)\n\n",
    );
    let mut t = Table::new(&[
        "n",
        "algorithm",
        "cells/mn",
        "L1 miss%",
        "L2 miss%",
        "L2 wb/mn",
        "cycles/cell",
    ]);
    let mut sizes = vec![256usize, 512, 1024, 2048];
    if opts.full {
        sizes.push(4096);
    }
    for n in sizes {
        let fl_base = 1 << 14; // 64 Ki entries: fits L2 comfortably
        let runs = [
            trace_fm(n, n, Hierarchy::typical()),
            trace_hirschberg(n, n, 1 << 10, Hierarchy::typical()),
            trace_fastlsa(n, n, 8, fl_base, Hierarchy::typical()),
        ];
        for r in runs {
            t.row(&[
                n.to_string(),
                r.algorithm.to_string(),
                fmt_f(r.cells as f64 / (n * n) as f64),
                format!("{:.1}", r.stats.l1.miss_rate() * 100.0),
                format!("{:.1}", r.stats.l2.miss_rate() * 100.0),
                format!("{:.3}", r.stats.l2.writebacks as f64 / (n * n) as f64),
                format!("{:.2}", r.cycles_per_input_cell()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: once the FM matrix exceeds L2 (n >~ 512), FM's cycles/cell\njump while FastLSA/Hirschberg stay flat; FastLSA <= both baselines (the paper's\n\"always as fast or faster\" claim).\n");
    out
}

/// E12 (ablation) — FastLSA runtime vs Base Case buffer size: the
/// paper's §1 claim that the algorithm "can be parameterized and tuned …
/// to take advantage of cache memory and main memory sizes".
pub fn basesweep(opts: ExpOptions) -> String {
    let spec = if opts.max_len >= 16_000 {
        workload::by_name("dna-16k").unwrap()
    } else {
        workload::by_name("dna-4k").unwrap()
    };
    let (a, b) = spec.generate();
    let scheme = scheme_for(spec);
    let mn = (a.len() * b.len()) as f64;

    let mut out = format!("E12: base-case buffer sweep on {} (k = 8)\n\n", spec.name);
    let mut t = Table::new(&["base cells", "base MiB", "time ms", "cells/mn", "peak MiB"]);
    for shift in [12u32, 14, 16, 18, 20, 22, 24] {
        let base = 1usize << shift;
        let mm = Metrics::new();
        let cfg = FastLsaConfig::new(8, base);
        let (_, d) = time(|| fastlsa_core::align_with(&a, &b, &scheme, cfg, &mm));
        let s = mm.snapshot();
        t.row(&[
            base.to_string(),
            format!("{:.2}", (base * 4) as f64 / (1 << 20) as f64),
            ms(d),
            fmt_f(s.cells_computed as f64 / mn),
            format!("{:.2}", s.peak_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: recomputation falls as the buffer grows (fewer recursion\nlevels); wall time bottoms out when the buffer is roughly cache-sized and\nstops improving (or worsens) once base cases spill out of cache.\n");
    out
}

/// E13 (ablation) — replayed parallel speedup vs the tile subdivision
/// factor `f` (tiles per grid block): Fig. 13's load-balance knob.
pub fn tilesweep(opts: ExpOptions) -> String {
    let spec = if opts.max_len >= 16_000 {
        workload::by_name("dna-16k").unwrap()
    } else {
        workload::by_name("dna-4k").unwrap()
    };
    let (a, b) = spec.generate();
    let scheme = scheme_for(spec);
    let metrics = Metrics::new();
    let cfg = FastLsaConfig::new(8, 1 << 16);
    let (_, log) = fastlsa_core::align_traced(&a, &b, &scheme, cfg, &metrics).unwrap();

    let mut out = format!(
        "E13: tile-subdivision ablation on {} (k = 8, schedule replay)\n\n",
        spec.name
    );
    let mut t = Table::new(&[
        "tiles/block f",
        "speedup P=4",
        "speedup P=8",
        "speedup P=16",
    ]);
    for f in [1usize, 2, 3, 4, 8] {
        t.row(&[
            f.to_string(),
            format!("{:.2}", fastlsa_core::replay(&log, 4, f).speedup()),
            format!("{:.2}", fastlsa_core::replay(&log, 8, f).speedup()),
            format!("{:.2}", fastlsa_core::replay(&log, 16, f).speedup()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: f = 1 leaves processors idle on the k x k wavefront\n(ramp/drain dominate); f >= 2 restores near-linear speedup; returns\ndiminish beyond (Theorem 4's (P^2-P)/(R*C) term shrinks as R*C grows).\n");
    out
}

/// E14 (ablation) — speedup sensitivity to per-dependency communication
/// cost (the paper's testbed paid real interconnect latencies; a
/// shared-cache workstation pays ~0).
pub fn commsweep(opts: ExpOptions) -> String {
    let spec = if opts.max_len >= 16_000 {
        workload::by_name("dna-16k").unwrap()
    } else {
        workload::by_name("dna-4k").unwrap()
    };
    let (a, b) = spec.generate();
    let scheme = scheme_for(spec);
    let metrics = Metrics::new();
    let cfg = FastLsaConfig::new(8, 1 << 16);
    let (_, log) = fastlsa_core::align_traced(&a, &b, &scheme, cfg, &metrics).unwrap();

    let mut out = format!(
        "E14: communication-cost sensitivity on {} (k = 8, f = 2, replayed speedup)\n\n",
        spec.name
    );
    let mut t = Table::new(&["comm (frac of tile)", "P=2", "P=4", "P=8", "P=16"]);
    for frac in [0.0f64, 0.05, 0.1, 0.25, 0.5] {
        let mut row = vec![format!("{frac:.2}")];
        for p in [2usize, 4, 8, 16] {
            row.push(format!(
                "{:.2}",
                fastlsa_core::replay_with_comm(&log, p, 2, frac).speedup()
            ));
        }
        t.row(&row);
    }
    out.push_str(&t.render());
    out.push_str("\nexpected shape: speedup degrades gracefully with communication cost;\nhigh-P configurations suffer most (more cross-processor edges), matching\nwhy the paper's efficiency drops beyond 8 processors on real hardware.\n");
    out
}

/// E11 — executable theorem checks.
pub fn theorems(opts: ExpOptions) -> String {
    let mut out = String::from("E11: theorem bound checks (PASS/FAIL)\n\n");
    let spec = if opts.max_len >= 4_000 {
        workload::by_name("dna-4k").unwrap()
    } else {
        workload::by_name("dna-1k").unwrap()
    };
    let (a, b) = spec.generate();
    let scheme = scheme_for(spec);
    let (m, n) = (a.len(), b.len());
    let mut checks: Vec<(String, bool)> = Vec::new();

    // FM computes exactly m*n cells.
    let mm = Metrics::new();
    needleman_wunsch(&a, &b, &scheme, &mm);
    checks.push((
        format!("FM cells == m*n ({})", mm.snapshot().cells_computed),
        mm.snapshot().cells_computed == (m * n) as u64,
    ));

    // Hirschberg <= 2.05 * m*n cells.
    let mm = Metrics::new();
    hirschberg_with(&a, &b, &scheme, HirschbergConfig { base_cells: 64 }, &mm);
    let factor = mm.snapshot().cell_factor(m, n);
    checks.push((
        format!("Hirschberg cells/mn = {factor:.3} <= 2.05"),
        factor <= 2.05,
    ));

    // Theorem 2: FastLSA cells <= bound <= mn*(k/(k-1))^2 (with rounding slack).
    for k in [2usize, 4, 8, 16] {
        let base = 1 << 12;
        let mm = Metrics::new();
        fastlsa_core::align_with(&a, &b, &scheme, FastLsaConfig::new(k, base), &mm).unwrap();
        let meas = mm.snapshot().cells_computed as f64;
        let bound = model::fastlsa_cells_bound(m, n, k, base);
        let limit = (m * n) as f64 * model::theorem2_limit_factor(k) * 1.05;
        checks.push((
            format!(
                "T2 k={k}: measured {:.3}mn <= bound {:.3}mn <= limit",
                meas / (m * n) as f64,
                bound / (m * n) as f64
            ),
            meas <= bound * 1.05 && bound <= limit,
        ));
        // Theorem 3: peak memory within the space bound.
        let peak = mm.snapshot().peak_bytes as f64;
        let sbound = model::fastlsa_space_entries(m, n, k, base) * 4.0;
        checks.push((
            format!("T3 k={k}: peak {peak:.0}B <= bound {sbound:.0}B * 1.1"),
            peak <= sbound * 1.1,
        ));
    }

    // Theorem 4: replayed parallel wall cost <= bound.
    let k = 8;
    let f = 2;
    let metrics = Metrics::new();
    let (_, log) =
        fastlsa_core::align_traced(&a, &b, &scheme, FastLsaConfig::new(k, 1 << 12), &metrics)
            .unwrap();
    for p in [2usize, 4, 8] {
        let rep = fastlsa_core::replay(&log, p, f);
        let bound = model::theorem4_bound(m, n, k, p, f);
        checks.push((
            format!(
                "T4 P={p}: replay {:.0} <= bound {:.0} cell-units",
                rep.units, bound
            ),
            rep.units <= bound,
        ));
    }

    let mut t = Table::new(&["check", "result"]);
    let mut all = true;
    for (name, ok) in &checks {
        all &= ok;
        t.row(&[
            name.clone(),
            if *ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\noverall: {}\n",
        if all { "ALL PASS" } else { "FAILURES PRESENT" }
    ));
    out
}
