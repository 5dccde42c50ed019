//! The `flsa bench shard` harness: what does multi-process execution
//! cost, and what does surviving chaos cost on top?
//!
//! Three scenario groups, all on the same seeded homologous pair and
//! all verified **byte-identical** to the sequential engine:
//! - **sequential** — the in-process oracle and the timing baseline.
//! - **shard-clean** — the coordinator with a healthy worker fleet;
//!   its gap to sequential is the protocol + process overhead.
//! - **chaos-`<plan>`** — a slice of the seeded
//!   [`flsa_fault::shard::ShardFaultPlan`] matrix (worker SIGKILLs,
//!   hangs, CRC-corrupted results, mid-frame stalls); the gap to the
//!   clean sharded run is the recovery overhead, and `--gate` turns the
//!   worst case into a regression gate.
//!
//! The harness runs the real worker binary (the caller supplies the
//! command, normally `flsa shard-worker`), so the numbers include real
//! `fork`/`exec`, real pipes, and real kills.

use std::time::Duration;

use fastlsa_core::{align_with, FastLsaConfig};
use flsa_dp::{AlignResult, Metrics};
use flsa_fault::shard::ShardFaultPlan;
use flsa_scoring::tables;
use flsa_seq::generate::homologous_pair;
use flsa_shard::{align_sharded, ShardOptions, ShardPolicy};

use crate::HostStamp;

/// Gap penalty used throughout the harness.
const GAP: i32 = -3;

/// Shard-bench parameters.
#[derive(Debug, Clone)]
pub struct ShardBenchConfig {
    /// Square problem side.
    pub len: usize,
    /// Timed repetitions for the sequential and clean sharded runs,
    /// best kept (chaos plans run once — their wall-clock is dominated
    /// by deterministic detection windows, not noise).
    pub reps: usize,
    /// Worker processes for the clean sharded run.
    pub shards: usize,
    /// How many consecutive seeds of the chaos matrix to run.
    pub chaos_plans: usize,
    /// First chaos seed.
    pub seed: u64,
    /// Worker command line (program + leading args); the CLI passes
    /// its own binary with the `shard-worker` subcommand.
    pub worker_cmd: Vec<String>,
}

impl Default for ShardBenchConfig {
    fn default() -> Self {
        ShardBenchConfig {
            len: 600,
            reps: 3,
            shards: 4,
            chaos_plans: 8,
            seed: 0,
            worker_cmd: Vec::new(),
        }
    }
}

/// One timed scenario.
#[derive(Debug, Clone)]
pub struct ShardBenchRow {
    /// `sequential`, `shard-clean`, or a chaos plan label.
    pub scenario: String,
    /// Worker slots the scenario ran with (0 = in-process).
    pub shards: usize,
    /// Wall-clock (best of reps where reps apply).
    pub wall: Duration,
    /// Score and path match the sequential oracle exactly.
    pub identical: bool,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct ShardBenchReport {
    /// One row per scenario, sequential first.
    pub rows: Vec<ShardBenchRow>,
    /// First chaos seed (the report is reproducible given it).
    pub seed: u64,
    /// Problem side.
    pub len: usize,
    /// The machine the scenarios ran on.
    pub host: HostStamp,
}

impl ShardBenchReport {
    /// True when every scenario reproduced the oracle byte-for-byte.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Worst chaos wall-clock in milliseconds — how long the
    /// coordinator's slowest recovery took end to end. An absolute
    /// figure, not a ratio against the clean run: chaos cost is
    /// dominated by fixed detection windows (heartbeat staleness, task
    /// deadlines), which do not scale with problem size the way the
    /// clean wall-clock does. 0 when the report has no chaos rows.
    pub fn worst_chaos_ms(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.scenario.starts_with("chaos-"))
            .map(|r| r.wall.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// The JSON body of `BENCH_shard.json`.
    pub fn to_json(&self) -> String {
        let mut out = self.host.json_header("shard");
        out.push_str(&format!(
            "  \"seed\": {},\n  \"len\": {},\n  \"results\": [\n",
            self.seed, self.len
        ));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"shards\": {}, \"wall_ms\": {:.1}, \
                 \"identical\": {}}}{}\n",
                r.scenario,
                r.shards,
                r.wall.as_secs_f64() * 1e3,
                r.identical,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A plain-text table of the report.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(&["scenario", "shards", "wall ms", "identical"]);
        for r in &self.rows {
            t.row(&[
                r.scenario.clone(),
                format!("{}", r.shards),
                crate::ms(r.wall),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t.render()
    }
}

/// Detection windows tuned for bench inputs, mirroring the chaos
/// matrix's: hangs and stalls are reclaimed in a quarter second so a
/// chaos row measures recovery, not default production timeouts.
fn chaos_policy() -> ShardPolicy {
    ShardPolicy {
        task_timeout: Duration::from_millis(500),
        heartbeat_ms: 5,
        heartbeat_timeout: Duration::from_millis(250),
        backoff: Duration::from_millis(2),
        ..ShardPolicy::default()
    }
}

/// Compares a run against the oracle.
fn matches(oracle: &AlignResult, got: &AlignResult) -> bool {
    oracle.score == got.score && oracle.path == got.path
}

/// Runs the whole harness. `Err` carries a description of the first
/// run that failed outright (a diverging run is reported as a
/// non-`identical` row instead, so the gate can name it).
pub fn run(cfg: &ShardBenchConfig) -> Result<ShardBenchReport, String> {
    let scheme = tables::scheme_by_name("dna", GAP).ok_or("dna scheme missing")?;
    let (a, b) = homologous_pair("bench", scheme.alphabet(), cfg.len, 0.8, cfg.seed ^ 0xB3)
        .map_err(|e| e.to_string())?;
    let grid = FastLsaConfig::new(8, 1 << 14);

    let mut oracle = None;
    let mut best_seq = Duration::MAX;
    for _ in 0..cfg.reps {
        let (r, wall) = crate::time(|| align_with(&a, &b, &scheme, grid, &Metrics::new()));
        let r = r.map_err(|e| format!("sequential baseline failed: {e}"))?;
        best_seq = best_seq.min(wall);
        oracle = Some(r);
    }
    let oracle = oracle.ok_or("reps must be >= 1")?;
    let mut rows = vec![ShardBenchRow {
        scenario: "sequential".to_string(),
        shards: 0,
        wall: best_seq,
        identical: true,
    }];

    let mut best_clean = Duration::MAX;
    let mut clean_ok = true;
    for _ in 0..cfg.reps {
        let opts = ShardOptions::new(cfg.shards, cfg.worker_cmd.clone());
        let (r, wall) =
            crate::time(|| align_sharded(&a, &b, "dna", GAP, grid, &opts, &Metrics::new()));
        let r = r.map_err(|e| format!("clean sharded run failed: {e}"))?;
        best_clean = best_clean.min(wall);
        clean_ok &= matches(&oracle, &r);
    }
    rows.push(ShardBenchRow {
        scenario: "shard-clean".to_string(),
        shards: cfg.shards,
        wall: best_clean,
        identical: clean_ok,
    });

    for seed in cfg.seed..cfg.seed + cfg.chaos_plans as u64 {
        let plan = ShardFaultPlan::from_seed(seed);
        let mut opts = ShardOptions::new(plan.shards, cfg.worker_cmd.clone());
        opts.worker_faults = plan.worker_faults();
        opts.refault_respawns = plan.refault_respawns;
        opts.policy = chaos_policy();
        let (r, wall) =
            crate::time(|| align_sharded(&a, &b, "dna", GAP, grid, &opts, &Metrics::new()));
        let r = r.map_err(|e| format!("chaos plan {} failed: {e}", plan.label()))?;
        rows.push(ShardBenchRow {
            scenario: format!("chaos-{}@{}", plan.kind.name(), plan.phase.name()),
            shards: plan.shards,
            wall,
            identical: matches(&oracle, &r),
        });
    }

    Ok(ShardBenchReport {
        rows,
        seed: cfg.seed,
        len: cfg.len,
        host: HostStamp::detect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(rows: Vec<ShardBenchRow>) -> ShardBenchReport {
        ShardBenchReport {
            rows,
            seed: 0,
            len: 600,
            host: HostStamp::detect(),
        }
    }

    fn row(scenario: &str, wall_ms: u64, identical: bool) -> ShardBenchRow {
        ShardBenchRow {
            scenario: scenario.to_string(),
            shards: 4,
            wall: Duration::from_millis(wall_ms),
            identical,
        }
    }

    #[test]
    fn worst_chaos_is_the_slowest_chaos_row() {
        let report = report_with(vec![
            row("sequential", 10, true),
            row("shard-clean", 20, true),
            row("chaos-worker-kill@early", 30, true),
            row("chaos-worker-hang@late", 50, true),
        ]);
        assert!((report.worst_chaos_ms() - 50.0).abs() < 1e-9);
        assert!(report.all_identical());
    }

    #[test]
    fn no_chaos_rows_means_no_recovery_claim() {
        let report = report_with(vec![row("sequential", 10, true)]);
        assert_eq!(report.worst_chaos_ms(), 0.0);
    }

    #[test]
    fn divergence_fails_the_identity_check() {
        let report = report_with(vec![
            row("shard-clean", 20, true),
            row("chaos-corrupt-result@mid", 25, false),
        ]);
        assert!(!report.all_identical());
        assert!(report.render().contains("NO"));
    }

    #[test]
    fn json_report_has_the_expected_shape() {
        let report = report_with(vec![
            row("sequential", 10, true),
            row("shard-clean", 20, true),
        ]);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"shard\""));
        assert!(json.contains("\"shard-clean\""));
        assert!(json.contains("\"identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
