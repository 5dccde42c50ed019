//! Shared infrastructure for the `flsa paper` experiments and the
//! Criterion benchmarks: workload materialization, wall-clock timing, and
//! plain-text table rendering.
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use flsa_dp::{detected_cpu_features, KernelBackend};

pub mod experiments;
pub mod kernels;
pub mod metrics;
pub mod serve;
pub mod shard;

/// Times one closure invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Formats a duration as milliseconds with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// The machine a `BENCH_*.json` report was measured on, which every
/// report stamps at its head so numbers are comparable across hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// SIMD features the CPU reports (from `is_x86_feature_detected!`).
    pub cpu_features: Vec<&'static str>,
    /// The backend [`KernelBackend::detect_best`] picks.
    pub best_backend: KernelBackend,
    /// CPUs available to the process.
    pub nproc: usize,
}

impl HostStamp {
    /// This machine.
    pub fn detect() -> HostStamp {
        HostStamp {
            cpu_features: detected_cpu_features(),
            best_backend: KernelBackend::detect_best(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// The head of a report: the opening brace, then one line each for
    /// `bench` and the three host fields, every line ending in a comma
    /// for the report's own fields to follow.
    pub fn json_header(&self, bench: &str) -> String {
        let features: Vec<String> = self
            .cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"cpu_features\": [{}],\n  \
             \"best_backend\": \"{}\",\n  \"nproc\": {},\n",
            features.join(", "),
            self.best_backend.name(),
            self.nproc
        )
    }
}

/// A plain-text table with right-aligned numeric-looking cells.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align first column, right-align the rest.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cells[i], w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (for EXPERIMENTS.md appendices).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn host_stamp_heads_every_report_alike() {
        let host = HostStamp {
            cpu_features: vec!["sse2", "avx2"],
            best_backend: KernelBackend::Avx2,
            nproc: 2,
        };
        assert_eq!(
            host.json_header("shard"),
            "{\n  \"bench\": \"shard\",\n  \"cpu_features\": [\"sse2\", \"avx2\"],\n  \
             \"best_backend\": \"avx2\",\n  \"nproc\": 2,\n"
        );
        let detected = HostStamp::detect();
        assert!(detected.nproc >= 1);
        assert!(detected.best_backend.is_available());
    }

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
