//! The live progress-line model behind `flsa align --progress`.
//!
//! [`Progress`] binds the handful of registry handles a progress display
//! needs; [`Progress::line`] turns them plus an elapsed wall time into a
//! single bounded-width status line. The rendering itself is a pure
//! function ([`render`]) so it can be tested without a registry or a
//! terminal; the CLI owns the refresh loop and the `\r` plumbing.

use crate::{names, Counter, Gauge, Registry};

/// Cached handles for everything a progress line reports.
#[derive(Clone, Debug)]
pub struct Progress {
    cells: Counter,
    /// Per-backend cells, index-aligned with [`names::BACKENDS`].
    cells_by_backend: [Counter; 4],
    expected: Gauge,
    phase: Gauge,
}

impl Progress {
    /// Binds the progress handles in `reg` (registering them if the
    /// engine has not yet).
    pub fn new(reg: &Registry) -> Self {
        Progress {
            cells: reg.counter(names::CELLS_TOTAL),
            cells_by_backend: names::CELLS_BACKEND_TOTAL.map(|name| reg.counter(name)),
            expected: reg.gauge(names::RUN_CELLS_EXPECTED),
            phase: reg.gauge(names::PHASE),
        }
    }

    /// Renders the current status line. The backend shown is the one
    /// that has computed the most cells so far (`?` before any has).
    pub fn line(&self, elapsed_secs: f64) -> String {
        let (cells, backend) = self
            .cells_by_backend
            .iter()
            .map(Counter::get)
            .zip(names::BACKENDS)
            .max()
            .unwrap_or_default();
        render(
            elapsed_secs,
            self.cells.get(),
            self.expected.get().max(0) as u64,
            self.phase.get(),
            if cells > 0 { backend } else { "?" },
        )
    }
}

/// Formats a cell count as a rate string.
fn fmt_rate(cells_per_sec: f64) -> String {
    if cells_per_sec >= 1e9 {
        format!("{:.2} Gcells/s", cells_per_sec / 1e9)
    } else if cells_per_sec >= 1e6 {
        format!("{:.1} Mcells/s", cells_per_sec / 1e6)
    } else if cells_per_sec >= 1e3 {
        format!("{:.1} kcells/s", cells_per_sec / 1e3)
    } else {
        format!("{cells_per_sec:.0} cells/s")
    }
}

fn fmt_eta(secs: f64) -> String {
    if secs >= 3600.0 {
        format!(
            "{:.0}h{:02.0}m",
            (secs / 3600.0).floor(),
            (secs % 3600.0) / 60.0
        )
    } else if secs >= 60.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!("{secs:.0}s")
    }
}

/// Pure renderer: `expected` is the caller's estimate of total cells
/// (`m*n` is a lower bound — grid-cache refills push the true total
/// above it, so the percentage is capped below 100 until done).
pub fn render(elapsed_secs: f64, cells: u64, expected: u64, phase: i64, backend: &str) -> String {
    let rate = if elapsed_secs > 0.0 {
        cells as f64 / elapsed_secs
    } else {
        0.0
    };
    let pct = if expected > 0 {
        (cells as f64 / expected as f64 * 100.0).min(99.9)
    } else {
        0.0
    };
    let eta = if rate > 0.0 && expected > cells {
        fmt_eta((expected - cells) as f64 / rate)
    } else {
        "--".to_string()
    };
    format!(
        "{pct:5.1}%  {rate:>14}  eta {eta:>6}  phase={phase:<9}  backend={backend}",
        rate = fmt_rate(rate),
        phase = names::phase_name(phase),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_rate_percent_eta_phase_and_backend() {
        let line = render(
            2.0,
            50_000_000,
            100_000_000,
            names::PHASE_GRID_FILL,
            "avx512",
        );
        assert!(line.contains("50.0%"), "{line}");
        assert!(line.contains("25.0 Mcells/s"), "{line}");
        assert!(line.contains("eta"), "{line}");
        assert!(line.contains("2s"), "{line}");
        assert!(line.contains("phase=grid-fill"), "{line}");
        assert!(line.contains("backend=avx512"), "{line}");
    }

    #[test]
    fn render_is_defensive_about_zero_state() {
        let line = render(0.0, 0, 0, 0, "?");
        assert!(line.contains("0.0%"), "{line}");
        assert!(line.contains("eta     --"), "{line}");
        assert!(line.contains("phase=idle"), "{line}");
        assert!(line.contains("backend=?"), "{line}");
    }

    #[test]
    fn percent_is_capped_when_cells_exceed_the_estimate() {
        let line = render(10.0, 150, 100, names::PHASE_TRACEBACK, "scalar");
        assert!(line.contains("99.9%"), "{line}");
    }

    #[test]
    fn eta_formats_scale_with_magnitude() {
        assert_eq!(fmt_eta(42.0), "42s");
        assert_eq!(fmt_eta(90.0), "1m30s");
        assert_eq!(fmt_eta(3700.0), "1h02m");
        assert_eq!(fmt_rate(2.5e9), "2.50 Gcells/s");
        assert_eq!(fmt_rate(500.0), "500 cells/s");
    }

    #[test]
    fn progress_reads_live_registry_state() {
        let reg = Registry::new();
        let p = Progress::new(&reg);
        reg.counter(names::CELLS_TOTAL).add(10);
        reg.counter(names::CELLS_BACKEND_TOTAL[0]).add(3);
        reg.counter(names::CELLS_BACKEND_TOTAL[1]).add(7);
        reg.gauge(names::RUN_CELLS_EXPECTED).set(100);
        reg.gauge(names::PHASE).set(names::PHASE_BASE_CASE);
        let line = p.line(1.0);
        assert!(line.contains("10.0%"), "{line}");
        assert!(line.contains("phase=base-case"), "{line}");
        assert!(line.contains("backend=sse4.1"), "{line}");
    }
}
