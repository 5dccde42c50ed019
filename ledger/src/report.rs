//! Order statistics, the host stamp, and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by: a layer the
/// workload does not exercise reports 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host stamp printed before every result, so figures from different
/// machines, backends or toolchains are never compared silently.
pub fn host_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let features: Vec<String> = flsa_dp::detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"host\": {{\"cpu_features\": [{}], \"backend\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\"}}, \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}",
        features.join(", "),
        flsa_dp::KernelBackend::detect_best().name(),
        nproc(),
        env!("LEDGER_RUSTC_VERSION"),
        u8::from(trace),
    )
}

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`), as `(name, unit)` in order: the one list of what the
/// ledger reports.
pub fn declared(key: &str) -> Vec<(String, String)> {
    let doc = flsa_metrics::json::Json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.items())
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| panic!("every {key} metric has a {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: every metric `BENCHMARK.json` declares for the run,
/// by name, with its unit. End-to-end metrics (`trace` false) must all be
/// set; a per-layer metric the workload did not set reports 0. A
/// non-finite value is a bug in the ledger, not a measurement, so it
/// aborts the run instead of printing bad JSON.
pub fn result_line(
    trace: bool,
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let list = declared(if trace { "per_layer" } else { "end_to_end" });
    let mut body = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match values.get(name.as_str()) {
            Some(&v) => v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
