//! The `flsa bench serve` load harness: a seeded multi-threaded load
//! generator driven against an in-process `flsa-serve` daemon.
//!
//! Two workload mixes:
//! - **ReadHeavy** — a stream of small, uniform jobs: the steady-state
//!   serving profile, dominated by per-request overhead.
//! - **RapidGrow** — job sizes ramp up over the run, pushing admission
//!   control and the memory governor progressively harder.
//!
//! Each mix runs **closed-loop** (every client waits for its response
//! before the next request — measures service latency under bounded
//! concurrency) and/or **open-loop** (clients submit on a fixed
//! schedule regardless of completions — measures latency including
//! queueing, the way real arrival processes do). Latency percentiles
//! (p50/p95/p99) and sustained throughput land in `BENCH_serve.json`,
//! stamped with the host's CPU features, kernel backend and CPU count so
//! numbers are comparable across machines, and `--gate` turns the
//! closed-loop throughput into a regression gate.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flsa_fault::SplitMix64;
use flsa_serve::wire::{AlignRequest, Frame};
use flsa_serve::{Client, ServeConfig, Server};

use crate::HostStamp;

/// Workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Small uniform jobs; throughput-bound.
    ReadHeavy,
    /// Job sizes ramp over the run; admission-bound.
    RapidGrow,
}

impl Mix {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read-heavy",
            Mix::RapidGrow => "rapid-grow",
        }
    }

    /// Parses a `--mix` value.
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "read-heavy" => Some(Mix::ReadHeavy),
            "rapid-grow" => Some(Mix::RapidGrow),
            _ => None,
        }
    }

    /// Sequence length for operation `i` of `ops` under this mix.
    fn len_for(self, rng: &mut SplitMix64, i: usize, ops: usize) -> usize {
        match self {
            Mix::ReadHeavy => 48 + rng.below(112) as usize,
            Mix::RapidGrow => {
                // Ramp 64 → ~480 across the run, with jitter.
                let ramp = 64 + 416 * i / ops.max(1);
                ramp + rng.below(32) as usize
            }
        }
    }
}

/// Client pacing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Wait for each response before the next request.
    Closed,
    /// Submit on a fixed schedule; latency includes queueing.
    Open,
}

impl Mode {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "closed" => Some(Mode::Closed),
            "open" => Some(Mode::Open),
            _ => None,
        }
    }
}

/// Load-harness parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Mixes to run (each in every requested mode).
    pub mixes: Vec<Mix>,
    /// Pacing disciplines to run.
    pub modes: Vec<Mode>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub ops: usize,
    /// Open-loop submission rate per client, requests/second.
    pub rate: f64,
    /// Seed for the whole harness (workloads are derived per client).
    pub seed: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Server admission budget (`None` = unbudgeted).
    pub budget_bytes: Option<usize>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            mixes: vec![Mix::ReadHeavy, Mix::RapidGrow],
            modes: vec![Mode::Closed, Mode::Open],
            clients: 4,
            ops: 32,
            rate: 100.0,
            seed: 42,
            workers: 4,
            budget_bytes: None,
        }
    }
}

/// One (mix, mode) measurement.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Workload shape.
    pub mix: Mix,
    /// Pacing discipline.
    pub mode: Mode,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests submitted in total.
    pub submitted: u64,
    /// `Ok` responses.
    pub completed: u64,
    /// Typed failures.
    pub failed: u64,
    /// `Overloaded` rejections.
    pub rejected: u64,
    /// Wall-clock for the whole mix run.
    pub wall: Duration,
    /// Response latencies, microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
}

impl LoadResult {
    /// The `p`-th latency percentile in microseconds (0 when empty).
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (p / 100.0 * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[rank.min(self.latencies_us.len() - 1)]
    }

    /// Answered requests per second over the wall clock.
    pub fn throughput(&self) -> f64 {
        let answered = self.completed + self.failed + self.rejected;
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            answered as f64 / secs
        } else {
            0.0
        }
    }
}

/// The full harness report.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// One row per (mix, mode).
    pub results: Vec<LoadResult>,
    /// The harness seed (reports are reproducible given the seed).
    pub seed: u64,
    /// The machine the harness ran on. Every job runs on its
    /// `best_backend`, and its `nproc` CPUs are shared by the daemon's
    /// workers and the load generator's clients.
    pub host: HostStamp,
}

impl ServeBenchReport {
    /// The smallest closed-loop throughput — the `--gate` measure
    /// (open-loop throughput is capped by the submission schedule, so
    /// it would gate the schedule, not the server).
    pub fn gate_throughput(&self) -> f64 {
        self.results
            .iter()
            .filter(|r| r.mode == Mode::Closed)
            .map(LoadResult::throughput)
            .fold(f64::INFINITY, f64::min)
    }

    /// True when every submitted request was answered — the harness's
    /// no-lost-responses invariant.
    pub fn all_answered(&self) -> bool {
        self.results
            .iter()
            .all(|r| r.completed + r.failed + r.rejected == r.submitted)
    }

    /// The JSON body of `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let mut out = self.host.json_header("serve");
        out.push_str(&format!("  \"seed\": {},\n  \"results\": [\n", self.seed));
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mix\": \"{}\", \"mode\": \"{}\", \"clients\": {}, \
                 \"submitted\": {}, \"completed\": {}, \"failed\": {}, \"rejected\": {}, \
                 \"wall_ms\": {:.1}, \"throughput_ops_s\": {:.1}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}{}\n",
                r.mix.name(),
                r.mode.name(),
                r.clients,
                r.submitted,
                r.completed,
                r.failed,
                r.rejected,
                r.wall.as_secs_f64() * 1e3,
                r.throughput(),
                r.percentile_us(50.0),
                r.percentile_us(95.0),
                r.percentile_us(99.0),
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A plain-text table of the report.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(&[
            "mix", "mode", "clients", "ops", "ok", "fail", "rej", "wall ms", "ops/s", "p50 ms",
            "p95 ms", "p99 ms",
        ]);
        for r in &self.results {
            t.row(&[
                r.mix.name().to_string(),
                r.mode.name().to_string(),
                format!("{}", r.clients),
                format!("{}", r.submitted),
                format!("{}", r.completed),
                format!("{}", r.failed),
                format!("{}", r.rejected),
                format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                format!("{:.1}", r.throughput()),
                format!("{:.2}", r.percentile_us(50.0) as f64 / 1e3),
                format!("{:.2}", r.percentile_us(95.0) as f64 / 1e3),
                format!("{:.2}", r.percentile_us(99.0) as f64 / 1e3),
            ]);
        }
        t.render()
    }
}

/// Deterministic DNA text.
fn dna(rng: &mut SplitMix64, len: usize) -> String {
    (0..len)
        .map(|_| b"ACGT"[rng.below(4) as usize] as char)
        .collect()
}

/// Builds client `c`'s request stream for a mix, derived from the
/// harness seed so every run with the same seed submits identical work.
fn requests_for(mix: Mix, cfg: &LoadConfig, c: usize) -> Vec<AlignRequest> {
    let mut rng = SplitMix64::new(cfg.seed ^ (0x10ad << 16) ^ (c as u64) ^ (mix as u64) << 8);
    (0..cfg.ops)
        .map(|i| {
            let len_a = mix.len_for(&mut rng, i, cfg.ops);
            let len_b = mix.len_for(&mut rng, i, cfg.ops);
            AlignRequest {
                id: ((c as u64) << 32) | i as u64,
                deadline_ms: 0,
                threads: 0,
                k: 0,
                gap: -2,
                base_cells: 4096,
                matrix: "dna".to_string(),
                seq_a: dna(&mut rng, len_a).into_bytes(),
                seq_b: dna(&mut rng, len_b).into_bytes(),
            }
        })
        .collect()
}

/// Per-client tallies merged into a [`LoadResult`].
#[derive(Default)]
struct Tally {
    completed: u64,
    failed: u64,
    rejected: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn note(&mut self, frame: &Frame, latency: Duration) {
        match frame {
            Frame::Ok(_) => self.completed += 1,
            Frame::Fail(_) => self.failed += 1,
            Frame::Overloaded { .. } => self.rejected += 1,
            _ => {}
        }
        self.latencies_us.push(latency.as_micros() as u64);
    }
}

/// One closed-loop client: submit, await, repeat.
fn closed_loop_client(addr: std::net::SocketAddr, requests: Vec<AlignRequest>) -> Tally {
    let mut client = Client::connect(addr).expect("bench client connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut tally = Tally::default();
    for r in requests {
        let start = Instant::now();
        let frame = client.align(r).expect("bench response");
        tally.note(&frame, start.elapsed());
    }
    tally
}

/// One open-loop client: a sender pushes requests on a fixed schedule
/// while a reader (on a cloned socket handle) collects responses and
/// measures latency from scheduled submission to receipt.
fn open_loop_client(addr: std::net::SocketAddr, requests: Vec<AlignRequest>, rate: f64) -> Tally {
    let mut sender = Client::connect(addr).expect("bench client connect");
    let mut reader = sender.try_clone().expect("clone client");
    reader
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let sent: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let expected = requests.len();
    let interval = Duration::from_secs_f64(1.0 / rate.max(1e-6));

    let sent_tx = sent.clone();
    let send_thread = std::thread::spawn(move || {
        let t0 = Instant::now();
        for (i, r) in requests.into_iter().enumerate() {
            let due = t0 + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_tx
                .lock()
                .expect("send-times lock")
                .insert(r.id, Instant::now());
            sender.send(&Frame::Align(r)).expect("bench send");
        }
    });

    let mut tally = Tally::default();
    let mut got = 0usize;
    while got < expected {
        let frame = reader.recv().expect("bench response");
        let id = match &frame {
            Frame::Ok(r) => r.id,
            Frame::Fail(r) => r.id,
            Frame::Overloaded { id, .. } => *id,
            other => panic!("unexpected frame {other:?}"),
        };
        let start = sent
            .lock()
            .expect("send-times lock")
            .remove(&id)
            .expect("response for unknown id");
        tally.note(&frame, start.elapsed());
        got += 1;
    }
    send_thread.join().expect("sender thread");
    tally
}

/// Runs one (mix, mode) cell against `addr`.
fn run_cell(addr: std::net::SocketAddr, mix: Mix, mode: Mode, cfg: &LoadConfig) -> LoadResult {
    let start = Instant::now();
    let handles: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let requests = requests_for(mix, cfg, c);
            let rate = cfg.rate;
            std::thread::spawn(move || match mode {
                Mode::Closed => closed_loop_client(addr, requests),
                Mode::Open => open_loop_client(addr, requests, rate),
            })
        })
        .collect();
    let mut result = LoadResult {
        mix,
        mode,
        clients: cfg.clients,
        submitted: (cfg.clients * cfg.ops) as u64,
        completed: 0,
        failed: 0,
        rejected: 0,
        wall: Duration::ZERO,
        latencies_us: Vec::new(),
    };
    for h in handles {
        let tally = h.join().expect("client thread");
        result.completed += tally.completed;
        result.failed += tally.failed;
        result.rejected += tally.rejected;
        result.latencies_us.extend(tally.latencies_us);
    }
    result.wall = start.elapsed();
    result.latencies_us.sort_unstable();
    result
}

/// Runs the whole harness: starts an in-process daemon, drives every
/// requested (mix, mode) cell against it, drains, and reports.
pub fn run(cfg: &LoadConfig) -> ServeBenchReport {
    let mut server_cfg = ServeConfig::new("127.0.0.1:0");
    server_cfg.workers = cfg.workers.max(1);
    server_cfg.budget_bytes = cfg.budget_bytes;
    server_cfg.queue_cap = (cfg.clients * cfg.ops).max(64);
    let server = Server::start(server_cfg).expect("bench server start");
    let addr = server.local_addr();

    let mut results = Vec::new();
    for &mix in &cfg.mixes {
        for &mode in &cfg.modes {
            results.push(run_cell(addr, mix, mode, cfg));
        }
    }

    server.drain();
    assert_eq!(
        server.admission_used_bytes(),
        0,
        "admission leak after load run"
    );
    server.join();

    ServeBenchReport {
        results,
        seed: cfg.seed,
        host: HostStamp::detect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_dp::KernelBackend;

    fn small_cfg() -> LoadConfig {
        LoadConfig {
            clients: 2,
            ops: 6,
            rate: 200.0,
            workers: 2,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn harness_answers_every_request_in_every_cell() {
        let report = run(&small_cfg());
        assert_eq!(report.results.len(), 4, "2 mixes x 2 modes");
        assert!(report.all_answered(), "lost responses");
        for r in &report.results {
            assert_eq!(r.completed, r.submitted, "unexpected failures: {r:?}");
            assert_eq!(r.latencies_us.len() as u64, r.submitted);
            assert!(r.percentile_us(50.0) <= r.percentile_us(99.0));
            assert!(r.throughput() > 0.0);
        }
        assert!(report.gate_throughput() > 0.0);
        assert!(report.host.nproc >= 1);
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let cfg = small_cfg();
        assert_eq!(
            requests_for(Mix::ReadHeavy, &cfg, 1),
            requests_for(Mix::ReadHeavy, &cfg, 1)
        );
        assert_ne!(
            requests_for(Mix::ReadHeavy, &cfg, 0),
            requests_for(Mix::ReadHeavy, &cfg, 1),
            "clients must not submit identical streams"
        );
        assert_ne!(
            requests_for(Mix::ReadHeavy, &cfg, 0),
            requests_for(Mix::RapidGrow, &cfg, 0),
            "mixes must differ"
        );
    }

    #[test]
    fn rapid_grow_actually_grows() {
        let cfg = LoadConfig {
            ops: 16,
            ..LoadConfig::default()
        };
        let reqs = requests_for(Mix::RapidGrow, &cfg, 0);
        let first = reqs.first().expect("first").seq_a.len();
        let last = reqs.last().expect("last").seq_a.len();
        assert!(last > first * 3, "ramp too flat: {first} -> {last}");
    }

    #[test]
    fn json_report_has_the_expected_shape() {
        let report = ServeBenchReport {
            results: vec![LoadResult {
                mix: Mix::ReadHeavy,
                mode: Mode::Closed,
                clients: 1,
                submitted: 2,
                completed: 2,
                failed: 0,
                rejected: 0,
                wall: Duration::from_millis(10),
                latencies_us: vec![100, 200],
            }],
            seed: 7,
            host: HostStamp {
                cpu_features: vec!["sse2", "avx2"],
                best_backend: KernelBackend::Avx2,
                nproc: 2,
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"cpu_features\": [\"sse2\", \"avx2\"]"));
        assert!(json.contains("\"best_backend\": \"avx2\""));
        assert!(json.contains("\"nproc\": 2"));
        assert!(json.contains("\"read-heavy\""));
        assert!(json.contains("\"p99_us\""));
        assert!(!json.contains("batch"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.all_answered());
    }
}
