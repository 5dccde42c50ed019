//! End-to-end tests of `flsa serve` as a real process: the exit-code
//! taxonomy, SIGTERM drain, `--fault-seed` chaos injection, and the
//! kill–restore guarantee — a SIGKILL'd daemon, restarted on the same
//! spool, completes every accepted job byte-identically to a daemon
//! that was never killed.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use flsa_dp::Metrics;
use flsa_fault::crash::KillPlan;
use flsa_fault::serve::{ServeFaultKind, ServeFaultPlan};
use flsa_fault::SplitMix64;
use flsa_seq::Sequence;
use flsa_serve::wire::{AlignRequest, ErrorCode, Frame};
use flsa_serve::{job, Client, Spool};

const GAP: i32 = -2;

fn flsa_bin() -> &'static str {
    env!("CARGO_BIN_EXE_flsa")
}

fn dna(seed: u64, len: usize) -> String {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| b"ACGT"[rng.below(4) as usize] as char)
        .collect()
}

fn req(id: u64, a: &str, b: &str) -> AlignRequest {
    AlignRequest {
        id,
        deadline_ms: 0,
        threads: 0,
        k: 0,
        gap: GAP,
        base_cells: 4096,
        matrix: "dna".to_string(),
        seq_a: a.as_bytes().to_vec(),
        seq_b: b.as_bytes().to_vec(),
    }
}

fn reference(a: &str, b: &str) -> (i64, String) {
    let scheme = flsa_scoring::tables::scheme_for("dna", GAP).expect("dna scheme");
    let sa = Sequence::from_str("a", scheme.alphabet(), a).expect("seq a");
    let sb = Sequence::from_str("b", scheme.alphabet(), b).expect("seq b");
    let r = fastlsa_core::align(&sa, &sb, &scheme, &Metrics::new()).expect("reference align");
    (r.score, job::cigar(&r.path))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flsa-cli-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A daemon process plus the reader holding its remaining stdout.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns `flsa serve --addr 127.0.0.1:0 <extra>` and reads the
    /// `listening on ...` line to learn the bound port.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(flsa_bin())
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn flsa serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .parse()
            .expect("parse bound addr");
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    fn connect(&self) -> Client {
        let mut c = Client::connect(self.addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        c
    }

    fn signal(&self, sig: &str) {
        let ok = Command::new("kill")
            .arg(sig)
            .arg(self.child.id().to_string())
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill {sig} {}", self.child.id());
    }

    /// Waits (bounded) for exit, returning the code and remaining stdout.
    fn wait(mut self) -> (i32, String) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(st) = self.child.try_wait().expect("try_wait") {
                break st;
            }
            assert!(Instant::now() < deadline, "daemon did not exit in time");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        (status.code().unwrap_or(-1), rest)
    }

    /// SIGKILL, then reap. The whole point: no cleanup code runs.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }
}

fn serve_expecting_exit(extra: &[&str], want_code: i32, want_stderr: &str) {
    let out = Command::new(flsa_bin())
        .arg("serve")
        .args(extra)
        .output()
        .expect("run flsa serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(want_code),
        "args {extra:?}: stderr {stderr}"
    );
    assert!(
        stderr.contains(want_stderr),
        "args {extra:?}: stderr {stderr:?} lacks {want_stderr:?}"
    );
}

#[test]
fn bind_and_config_errors_exit_2() {
    // Hold the port so the daemon's bind fails.
    let occupied = std::net::TcpListener::bind("127.0.0.1:0").expect("pre-bind");
    let addr = occupied.local_addr().expect("addr").to_string();
    serve_expecting_exit(&["--addr", &addr], 2, "bind failed");
    serve_expecting_exit(&["--addr", "127.0.0.1:0", "--workers", "0"], 2, "workers");
    serve_expecting_exit(&["--addr", "not-an-address"], 2, "bind failed");
}

#[test]
fn corrupt_spool_exits_3() {
    let dir = tmpdir("corrupt-spool");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("job-00000003.req"), b"\x02garbage, not a frame")
        .expect("plant corrupt req");
    serve_expecting_exit(
        &[
            "--addr",
            "127.0.0.1:0",
            "--spool",
            dir.to_str().expect("utf8 path"),
        ],
        3,
        "spool corrupt",
    );
}

#[test]
fn sigterm_drains_to_exit_0() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.connect();
    let (a, b) = (dna(1, 120), dna(2, 130));
    match client.align(req(7, &a, &b)).expect("align") {
        Frame::Ok(ok) => {
            let (score, cigar) = reference(&a, &b);
            assert_eq!((ok.score, ok.cigar.as_str()), (score, cigar.as_str()));
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    daemon.signal("-TERM");
    let (code, rest) = daemon.wait();
    assert_eq!(code, 0, "clean drain must exit 0; stdout: {rest}");
    assert!(rest.contains("drained: 1 completed"), "stdout: {rest}");
}

#[test]
fn shutdown_frame_drains_to_exit_0() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.connect();
    client.shutdown().expect("shutdown handshake");
    let (code, rest) = daemon.wait();
    assert_eq!(code, 0, "stdout: {rest}");
    assert!(rest.contains("drained:"), "stdout: {rest}");
}

/// Runs one `--fault-seed` daemon over the plan's job count and checks
/// the failure matrix from outside the process: non-target jobs must be
/// byte-identical to the reference, the target must be `Ok` (identical)
/// or the typed failure for its class.
fn run_fault_seed(seed: u64) {
    let plan = ServeFaultPlan::from_seed(seed);
    let daemon = Daemon::spawn(&["--fault-seed", &seed.to_string(), "--retries", "2"]);
    let mut client = daemon.connect();
    for i in 0..plan.jobs {
        let (a, b) = (dna(seed ^ i, 140), dna(seed ^ i ^ 0xbeef, 150));
        let mut r = req(i, &a, &b);
        match plan.kind {
            ServeFaultKind::SlowJob if i == plan.target_job => r.deadline_ms = plan.deadline_ms,
            ServeFaultKind::DeadlineExpiry => r.deadline_ms = plan.deadline_ms,
            _ => {}
        }
        let (score, cigar) = reference(&a, &b);
        match client.align(r).expect("align response") {
            Frame::Ok(ok) => {
                assert_eq!(ok.id, i);
                assert_eq!(
                    (ok.score, ok.cigar.as_str()),
                    (score, cigar.as_str()),
                    "seed {seed} job {i}: result differs from the reference"
                );
                if plan.kind == ServeFaultKind::WorkerPanic && i == plan.target_job {
                    assert!(
                        plan.panic_attempts <= 2,
                        "seed {seed}: {} panics must exhaust 2 retries",
                        plan.panic_attempts
                    );
                }
            }
            Frame::Fail(f) => {
                let allowed: &[ErrorCode] = match plan.kind {
                    ServeFaultKind::WorkerPanic if i == plan.target_job => {
                        assert!(
                            plan.panic_attempts > 2,
                            "seed {seed}: {} panics should be retried to success",
                            plan.panic_attempts
                        );
                        &[ErrorCode::WorkerPanic]
                    }
                    ServeFaultKind::SlowJob if i == plan.target_job => {
                        &[ErrorCode::DeadlineExpired]
                    }
                    ServeFaultKind::DeadlineExpiry => &[ErrorCode::DeadlineExpired],
                    _ => &[],
                };
                assert!(
                    allowed.contains(&f.code),
                    "seed {seed} job {i}: unexpected failure {:?} ({})",
                    f.code,
                    f.detail
                );
            }
            other => panic!("seed {seed} job {i}: unexpected frame {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    let (code, _) = daemon.wait();
    assert_eq!(
        code, 0,
        "seed {seed}: chaos daemon must still drain cleanly"
    );
}

#[test]
fn fault_seed_injects_the_seeded_plan() {
    // One seed per class (seed % 4 selects it), driven through a real
    // process; the in-process chaos harness covers the wide sweep.
    for seed in [0u64, 1, 2, 3] {
        run_fault_seed(seed);
    }
}

/// The kill–restore guarantee, end to end. Every job is forced through
/// the spool (`--spool-min-cells 1`); the daemon is SIGKILL'd at a
/// seeded delay mid-burst and restarted on the same spool; after the
/// restart completes the backlog, every `.done` result must be
/// byte-for-byte the frame a never-killed daemon produced.
#[test]
fn sigkill_restore_completes_byte_identically() {
    const JOBS: u64 = 6;
    let requests: Vec<AlignRequest> = (0..JOBS)
        .map(|i| {
            let (a, b) = (
                dna(0xC0FFEE ^ i, 260 + 7 * i as usize),
                dna(0xF00D ^ i, 280),
            );
            req(i, &a, &b)
        })
        .collect();

    // The never-killed baseline: same jobs, same spool mechanics.
    let clean_dir = tmpdir("restore-clean");
    let daemon = Daemon::spawn(&[
        "--spool",
        clean_dir.to_str().expect("utf8"),
        "--spool-min-cells",
        "1",
    ]);
    let mut client = daemon.connect();
    for r in &requests {
        match client.align(r.clone()).expect("align") {
            Frame::Ok(_) => {}
            other => panic!("baseline job failed: {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    let (code, _) = daemon.wait();
    assert_eq!(code, 0);
    let clean = Spool::open(&clean_dir)
        .expect("open clean spool")
        .done_results();
    assert_eq!(clean.len() as u64, JOBS, "baseline must complete every job");

    for seed in [11u64, 12, 13, 14] {
        let plan = KillPlan::from_seed(seed, 1, 40);
        let delay = Duration::from_millis(plan.delays_ms[0]);
        let dir = tmpdir(&format!("restore-{seed}"));

        let victim = Daemon::spawn(&[
            "--spool",
            dir.to_str().expect("utf8"),
            "--spool-min-cells",
            "1",
        ]);
        let mut client = victim.connect();
        for r in &requests {
            // Pipeline without awaiting: the kill races job execution.
            client.send(&Frame::Align(r.clone())).expect("send");
        }
        // Let admission spool at least one job first (otherwise a ~0ms
        // seed kills a daemon that accepted nothing and proves nothing),
        // then apply the seeded delay so the kill lands at a different
        // point of the burst per seed.
        let admit_deadline = Instant::now() + Duration::from_secs(30);
        while std::fs::read_dir(&dir).map_or(0, |d| d.count()) == 0 {
            assert!(
                Instant::now() < admit_deadline,
                "seed {seed}: no job was ever spooled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(delay);
        victim.kill();

        // Restart on the same spool; recovered jobs re-run with no
        // client attached and land in `.done` files.
        let revived = Daemon::spawn(&[
            "--spool",
            dir.to_str().expect("utf8"),
            "--spool-min-cells",
            "1",
        ]);
        let spool = Spool::open(&dir).expect("open spool");
        let deadline = Instant::now() + Duration::from_secs(60);
        while !spool.recover().expect("recover scan").0.is_empty() {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: recovered backlog never drained"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        revived.signal("-TERM");
        let (code, _) = revived.wait();
        assert_eq!(code, 0, "seed {seed}: revived daemon must drain cleanly");

        // Every job the daemon accepted (spooled) before the kill must
        // now have a result byte-identical to the baseline's. Jobs whose
        // frames never left the socket buffer are legitimately absent.
        let done = spool.done_results();
        assert!(
            !done.is_empty(),
            "seed {seed}: kill landed before any job was accepted"
        );
        for (seq, bytes) in &done {
            let baseline = clean
                .iter()
                .find(|(s, _)| s == seq)
                .unwrap_or_else(|| panic!("seed {seed}: seq {seq} missing from baseline"));
            assert_eq!(
                bytes, &baseline.1,
                "seed {seed}: seq {seq} result differs from the never-killed run"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn metrics_export_renders_in_report() {
    let dir = tmpdir("metrics");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mpath = dir.join("serve-metrics.json");
    let daemon = Daemon::spawn(&["--metrics", mpath.to_str().expect("utf8")]);
    let mut client = daemon.connect();
    let (a, b) = (dna(5, 100), dna(6, 110));
    assert!(matches!(
        client.align(req(1, &a, &b)).expect("align"),
        Frame::Ok(_)
    ));
    // One typed rejection, so the failure counters are exercised too.
    let mut bad = req(2, &a, &b);
    bad.matrix = "no-such-matrix".to_string();
    assert!(matches!(client.align(bad).expect("align"), Frame::Fail(_)));
    client.shutdown().expect("shutdown");
    let (code, _) = daemon.wait();
    assert_eq!(code, 0);

    let out = Command::new(flsa_bin())
        .args(["report", "--metrics", mpath.to_str().expect("utf8")])
        .output()
        .expect("run flsa report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("serve:"), "stdout: {stdout}");
    assert!(stdout.contains("1 ok, 1 failed"), "stdout: {stdout}");
    assert!(stdout.contains("request latency"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_without_inputs_is_a_usage_error() {
    let out = Command::new(flsa_bin())
        .arg("report")
        .output()
        .expect("run flsa report");
    assert_eq!(out.status.code(), Some(2));
}

/// Pin the request layout `reference`/`req` assume: if `validate`
/// drifts (e.g. defaulting `k` differently), this catches it here
/// rather than as a confusing byte-identity failure above.
#[test]
fn cli_request_defaults_still_validate() {
    let spec = job::validate(req(9, "ACGT", "ACG")).expect("defaults validate");
    assert_eq!(spec.request.id, 9);
}
