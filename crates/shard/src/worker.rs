//! The worker process side of the shard protocol.
//!
//! A worker is deliberately dumb: read a task, compute it, write the
//! result, repeat. All fault-tolerance intelligence lives in the
//! coordinator — a worker that dies, stalls, or corrupts is detected
//! and replaced from the other side of the pipe, which is what lets the
//! chaos matrix kill workers at any instant without risking a wrong
//! answer.
//!
//! A background thread writes [`Frame::Heartbeat`] beacons under the
//! same stdout lock as results, so a worker stuck inside a hung
//! computation (or one whose fault plan seizes the lock) stops
//! heartbeating too — stall detection needs no extra channel.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flsa_checkpoint::wire::{self, WireError};
use flsa_dp::{Kernel, Metrics};

use crate::compute;
use crate::protocol::{self, Frame};

/// Seeded-chaos fault switches for one worker process, parsed from the
/// `--fault` spec the coordinator passes on the command line (the plans
/// themselves live in `flsa_fault::shard` as pure data).
///
/// Spec grammar: comma-separated `name:value` entries —
/// `kill:N` (SIGKILL self when task `N` arrives, 0-based),
/// `hang:N` (seize the stdout lock and sleep when task `N` arrives),
/// `corrupt:N` (flip one byte inside result frame `N`),
/// `slow:MS` (stall mid-frame for `MS` ms on every result write).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerFault {
    /// SIGKILL self right before executing this task ordinal.
    pub kill_at_task: Option<u64>,
    /// Hold the stdout lock and sleep forever at this task ordinal.
    pub hang_at_task: Option<u64>,
    /// Flip one byte in this result ordinal's frame.
    pub corrupt_at_result: Option<u64>,
    /// Per-result mid-frame write stall in milliseconds.
    pub slow_write_ms: u64,
}

impl WorkerFault {
    /// Parses a `--fault` spec. Empty string means no faults.
    pub fn parse(spec: &str) -> Result<WorkerFault, String> {
        let mut f = WorkerFault::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, value) = part
                .split_once(':')
                .ok_or_else(|| format!("fault entry {part:?}: expected name:value"))?;
            let v: u64 = value
                .parse()
                .map_err(|_| format!("fault entry {part:?}: bad number {value:?}"))?;
            match name {
                "kill" => f.kill_at_task = Some(v),
                "hang" => f.hang_at_task = Some(v),
                "corrupt" => f.corrupt_at_result = Some(v),
                "slow" => f.slow_write_ms = v,
                other => return Err(format!("unknown fault {other:?}")),
            }
        }
        Ok(f)
    }

    /// Renders back to the spec grammar (coordinator side of the
    /// round-trip).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.kill_at_task {
            parts.push(format!("kill:{n}"));
        }
        if let Some(n) = self.hang_at_task {
            parts.push(format!("hang:{n}"));
        }
        if let Some(n) = self.corrupt_at_result {
            parts.push(format!("corrupt:{n}"));
        }
        if self.slow_write_ms > 0 {
            parts.push(format!("slow:{}", self.slow_write_ms));
        }
        parts.join(",")
    }
}

/// Worker configuration, from the `shard-worker` command line.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Heartbeat cadence in milliseconds.
    pub heartbeat_ms: u64,
    /// Chaos switches (default: none).
    pub fault: WorkerFault,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            heartbeat_ms: 50,
            fault: WorkerFault::default(),
        }
    }
}

impl WorkerOptions {
    /// Parses the worker's command line, `[--heartbeat-ms N] [--fault
    /// SPEC]`, as the coordinator writes it.
    pub fn parse_args(args: &[String]) -> Result<WorkerOptions, String> {
        let mut opts = WorkerOptions::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--heartbeat-ms" => {
                    let v = value()?;
                    opts.heartbeat_ms =
                        v.parse().map_err(|_| format!("bad --heartbeat-ms {v:?}"))?;
                }
                "--fault" => opts.fault = WorkerFault::parse(value()?)?,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }
}

/// Delivers a real SIGKILL to this process — the chaos matrix's
/// WorkerKill is an actual uncatchable kill, not a polite exit, so the
/// coordinator's recovery path is exercised against the same signal an
/// OOM killer or operator would send. Falls back to `abort` if the
/// `kill` binary is unavailable.
fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // Either `kill` was missing or the signal has not landed yet; make
    // sure this process still dies abruptly.
    std::process::abort();
}

/// Runs the worker loop over stdin/stdout until the coordinator sends
/// [`Frame::Shutdown`] or closes the pipe. Returns the process exit
/// code: 0 for a clean shutdown, 1 for a transport failure, 3 for a
/// task the worker could not execute (a coordinator bug — the spec is
/// validated before dispatch).
pub fn run(opts: &WorkerOptions) -> i32 {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    // Results and heartbeats share one lock so frames never interleave.
    let output = Arc::new(Mutex::new(std::io::stdout()));

    if let Err(e) = wire::read_preamble(&mut input, protocol::PREAMBLE) {
        eprintln!("flsa-shard-worker: bad coordinator preamble: {e}");
        return 1;
    }
    {
        // A poisoned stdout lock means a writer panicked: exit.
        let Ok(mut out) = output.lock() else {
            return 1;
        };
        // Hello, then the first heartbeat, before any task is read: every
        // worker that runs a task has beaten at least once, however fast
        // the run.
        let mut hello = protocol::PREAMBLE.to_vec();
        hello.extend(protocol::encode_frame(&Frame::Hello {
            pid: std::process::id(),
        }));
        hello.extend(protocol::encode_frame(&Frame::Heartbeat { seq: 0 }));
        if out.write_all(&hello).and_then(|()| out.flush()).is_err() {
            return 1;
        }
    }

    // Heartbeat thread: a beacon every `heartbeat_ms` for as long as it
    // can take the lock and the pipe accepts writes. The thread dies
    // with the process; there is no need to join it.
    let beat_seq = Arc::new(AtomicU64::new(1));
    {
        let output = Arc::clone(&output);
        let beat_seq = Arc::clone(&beat_seq);
        let period = Duration::from_millis(opts.heartbeat_ms.max(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            let Ok(mut out) = output.lock() else { return };
            // Relaxed: the counter is only a monotonic beacon label read
            // by the coordinator for debugging; no memory is published
            // under it — the pipe write itself is the synchronization.
            let seq = beat_seq.fetch_add(1, Ordering::Relaxed);
            let beat = protocol::encode_frame(&Frame::Heartbeat { seq });
            if out.write_all(&beat).and_then(|()| out.flush()).is_err() {
                return;
            }
        });
    }

    let kernel = Kernel::auto();
    let metrics = Metrics::new();
    let mut tasks_seen: u64 = 0;
    let mut results_sent: u64 = 0;
    loop {
        let frame = match protocol::read_frame(&mut input) {
            Ok(f) => f,
            Err(WireError::Closed) => return 0,
            Err(e) => {
                eprintln!("flsa-shard-worker: read failed: {e}");
                return 1;
            }
        };
        let spec = match frame {
            Frame::Task(spec) => spec,
            Frame::Shutdown => return 0,
            // Tolerate (and ignore) anything else the coordinator may
            // add later; unknown tags already failed decode.
            _ => continue,
        };

        let ordinal = tasks_seen;
        tasks_seen += 1;
        if opts.fault.kill_at_task == Some(ordinal) {
            sigkill_self();
        }
        if opts.fault.hang_at_task == Some(ordinal) {
            // Seize the write lock so heartbeats stop too, then stall:
            // an alive-but-wedged worker, detectable only by silence.
            let _held = output.lock();
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }

        let output_payload = match compute::execute(&kernel, &spec, &metrics) {
            Ok(o) => o,
            Err(detail) => {
                eprintln!(
                    "flsa-shard-worker: task {} rejected: {detail}",
                    spec.task_id
                );
                return 3;
            }
        };
        let mut bytes = protocol::encode_frame(&Frame::Result {
            task_id: spec.task_id,
            output: output_payload,
        });
        let this_result = results_sent;
        results_sent += 1;
        if opts.fault.corrupt_at_result == Some(this_result) {
            // Flip a bit past the codec header, so framing stays intact
            // and the corruption is exactly a checksum failure.
            let at = wire::HEADER_LEN + (bytes.len() - wire::HEADER_LEN) / 2;
            bytes[at] ^= 0x40;
        }
        let Ok(mut out) = output.lock() else { return 1 };
        let write_result = if opts.fault.slow_write_ms > 0 && bytes.len() > 8 {
            // Stall with a half-written frame on the pipe: the
            // coordinator's reader blocks mid-frame and only the task
            // deadline can save it.
            let (first, rest) = bytes.split_at(bytes.len() / 2);
            out.write_all(first)
                .and_then(|()| out.flush())
                .and_then(|()| {
                    std::thread::sleep(Duration::from_millis(opts.fault.slow_write_ms));
                    out.write_all(rest)
                })
                .and_then(|()| out.flush())
        } else {
            out.write_all(&bytes).and_then(|()| out.flush())
        };
        drop(out);
        if write_result.is_err() {
            // Coordinator hung up (likely killed us already on its
            // side); nothing useful left to do.
            return 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_round_trips() {
        let cases = [
            WorkerFault::default(),
            WorkerFault {
                kill_at_task: Some(3),
                ..WorkerFault::default()
            },
            WorkerFault {
                hang_at_task: Some(0),
                slow_write_ms: 25,
                ..WorkerFault::default()
            },
            WorkerFault {
                kill_at_task: Some(1),
                hang_at_task: Some(2),
                corrupt_at_result: Some(4),
                slow_write_ms: 7,
            },
        ];
        for f in cases {
            let spec = f.render();
            assert_eq!(WorkerFault::parse(&spec).unwrap(), f, "spec {spec:?}");
        }
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        for bad in ["kill", "kill:x", "explode:1", "kill:1;hang:2"] {
            assert!(WorkerFault::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(WorkerFault::parse("").unwrap(), WorkerFault::default());
    }

    #[test]
    fn worker_args_parse_as_the_coordinator_writes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts = WorkerOptions::parse_args(&argv("--heartbeat-ms 7 --fault kill:2")).unwrap();
        assert_eq!(opts.heartbeat_ms, 7);
        assert_eq!(opts.fault.kill_at_task, Some(2));
        assert_eq!(WorkerOptions::parse_args(&[]).unwrap().heartbeat_ms, 50);
        for bad in [
            "--heartbeat-ms",
            "--heartbeat-ms x",
            "--fault nonsense",
            "stray",
        ] {
            assert!(WorkerOptions::parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
