//! serve-mixed: an in-process `flsa-serve` daemon driven over one client
//! connection (one sender thread, one reader thread) in rounds that
//! alternate two kinds of slice over the same seeded jobs:
//!
//! - Closed loop: [`closed_window`] requests kept outstanding, so jobs
//!   queue and the workers coalesce batches. `gcups` and `goodput_rps`
//!   come from here: they track how much work the daemon gets through.
//! - Open loop: request `i` of a slice is due at `i / SERVE_RATE_RPS`
//!   seconds and its latency runs from that due time, so a stall also
//!   charges the requests queued behind it. `p50_ms` comes from here.
//!
//! Alternating the two through the whole run lets each figure sample the
//! shared host at every stretch of it, not at one third of it. Failed,
//! refused and unanswered requests count as missing the latency limit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flsa_metrics::{names, Registry};
use flsa_scoring::tables;
use flsa_seq::Sequence;
use flsa_serve::{AlignRequest, Client, Frame, ServeConfig, Server};

use crate::check::cigar_score;
use crate::gen::{self, ServeJob};
use crate::report::{self, median, quantile, ratio, Values};
use crate::workload::{Workload, SERVE_RATE_RPS};
use crate::Outcome;

/// Daemon set-ups in each of a run's two bursts, one before its session
/// and one after, so they sample the host at both ends of the run. Each
/// is a `Server::start` until the first `Ping` returns; the run reports
/// the lower quartile of both bursts together.
const SETUP_REPS: usize = 200;

/// How long the reader waits for a response before it gives the rest up.
const RESPONSE_WAIT: Duration = Duration::from_secs(20);

/// A round: one closed-loop slice, then one open-loop slice.
const ROUND_S: f64 = 3.0;

/// Share of each round spent in the closed-loop slice.
const CLOSED_SHARE: f64 = 0.5;

/// Throughput is taken per window of each closed-loop slice, by arrival
/// time, and reported as the upper quartile over the windows of all of
/// them.
const THROUGHPUT_WINDOW_S: f64 = 0.5;

/// Latency quantiles are reported as the lower quartile over windows: a
/// stall of the shared host only ever slows a window down, and does not
/// decide a run's figures. The median is taken per open-loop slice (1.5 s,
/// 300 requests at 200 req/s); the p99 needs 5 s of the open-loop
/// schedule (1000 requests, 10 of them beyond it).
const TAIL_WINDOW_S: f64 = 5.0;

/// A run whose sends are later than this at p99, half the latency limit,
/// measured the generator rather than the daemon: it is flagged invalid
/// and reports no latencies.
pub const LATE_LIMIT_MS: f64 = 25.0;

/// Requests the closed loop keeps outstanding: enough that every worker
/// has a queue to coalesce batches from.
fn closed_window() -> u64 {
    4 * report::nproc() as u64
}

/// Requests in each open-loop slice.
fn open_slice() -> usize {
    (SERVE_RATE_RPS * ROUND_S * (1.0 - CLOSED_SHARE)).round() as usize
}

/// Starts a daemon and round-trips the first `Ping`: the set-up time.
fn start(registry: Option<Arc<Registry>>) -> Result<(Server, Client, f64), String> {
    let t = Instant::now();
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = report::nproc();
    cfg.registry = registry;
    let server = Server::start(cfg).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client.ping(1).map_err(|e| e.to_string())?;
    Ok((server, client, t.elapsed().as_secs_f64()))
}

fn stop(server: Server, client: Client) {
    drop(client);
    server.drain();
    server.join();
}

fn request(id: u64, job: &ServeJob) -> AlignRequest {
    AlignRequest {
        id,
        deadline_ms: 0,
        threads: 0,
        k: 0,
        gap: job.gap,
        base_cells: 0,
        matrix: job.matrix.to_string(),
        seq_a: job.pair.a.clone(),
        seq_b: job.pair.b.clone(),
    }
}

/// How a pass sends its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// `count` requests, request `i` due at `i / rate` seconds.
    Open { rate: f64, count: usize },
    /// At most `window` requests outstanding, until `secs` seconds have
    /// passed.
    Closed { window: u64, secs: f64 },
}

/// What one pass observed. Times are ns since the pass's start. Request
/// `i` carries id `i` and job `(first + i) % jobs.len()`.
struct Pass {
    first: usize,
    /// Requests per second: the schedule's rate, or the achieved one.
    rate: f64,
    /// When each request was due: its scheduled time open-loop, its send
    /// time closed-loop.
    due_ns: Vec<u64>,
    /// Send time minus due time.
    late_ns: Vec<u64>,
    /// Duration of each `Client::send`.
    send_ns: Vec<u64>,
    /// Arrival time and response, per request.
    answers: Vec<Option<(u64, Frame)>>,
    /// When the last request was due.
    schedule_end_ns: u64,
    /// When the reader stopped waiting.
    end_ns: u64,
    note: Option<String>,
}

impl Pass {
    fn job<'a>(&self, jobs: &'a [ServeJob], i: usize) -> &'a ServeJob {
        &jobs[(self.first + i) % jobs.len()]
    }

    /// Requests not yet answered when the schedule ended.
    fn backlog_end(&self) -> usize {
        self.answers
            .iter()
            .filter(|a| a.as_ref().is_none_or(|(at, _)| *at > self.schedule_end_ns))
            .count()
    }
}

/// Sends requests on `client`'s connection at `pace`, request `i` for job
/// `(first + i) % jobs.len()`. After the last one it sends `Ping(count)`;
/// the reader stops once the `Pong` and every answer are in.
fn drive(client: &Client, jobs: &[ServeJob], first: usize, pace: Pace) -> Result<Pass, String> {
    let mut tx = client.try_clone().map_err(|e| e.to_string())?;
    let mut rx = client.try_clone().map_err(|e| e.to_string())?;
    rx.set_timeout(Some(RESPONSE_WAIT))
        .map_err(|e| e.to_string())?;
    let sent = AtomicU64::new(0);
    // Answers so far: the closed-loop sender sleeps on it rather than
    // polling, which would take CPU time from the daemon's workers.
    let answered = (Mutex::new(0u64), Condvar::new());
    let t0 = Instant::now() + Duration::from_millis(20);
    let since = move |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;

    let (due_ns, late_ns, send_ns, answers, note) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut answers: Vec<Option<(u64, Frame)>> = Vec::new();
            let (mut got, mut total) = (0, None);
            while total.is_none_or(|t| got < t) {
                let frame = match rx.recv() {
                    Ok(f) => f,
                    Err(e) => {
                        let note = format!("reader stopped after {got} responses: {e}");
                        return (answers, Some(note));
                    }
                };
                let at = since(Instant::now());
                let id = match &frame {
                    Frame::Ok(r) => r.id,
                    Frame::Fail(r) => r.id,
                    Frame::Overloaded { id, .. } => *id,
                    Frame::Pong(count) => {
                        total = Some(*count);
                        continue;
                    }
                    other => return (answers, Some(format!("unexpected frame {other:?}"))),
                };
                if id >= sent.load(Ordering::Acquire) {
                    return (answers, Some(format!("response for unsent id {id}")));
                }
                let i = id as usize;
                if answers.len() <= i {
                    answers.resize(i + 1, None);
                }
                if answers[i].is_some() {
                    return (answers, Some(format!("repeated response for id {id}")));
                }
                answers[i] = Some((at, frame));
                got += 1;
                *answered.0.lock().expect("no thread panics holding it") = got;
                answered.1.notify_one();
            }
            (answers, None)
        });
        let (mut due_ns, mut late_ns, mut send_ns) = (vec![], vec![], vec![]);
        let mut note = None;
        if let Some(wait) = t0.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        for i in 0u64.. {
            let due = match pace {
                Pace::Open { rate, count } if (i as usize) < count => {
                    t0 + Duration::from_secs_f64(i as f64 / rate)
                }
                Pace::Closed { window, secs } if since(Instant::now()) < (secs * 1e9) as u64 => {
                    let mut got = answered.0.lock().expect("no thread panics holding it");
                    // The timeout only bounds the wait on a reader that
                    // has stopped.
                    while i - *got >= window && !reader.is_finished() {
                        got = answered
                            .1
                            .wait_timeout(got, Duration::from_millis(10))
                            .expect("no thread panics holding it")
                            .0;
                    }
                    Instant::now()
                }
                _ => break,
            };
            let frame = Frame::Align(request(i, &jobs[(first + i as usize) % jobs.len()]));
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            sent.store(i + 1, Ordering::Release);
            let at = Instant::now();
            if let Err(e) = tx.send(&frame) {
                note = Some(format!("send {i} failed: {e}"));
                break;
            }
            send_ns.push(at.elapsed().as_nanos() as u64);
            late_ns.push(at.saturating_duration_since(due).as_nanos() as u64);
            due_ns.push(since(due));
        }
        if note.is_none() {
            if let Err(e) = tx.send(&Frame::Ping(due_ns.len() as u64)) {
                note = Some(format!("closing ping failed: {e}"));
            }
        }
        let (answers, reader_note) = reader.join().expect("reader thread does not panic");
        (due_ns, late_ns, send_ns, answers, note.or(reader_note))
    });
    let end_ns = since(Instant::now());
    let mut answers = answers;
    answers.resize(due_ns.len(), None);
    let schedule_end_ns = due_ns.last().copied().unwrap_or(0);
    let rate = match pace {
        Pace::Open { rate, .. } => rate,
        Pace::Closed { .. } => ratio(due_ns.len() as f64, end_ns as f64 / 1e9),
    };
    Ok(Pass {
        first,
        rate,
        due_ns,
        late_ns,
        send_ns,
        answers,
        schedule_end_ns,
        end_ns,
        note,
    })
}

/// The oracle's answer for each job: score and CIGAR of an in-process
/// `fastlsa_core::align` of the same pair. `None` when the oracle fails,
/// or its CIGAR does not re-score to its score as a global alignment.
fn oracle(jobs: &[ServeJob]) -> Vec<Option<(i64, String)>> {
    let chunk = jobs.len().div_ceil(report::nproc()).max(1);
    let mut want = vec![None; jobs.len()];
    std::thread::scope(|s| {
        for (job, out) in jobs.chunks(chunk).zip(want.chunks_mut(chunk)) {
            s.spawn(move || {
                for (j, slot) in job.iter().zip(out) {
                    *slot = oracle_one(j);
                }
            });
        }
    });
    want
}

fn oracle_one(job: &ServeJob) -> Option<(i64, String)> {
    let scheme = tables::scheme_by_name(job.matrix, job.gap)?;
    let seq =
        |s: &[u8]| Sequence::from_str("s", scheme.alphabet(), std::str::from_utf8(s).ok()?).ok();
    let (a, b) = (seq(&job.pair.a)?, seq(&job.pair.b)?);
    let r = fastlsa_core::align(&a, &b, &scheme, &flsa_dp::Metrics::new()).ok()?;
    let cigar = flsa_serve::job::cigar(&r.path);
    (cigar_score(&cigar, a.codes(), b.codes(), &scheme) == Some(r.score)).then_some((r.score, cigar))
}

/// Whether each request of `pass` got an `Ok` answer with the oracle's
/// score and CIGAR.
fn verify(want: &[Option<(i64, String)>], pass: &Pass) -> Vec<bool> {
    pass.answers
        .iter()
        .enumerate()
        .map(|(i, answer)| match (answer, &want[(pass.first + i) % want.len()]) {
            (Some((_, Frame::Ok(r))), Some((score, cigar))) => r.score == *score && r.cigar == *cigar,
            _ => false,
        })
        .collect()
}

/// Latency of every request in ms from its due time; a request that
/// failed, was refused, or was never answered counts as waiting until the
/// reader gave up, beyond any limit.
fn latencies_ms(pass: &Pass, good: &[bool]) -> Vec<f64> {
    let gave_up = pass.end_ns.max(pass.schedule_end_ns) + RESPONSE_WAIT.as_nanos() as u64;
    (0..pass.answers.len())
        .map(|i| {
            let at = match &pass.answers[i] {
                Some((at, _)) if good[i] => *at,
                _ => gave_up,
            };
            at.saturating_sub(pass.due_ns[i]) as f64 / 1e6
        })
        .collect()
}

/// Gcells/s of correct answers, and correct answers within the latency
/// limit per second, in each [`THROUGHPUT_WINDOW_S`] window of a
/// closed-loop slice while it was sending. Appends one value per window to
/// `gcups` and `goodput`.
fn throughput(
    pass: &Pass,
    jobs: &[ServeJob],
    good: &[bool],
    gcups: &mut Vec<f64>,
    goodput: &mut Vec<f64>,
) {
    let window_ns = (THROUGHPUT_WINDOW_S * 1e9) as u64;
    // The last send comes just before the slice's end, a whole number of
    // windows in.
    let windows = ((pass.schedule_end_ns as f64 / window_ns as f64).round() as usize).max(1);
    let (mut cells, mut in_limit) = (vec![0f64; windows], vec![0f64; windows]);
    let lat = latencies_ms(pass, good);
    for (i, answer) in pass.answers.iter().enumerate() {
        let Some((at, _)) = answer else { continue };
        let w = (at / window_ns) as usize;
        if good[i] && w < windows {
            let pair = &pass.job(jobs, i).pair;
            cells[w] += (pair.a.len() * pair.b.len()) as f64;
            in_limit[w] += f64::from(u8::from(lat[i] <= Workload::ServeMixed.limit_ms()));
        }
    }
    gcups.extend(cells.iter().map(|c| c / THROUGHPUT_WINDOW_S / 1e9));
    goodput.extend(in_limit.iter().map(|n| n / THROUGHPUT_WINDOW_S));
}

/// One daemon's life: rounds of a closed-loop slice and an open-loop
/// slice over the same seeded jobs, with each answer checked against the
/// oracle. The closed-loop slices cycle through the jobs, each taking up
/// where the last one stopped; the open-loop slices send each job once.
struct Session {
    jobs: Vec<ServeJob>,
    closed: Vec<Pass>,
    open: Vec<Pass>,
    closed_good: Vec<Vec<bool>>,
    open_good: Vec<Vec<bool>>,
    /// VmHWM once the daemon stopped, before the oracle ran.
    peak_rss_mib: f64,
}

impl Session {
    fn run(seed: u64, seconds: f64, registry: Option<Arc<Registry>>) -> Result<Session, String> {
        let rounds = ((seconds / ROUND_S).round() as usize).max(1);
        let per_open = open_slice();
        let jobs = gen::serve_jobs(rounds * per_open, seed);
        let (server, client, _) = start(registry)?;
        let (mut closed, mut open) = (Vec::new(), Vec::new());
        let mut next = 0;
        let mut failure = None;
        for round in 0..rounds {
            let pace = Pace::Closed {
                window: closed_window(),
                secs: ROUND_S * CLOSED_SHARE,
            };
            let c = match drive(&client, &jobs, next, pace) {
                Ok(c) => c,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            next = (next + c.answers.len()) % jobs.len();
            closed.push(c);
            let pace = Pace::Open {
                rate: SERVE_RATE_RPS,
                count: per_open,
            };
            match drive(&client, &jobs, round * per_open, pace) {
                Ok(o) => open.push(o),
                Err(e) => failure = Some(e),
            }
            // A broken connection stays broken: stop at the first note.
            if failure.is_some() || closed.iter().chain(&open).any(|p| p.note.is_some()) {
                break;
            }
        }
        stop(server, client);
        if let Some(e) = failure {
            return Err(e);
        }
        let peak_rss_mib = report::peak_rss_mib();
        let want = oracle(&jobs);
        Ok(Session {
            closed_good: closed.iter().map(|p| verify(&want, p)).collect(),
            open_good: open.iter().map(|p| verify(&want, p)).collect(),
            jobs,
            closed,
            open,
            peak_rss_mib,
        })
    }

    fn good(&self) -> impl Iterator<Item = &bool> {
        self.closed_good.iter().chain(&self.open_good).flatten()
    }

    fn attempted(&self) -> usize {
        self.good().count()
    }

    fn failed(&self) -> usize {
        self.good().filter(|&&g| !g).count()
    }

    /// Open-loop latencies of each slice, in schedule order.
    fn open_latencies(&self) -> Vec<Vec<f64>> {
        self.open
            .iter()
            .zip(&self.open_good)
            .map(|(p, good)| latencies_ms(p, good))
            .collect()
    }

    /// The median latency of each open-loop slice; the lower quartile over
    /// slices.
    fn p50_ms(&self) -> f64 {
        let per_slice: Vec<f64> = self.open_latencies().iter().map(|l| median(l)).collect();
        quantile(&per_slice, 0.25)
    }

    /// The p99 latency of each [`TAIL_WINDOW_S`] of the open-loop
    /// schedule; the lower quartile over windows.
    fn p99_ms(&self) -> f64 {
        let lat: Vec<f64> = self.open_latencies().concat();
        let per = ((SERVE_RATE_RPS * TAIL_WINDOW_S).round() as usize).max(1);
        let per_window: Vec<f64> = lat.chunks(per).map(|w| quantile(w, 0.99)).collect();
        quantile(&per_window, 0.25)
    }

    /// `gcups` and `goodput_rps`: the upper quartile over the windows of
    /// every closed-loop slice.
    fn throughput(&self) -> (f64, f64) {
        let (mut gcups, mut goodput) = (Vec::new(), Vec::new());
        for (p, good) in self.closed.iter().zip(&self.closed_good) {
            throughput(p, &self.jobs, good, &mut gcups, &mut goodput);
        }
        (quantile(&gcups, 0.75), quantile(&goodput, 0.75))
    }

    fn late_ms_p99(&self) -> f64 {
        let ms: Vec<f64> = self
            .open
            .iter()
            .flat_map(|p| &p.late_ns)
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        quantile(&ms, 0.99)
    }

    /// The most requests left unanswered at the end of an open-loop
    /// slice's schedule.
    fn backlog_end(&self) -> usize {
        self.open.iter().map(Pass::backlog_end).max().unwrap_or(0)
    }

    /// Flags a session whose open-loop generator fell behind its schedule;
    /// it reports no latencies.
    fn health(&self) -> Outcome {
        let late = self.late_ms_p99();
        let count = |passes: &[Pass]| passes.iter().map(|p| p.answers.len()).sum::<usize>();
        let closed_s: f64 = self.closed.iter().map(|p| p.end_ns as f64 / 1e9).sum();
        eprintln!(
            "loadgen: {} rounds; closed loop {} requests at {:.0}/s; open loop {} at {:.0}/s, \
             late p99 {late:.3} ms, at most {} unanswered at a slice's schedule end",
            self.closed.len(),
            count(&self.closed),
            ratio(count(&self.closed) as f64, closed_s),
            count(&self.open),
            SERVE_RATE_RPS,
            self.backlog_end()
        );
        let mut out = Outcome::default();
        if late > LATE_LIMIT_MS {
            out.invalid = Some(format!(
                "open-loop generator fell behind: late p99 {late:.3} ms > {LATE_LIMIT_MS} ms"
            ));
        }
        out.error = self
            .closed
            .iter()
            .chain(&self.open)
            .find_map(|p| p.note.clone());
        out
    }
}

/// Appends [`SETUP_REPS`] set-up times to `out`, each on a fresh daemon.
fn setups(out: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let (server, client, s) = start(None).map_err(|e| format!("daemon set-up failed: {e}"))?;
        out.push(s);
        stop(server, client);
    }
    Ok(())
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    if traced {
        return traced_run(seed, seconds);
    }
    let mut setup = Vec::with_capacity(2 * SETUP_REPS);
    let s = setups(&mut setup)
        .and_then(|()| Session::run(seed, seconds as f64, None))
        .and_then(|s| setups(&mut setup).map(|()| s));
    let s = match s {
        Ok(s) => s,
        Err(e) => return Outcome::error(e),
    };
    let mut out = s.health();
    let (gcups, goodput) = s.throughput();
    let mut v = Values::new();
    v.insert("gcups", gcups);
    v.insert("p50_ms", s.p50_ms());
    v.insert("goodput_rps", goodput);
    v.insert("setup_s", quantile(&setup, 0.25));
    v.insert("ok_frac", 1.0 - ratio(s.failed() as f64, s.attempted() as f64));
    out.values = v;
    out.attempted = s.attempted() as u64;
    out.failed = s.failed() as u64;
    out
}

/// The traced run: half the time on a daemon with a metrics registry
/// attached and the client's sends timed, half on an untraced one, both
/// over the same seed's jobs. The traced half runs first, so its peak
/// memory is read before any oracle has run.
fn traced_run(seed: u64, seconds: u64) -> Outcome {
    let half = seconds as f64 / 2.0;
    let reg = Arc::new(Registry::new());
    let traced = Session::run(seed, half, Some(reg.clone()));
    let plain = Session::run(seed, half, None);
    let (plain, s) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => return Outcome::error(e),
    };
    let mut out = s.health();
    let plain_health = plain.health();
    out.invalid = out.invalid.or(plain_health.invalid);
    out.error = out.error.or(plain_health.error);

    let snap = reg.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0) as f64;
    let hist_us = |name, q| {
        snap.histogram(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    let send_us: Vec<f64> = s
        .closed
        .iter()
        .chain(&s.open)
        .flat_map(|p| &p.send_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let mut v = Values::new();
    v.insert("mem.peak_rss_mib", s.peak_rss_mib);
    v.insert("serve.send_us_p50", median(&send_us));
    v.insert(
        "serve.request_us_p50",
        hist_us(names::SERVE_REQUEST_NS, 0.50),
    );
    v.insert(
        "serve.request_us_p99",
        hist_us(names::SERVE_REQUEST_NS, 0.99),
    );
    v.insert(
        "serve.admit_wait_us_p99",
        hist_us(names::SERVE_ADMIT_WAIT_NS, 0.99),
    );
    v.insert(
        "serve.queue_depth_peak",
        snap.gauge(names::SERVE_QUEUE_DEPTH_PEAK).unwrap_or(0) as f64,
    );
    let batched = counter(names::SERVE_BATCHED_JOBS_TOTAL);
    v.insert(
        "serve.batch_fill",
        ratio(batched, counter(names::SERVE_BATCHES_TOTAL)),
    );
    v.insert(
        "serve.batched_share",
        ratio(batched, counter(names::SERVE_COMPLETED_TOTAL)),
    );
    v.insert("serve.rejected", counter(names::SERVE_REJECTED_TOTAL));
    v.insert("serve.retries", counter(names::SERVE_RETRIES_TOTAL));
    v.insert("tail.p99_ms", plain.p99_ms());
    v.insert("loadgen.late_ms_p99", s.late_ms_p99());
    v.insert("loadgen.backlog_end", s.backlog_end() as f64);
    v.insert(
        "trace.overhead_pct",
        (ratio(s.p50_ms(), plain.p50_ms()) - 1.0) * 100.0,
    );
    out.values = v;
    out.attempted = (plain.attempted() + s.attempted()) as u64;
    out.failed = (plain.failed() + s.failed()) as u64;
    out
}

/// Measures this mix's closed-loop capacity: [`closed_window`] requests
/// kept outstanding on one connection for `seconds`.
/// [`SERVE_RATE_RPS`] is set to about 9% of it on the reference host.
pub fn calibrate(seed: u64, seconds: u64) -> Result<f64, String> {
    let jobs = gen::serve_jobs(2000, seed);
    let (server, client, _) = start(None)?;
    let pass = drive(
        &client,
        &jobs,
        0,
        Pace::Closed {
            window: closed_window(),
            secs: seconds as f64,
        },
    );
    stop(server, client);
    Ok(pass?.rate)
}
