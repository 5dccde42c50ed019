//! The daemon: accept loop, worker pool, admission, retry, drain.
//!
//! Architecture (DESIGN.md §14):
//!
//! ```text
//! accept ──► reader (1/conn) ──validate──► bounded queue ──► worker pool
//!                 │                            │                  │
//!                 │ Overloaded / BadRequest    │ drain: Draining  │ admission
//!                 ▼                            ▼                  ▼ acquire
//!              client ◄──────────── writer (shared clone) ◄── run w/ retry,
//!                                                              deadline,
//!                                                              checkpoint
//! ```
//!
//! Failure matrix: every fault has exactly one typed outcome — see the
//! table in DESIGN.md §14 and the chaos harness in `tests/chaos.rs`,
//! which replays seeded fault plans and asserts the outcomes.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastlsa_core::{
    align_opts, AlignError, AlignOptions, CancelToken, CheckpointPolicy, FaultHooks,
};
use flsa_checkpoint::wire::read_preamble;
use flsa_checkpoint::{read_snapshot, resume_from_snapshot, FileCheckpointSink, SnapshotMeta};
use flsa_dp::{BatchJob, BatchKernel, Kernel, Metrics};
use flsa_metrics::Registry;
use flsa_scoring::GapModel;

use crate::admission::{Admission, AdmitError};
use crate::job::{self, JobSpec};
use crate::lock;
use crate::metrics::ServeMetrics;
use crate::queue::{PushError, Queue};
use crate::spool::{Spool, SpoolError};
use crate::wire::{self, AlignFail, AlignOk, ErrorCode, Frame, WireError, PREAMBLE};

/// Per-job instrumentation hooks, the server-level analogue of
/// [`FaultHooks`]: the chaos harness and the CLI's `--fault-seed` use
/// them to panic or stall exact attempts of exact jobs. Production runs
/// pass `None`.
pub trait JobHooks: Send + Sync {
    /// Called at the start of every run attempt; may panic (contained
    /// and retried with backoff) or sleep (consuming the deadline).
    fn on_attempt(&self, seq: u64, attempt: u32) {
        let _ = (seq, attempt);
    }

    /// Engine-level fault hooks for a specific job, threaded into its
    /// [`AlignOptions`].
    fn align_hooks(&self, seq: u64) -> Option<Arc<dyn FaultHooks>> {
        let _ = seq;
        None
    }
}

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Server-wide admission byte budget (`None` = unbudgeted).
    pub budget_bytes: Option<usize>,
    /// Bounded queue capacity; a full queue answers `Overloaded`.
    pub queue_cap: usize,
    /// Retry attempts after a contained worker panic (0 = no retry).
    pub max_retries: u32,
    /// Base backoff between retries (attempt `n` waits `n ×` this).
    pub retry_backoff: Duration,
    /// Deadline applied to requests that carry none (0 = none).
    pub default_deadline_ms: u32,
    /// Crash-safe spool directory (`None` = no spooling).
    pub spool_dir: Option<PathBuf>,
    /// Jobs with `m · n` at or above this are spooled + checkpointed.
    pub spool_min_cells: u64,
    /// Retention cap on completed spool results: only the newest this
    /// many `.done` files are kept; older ones are garbage-collected
    /// after each completion (and once at startup), in the crash-safe
    /// `.done`-before-`.req` order — a restart mid-GC never orphans an
    /// accepted job.
    pub spool_retain_done: usize,
    /// Checkpoint cadence (blocks) for spooled jobs.
    pub checkpoint_every_blocks: u64,
    /// Metrics registry (`None` = detached handles).
    pub registry: Option<Arc<Registry>>,
    /// Fault-injection hooks (`None` in production).
    pub hooks: Option<Arc<dyn JobHooks>>,
    /// Most jobs one worker dispatch may coalesce onto the
    /// inter-sequence batch kernel (1 = batching off). Results are
    /// bit-identical to unbatched execution; this only trades latency of
    /// the first job against throughput when the queue has a backlog.
    pub batch_max: usize,
    /// Only jobs with `m · n` at or below this ride a batch; larger jobs
    /// keep the full FastLSA path with checkpoint/budget support.
    pub batch_max_cells: u64,
}

impl ServeConfig {
    /// Defaults tuned for tests and small deployments.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            workers: 2,
            budget_bytes: None,
            queue_cap: 64,
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            default_deadline_ms: 0,
            spool_dir: None,
            spool_min_cells: 250_000,
            spool_retain_done: 256,
            checkpoint_every_blocks: 4,
            registry: None,
            hooks: None,
            batch_max: 16,
            batch_max_cells: 1 << 20,
        }
    }
}

/// Why the daemon could not start. The CLI maps these onto the exit
/// taxonomy: bind/config problems → 2, unrecoverable corruption → 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// OS-level detail.
        detail: String,
    },
    /// The configuration is unusable (zero workers, unspawnable pool).
    Config {
        /// What was wrong.
        detail: String,
    },
    /// The spool directory could not be read or written.
    SpoolIo {
        /// OS-level detail.
        detail: String,
    },
    /// A spooled request failed to decode: accepted work would be lost.
    SpoolCorrupt {
        /// Which file, and how it failed.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { detail } => write!(f, "bind failed: {detail}"),
            ServeError::Config { detail } => write!(f, "invalid server config: {detail}"),
            ServeError::SpoolIo { detail } => write!(f, "spool i/o: {detail}"),
            ServeError::SpoolCorrupt { detail } => write!(f, "spool corrupt: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpoolError> for ServeError {
    fn from(e: SpoolError) -> Self {
        match e {
            SpoolError::Io(detail) => ServeError::SpoolIo { detail },
            SpoolError::Corrupt(detail) => ServeError::SpoolCorrupt { detail },
        }
    }
}

/// What the drain left behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs answered `Ok` over the server's lifetime.
    pub completed: u64,
    /// Jobs answered with a typed failure.
    pub failed: u64,
    /// Jobs answered `Overloaded`.
    pub rejected: u64,
    /// Jobs answered `Draining` at shutdown.
    pub drained: u64,
    /// Spooled jobs left for the next start to complete.
    pub spooled_pending: usize,
}

/// How a worker should deliver a job's response.
enum Responder {
    /// A live connection: the shared write half.
    Conn(Arc<Mutex<TcpStream>>),
    /// Recovered from the spool; only the `.done` file gets the result.
    SpoolOnly,
}

/// A job parked in the queue.
struct QueuedJob {
    seq: u64,
    spec: JobSpec,
    responder: Responder,
    token: CancelToken,
    has_deadline: bool,
    accepted: Instant,
    spooled: bool,
    recovered: bool,
}

struct Inflight {
    token: CancelToken,
    spooled: bool,
}

struct Shared {
    max_retries: u32,
    retry_backoff: Duration,
    checkpoint_every: u64,
    queue: Queue<QueuedJob>,
    admission: Admission,
    metrics: ServeMetrics,
    draining: AtomicBool,
    drain_frame_seen: AtomicBool,
    drained_jobs: AtomicU64,
    next_seq: AtomicU64,
    inflight: Mutex<HashMap<u64, Inflight>>,
    spool: Option<Spool>,
    hooks: Option<Arc<dyn JobHooks>>,
    workers: usize,
    default_deadline_ms: u32,
    spool_min_cells: u64,
    spool_retain_done: usize,
    batch_max: usize,
    batch_max_cells: u64,
}

/// A running daemon. Lifecycle: [`Server::start`] → (serve traffic) →
/// [`Server::drain`] → [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, recovers spooled work, and spawns the accept loop and the
    /// worker pool.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::Config {
                detail: "workers must be >= 1".to_string(),
            });
        }
        let spool = match &cfg.spool_dir {
            Some(dir) => Some(Spool::open(dir.clone())?),
            None => None,
        };
        let (recovered, next_seq) = match &spool {
            Some(s) => s.recover()?,
            None => (Vec::new(), 1),
        };
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Bind {
            detail: format!("{}: {e}", cfg.addr),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Bind {
            detail: e.to_string(),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind {
                detail: e.to_string(),
            })?;

        let shared = Arc::new(Shared {
            max_retries: cfg.max_retries,
            retry_backoff: cfg.retry_backoff,
            checkpoint_every: cfg.checkpoint_every_blocks.max(1),
            queue: Queue::new(cfg.queue_cap),
            admission: Admission::new(cfg.budget_bytes),
            metrics: ServeMetrics::new(cfg.registry.as_deref()),
            draining: AtomicBool::new(false),
            drain_frame_seen: AtomicBool::new(false),
            drained_jobs: AtomicU64::new(0),
            next_seq: AtomicU64::new(next_seq),
            inflight: Mutex::new(HashMap::new()),
            spool,
            hooks: cfg.hooks.clone(),
            workers: cfg.workers,
            default_deadline_ms: cfg.default_deadline_ms,
            spool_min_cells: cfg.spool_min_cells,
            spool_retain_done: cfg.spool_retain_done,
            batch_max: cfg.batch_max.max(1),
            batch_max_cells: cfg.batch_max_cells,
        });

        // Cap whatever result backlog the previous process left behind.
        if let Some(s) = &shared.spool {
            s.gc(shared.spool_retain_done);
        }

        // Re-queue crash-recovered jobs before any new traffic arrives.
        for rec in recovered {
            match job::validate(rec.request) {
                Ok(spec) => {
                    shared.metrics.recovered.inc();
                    shared.metrics.queue_depth_add(1);
                    let _ = shared.queue.push_unbounded(QueuedJob {
                        seq: rec.seq,
                        spec,
                        responder: Responder::SpoolOnly,
                        token: CancelToken::new(),
                        has_deadline: false,
                        accepted: Instant::now(),
                        spooled: true,
                        recovered: true,
                    });
                }
                Err((code, detail)) => {
                    // The request decoded but no longer validates (e.g. a
                    // matrix removed between versions): record the typed
                    // failure durably instead of re-crashing forever.
                    if let Some(s) = &shared.spool {
                        let frame = Frame::Fail(AlignFail {
                            id: 0,
                            code,
                            detail,
                        });
                        let _ = s.write_done(rec.seq, &frame);
                        s.mark_complete(rec.seq);
                    }
                    shared.metrics.failed.inc();
                }
            }
        }

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut worker_handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let shared = shared.clone();
            let h = std::thread::Builder::new()
                .name(format!("flsa-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::Config {
                    detail: format!("spawn worker: {e}"),
                })?;
            worker_handles.push(h);
        }
        let accept = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("flsa-serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &conns))
                .map_err(|e| ServeError::Config {
                    detail: format!("spawn accept loop: {e}"),
                })?
        };

        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            worker_handles,
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a client sent a `Shutdown` frame; the embedding loop
    /// (the CLI) should call [`Server::drain`].
    pub fn drain_requested(&self) -> bool {
        // Relaxed: an advisory latch polled by the embedding loop; no
        // other data is published through it, staleness only delays the
        // next poll tick.
        self.shared.drain_frame_seen.load(Ordering::Relaxed)
    }

    /// Bytes currently charged to the admission governor (test hook:
    /// must be 0 after a drain).
    pub fn admission_used_bytes(&self) -> usize {
        self.shared.admission.used_bytes()
    }

    /// Begins a graceful drain (idempotent): stop accepting, cancel
    /// checkpointed in-flight jobs (forcing a final snapshot), answer
    /// everything still queued with `Draining`, let short jobs finish.
    pub fn drain(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Checkpointed in-flight jobs snapshot-and-stop; plain jobs are
        // short by definition of the spool threshold and run out.
        for inf in lock(&self.shared.inflight).values() {
            if inf.spooled {
                inf.token.cancel();
            }
        }
        self.shared.queue.close();
        for qj in self.shared.queue.take_remaining() {
            self.shared.metrics.queue_depth_add(-1);
            // Relaxed: monotone counter; the final read happens after
            // the worker threads are joined, which synchronizes.
            self.shared.drained_jobs.fetch_add(1, Ordering::Relaxed);
            // Spooled jobs stay in the spool; the restart completes
            // them. Either way the waiting client gets a typed answer.
            respond_conn(
                &qj.responder,
                &Frame::Fail(AlignFail {
                    id: qj.spec.request.id,
                    code: ErrorCode::Draining,
                    detail: "server draining; job will resume after restart".to_string(),
                }),
            );
        }
    }

    /// Waits for the accept loop, workers, and connection readers to
    /// finish (call [`Server::drain`] first), returning the summary.
    pub fn join(mut self) -> DrainSummary {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = lock(&self.conns).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let spooled_pending = match &self.shared.spool {
            Some(s) => s.recover().map(|(jobs, _)| jobs.len()).unwrap_or(0),
            None => 0,
        };
        DrainSummary {
            completed: self.shared.metrics.completed.get(),
            failed: self.shared.metrics.failed.get(),
            rejected: self.shared.metrics.rejected.get(),
            // Relaxed: counter read after drain() joined every
            // worker/conn thread, so all increments are visible.
            drained: self.shared.drained_jobs.load(Ordering::Relaxed),
            spooled_pending,
        }
    }
}

// --- accept / connection handling ---------------------------------------

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        // Relaxed: advisory shutdown poll; a stale read costs one more
        // accept-timeout iteration, nothing is ordered by the flag.
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        reap_finished(conns);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("flsa-serve-conn".to_string())
                    .spawn(move || handle_conn(stream, &shared));
                if let Ok(h) = spawned {
                    lock(conns).push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Joins connection threads that have already exited. Exited-but-
/// unjoined threads keep their stacks until joined, so a daemon that
/// only reaped at shutdown would leak one stack per connection served —
/// the corruption sweep (thousands of short connections) exhausts
/// memory in seconds without this.
fn reap_finished(conns: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut guard = lock(conns);
        let mut done = Vec::new();
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                done.push(guard.swap_remove(i));
            } else {
                i += 1;
            }
        }
        done
    };
    for h in finished {
        let _ = h.join();
    }
}

/// Blocking reads over a stream with a short `SO_RCVTIMEO`, retrying on
/// timeouts so a slow client never desyncs framing, while still letting
/// the reader notice a drain within one time slice.
struct PolledReader<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
}

impl Read for PolledReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // `Read` is implemented for `&TcpStream`; bind mutably so the
        // autoref picks it up without needing `&mut TcpStream`.
        let mut stream: &TcpStream = self.stream;
        loop {
            match stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Relaxed: advisory shutdown poll (see accept loop);
                    // a stale read retries one more read timeout.
                    if self.shared.draining.load(Ordering::Relaxed) {
                        return Err(std::io::Error::other("server draining"));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.connections.inc();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));

    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer_stream));
    let mut reader = PolledReader {
        stream: &stream,
        shared,
    };
    if let Err(e) = read_preamble(&mut reader, PREAMBLE) {
        // A wrong preamble is framing damage: answer once, then close.
        if let WireError::Frame { detail } = e {
            shared.metrics.protocol_errors.inc();
            send(&writer, &Frame::ProtocolError { detail });
        }
        return;
    }

    loop {
        match wire::read_frame(&mut reader) {
            Ok(Frame::Align(req)) => handle_request(shared, &writer, req),
            Ok(Frame::Ping(tok)) => send(&writer, &Frame::Pong(tok)),
            Ok(Frame::Shutdown) => {
                // Flag first, then ack: a client that saw the ack must
                // be able to observe `drain_requested()`.
                shared.drain_frame_seen.store(true, Ordering::Relaxed);
                send(&writer, &Frame::ShutdownAck);
            }
            Ok(other) => {
                // Well-formed but not a client→server frame.
                shared.metrics.protocol_errors.inc();
                send(
                    &writer,
                    &Frame::ProtocolError {
                        detail: format!("unexpected frame {other:?}"),
                    },
                );
            }
            Err(WireError::Malformed { detail }) => {
                // Framing is intact: answer and keep serving this
                // connection's other requests.
                shared.metrics.protocol_errors.inc();
                send(&writer, &Frame::ProtocolError { detail });
            }
            Err(WireError::Frame { detail }) => {
                // Framing lost: answer once, then close.
                shared.metrics.protocol_errors.inc();
                send(&writer, &Frame::ProtocolError { detail });
                return;
            }
            Err(WireError::Closed) | Err(WireError::Io { .. }) => return,
        }
    }
}

fn send(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) {
    let mut stream = lock(writer);
    let _ = wire::write_frame(&mut *stream, frame);
}

fn respond_conn(responder: &Responder, frame: &Frame) {
    if let Responder::Conn(writer) = responder {
        send(writer, frame);
    }
}

fn handle_request(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, req: wire::AlignRequest) {
    shared.metrics.requests.inc();
    let id = req.id;
    // Relaxed: advisory; a request admitted during the race is still
    // drained correctly by queue.close() + take_remaining().
    if shared.draining.load(Ordering::Relaxed) {
        shared.metrics.failed.inc();
        send(writer, &fail(id, ErrorCode::Draining, "server draining"));
        return;
    }
    let spec = match job::validate(req) {
        Ok(spec) => spec,
        Err((code, detail)) => {
            shared.metrics.failed.inc();
            send(writer, &fail(id, code, &detail));
            return;
        }
    };
    if shared.admission.never_fits(spec.estimate_bytes) {
        shared.metrics.failed.inc();
        let budget = shared.admission.budget_bytes().unwrap_or(0);
        send(
            writer,
            &fail(
                id,
                ErrorCode::TooLarge,
                &format!(
                    "estimated footprint {} bytes exceeds the server budget {budget}",
                    spec.estimate_bytes
                ),
            ),
        );
        return;
    }

    // Relaxed: unique-ID allocation only; fetch_add is atomic on the
    // same cell, and no other memory is ordered by the sequence number.
    let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
    let deadline_ms = if spec.request.deadline_ms > 0 {
        spec.request.deadline_ms
    } else {
        shared.default_deadline_ms
    };
    let (token, has_deadline) = if deadline_ms > 0 {
        (
            CancelToken::with_deadline(Duration::from_millis(deadline_ms as u64)),
            true,
        )
    } else {
        (CancelToken::new(), false)
    };

    let spooled = shared.spool.is_some() && spec.cells >= shared.spool_min_cells;
    if spooled {
        if let Some(s) = &shared.spool {
            if let Err(e) = s.write_request(seq, &spec.request) {
                shared.metrics.failed.inc();
                send(writer, &fail(id, ErrorCode::Internal, &e.to_string()));
                return;
            }
            shared.metrics.spooled.inc();
        }
    }

    let qj = QueuedJob {
        seq,
        spec,
        responder: Responder::Conn(writer.clone()),
        token,
        has_deadline,
        accepted: Instant::now(),
        spooled,
        recovered: false,
    };
    match shared.queue.push(qj) {
        Ok(()) => shared.metrics.queue_depth_add(1),
        Err((qj, PushError::Full)) => {
            if qj.spooled {
                if let Some(s) = &shared.spool {
                    s.forget(seq);
                }
            }
            shared.metrics.rejected.inc();
            let hint = shared
                .admission
                .retry_after_hint(shared.queue.len(), shared.workers);
            send(
                writer,
                &Frame::Overloaded {
                    id,
                    retry_after_ms: hint,
                },
            );
        }
        Err((qj, PushError::Closed)) => {
            if qj.spooled {
                if let Some(s) = &shared.spool {
                    s.forget(seq);
                }
            }
            shared.metrics.failed.inc();
            send(writer, &fail(id, ErrorCode::Draining, "server draining"));
        }
    }
}

fn fail(id: u64, code: ErrorCode, detail: &str) -> Frame {
    Frame::Fail(AlignFail {
        id,
        code,
        detail: detail.to_string(),
    })
}

// --- worker pool ---------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.queue_depth_add(-1);
        // Opportunistic coalescing: when the popped job could ride the
        // batch kernel, whatever else is already parked (up to
        // `batch_max` jobs) rides along. Gathering stops at the first
        // non-eligible job so anything the batch cannot serve stays
        // parked for other workers — and for drain's typed answers.
        let mut group = vec![job];
        if shared.batch_max > 1 && shared.hooks.is_none() && batch_eligible(shared, &group[0]) {
            while group.len() < shared.batch_max {
                let Some(j) = shared.queue.try_pop() else {
                    break;
                };
                shared.metrics.queue_depth_add(-1);
                let eligible = batch_eligible(shared, &j);
                group.push(j);
                if !eligible {
                    break;
                }
            }
        }
        for j in &group {
            lock(&shared.inflight).insert(
                j.seq,
                Inflight {
                    token: j.token.clone(),
                    spooled: j.spooled,
                },
            );
            shared.metrics.inflight.add(1);
        }

        for job in dispatch_batched(shared, group) {
            let (frame, terminal) = execute(shared, &job);
            deliver(shared, &job, &frame, terminal);
            finish(shared, &job);
        }
    }
}

/// Completes per-job accounting once its response has been delivered.
fn finish(shared: &Arc<Shared>, job: &QueuedJob) {
    lock(&shared.inflight).remove(&job.seq);
    shared.metrics.inflight.sub(1);
    shared
        .metrics
        .request_ns
        .record(job.accepted.elapsed().as_nanos() as u64);
}

/// Whether a job may ride the inter-sequence batch kernel. Spooled jobs
/// need the checkpointing single path; deadline-carrying jobs need its
/// precise expiry handling; large jobs need FastLSA's linear space (the
/// batch kernel holds each pair's full direction matrix).
fn batch_eligible(shared: &Shared, j: &QueuedJob) -> bool {
    !j.spooled
        && !j.has_deadline
        && !j.token.is_cancelled()
        && j.spec.cells <= shared.batch_max_cells
        && matches!(*j.spec.scheme.gap(), GapModel::Linear { .. })
}

/// Runs the batch-eligible subset of `group` on the inter-sequence
/// kernel and returns the jobs that still need the single path. Batch
/// results are bit-identical to single execution, so this is purely a
/// throughput optimization; any contained panic sends the whole subset
/// back to the single path (which has its own bounded retry).
fn dispatch_batched(shared: &Arc<Shared>, group: Vec<QueuedJob>) -> Vec<QueuedJob> {
    // Fault-injection hooks target single-job attempts; keep their
    // semantics exact by never batching under them.
    if group.len() < 2 || shared.hooks.is_some() {
        return group;
    }
    let mut batch = Vec::new();
    let mut singles = Vec::new();
    for j in group {
        // `try_acquire` (never block the whole batch on the governor):
        // a job the budget cannot admit right now parks on the single
        // path's blocking admission instead.
        if batch_eligible(shared, &j) && shared.admission.try_acquire(j.spec.estimate_bytes) {
            batch.push(j);
        } else {
            singles.push(j);
        }
    }
    if batch.len() < 2 {
        // Not enough lanes to stripe; undo the admission charges.
        for j in &batch {
            shared.admission.release(j.spec.estimate_bytes);
        }
        singles.append(&mut batch);
        return singles;
    }

    let metrics = Metrics::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let kernel = BatchKernel::new(Kernel::auto());
        let jobs: Vec<BatchJob<'_>> = batch
            .iter()
            .map(|j| BatchJob {
                a: j.spec.a.codes(),
                b: j.spec.b.codes(),
                scheme: &j.spec.scheme,
            })
            .collect();
        kernel.align_batch(&jobs, &metrics)
    }));
    for j in &batch {
        shared.admission.release(j.spec.estimate_bytes);
    }
    match outcome {
        Ok(results) => {
            shared.metrics.batches.inc();
            shared.metrics.batched_jobs.add(batch.len() as u64);
            for (j, res) in batch.iter().zip(results) {
                let frame = Frame::Ok(AlignOk {
                    id: j.spec.request.id,
                    score: res.score,
                    cigar: job::cigar(&res.path),
                });
                deliver(shared, j, &frame, true);
                finish(shared, j);
            }
            singles
        }
        Err(_payload) => {
            shared.metrics.panics.inc();
            singles.extend(batch);
            singles
        }
    }
}

/// Delivers a response. `terminal` responses are durable (spooled jobs
/// write `.done` and clear their spool entry); non-terminal ones (drain)
/// leave the spool intact so a restart completes the job.
fn deliver(shared: &Arc<Shared>, job: &QueuedJob, frame: &Frame, terminal: bool) {
    if terminal && job.spooled {
        if let Some(s) = &shared.spool {
            let _ = s.write_done(job.seq, frame);
            s.mark_complete(job.seq);
            s.gc(shared.spool_retain_done);
        }
    }
    respond_conn(&job.responder, frame);
    match frame {
        Frame::Ok(_) => shared.metrics.completed.inc(),
        Frame::Fail(f) => {
            shared.metrics.failed.inc();
            if f.code == ErrorCode::DeadlineExpired {
                shared.metrics.deadline_expired.inc();
            }
            if f.code == ErrorCode::Draining {
                // Relaxed: monotone counter, read after thread join.
                shared.drained_jobs.fetch_add(1, Ordering::Relaxed);
            }
        }
        _ => {}
    }
}

/// Runs one job end to end: admission, bounded-retry execution, typed
/// response. Returns `(frame, terminal)`.
fn execute(shared: &Arc<Shared>, job: &QueuedJob) -> (Frame, bool) {
    let id = job.spec.request.id;
    // Relaxed: advisory flag; drain correctness rests on the closed
    // queue, not on when a worker observes it.
    let draining = || shared.draining.load(Ordering::Relaxed);

    // The deadline covers queue wait: a job that expired while parked
    // fails without consuming a worker slot's compute.
    if job.token.is_cancelled() && !draining() {
        let code = if job.has_deadline {
            ErrorCode::DeadlineExpired
        } else {
            ErrorCode::Cancelled
        };
        return (fail(id, code, "deadline expired while queued"), true);
    }

    let wait_start = Instant::now();
    match shared
        .admission
        .acquire(job.spec.estimate_bytes, &job.token, draining)
    {
        Ok(()) => {}
        Err(AdmitError::Cancelled) => {
            let code = if job.has_deadline {
                ErrorCode::DeadlineExpired
            } else {
                ErrorCode::Cancelled
            };
            return (fail(id, code, "deadline expired awaiting admission"), true);
        }
        Err(AdmitError::Draining) => {
            return (
                fail(id, ErrorCode::Draining, "server draining"),
                // Non-terminal: a spooled job restarts after the drain.
                !job.spooled,
            );
        }
    }
    shared
        .metrics
        .admit_wait_ns
        .record(wait_start.elapsed().as_nanos() as u64);

    let result = run_with_retry(shared, job);
    shared.admission.release(job.spec.estimate_bytes);

    match result {
        Ok(res) => (
            Frame::Ok(AlignOk {
                id,
                score: res.score,
                cigar: job::cigar(&res.path),
            }),
            true,
        ),
        Err(AlignError::Cancelled) if draining() && job.spooled => (
            // The cancellation forced a final snapshot; the restart
            // resumes from it. Not terminal: keep the spool entry.
            fail(
                id,
                ErrorCode::Draining,
                "server draining; job checkpointed and will resume after restart",
            ),
            false,
        ),
        Err(err) => {
            let expired = job.has_deadline && job.token.is_cancelled();
            let (code, detail) = job::error_code_for(&err, expired);
            (fail(id, code, &detail), true)
        }
    }
}

/// Bounded retry with linear backoff around one attempt. Panics raised
/// by fault hooks or engine internals are contained by `catch_unwind`
/// and treated like [`AlignError::WorkerPanic`].
fn run_with_retry(
    shared: &Arc<Shared>,
    job: &QueuedJob,
) -> Result<flsa_dp::AlignResult, AlignError> {
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt_once(shared, job, attempt)));
        let err = match outcome {
            Ok(Ok(res)) => return Ok(res),
            Ok(Err(AlignError::WorkerPanic)) => {
                shared.metrics.panics.inc();
                AlignError::WorkerPanic
            }
            Ok(Err(other)) => return Err(other),
            Err(_payload) => {
                shared.metrics.panics.inc();
                AlignError::WorkerPanic
            }
        };
        let cancelled = job.token.is_cancelled();
        // Relaxed: advisory (see above); worst case is one extra retry.
        let draining = shared.draining.load(Ordering::Relaxed);
        if attempt > shared.max_retries || cancelled || draining {
            return Err(err);
        }
        shared.metrics.retries.inc();
        std::thread::sleep(shared.retry_backoff * attempt);
    }
}

/// One attempt: resume from a snapshot when the job has one, otherwise
/// a fresh run. A corrupt snapshot costs only the checkpointed progress.
fn attempt_once(
    shared: &Arc<Shared>,
    job: &QueuedJob,
    attempt: u32,
) -> Result<flsa_dp::AlignResult, AlignError> {
    if let Some(h) = &shared.hooks {
        h.on_attempt(job.seq, attempt);
    }
    let align_hooks = shared.hooks.as_ref().and_then(|h| h.align_hooks(job.seq));
    let metrics = Metrics::new();
    let spec = &job.spec;

    if job.spooled {
        if let Some(spool) = &shared.spool {
            let ckpt = spool.ckpt_path(job.seq);
            if job.recovered && ckpt.exists() {
                match read_snapshot(&ckpt) {
                    Ok(snap) => {
                        let sink = FileCheckpointSink::new(ckpt.clone(), snap.meta.clone());
                        let opts = AlignOptions {
                            budget_bytes: Some(spec.estimate_bytes),
                            cancel: Some(job.token.clone()),
                            hooks: align_hooks.clone(),
                            checkpoint: Some(CheckpointPolicy::new(
                                shared.checkpoint_every,
                                Arc::new(sink),
                            )),
                            kernel: None,
                            registry: None,
                        };
                        match resume_from_snapshot(&snap, &spec.scheme, &opts, &metrics) {
                            Ok(res) => return Ok(res),
                            Err(AlignError::CorruptCheckpoint { .. }) => {
                                // Snapshot lies about the run: discard it
                                // and redo the job from the request.
                                let _ = std::fs::remove_file(&ckpt);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Err(_) => {
                        let _ = std::fs::remove_file(&ckpt);
                    }
                }
            }
            let meta = SnapshotMeta::for_run(
                &spec.request.matrix,
                &spec.scheme,
                &spec.a,
                &spec.b,
                shared.checkpoint_every,
            );
            let sink = FileCheckpointSink::new(ckpt, meta);
            let opts = AlignOptions {
                budget_bytes: Some(spec.estimate_bytes),
                cancel: Some(job.token.clone()),
                hooks: align_hooks,
                checkpoint: Some(CheckpointPolicy::new(
                    shared.checkpoint_every,
                    Arc::new(sink),
                )),
                kernel: None,
                registry: None,
            };
            return align_opts(&spec.a, &spec.b, &spec.scheme, spec.config, &opts, &metrics);
        }
    }

    let opts = AlignOptions {
        budget_bytes: Some(spec.estimate_bytes),
        cancel: Some(job.token.clone()),
        hooks: align_hooks,
        checkpoint: None,
        kernel: None,
        registry: None,
    };
    align_opts(&spec.a, &spec.b, &spec.scheme, spec.config, &opts, &metrics)
}
