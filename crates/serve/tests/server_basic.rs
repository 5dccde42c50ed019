//! End-to-end daemon tests: correctness vs the sequential reference,
//! the typed-rejection taxonomy (BadRequest / TooLarge / Overloaded /
//! DeadlineExpired / WorkerPanic), protocol hygiene, graceful drain,
//! and in-process spool recovery.

mod util;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flsa_checkpoint::wire::Enc;
use flsa_metrics::{names, Registry};
use flsa_serve::wire::{ErrorCode, Frame};
use flsa_serve::{JobHooks, ServeConfig, ServeError, Server, Spool};
use util::{connect, dna, reference, req, start, tmpdir};

/// Hooks that stall every attempt — used to hold workers busy.
struct Stall(Duration);

impl JobHooks for Stall {
    fn on_attempt(&self, _seq: u64, _attempt: u32) {
        std::thread::sleep(self.0);
    }
}

/// Hooks that panic the first `n` attempts of every job.
struct PanicFirst {
    n: u32,
    fired: AtomicU32,
}

impl JobHooks for PanicFirst {
    fn on_attempt(&self, _seq: u64, attempt: u32) {
        if attempt <= self.n {
            self.fired.fetch_add(1, Ordering::Relaxed);
            panic!("injected worker panic (attempt {attempt})");
        }
    }
}

fn drain_and_check(server: Server) {
    server.drain();
    assert_eq!(
        server.admission_used_bytes(),
        0,
        "admission must return to baseline after drain"
    );
    server.join();
}

#[test]
fn align_round_trips_and_matches_the_reference() {
    let server = start(ServeConfig::new(""));
    let mut client = connect(&server);
    for seed in 0..4u64 {
        let a = dna(seed, 200 + seed as usize * 37);
        let b = dna(seed + 100, 180 + seed as usize * 41);
        let (score, cigar) = reference(&a, &b);
        match client.align(req(seed, &a, &b)).expect("response") {
            Frame::Ok(ok) => {
                assert_eq!(ok.id, seed);
                assert_eq!(ok.score, score, "seed {seed}");
                assert_eq!(ok.cigar, cigar, "seed {seed}");
            }
            other => panic!("seed {seed}: expected Ok, got {other:?}"),
        }
    }
    drain_and_check(server);
}

#[test]
fn bad_requests_get_typed_rejections() {
    let server = start(ServeConfig::new(""));
    let mut client = connect(&server);
    // Unknown matrix.
    match client.align(req(1, "ACGT", "ACGT").tap(|r| r.matrix = "nope".into())) {
        Ok(Frame::Fail(f)) => {
            assert_eq!(f.code, ErrorCode::BadRequest);
            assert!(f.detail.contains("nope"), "{}", f.detail);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Residue outside the alphabet.
    match client.align(req(2, "ACGT", "AXGT")) {
        Ok(Frame::Fail(f)) => assert_eq!(f.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Invalid FastLSA k.
    match client.align(req(3, "ACGT", "ACGT").tap(|r| r.k = 1)) {
        Ok(Frame::Fail(f)) => assert_eq!(f.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survives every rejection.
    client.ping(7).expect("ping after rejections");
    drain_and_check(server);
}

/// Small builder sugar for tweaking one request field inline.
trait Tap: Sized {
    fn tap(self, f: impl FnOnce(&mut Self)) -> Self;
}

impl<T> Tap for T {
    fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
        f(&mut self);
        self
    }
}

#[test]
fn jobs_larger_than_the_whole_budget_are_too_large() {
    let mut cfg = ServeConfig::new("");
    cfg.budget_bytes = Some(96 << 10); // below the flat per-job overhead + dp
    let server = start(cfg);
    let mut client = connect(&server);
    let a = dna(1, 600);
    let b = dna(2, 600);
    // Default base_cells (1 Mi entries) guarantees a multi-MiB estimate.
    match client.align(req(1, &a, &b)).expect("response") {
        Frame::Fail(f) => {
            assert_eq!(f.code, ErrorCode::TooLarge);
            assert!(f.detail.contains("budget"), "{}", f.detail);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // A modest job still fits.
    let a = dna(3, 60);
    let b = dna(4, 60);
    let (score, _) = reference(&a, &b);
    match client
        .align(req(2, &a, &b).tap(|r| r.base_cells = 4096))
        .expect("response")
    {
        Frame::Ok(ok) => assert_eq!(ok.score, score),
        other => panic!("expected Ok, got {other:?}"),
    }
    drain_and_check(server);
}

#[test]
fn full_queue_answers_overloaded_with_a_retry_hint() {
    let mut cfg = ServeConfig::new("");
    cfg.workers = 1;
    cfg.queue_cap = 1;
    cfg.hooks = Some(Arc::new(Stall(Duration::from_millis(400))));
    let server = start(cfg);
    let mut client = connect(&server);
    let a = dna(1, 120);
    let b = dna(2, 120);
    // Pipeline more jobs than worker + queue can hold.
    for id in 0..4u64 {
        client.send(&Frame::Align(req(id, &a, &b))).expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..4 {
        match client.recv().expect("response") {
            Frame::Ok(_) => ok += 1,
            Frame::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms > 0, "hint must be positive");
                overloaded += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(ok >= 1, "at least one job must run");
    assert!(overloaded >= 1, "the bounded queue must shed load");
    drain_and_check(server);
}

#[test]
fn deadlines_expire_as_typed_failures() {
    let mut cfg = ServeConfig::new("");
    cfg.hooks = Some(Arc::new(Stall(Duration::from_millis(300))));
    cfg.max_retries = 0;
    let server = start(cfg);
    let mut client = connect(&server);
    let a = dna(1, 150);
    let b = dna(2, 150);
    match client
        .align(req(1, &a, &b).tap(|r| r.deadline_ms = 30))
        .expect("response")
    {
        Frame::Fail(f) => assert_eq!(f.code, ErrorCode::DeadlineExpired, "{}", f.detail),
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    drain_and_check(server);
}

#[test]
fn contained_panics_are_retried_to_success() {
    let reg = Arc::new(Registry::new());
    let mut cfg = ServeConfig::new("");
    cfg.max_retries = 2;
    cfg.retry_backoff = Duration::from_millis(5);
    cfg.registry = Some(reg.clone());
    cfg.hooks = Some(Arc::new(PanicFirst {
        n: 2,
        fired: AtomicU32::new(0),
    }));
    let server = start(cfg);
    let mut client = connect(&server);
    let a = dna(5, 100);
    let b = dna(6, 100);
    let (score, cigar) = reference(&a, &b);
    match client.align(req(1, &a, &b)).expect("response") {
        Frame::Ok(ok) => {
            assert_eq!(ok.score, score);
            assert_eq!(ok.cigar, cigar);
        }
        other => panic!("expected Ok after retries, got {other:?}"),
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::SERVE_PANICS_TOTAL), Some(2));
    assert_eq!(snap.counter(names::SERVE_RETRIES_TOTAL), Some(2));
    drain_and_check(server);
}

#[test]
fn panics_past_the_retry_bound_surface_as_worker_panic() {
    let mut cfg = ServeConfig::new("");
    cfg.max_retries = 1;
    cfg.retry_backoff = Duration::from_millis(5);
    cfg.hooks = Some(Arc::new(PanicFirst {
        n: 10,
        fired: AtomicU32::new(0),
    }));
    let server = start(cfg);
    let mut client = connect(&server);
    match client
        .align(req(1, "ACGTACGT", "ACGTTCGT"))
        .expect("response")
    {
        Frame::Fail(f) => assert_eq!(f.code, ErrorCode::WorkerPanic, "{}", f.detail),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    drain_and_check(server);
}

#[test]
fn malformed_frames_keep_the_connection_alive() {
    let server = start(ServeConfig::new(""));
    let mut client = connect(&server);
    // A well-framed payload with an unknown tag: Malformed, answered,
    // connection stays up.
    let mut unknown = Enc::default();
    unknown.frame(0xEE, |e| e.u8(1));
    client.send_raw(&unknown.buf).expect("send raw");
    match client.recv().expect("response") {
        Frame::ProtocolError { detail } => {
            assert!(detail.contains("tag") || !detail.is_empty())
        }
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    // The same connection still serves real work.
    let a = dna(9, 80);
    let b = dna(10, 80);
    let (score, _) = reference(&a, &b);
    match client.align(req(1, &a, &b)).expect("response") {
        Frame::Ok(ok) => assert_eq!(ok.score, score),
        other => panic!("expected Ok, got {other:?}"),
    }
    drain_and_check(server);
}

#[test]
fn positive_gap_is_a_bad_request_and_the_connection_lives() {
    let server = start(ServeConfig::new(""));
    let mut client = connect(&server);
    let mut bad = req(1, "ACGT", "ACGT");
    bad.gap = 5;
    match client.align(bad).expect("response") {
        Frame::Fail(f) => {
            assert_eq!(f.code, ErrorCode::BadRequest, "{}", f.detail);
            assert!(f.detail.contains("gap 5"), "{}", f.detail);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The reader thread survived: the same connection serves real work.
    let a = dna(11, 80);
    let b = dna(12, 80);
    let (score, _) = reference(&a, &b);
    match client.align(req(2, &a, &b)).expect("response") {
        Frame::Ok(ok) => assert_eq!(ok.score, score),
        other => panic!("expected Ok, got {other:?}"),
    }
    drain_and_check(server);
}

#[test]
fn bad_preamble_is_answered_and_refused() {
    let server = start(ServeConfig::new(""));
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    {
        use std::io::Write;
        stream.write_all(b"NOTFLSA!").expect("write");
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match flsa_serve::wire::read_frame(&mut stream) {
        Ok(Frame::ProtocolError { detail }) => {
            assert!(detail.contains("preamble"), "{detail}")
        }
        other => panic!("expected ProtocolError frame, got {other:?}"),
    }
    // A correct client still gets in.
    let mut client = connect(&server);
    client.ping(1).expect("ping");
    drain_and_check(server);
}

#[test]
fn shutdown_frame_requests_a_drain_and_drain_rejects_new_work() {
    let server = start(ServeConfig::new(""));
    let mut client = connect(&server);
    client.ping(1).expect("ping");
    assert!(!server.drain_requested());
    client.shutdown().expect("shutdown handshake");
    assert!(server.drain_requested(), "Shutdown frame must set the flag");

    server.drain();
    // In-flight connections now see typed Draining failures.
    match client.align(req(9, "ACGT", "ACGT")) {
        Ok(Frame::Fail(f)) => assert_eq!(f.code, ErrorCode::Draining),
        // The reader may already have shut the connection down.
        Ok(other) => panic!("expected Draining, got {other:?}"),
        Err(_) => {}
    }
    assert_eq!(server.admission_used_bytes(), 0);
    server.join();
}

#[test]
fn queued_jobs_are_answered_draining_at_shutdown() {
    let mut cfg = ServeConfig::new("");
    cfg.workers = 1;
    cfg.hooks = Some(Arc::new(Stall(Duration::from_millis(300))));
    let server = start(cfg);
    let mut client = connect(&server);
    let a = dna(1, 100);
    let b = dna(2, 100);
    for id in 0..3u64 {
        client.send(&Frame::Align(req(id, &a, &b))).expect("send");
    }
    // Let the first job reach a worker, then drain with the rest queued.
    std::thread::sleep(Duration::from_millis(100));
    server.drain();
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        match client.recv() {
            Ok(Frame::Ok(_)) => outcomes.push("ok"),
            Ok(Frame::Fail(f)) if f.code == ErrorCode::Draining => outcomes.push("draining"),
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => panic!("every accepted job must be answered: {e}"),
        }
    }
    assert!(
        outcomes.contains(&"draining"),
        "queued jobs must get typed Draining answers: {outcomes:?}"
    );
    assert_eq!(server.admission_used_bytes(), 0);
    let summary = server.join();
    assert!(summary.drained >= 1, "{summary:?}");
}

#[test]
fn queued_small_jobs_are_batched_and_still_match_the_reference() {
    // One worker, one long job to build a backlog, then a burst of small
    // jobs: the worker's next dispatch coalesces the parked smalls onto
    // the inter-sequence batch kernel. Results must be byte-identical to
    // the sequential reference either way.
    let reg = Arc::new(Registry::new());
    let mut cfg = ServeConfig::new("");
    cfg.workers = 1;
    cfg.registry = Some(reg.clone());
    let server = start(cfg);

    let big = {
        let mut c = connect(&server);
        let (a, b) = (dna(900, 1200), dna(901, 1200));
        std::thread::spawn(move || {
            let frame = c.align(req(0, &a, &b)).expect("big job response");
            assert!(matches!(frame, Frame::Ok(_)), "{frame:?}");
        })
    };
    // Let the big job reach the worker before the burst arrives.
    std::thread::sleep(Duration::from_millis(100));

    let senders: Vec<_> = (1..=12u64)
        .map(|id| {
            let mut c = connect(&server);
            std::thread::spawn(move || {
                let a = dna(id, 60 + (id as usize % 5) * 17);
                let b = dna(id + 500, 50 + (id as usize % 7) * 13);
                let (score, cigar) = reference(&a, &b);
                match c.align(req(id, &a, &b)).expect("response") {
                    Frame::Ok(ok) => {
                        assert_eq!(ok.id, id);
                        assert_eq!(ok.score, score, "job {id}");
                        assert_eq!(ok.cigar, cigar, "job {id}");
                    }
                    other => panic!("job {id}: expected Ok, got {other:?}"),
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("sender");
    }
    big.join().expect("big job");

    let snap = reg.snapshot();
    assert!(
        snap.counter(names::SERVE_BATCHES_TOTAL).unwrap_or(0) >= 1,
        "expected at least one batched dispatch: {:?}",
        snap.counter(names::SERVE_BATCHES_TOTAL)
    );
    assert!(snap.counter(names::SERVE_BATCHED_JOBS_TOTAL).unwrap_or(0) >= 2);
    drain_and_check(server);
}

#[test]
fn zero_workers_is_a_config_error() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = 0;
    match Server::start(cfg) {
        Err(ServeError::Config { detail }) => assert!(detail.contains("workers")),
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a running server"),
    }
}

#[test]
fn spooled_work_is_recovered_and_completed_after_restart() {
    let dir = tmpdir("recover");
    let a = dna(21, 600);
    let b = dna(22, 600);
    let (score, cigar) = reference(&a, &b);

    // A "previous daemon" accepted the job (spooled it) and was killed
    // before running it: only the .req file exists.
    {
        let spool = Spool::open(&dir).expect("spool");
        spool
            .write_request(5, &req(77, &a, &b))
            .expect("write request");
    }

    let reg = Arc::new(Registry::new());
    let mut cfg = ServeConfig::new("");
    cfg.spool_dir = Some(dir.clone());
    cfg.registry = Some(reg.clone());
    let server = start(cfg);

    // The restarted server completes the job with no client attached.
    let spool = Spool::open(&dir).expect("spool");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !spool.done_path(5).exists() {
        assert!(Instant::now() < deadline, "recovered job never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    match spool.read_done(5) {
        Some(Frame::Ok(ok)) => {
            assert_eq!(ok.id, 77, "correlation id survives recovery");
            assert_eq!(ok.score, score);
            assert_eq!(ok.cigar, cigar);
        }
        other => panic!("expected durable Ok result, got {other:?}"),
    }
    let (pending, _) = spool.recover().expect("recover");
    assert!(pending.is_empty(), "spool must be clean after completion");
    assert_eq!(
        reg.snapshot().counter(names::SERVE_RECOVERED_TOTAL),
        Some(1)
    );
    drain_and_check(server);
}
