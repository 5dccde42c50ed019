//! Shared helpers for the serve integration suites.

#![allow(dead_code)]

use std::time::Duration;

use flsa_dp::Metrics;
use flsa_fault::SplitMix64;
use flsa_seq::Sequence;
use flsa_serve::job;
use flsa_serve::wire::AlignRequest;
use flsa_serve::{Client, ServeConfig, Server};

/// Gap penalty every helper uses; keep requests and references in step.
pub const GAP: i32 = -2;

/// Deterministic DNA text of `len` residues.
pub fn dna(seed: u64, len: usize) -> String {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| b"ACGT"[rng.below(4) as usize] as char)
        .collect()
}

/// An `AlignRequest` with library defaults (no deadline, default
/// `k`/`base_cells`, the DNA matrix).
pub fn req(id: u64, a: &str, b: &str) -> AlignRequest {
    AlignRequest {
        id,
        deadline_ms: 0,
        threads: 0,
        k: 0,
        gap: GAP,
        base_cells: 0,
        matrix: "dna".to_string(),
        seq_a: a.as_bytes().to_vec(),
        seq_b: b.as_bytes().to_vec(),
    }
}

/// Sequential reference `(score, cigar)` for the same inputs — the
/// byte-identity target for every server result.
pub fn reference(a: &str, b: &str) -> (i64, String) {
    let scheme = flsa_scoring::tables::scheme_for("dna", GAP).expect("dna scheme");
    let sa = Sequence::from_str("a", scheme.alphabet(), a).expect("seq a");
    let sb = Sequence::from_str("b", scheme.alphabet(), b).expect("seq b");
    let r = fastlsa_core::align(&sa, &sb, &scheme, &Metrics::new()).expect("reference align");
    (r.score, job::cigar(&r.path))
}

/// Starts a server on an ephemeral port and returns it.
pub fn start(mut cfg: ServeConfig) -> Server {
    cfg.addr = "127.0.0.1:0".to_string();
    Server::start(cfg).expect("server start")
}

/// Connects to `server` with a recv timeout so a buggy server fails the
/// test instead of hanging it.
pub fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    c
}

/// Fresh per-test temp directory.
pub fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("flsa-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}
