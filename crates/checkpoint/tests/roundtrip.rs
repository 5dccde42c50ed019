//! End-to-end snapshot round trips: a checkpointed run's snapshots
//! decode, validate, and resume to the byte-identical optimal result —
//! through the in-memory sink and through the durable file sink, for
//! linear and affine gap models alike.

use std::sync::Arc;

use fastlsa_core::{align_opts, align_with, AlignOptions, CheckpointPolicy, FastLsaConfig};
use flsa_checkpoint::{
    decode, read_snapshot, resume_from_snapshot, CheckpointError, CheckpointMetrics,
    FileCheckpointSink, MemorySink, Snapshot, SnapshotMeta,
};
use flsa_dp::Metrics;
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};

fn inputs(len: usize, seed: u64) -> (flsa_seq::Sequence, flsa_seq::Sequence) {
    homologous_pair("rt", &Alphabet::dna(), len, 0.8, seed).unwrap()
}

/// The `dna` matrix with affine gaps.
fn affine_dna() -> ScoringScheme {
    ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1))
}

#[test]
fn every_snapshot_resumes_to_the_reference_result() {
    let (a, b) = inputs(240, 11);
    // The wavefront fill (threads > 1) runs linear gaps only.
    for (scheme, threads) in [
        (ScoringScheme::dna_default(), 1usize),
        (ScoringScheme::dna_default(), 3),
        (affine_dna(), 1),
    ] {
        let cfg = FastLsaConfig::new(4, 256).with_threads(threads);
        let reference = align_with(&a, &b, &scheme, cfg, &Metrics::new()).unwrap();

        let meta = SnapshotMeta::for_run("dna", &scheme, &a, &b, 1);
        let sink = Arc::new(MemorySink::new(meta));
        let opts = AlignOptions {
            checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
            ..AlignOptions::default()
        };
        align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();

        let snapshots = sink.snapshots();
        assert!(snapshots.len() > 3, "got {} snapshots", snapshots.len());
        for (i, bytes) in snapshots.iter().enumerate() {
            let snap =
                decode(bytes).unwrap_or_else(|e| panic!("snapshot {i} failed to decode: {e}"));
            // The snapshot is self-contained: sequences come back out.
            let (ra, rb) = snap.sequences(&scheme).unwrap();
            assert_eq!(ra.codes(), a.codes());
            assert_eq!(rb.codes(), b.codes());
            let r = resume_from_snapshot(&snap, &scheme, &AlignOptions::default(), &Metrics::new())
                .unwrap_or_else(|e| panic!("snapshot {i} failed to resume: {e}"));
            assert_eq!(r.score, reference.score, "threads={threads} snapshot {i}");
            assert_eq!(r.path, reference.path, "threads={threads} snapshot {i}");
        }
    }
}

#[test]
fn file_sink_writes_atomically_and_reads_back() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = inputs(160, 3);
    let cfg = FastLsaConfig::new(4, 256);
    let reference = align_with(&a, &b, &scheme, cfg, &Metrics::new()).unwrap();

    let dir = std::env::temp_dir().join(format!("flsa-ckpt-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let meta = SnapshotMeta::for_run("dna", &scheme, &a, &b, 2);
    let registry = flsa_metrics::Registry::new();
    let sink = Arc::new(
        FileCheckpointSink::new(&path, meta).with_metrics(CheckpointMetrics::new(&registry)),
    );
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(2, sink.clone())),
        ..AlignOptions::default()
    };
    align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();

    assert!(
        sink.saves() > 1,
        "expected multiple saves, got {}",
        sink.saves()
    );
    // Every completed save was accounted to the registry, including its
    // fsync latency.
    let snap_metrics = registry.snapshot();
    use flsa_metrics::names;
    assert_eq!(
        snap_metrics.counter(names::CHECKPOINT_SAVES_TOTAL),
        Some(sink.saves())
    );
    assert!(snap_metrics.counter(names::CHECKPOINT_BYTES_TOTAL).unwrap() > 0);
    let fsync = snap_metrics.histogram(names::CHECKPOINT_FSYNC_NS).unwrap();
    assert_eq!(fsync.count, sink.saves());
    assert!(fsync.sum > 0);
    // The published file is always the latest complete snapshot.
    let snap = read_snapshot(&path).unwrap();
    assert_eq!(snap.meta.every_blocks, 2);
    let r =
        resume_from_snapshot(&snap, &scheme, &AlignOptions::default(), &Metrics::new()).unwrap();
    assert_eq!(r.score, reference.score);
    assert_eq!(r.path, reference.path);
    std::fs::remove_dir_all(&dir).ok();
}

/// The last snapshot of a checkpointed run of `a` against `b`.
fn last_snapshot(scheme: &ScoringScheme, a: &Sequence, b: &Sequence) -> Snapshot {
    let meta = SnapshotMeta::for_run("dna", scheme, a, b, 1);
    let sink = Arc::new(MemorySink::new(meta));
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
        ..AlignOptions::default()
    };
    align_opts(
        a,
        b,
        scheme,
        FastLsaConfig::new(4, 128),
        &opts,
        &Metrics::new(),
    )
    .unwrap();
    decode(&sink.last().unwrap()).unwrap()
}

#[test]
fn mismatched_scheme_is_rejected_structurally() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = inputs(120, 5);
    let snap = last_snapshot(&scheme, &a, &b);

    // Different alphabet entirely.
    let protein = ScoringScheme::protein_default();
    match snap.sequences(&protein) {
        Err(CheckpointError::Mismatch(_)) => {}
        other => panic!("expected alphabet mismatch, got {other:?}"),
    }

    // Same alphabet, different scoring parameters → digest mismatch.
    let tweaked = flsa_scoring::ScoringScheme::new(
        flsa_scoring::SubstitutionMatrix::match_mismatch("dna+2/-3", Alphabet::dna(), 2, -3),
        flsa_scoring::GapModel::linear(-1),
    );
    match snap.sequences(&tweaked) {
        Err(CheckpointError::Mismatch(_)) => {}
        other => panic!("expected digest mismatch, got {other:?}"),
    }

    // The matching scheme still works.
    assert!(snap.sequences(&scheme).is_ok());

    // The same matrix under the other gap model → digest mismatch, both
    // ways: the digest covers the gap model, not only a linear penalty.
    let affine = last_snapshot(&affine_dna(), &a, &b);
    assert_eq!(affine.meta.gap, GapModel::affine(-10, -1));
    for (snap, other) in [(&affine, &scheme), (&snap, &affine_dna())] {
        match snap.sequences(other) {
            Err(CheckpointError::Mismatch(_)) => {}
            other => panic!("expected gap-model digest mismatch, got {other:?}"),
        }
    }
    assert!(affine.sequences(&affine_dna()).is_ok());
}

#[test]
fn missing_file_is_an_io_error() {
    let err = read_snapshot(std::path::Path::new("/nonexistent/flsa.ckpt")).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err:?}");
}
