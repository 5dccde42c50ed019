//! Snapshot size stays linear: O(k·(m+n)) for the grid caches plus the
//! embedded inputs — never the O(m·n) of a full DP matrix, and never a
//! function of the Base Case buffer BM (base cases are atomic between
//! checkpoints, so the BM buffer is never serialized). Affine lines
//! carry a gap layer beside `H`, doubling the line terms, no more.

use std::sync::Arc;

use fastlsa_core::{align_opts, AlignOptions, CheckpointPolicy, FastLsaConfig};
use flsa_checkpoint::{MemorySink, SnapshotMeta};
use flsa_dp::Metrics;
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};

/// Largest snapshot emitted by a run with the given config,
/// checkpointing at every completed block (worst-case capture points).
fn max_snapshot_bytes(
    scheme: &ScoringScheme,
    a: &Sequence,
    b: &Sequence,
    cfg: FastLsaConfig,
) -> usize {
    let meta = SnapshotMeta::for_run("dna", scheme, a, b, 1);
    let sink = Arc::new(MemorySink::new(meta));
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
        ..AlignOptions::default()
    };
    align_opts(a, b, scheme, cfg, &opts, &Metrics::new()).unwrap();
    let snapshots = sink.snapshots();
    assert!(!snapshots.is_empty());
    snapshots.iter().map(Vec::len).max().unwrap()
}

#[test]
fn snapshots_are_linear_in_k_times_m_plus_n() {
    let len = 300;
    let (a, b) = homologous_pair("size", &Alphabet::dna(), len, 0.8, 13).unwrap();
    let (m, n) = (a.len(), b.len());
    let quadratic = (m + 1) * (n + 1) * 4; // full DP matrix footprint
    let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
    // `w` layers per line: `H`, plus the gap layer for affine gaps.
    for (scheme, w) in [(ScoringScheme::dna_default(), 1), (affine, 2)] {
        for k in [2usize, 4, 8] {
            let bytes = max_snapshot_bytes(&scheme, &a, &b, FastLsaConfig::new(k, 512));
            // Grid caches: ≤ 4·k·(m+n) lines' worth of i32s across the
            // whole frame stack (geometric decay over nesting); frame
            // top/left edges add ≤ 4·(m+n) more; each is `w` layers. The
            // embedded sequences, path, and framing are linear with small
            // constants. 2 KiB covers fixed overhead.
            let linear_bound = w * (4 * (4 * k * (m + n)) + 4 * (4 * (m + n))) + 3 * (m + n) + 2048;
            assert!(
                bytes <= linear_bound,
                "w={w} k={k}: snapshot {bytes} B exceeds linear bound {linear_bound} B"
            );
            assert!(
                bytes * 4 < quadratic,
                "w={w} k={k}: snapshot {bytes} B is within 4x of the quadratic {quadratic} B"
            );
        }
    }
}

#[test]
fn base_case_buffer_size_never_leaks_into_snapshots() {
    let (a, b) = homologous_pair("bm", &Alphabet::dna(), 300, 0.8, 17).unwrap();
    let scheme = ScoringScheme::dna_default();
    let small_bm = max_snapshot_bytes(&scheme, &a, &b, FastLsaConfig::new(4, 128));
    let large_bm = max_snapshot_bytes(&scheme, &a, &b, FastLsaConfig::new(4, 8192));
    // A 64× larger BM buffer must not inflate the snapshot: bigger base
    // cases mean a *shallower* recursion, so if anything snapshots
    // shrink. Allow 2 KiB of slack for differing frame counts.
    assert!(
        large_bm <= small_bm + 2048,
        "BM=8192 snapshot ({large_bm} B) outgrew BM=128 snapshot ({small_bm} B)"
    );
}
