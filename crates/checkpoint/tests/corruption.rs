//! Structural corruption: trailing garbage and whole sections that are
//! dropped, duplicated or reordered with every CRC intact must surface
//! as a structured [`CheckpointError`]. Single-bit flips and truncations
//! of a snapshot are swept by the root package's `tests/frame_codec.rs`.

use std::sync::Arc;

use fastlsa_core::{align_opts, AlignOptions, CheckpointPolicy, FastLsaConfig};
use flsa_checkpoint::wire::read_frame;
use flsa_checkpoint::{decode, CheckpointError, MemorySink, SnapshotMeta, FORMAT_VERSION, MAGIC};
use flsa_dp::Metrics;
use flsa_scoring::ScoringScheme;
use flsa_seq::generate::homologous_pair;
use flsa_seq::Alphabet;

/// A small but structurally rich snapshot: real recursion frames with
/// grid caches and a partial path.
fn sample_snapshot() -> Vec<u8> {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = homologous_pair("fuzz", &Alphabet::dna(), 48, 0.8, 21).unwrap();
    let meta = SnapshotMeta::for_run("dna", &scheme, &a, &b, 1);
    let sink = Arc::new(MemorySink::new(meta));
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
        ..AlignOptions::default()
    };
    align_opts(
        &a,
        &b,
        &scheme,
        FastLsaConfig::new(2, 64),
        &opts,
        &Metrics::new(),
    )
    .unwrap();
    let snapshots = sink.snapshots();
    assert!(snapshots.len() >= 3, "need mid-run snapshots");
    // A middle snapshot: non-empty frame stack, some path, some grids.
    let bytes = snapshots[snapshots.len() / 2].clone();
    let snap = decode(&bytes).unwrap();
    assert!(!snap.state.frames.is_empty());
    bytes
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_snapshot();
    for extra in [vec![0u8], vec![0xFF; 7], MAGIC.to_vec()] {
        let mut m = bytes.clone();
        m.extend_from_slice(&extra);
        assert!(
            decode(&m).is_err(),
            "{} trailing bytes accepted",
            extra.len()
        );
    }
    // Dropping the final END section leaves every CRC intact; only the
    // missing marker shows the snapshot was cut short.
    let (preamble, mut sections) = split_sections(&bytes);
    assert_eq!(sections.pop().map(|(tag, _)| tag), Some(TAG_END));
    bytes = rejoin(&preamble, &sections);
    assert!(decode(&bytes).is_err(), "missing end section accepted");
}

const TAG_FRAME: u8 = 4;
const TAG_END: u8 = 5;

/// Splits an encoded snapshot into its preamble (magic + version) and
/// the intact codec frames, one per section, so tests can shuffle whole
/// sections without invalidating any CRC — the attacks below must be
/// caught structurally, not by checksums.
fn split_sections(bytes: &[u8]) -> (Vec<u8>, Vec<(u8, Vec<u8>)>) {
    let head = MAGIC.len() + std::mem::size_of_val(&FORMAT_VERSION);
    let mut rest = &bytes[head..];
    let mut sections = Vec::new();
    while !rest.is_empty() {
        let before = rest;
        let (tag, _) = read_frame(&mut rest, before.len()).unwrap();
        sections.push((tag, before[..before.len() - rest.len()].to_vec()));
    }
    (bytes[..head].to_vec(), sections)
}

fn rejoin(preamble: &[u8], sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = preamble.to_vec();
    for (_, s) in sections {
        out.extend_from_slice(s);
    }
    out
}

#[test]
fn duplicated_frame_section_is_rejected() {
    let bytes = sample_snapshot();
    let (preamble, sections) = split_sections(&bytes);
    // The splitter itself must be faithful.
    assert_eq!(rejoin(&preamble, &sections), bytes);
    let frame_at = sections
        .iter()
        .position(|(t, _)| *t == TAG_FRAME)
        .expect("snapshot has a frame section");
    let mut dup = sections.clone();
    dup.insert(frame_at, sections[frame_at].clone());
    // Every CRC still passes; the header's frame count is the only
    // witness — it must reject the replay as corruption.
    match decode(&rejoin(&preamble, &dup)) {
        Err(CheckpointError::Corrupt(d)) => {
            assert!(d.contains("frames"), "unexpected detail: {d}")
        }
        other => panic!("duplicated frame accepted: {other:?}"),
    }
}

#[test]
fn reordered_frame_sections_are_rejected() {
    let bytes = sample_snapshot();
    let (preamble, sections) = split_sections(&bytes);
    let frame_idxs: Vec<usize> = sections
        .iter()
        .enumerate()
        .filter(|(_, (t, _))| *t == TAG_FRAME)
        .map(|(i, _)| i)
        .collect();
    assert!(
        frame_idxs.len() >= 2,
        "need a recursion stack at least two frames deep to reorder"
    );
    // Swap every adjacent pair of frame sections: the count matches the
    // header's promise and every CRC passes, so only the structural
    // nesting check (each frame inside its parent, interior frames
    // carrying grid caches) can — and must — catch the reorder.
    for w in frame_idxs.windows(2) {
        let mut swapped = sections.clone();
        swapped.swap(w[0], w[1]);
        match decode(&rejoin(&preamble, &swapped)) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!(
                "swapping frame sections {} and {} accepted: {other:?}",
                w[0], w[1]
            ),
        }
    }
}
