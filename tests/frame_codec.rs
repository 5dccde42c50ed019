//! One corruption sweep over the frame codec that every cross-process
//! format shares (DESIGN.md §10): a serve `Align` frame, a shard
//! `Result` frame, a serve spool `.req` file and a checkpoint snapshot.
//! Each sample gets every single-bit flip, every truncation, and a
//! length field just past its cap. Every mutation must end in a typed
//! error: never `Ok`, never a panic, and never an allocation past the
//! cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use fastlsa_core::{align_opts, AlignOptions, CheckpointPolicy, FastLsaConfig};
use flsa_checkpoint::{MemorySink, SnapshotMeta, FORMAT_VERSION, MAGIC};
use flsa_dp::Metrics;
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::Alphabet;
use flsa_serve::wire::{AlignRequest, Frame};
use flsa_serve::{Spool, SpoolError};
use flsa_shard::TaskOutput;

thread_local! {
    /// Largest single allocation this thread asked for since the last
    /// reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

/// The system allocator, recording each thread's largest request.
struct PeakAlloc;

// SAFETY: every method forwards its own arguments to `System` unchanged;
// the only addition is `note`, which touches a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The routine every format runs through. `bytes` holds one frame at
/// `len_at` whose length may be at most `cap`; `decode` must accept
/// `bytes` as they are and refuse every mutation.
fn sweep<T: Debug, E>(
    name: &str,
    bytes: &[u8],
    len_at: usize,
    cap: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    let refuses = |what: &str, m: &[u8], limit: usize| {
        PEAK.with(|p| p.set(0));
        let got = catch_unwind(AssertUnwindSafe(|| decode(m)));
        let peak = PEAK.with(Cell::get);
        match got {
            Ok(Err(_)) => {}
            Ok(Ok(v)) => panic!("{name}: {what} was accepted as {v:?}"),
            Err(_) => panic!("{name}: {what} panicked"),
        }
        assert!(
            peak <= limit,
            "{name}: {what} allocated {peak} bytes, over {limit}"
        );
    };
    assert!(decode(bytes).is_ok(), "{name}: the sample must decode");
    // A flipped length may still claim up to `cap` bytes, which the
    // codec then reserves; nothing may reserve more.
    let limit = cap + flsa_checkpoint::wire::HEADER_LEN;
    let mut m = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        m[bit / 8] ^= 1 << (bit % 8);
        refuses(&format!("flip of bit {bit}"), &m, limit);
        m[bit / 8] ^= 1 << (bit % 8);
    }
    for len in 0..bytes.len() {
        refuses(&format!("truncation to {len} bytes"), &bytes[..len], limit);
    }
    // A length past the cap is refused before its buffer is reserved.
    for claim in [cap as u64 + 1, u64::MAX] {
        m[len_at..len_at + 8].copy_from_slice(&claim.to_le_bytes());
        refuses(&format!("length {claim}"), &m, cap);
    }
}

fn request() -> AlignRequest {
    AlignRequest {
        id: 7,
        deadline_ms: 1500,
        threads: 2,
        k: 8,
        gap: -4,
        base_cells: 1 << 20,
        matrix: "dna".to_string(),
        seq_a: b"ACGTACGTTGCA".to_vec(),
        seq_b: b"ACGTTCGTTGA".to_vec(),
    }
}

#[test]
fn serve_align_frame() {
    let bytes = flsa_serve::wire::encode_frame(&Frame::Align(request()));
    sweep("serve Align", &bytes, 0, flsa_serve::wire::MAX_FRAME, |b| {
        flsa_serve::wire::read_frame(&mut &b[..])
    });
}

#[test]
fn shard_result_frame() {
    let bytes = flsa_shard::protocol::encode_frame(&flsa_shard::Frame::Result {
        task_id: 9,
        output: TaskOutput::Fill {
            bottom: vec![5, -6, 7],
            right: vec![8],
        },
    });
    sweep(
        "shard Result",
        &bytes,
        0,
        flsa_shard::protocol::MAX_FRAME,
        |b| flsa_shard::protocol::read_frame(&mut &b[..]),
    );
}

#[test]
fn spool_request_file() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("flsa-frame-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = Spool::open(&dir).unwrap();
    spool.write_request(1, &request()).unwrap();
    let path = spool.ckpt_path(1).with_extension("req");
    let bytes = std::fs::read(&path).unwrap();
    // Anything but `Corrupt` counts as accepting the file.
    let recover = |b: &[u8]| {
        std::fs::write(&path, b).unwrap();
        match spool.recover() {
            Err(SpoolError::Corrupt(_)) => Err(()),
            other => Ok(other),
        }
    };
    sweep(
        "spool .req",
        &bytes,
        0,
        flsa_serve::wire::MAX_FRAME,
        recover,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A linear and an affine snapshot, the latter with two-layer lines and
/// head states.
#[test]
fn checkpoint_snapshot() {
    let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
    for (name, scheme) in [
        ("linear checkpoint", ScoringScheme::dna_default()),
        ("affine checkpoint", affine),
    ] {
        let (a, b) = homologous_pair("fuzz", &Alphabet::dna(), 48, 0.8, 21).unwrap();
        let sink = Arc::new(MemorySink::new(SnapshotMeta::for_run(
            "dna", &scheme, &a, &b, 1,
        )));
        let opts = AlignOptions {
            checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
            ..AlignOptions::default()
        };
        let config = FastLsaConfig::new(2, 64);
        align_opts(&a, &b, &scheme, config, &opts, &Metrics::new()).unwrap();
        // A middle snapshot: grid caches, a partial path, several frames.
        let snapshots = sink.snapshots();
        let bytes = &snapshots[snapshots.len() / 2];
        assert!(flsa_checkpoint::decode(bytes).unwrap().state.frames.len() >= 2);
        // The first section's length follows the magic and the version;
        // the cap is the bytes present from there on.
        let len_at = MAGIC.len() + std::mem::size_of_val(&FORMAT_VERSION);
        sweep(
            name,
            bytes,
            len_at,
            bytes.len() - len_at,
            flsa_checkpoint::decode,
        );
    }
}
