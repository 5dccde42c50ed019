//! The versioned snapshot format (DESIGN.md §10).
//!
//! ```text
//! magic "FLSACKP1" (8 bytes)  version u32 (= 2)
//! section*:  one codec frame each (crate::wire)
//! tags:      1 meta · 2 run header · 3 partial path · 4 frame (×N) · 5 end
//! ```
//!
//! Every section is one CRC32 frame of the shared codec, the end section
//! makes truncation detectable, and the meta section carries content
//! digests (scheme, sequences, config) so a snapshot can never be resumed
//! against the wrong inputs. Snapshots are *self-contained*: they embed
//! the encoded sequences, so `flsa resume <path>` needs no other files.

use std::io::Read;

use fastlsa_core::checkpoint::{CheckpointState, FrameState, GridState};
use fastlsa_core::{FastLsaConfig, ParallelConfig};
use flsa_dp::Move;
use flsa_scoring::ScoringScheme;
use flsa_seq::Sequence;

use crate::wire::{self, Cur, Enc, Fnv1a};
use crate::CheckpointError;

pub const MAGIC: &[u8; 8] = b"FLSACKP1";
/// Snapshots of any other version are refused as corrupt.
pub const FORMAT_VERSION: u32 = 2;

const TAG_META: u8 = 1;
const TAG_HEADER: u8 = 2;
const TAG_PATH: u8 = 3;
const TAG_FRAME: u8 = 4;
const TAG_END: u8 = 5;

/// One degradation-ladder step recorded in the snapshot, so the degrade
/// history survives process death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeNote {
    pub reason: String,
    pub rung: u32,
    pub k: usize,
    pub base_cells: usize,
    pub threads: usize,
}

/// Run identity and inputs: everything `flsa resume` needs besides the
/// recursion state itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Checkpoint cadence the run was started with (resume keeps it).
    pub every_blocks: u64,
    /// Name of the scoring scheme as the CLI understands it
    /// (e.g. "dna", "blosum62").
    pub scheme_name: String,
    /// Linear gap penalty of the scheme.
    pub gap_penalty: i32,
    /// FNV-1a digest over the scheme's matrix, alphabet, and gap —
    /// verified against the reconstructed scheme before resuming.
    pub scheme_digest: u64,
    /// Alphabet the sequences are encoded in.
    pub alphabet_name: String,
    pub seq_a_id: String,
    /// Encoded residues of sequence A (alphabet codes, not ASCII).
    pub seq_a: Vec<u8>,
    pub seq_b_id: String,
    pub seq_b: Vec<u8>,
    /// Degradation steps taken before this snapshot, oldest first.
    pub degrades: Vec<DegradeNote>,
}

impl SnapshotMeta {
    /// Builds the meta block for a fresh run.
    pub fn for_run(
        scheme_name: &str,
        scheme: &ScoringScheme,
        a: &Sequence,
        b: &Sequence,
        every_blocks: u64,
    ) -> Self {
        SnapshotMeta {
            every_blocks,
            scheme_name: scheme_name.to_string(),
            gap_penalty: scheme.gap().linear_penalty(),
            scheme_digest: scheme_digest(scheme),
            alphabet_name: scheme.alphabet().name().to_string(),
            seq_a_id: a.id().to_string(),
            seq_a: a.codes().to_vec(),
            seq_b_id: b.id().to_string(),
            seq_b: b.codes().to_vec(),
            degrades: Vec::new(),
        }
    }
}

/// A decoded snapshot: run identity plus the recursion state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub meta: SnapshotMeta,
    pub state: CheckpointState,
}

impl Snapshot {
    /// Rebuilds the input sequences after the caller reconstructs the
    /// scoring scheme named in `meta`. Verifies the scheme digest, the
    /// alphabet, and every residue code before constructing — a
    /// mismatched or damaged snapshot surfaces as a structured error,
    /// never a wrong alignment or a panic.
    pub fn sequences(
        &self,
        scheme: &ScoringScheme,
    ) -> Result<(Sequence, Sequence), CheckpointError> {
        if scheme.alphabet().name() != self.meta.alphabet_name {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot is over alphabet {:?}, scheme uses {:?}",
                self.meta.alphabet_name,
                scheme.alphabet().name()
            )));
        }
        let digest = scheme_digest(scheme);
        if digest != self.meta.scheme_digest {
            return Err(CheckpointError::Mismatch(format!(
                "scoring scheme digest {digest:#018x} does not match the snapshot's {:#018x}",
                self.meta.scheme_digest
            )));
        }
        let n = scheme.alphabet().len() as u8;
        for (codes, what) in [(&self.meta.seq_a, "A"), (&self.meta.seq_b, "B")] {
            if let Some(&bad) = codes.iter().find(|&&c| c >= n) {
                return Err(CheckpointError::Corrupt(format!(
                    "sequence {what} contains code {bad} outside the {n}-symbol alphabet"
                )));
            }
        }
        Ok((
            Sequence::from_codes(
                &self.meta.seq_a_id,
                scheme.alphabet(),
                self.meta.seq_a.clone(),
            ),
            Sequence::from_codes(
                &self.meta.seq_b_id,
                scheme.alphabet(),
                self.meta.seq_b.clone(),
            ),
        ))
    }
}

/// Content digest of a scoring scheme: alphabet symbols, matrix name,
/// the full substitution table, and the gap penalty.
pub fn scheme_digest(scheme: &ScoringScheme) -> u64 {
    let mut h = Fnv1a::default();
    let alphabet = scheme.alphabet();
    h.update(alphabet.name().as_bytes());
    let len = alphabet.len() as u8;
    for c in 0..len {
        h.update(&[alphabet.decode(c) as u8]);
    }
    h.update(scheme.matrix().name().as_bytes());
    for a in 0..len {
        for b in 0..len {
            h.update_i32(scheme.matrix().score(a, b));
        }
    }
    h.update_i32(scheme.gap().linear_penalty());
    h.finish()
}

/// Content digest of an encoded sequence (id + codes).
pub fn sequence_digest(id: &str, codes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(id.as_bytes());
    h.update_u64(codes.len() as u64);
    h.update(codes);
    h.finish()
}

fn config_digest(c: &FastLsaConfig) -> u64 {
    let mut h = Fnv1a::default();
    h.update_u64(c.k as u64);
    h.update_u64(c.base_cells as u64);
    h.update_u64(c.threads() as u64);
    h.update_u64(c.parallel.map_or(0, |p| p.tiles_per_block) as u64);
    h.finish()
}

fn corrupt(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(detail.into())
}

fn encode_meta(e: &mut Enc, meta: &SnapshotMeta) {
    e.u64(meta.every_blocks);
    e.str(&meta.scheme_name);
    e.i32(meta.gap_penalty);
    e.u64(meta.scheme_digest);
    e.str(&meta.alphabet_name);
    e.str(&meta.seq_a_id);
    e.u64(sequence_digest(&meta.seq_a_id, &meta.seq_a));
    e.bytes(&meta.seq_a);
    e.str(&meta.seq_b_id);
    e.u64(sequence_digest(&meta.seq_b_id, &meta.seq_b));
    e.bytes(&meta.seq_b);
    e.u32(meta.degrades.len() as u32);
    for d in &meta.degrades {
        e.str(&d.reason);
        e.u32(d.rung);
        e.usize(d.k);
        e.usize(d.base_cells);
        e.usize(d.threads);
    }
}

fn decode_meta(body: &[u8]) -> Result<SnapshotMeta, CheckpointError> {
    let mut c = Cur::new(body);
    let every_blocks = c.u64()?;
    let scheme_name = c.str()?;
    let gap_penalty = c.i32()?;
    let scheme_digest = c.u64()?;
    let alphabet_name = c.str()?;
    let seq_a_id = c.str()?;
    let digest_a = c.u64()?;
    let seq_a = c.bytes()?;
    let seq_b_id = c.str()?;
    let digest_b = c.u64()?;
    let seq_b = c.bytes()?;
    for (id, codes, digest, what) in [
        (&seq_a_id, &seq_a, digest_a, "A"),
        (&seq_b_id, &seq_b, digest_b, "B"),
    ] {
        if sequence_digest(id, codes) != digest {
            return Err(corrupt(format!("sequence {what} digest mismatch")));
        }
    }
    let n_degrades = c.u32()?;
    let mut degrades = Vec::new();
    for _ in 0..n_degrades {
        degrades.push(DegradeNote {
            reason: c.str()?,
            rung: c.u32()?,
            k: c.usize()?,
            base_cells: c.usize()?,
            threads: c.usize()?,
        });
    }
    c.finish()?;
    Ok(SnapshotMeta {
        every_blocks,
        scheme_name,
        gap_penalty,
        scheme_digest,
        alphabet_name,
        seq_a_id,
        seq_a,
        seq_b_id,
        seq_b,
        degrades,
    })
}

fn encode_header(e: &mut Enc, state: &CheckpointState) {
    e.usize(state.config.k);
    e.usize(state.config.base_cells);
    match state.config.parallel {
        Some(p) => {
            e.u8(1);
            e.usize(p.threads);
            e.usize(p.tiles_per_block);
        }
        None => e.u8(0),
    }
    e.u64(config_digest(&state.config));
    e.u64(state.blocks_done);
    e.u32(state.generation);
    e.u32(state.frames.len() as u32);
}

struct Header {
    config: FastLsaConfig,
    blocks_done: u64,
    generation: u32,
    frame_count: u32,
}

fn decode_header(body: &[u8]) -> Result<Header, CheckpointError> {
    let mut c = Cur::new(body);
    let k = c.usize()?;
    let base_cells = c.usize()?;
    let parallel = match c.u8()? {
        0 => None,
        1 => Some(ParallelConfig {
            threads: c.usize()?,
            tiles_per_block: c.usize()?,
        }),
        other => return Err(corrupt(format!("bad parallel flag {other}"))),
    };
    let config = FastLsaConfig {
        k,
        base_cells,
        parallel,
    };
    if c.u64()? != config_digest(&config) {
        return Err(corrupt("config digest mismatch"));
    }
    let header = Header {
        config,
        blocks_done: c.u64()?,
        generation: c.u32()?,
        frame_count: c.u32()?,
    };
    c.finish()?;
    Ok(header)
}

fn encode_path(e: &mut Enc, moves: &[Move]) {
    e.usize(moves.len());
    for &m in moves {
        e.u8(m.code());
    }
}

fn decode_path(body: &[u8]) -> Result<Vec<Move>, CheckpointError> {
    let mut c = Cur::new(body);
    let n = c.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let code = c.u8()?;
        out.push(
            Move::from_code(code)
                .ok_or_else(|| corrupt(format!("invalid path move code {code}")))?,
        );
    }
    c.finish()?;
    Ok(out)
}

fn encode_frame(e: &mut Enc, f: &FrameState) {
    e.usize(f.r0);
    e.usize(f.c0);
    e.usize(f.rows);
    e.usize(f.cols);
    e.usize(f.head.0);
    e.usize(f.head.1);
    e.i32s(&f.top);
    e.i32s(&f.left);
    match &f.grid {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.usizes(&g.row_bounds);
            e.usizes(&g.col_bounds);
            e.u32(g.rows_cache.len() as u32);
            for row in &g.rows_cache {
                e.i32s(row);
            }
            e.u32(g.cols_cache.len() as u32);
            for col in &g.cols_cache {
                e.i32s(col);
            }
        }
    }
}

fn decode_frame(body: &[u8]) -> Result<FrameState, CheckpointError> {
    let mut c = Cur::new(body);
    let r0 = c.usize()?;
    let c0 = c.usize()?;
    let rows = c.usize()?;
    let cols = c.usize()?;
    let head = (c.usize()?, c.usize()?);
    let top = c.i32s()?;
    let left = c.i32s()?;
    let grid = match c.u8()? {
        0 => None,
        1 => {
            let row_bounds = c.usizes()?;
            let col_bounds = c.usizes()?;
            let n_rows = c.u32()?;
            let rows_cache = (0..n_rows).map(|_| c.i32s()).collect::<Result<_, _>>()?;
            let n_cols = c.u32()?;
            let cols_cache = (0..n_cols).map(|_| c.i32s()).collect::<Result<_, _>>()?;
            Some(GridState {
                row_bounds,
                col_bounds,
                rows_cache,
                cols_cache,
            })
        }
        other => return Err(corrupt(format!("bad grid flag {other}"))),
    };
    c.finish()?;
    Ok(FrameState {
        r0,
        c0,
        rows,
        cols,
        head,
        top,
        left,
        grid,
    })
}

/// Serializes a snapshot to its durable byte form.
pub fn encode(meta: &SnapshotMeta, state: &CheckpointState) -> Vec<u8> {
    let mut e = Enc {
        buf: Vec::with_capacity(4096),
    };
    e.buf.extend_from_slice(MAGIC);
    e.u32(FORMAT_VERSION);
    e.frame(TAG_META, |e| encode_meta(e, meta));
    e.frame(TAG_HEADER, |e| encode_header(e, state));
    e.frame(TAG_PATH, |e| encode_path(e, &state.rev_moves));
    for f in &state.frames {
        e.frame(TAG_FRAME, |e| encode_frame(e, f));
    }
    e.frame(TAG_END, |_| {});
    e.buf
}

/// Parses and verifies a snapshot. Every framing, CRC, digest, or
/// structural violation is a [`CheckpointError::Corrupt`]; no input can
/// make this panic or over-allocate.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let mut r = bytes;
    wire::read_preamble(&mut r, MAGIC)
        .map_err(|_| corrupt("bad magic (not a FastLSA checkpoint)"))?;
    let mut version = [0u8; 4];
    r.read_exact(&mut version)
        .map_err(|_| corrupt("truncated before the format version"))?;
    let version = u32::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported format version {version} (expected {FORMAT_VERSION})"
        )));
    }

    let mut meta: Option<SnapshotMeta> = None;
    let mut header: Option<Header> = None;
    let mut path: Option<Vec<Move>> = None;
    let mut frames: Vec<FrameState> = Vec::new();
    let mut ended = false;
    while !r.is_empty() {
        if ended {
            return Err(corrupt("data after the end section"));
        }
        // The cap is the bytes present, so no length can over-allocate.
        let cap = r.len();
        let (tag, body) = wire::read_frame(&mut r, cap)?;
        match tag {
            TAG_META if meta.is_none() => meta = Some(decode_meta(&body)?),
            TAG_HEADER if header.is_none() => header = Some(decode_header(&body)?),
            TAG_PATH if path.is_none() => path = Some(decode_path(&body)?),
            TAG_FRAME => frames.push(decode_frame(&body)?),
            TAG_END if body.is_empty() => ended = true,
            _ => {
                return Err(corrupt(format!(
                    "unexpected or duplicate section tag {tag}"
                )))
            }
        }
    }
    if !ended {
        return Err(corrupt("snapshot truncated (no end section)"));
    }
    let meta = meta.ok_or_else(|| corrupt("missing meta section"))?;
    let header = header.ok_or_else(|| corrupt("missing run header section"))?;
    let rev_moves = path.ok_or_else(|| corrupt("missing path section"))?;
    if frames.len() != header.frame_count as usize {
        return Err(corrupt(format!(
            "header promises {} frames, found {}",
            header.frame_count,
            frames.len()
        )));
    }
    let state = CheckpointState {
        config: header.config,
        blocks_done: header.blocks_done,
        generation: header.generation,
        rev_moves,
        frames,
    };
    // Structural validation against the embedded sequence dimensions, so
    // callers get one error surface for "this snapshot cannot be
    // resumed" regardless of which layer caught it.
    state
        .validate(meta.seq_a.len(), meta.seq_b.len())
        .map_err(CheckpointError::Corrupt)?;
    Ok(Snapshot { meta, state })
}
