//! The `FLSASRV2` wire protocol (DESIGN.md §14): a table of tags over
//! the frame codec in [`flsa_checkpoint::wire`] (DESIGN.md §10).
//!
//! Every connection opens with the 8-byte preamble `FLSASRV2`; after
//! that both directions speak codec frames of at most [`MAX_FRAME`]
//! body bytes. Decode failures are typed, not fatal by default:
//!
//! * [`WireError::Frame`] — framing is lost (a bad preamble, a length
//!   over the cap, or a stream that died mid-frame). The peer answers
//!   with a `ProtocolError` frame and closes.
//! * [`WireError::Malformed`] — a complete frame that fails its CRC or
//!   does not parse (unknown tag, truncated or over-long field, trailing
//!   bytes). The peer answers with a `ProtocolError` frame and *keeps
//!   the connection* — one bad request must not tear down a client's
//!   other in-flight jobs.

use std::io::{Read, Write};

pub use flsa_checkpoint::wire::WireError;
use flsa_checkpoint::wire::{self, Cur, Enc};

/// Connection preamble: protocol name + version, sent by the client
/// immediately after connecting.
pub const PREAMBLE: &[u8; 8] = b"FLSASRV2";

/// Hard cap on a frame body. Large enough for two 8 Mb sequences,
/// small enough that a hostile length prefix cannot OOM the daemon.
pub const MAX_FRAME: usize = 20 << 20;

/// Cap on a single sequence field inside an [`AlignRequest`].
pub const MAX_SEQ_BYTES: usize = 8 << 20;

/// Cap on the matrix name inside an [`AlignRequest`].
const MAX_MATRIX_NAME: usize = 64;

/// Why a job failed, as carried on the wire. The server maps
/// [`fastlsa_core::AlignError`] onto this taxonomy; clients match on it
/// to decide between retrying, resubmitting smaller, and giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request itself is invalid (unknown matrix, alphabet
    /// mismatch, bad config). Retrying unchanged will fail again.
    BadRequest = 1,
    /// The request's deadline expired (queued or mid-run); partial work
    /// was drained and discarded.
    DeadlineExpired = 2,
    /// The run was cancelled without an expired deadline (drain races,
    /// client-side aborts).
    Cancelled = 3,
    /// Memory was exhausted past the bottom of the degradation ladder.
    ResourceExhausted = 4,
    /// A worker panicked on every bounded-retry attempt.
    WorkerPanic = 5,
    /// The job is larger than the server's total byte budget admits; it
    /// can never be scheduled here.
    TooLarge = 6,
    /// The server is draining and will not start this job; a snapshot
    /// (when the job was spooled) completes it after restart.
    Draining = 7,
    /// Anything else — the detail string carries the real error.
    Internal = 8,
}

impl ErrorCode {
    /// Wire value → code (`None` for unknown values).
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::DeadlineExpired),
            3 => Some(ErrorCode::Cancelled),
            4 => Some(ErrorCode::ResourceExhausted),
            5 => Some(ErrorCode::WorkerPanic),
            6 => Some(ErrorCode::TooLarge),
            7 => Some(ErrorCode::Draining),
            8 => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Stable lower-case name (used in logs and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::DeadlineExpired => "deadline-expired",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::ResourceExhausted => "resource-exhausted",
            ErrorCode::WorkerPanic => "worker-panic",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        }
    }
}

/// One alignment job as submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignRequest {
    /// Client-chosen correlation id, echoed on every response.
    pub id: u64,
    /// Deadline in milliseconds from server-side admission (0 = none).
    pub deadline_ms: u32,
    /// Worker threads for the run (0 or 1 = sequential).
    pub threads: u16,
    /// FastLSA grid division factor.
    pub k: u16,
    /// Linear gap penalty.
    pub gap: i32,
    /// FastLSA base-case buffer size in DPM entries.
    pub base_cells: u64,
    /// Named substitution matrix (`dna`, `blosum62`, `pam250`,
    /// `identity`, `paper`).
    pub matrix: String,
    /// Sequence A, ASCII residues.
    pub seq_a: Vec<u8>,
    /// Sequence B, ASCII residues.
    pub seq_b: Vec<u8>,
}

/// A completed alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOk {
    /// Correlation id from the request.
    pub id: u64,
    /// Optimal global score.
    pub score: i64,
    /// The optimal path, run-length encoded (`M`/`D`/`I`).
    pub cigar: String,
}

/// A job that terminated with a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignFail {
    /// Correlation id from the request.
    pub id: u64,
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

/// Every frame the protocol speaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: submit a job.
    Align(AlignRequest),
    /// Server → client: job result.
    Ok(AlignOk),
    /// Server → client: job failed.
    Fail(AlignFail),
    /// Server → client: admission refused the job; retry after the hint.
    Overloaded {
        /// Correlation id from the request.
        id: u64,
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u32,
    },
    /// Either direction: the last frame could not be decoded.
    ProtocolError {
        /// What failed to decode.
        detail: String,
    },
    /// Client → server: drain and exit (same path as SIGTERM).
    Shutdown,
    /// Server → client: drain acknowledged and under way.
    ShutdownAck,
    /// Liveness probe.
    Ping(u64),
    /// Liveness reply, echoing the probe token.
    Pong(u64),
}

const TAG_ALIGN: u8 = 0x01;
const TAG_OK: u8 = 0x02;
const TAG_FAIL: u8 = 0x03;
const TAG_OVERLOADED: u8 = 0x04;
const TAG_PROTOCOL_ERROR: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_SHUTDOWN_ACK: u8 = 0x07;
const TAG_PING: u8 = 0x08;
const TAG_PONG: u8 = 0x09;

/// Encodes `frame` as one codec frame — the exact bytes that go on the
/// wire, and the content of a spool file.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    match frame {
        Frame::Align(r) => e.frame(TAG_ALIGN, |e| {
            e.u64(r.id);
            e.u32(r.deadline_ms);
            e.u32(r.threads.into());
            e.u32(r.k.into());
            e.i32(r.gap);
            e.u64(r.base_cells);
            e.str(&r.matrix);
            e.bytes(&r.seq_a);
            e.bytes(&r.seq_b);
        }),
        Frame::Ok(r) => e.frame(TAG_OK, |e| {
            e.u64(r.id);
            e.u64(r.score as u64);
            e.str(&r.cigar);
        }),
        Frame::Fail(r) => e.frame(TAG_FAIL, |e| {
            e.u64(r.id);
            e.u8(r.code as u8);
            e.str(&r.detail);
        }),
        Frame::Overloaded { id, retry_after_ms } => e.frame(TAG_OVERLOADED, |e| {
            e.u64(*id);
            e.u32(*retry_after_ms);
        }),
        Frame::ProtocolError { detail } => e.frame(TAG_PROTOCOL_ERROR, |e| e.str(detail)),
        Frame::Shutdown => e.frame(TAG_SHUTDOWN, |_| {}),
        Frame::ShutdownAck => e.frame(TAG_SHUTDOWN_ACK, |_| {}),
        Frame::Ping(tok) => e.frame(TAG_PING, |e| e.u64(*tok)),
        Frame::Pong(tok) => e.frame(TAG_PONG, |e| e.u64(*tok)),
    }
    e.buf
}

/// Writes one frame to `w` (single `write_all`, so concurrent writers
/// holding the same lock interleave at frame granularity).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(w.flush()?)
}

/// Reads one frame from a blocking reader. A clean EOF *between* frames
/// is [`WireError::Closed`]; an EOF mid-frame is framing damage.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let (tag, body) = wire::read_frame(r, MAX_FRAME)?;
    decode(tag, &body)
}

fn decode(tag: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cur::new(body);
    let bad = |detail: String| WireError::Malformed { detail };
    let frame = match tag {
        TAG_ALIGN => {
            let id = c.u64()?;
            let deadline_ms = c.u32()?;
            let (threads, k) = (c.u32()?, c.u32()?);
            let (Ok(threads), Ok(k)) = (u16::try_from(threads), u16::try_from(k)) else {
                return Err(bad(format!("threads {threads} / k {k} out of range")));
            };
            let gap = c.i32()?;
            let base_cells = c.u64()?;
            let matrix = c.str()?;
            if matrix.len() > MAX_MATRIX_NAME {
                return Err(bad(format!("matrix name of {} bytes", matrix.len())));
            }
            let (seq_a, seq_b) = (c.bytes()?, c.bytes()?);
            if seq_a.len().max(seq_b.len()) > MAX_SEQ_BYTES {
                return Err(bad(format!("sequence exceeds cap {MAX_SEQ_BYTES}")));
            }
            Frame::Align(AlignRequest {
                id,
                deadline_ms,
                threads,
                k,
                gap,
                base_cells,
                matrix,
                seq_a,
                seq_b,
            })
        }
        TAG_OK => Frame::Ok(AlignOk {
            id: c.u64()?,
            score: c.u64()? as i64,
            cigar: c.str()?,
        }),
        TAG_FAIL => {
            let id = c.u64()?;
            let raw = c.u8()?;
            let code =
                ErrorCode::from_u8(raw).ok_or_else(|| bad(format!("unknown error code {raw}")))?;
            let detail = c.str()?;
            Frame::Fail(AlignFail { id, code, detail })
        }
        TAG_OVERLOADED => Frame::Overloaded {
            id: c.u64()?,
            retry_after_ms: c.u32()?,
        },
        TAG_PROTOCOL_ERROR => Frame::ProtocolError { detail: c.str()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_SHUTDOWN_ACK => Frame::ShutdownAck,
        TAG_PING => Frame::Ping(c.u64()?),
        TAG_PONG => Frame::Pong(c.u64()?),
        other => return Err(bad(format!("unknown frame tag 0x{other:02x}"))),
    };
    c.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> AlignRequest {
        AlignRequest {
            id: 7,
            deadline_ms: 1500,
            threads: 2,
            k: 8,
            gap: -10,
            base_cells: 1 << 20,
            matrix: "dna".to_string(),
            seq_a: b"ACGTACGT".to_vec(),
            seq_b: b"ACGTTCGT".to_vec(),
        }
    }

    /// Re-frames `frame` after `mutate` edits its body, with a fresh CRC.
    fn reframed(frame: &Frame, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (tag, mut body) = wire::read_frame(&mut encode_frame(frame).as_slice(), MAX_FRAME)
            .expect("well-formed frame");
        mutate(&mut body);
        let mut e = Enc::default();
        e.frame(tag, |e| e.buf.extend_from_slice(&body));
        e.buf
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Align(sample_request()),
            Frame::Ok(AlignOk {
                id: 7,
                score: -42,
                cigar: "3M1D4M".to_string(),
            }),
            Frame::Fail(AlignFail {
                id: 9,
                code: ErrorCode::DeadlineExpired,
                detail: "deadline 1500ms expired".to_string(),
            }),
            Frame::Overloaded {
                id: 3,
                retry_after_ms: 250,
            },
            Frame::ProtocolError {
                detail: "unknown frame tag 0xff".to_string(),
            },
            Frame::Shutdown,
            Frame::ShutdownAck,
            Frame::Ping(99),
            Frame::Pong(99),
        ];
        for f in frames {
            let wire = encode_frame(&f);
            assert_eq!(read_frame(&mut wire.as_slice()).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for raw in 0u8..=32 {
            match ErrorCode::from_u8(raw) {
                Some(code) => assert_eq!(code as u8, raw),
                None => assert!(!(1..=8).contains(&raw)),
            }
        }
    }

    #[test]
    fn trailing_junk_is_malformed() {
        let wire = reframed(&Frame::Ping(1), |body| body.push(0));
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn non_utf8_matrix_name_is_malformed() {
        let wire = reframed(&Frame::Align(sample_request()), |body| {
            let at = body.windows(3).position(|w| w == b"dna").expect("name");
            body[at] = 0xff;
        });
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(WireError::Malformed { .. })
        ));
    }
}
