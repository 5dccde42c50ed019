//! The `FLSASHD2` coordinator↔worker wire protocol (DESIGN.md §15): a
//! table of tags over the frame codec in [`flsa_checkpoint::wire`]
//! (DESIGN.md §10).
//!
//! Both directions of a worker pipe open with the 8-byte preamble
//! `FLSASHD2`; after that the stream is codec frames of at most
//! [`MAX_FRAME`] body bytes. A corrupted length is rejected before any
//! allocation, and a bit-flipped result frame fails its CRC instead of
//! producing a wrong alignment:
//!
//! * [`WireError::Frame`] — framing is lost (a bad preamble, a length
//!   over the cap, or a pipe that died mid-frame); the peer is
//!   untrustworthy.
//! * [`WireError::Malformed`] — a complete frame that fails its CRC or
//!   does not parse. The coordinator treats this exactly like a dead
//!   worker: the result is discarded and the task reassigned, because a
//!   peer that ships one corrupt frame cannot be trusted to frame the
//!   next one correctly.

use std::io::Read;

use flsa_checkpoint::wire::{self, Cur, Enc, WireError};

/// Pipe preamble: protocol name + version, written by both sides
/// immediately after the pipe opens.
pub const PREAMBLE: &[u8; 8] = b"FLSASHD2";

/// Hard cap on a frame body. Large enough for a grid block's sequence
/// slices and boundaries at any realistic split, small enough that a
/// hostile length prefix cannot OOM the coordinator.
pub const MAX_FRAME: usize = 64 << 20;

/// What a task asks the worker to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// Fill-Cache: compute the block's last row and/or last column.
    Fill {
        /// Return the bottom boundary row (`cols + 1` values).
        want_bottom: bool,
        /// Return the right boundary column (`rows + 1` values).
        want_right: bool,
    },
    /// Base-Case: fill the block's full matrix and trace back from
    /// `head` (block-local coordinates) to the block's top/left edge.
    Trace {
        /// Traceback entry point, block-local, `1 ≤ head ≤ (rows, cols)`.
        head: (u64, u64),
    },
}

/// One self-contained block task. Everything the worker needs is in the
/// spec — sequences as alphabet codes, exact input boundaries, and the
/// named scheme — so a reassigned task can go to a freshly spawned
/// worker with no session state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Coordinator-chosen id, echoed on the result.
    pub task_id: u64,
    /// Named substitution matrix (`dna`, `blosum62`, `pam250`,
    /// `identity`, `paper`) — the registry in
    /// [`flsa_scoring::tables::scheme_by_name`].
    pub matrix: String,
    /// Linear gap penalty.
    pub gap: i32,
    /// Block slice of sequence A, as alphabet codes (`rows` residues).
    pub a: Vec<u8>,
    /// Block slice of sequence B, as alphabet codes (`cols` residues).
    pub b: Vec<u8>,
    /// Input top boundary, length `cols + 1`.
    pub top: Vec<i32>,
    /// Input left boundary, length `rows + 1`.
    pub left: Vec<i32>,
    /// What to compute.
    pub kind: TaskKind,
}

/// A completed task's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutput {
    /// Fill-Cache result. Boundaries not requested come back empty.
    Fill {
        /// Bottom boundary row (`cols + 1` values, or empty).
        bottom: Vec<i32>,
        /// Right boundary column (`rows + 1` values, or empty).
        right: Vec<i32>,
    },
    /// Base-Case result: the traceback segment and where it left the
    /// block.
    Trace {
        /// Path moves in traceback order (end → start), as
        /// [`flsa_dp::Move`] codes.
        rev_moves: Vec<u8>,
        /// Block-local exit point on the top row or left column.
        exit: (u64, u64),
    },
}

/// Every frame the protocol speaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator: alive and ready, sent once after the
    /// preamble.
    Hello {
        /// Worker process id (for diagnostics and hard kills).
        pid: u32,
    },
    /// Coordinator → worker: execute a task.
    Task(TaskSpec),
    /// Worker → coordinator: task finished.
    Result {
        /// Echoed task id.
        task_id: u64,
        /// The computed payload.
        output: TaskOutput,
    },
    /// Worker → coordinator: periodic liveness beacon.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Coordinator → worker: finish up and exit cleanly.
    Shutdown,
}

const TAG_HELLO: u8 = 0x01;
const TAG_TASK: u8 = 0x02;
const TAG_RESULT: u8 = 0x03;
const TAG_HEARTBEAT: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;

const KIND_FILL: u8 = 0x01;
const KIND_TRACE: u8 = 0x02;

const OUT_FILL: u8 = 0x01;
const OUT_TRACE: u8 = 0x02;

/// Encodes `frame` as one codec frame — the exact pipe bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    match frame {
        Frame::Hello { pid } => e.frame(TAG_HELLO, |e| e.u32(*pid)),
        Frame::Task(t) => e.frame(TAG_TASK, |e| {
            e.u64(t.task_id);
            e.str(&t.matrix);
            e.i32(t.gap);
            e.bytes(&t.a);
            e.bytes(&t.b);
            e.i32s(&t.top);
            e.i32s(&t.left);
            match &t.kind {
                TaskKind::Fill {
                    want_bottom,
                    want_right,
                } => {
                    e.u8(KIND_FILL);
                    e.u8(*want_bottom as u8);
                    e.u8(*want_right as u8);
                }
                TaskKind::Trace { head } => {
                    e.u8(KIND_TRACE);
                    e.u64(head.0);
                    e.u64(head.1);
                }
            }
        }),
        Frame::Result { task_id, output } => e.frame(TAG_RESULT, |e| {
            e.u64(*task_id);
            match output {
                TaskOutput::Fill { bottom, right } => {
                    e.u8(OUT_FILL);
                    e.i32s(bottom);
                    e.i32s(right);
                }
                TaskOutput::Trace { rev_moves, exit } => {
                    e.u8(OUT_TRACE);
                    e.bytes(rev_moves);
                    e.u64(exit.0);
                    e.u64(exit.1);
                }
            }
        }),
        Frame::Heartbeat { seq } => e.frame(TAG_HEARTBEAT, |e| e.u64(*seq)),
        Frame::Shutdown => e.frame(TAG_SHUTDOWN, |_| {}),
    }
    e.buf
}

/// Reads one frame from a blocking reader.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let (tag, body) = wire::read_frame(r, MAX_FRAME)?;
    decode(tag, &body)
}

fn decode(tag: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cur::new(body);
    let unknown = |what: &str, v: u8| WireError::Malformed {
        detail: format!("unknown {what} 0x{v:02x}"),
    };
    let frame = match tag {
        TAG_HELLO => Frame::Hello { pid: c.u32()? },
        TAG_TASK => {
            let task_id = c.u64()?;
            let matrix = c.str()?;
            if matrix.len() > 64 {
                return Err(WireError::Malformed {
                    detail: format!("matrix name of {} bytes", matrix.len()),
                });
            }
            let gap = c.i32()?;
            let a = c.bytes()?;
            let b = c.bytes()?;
            let top = c.i32s()?;
            let left = c.i32s()?;
            let kind = match c.u8()? {
                KIND_FILL => TaskKind::Fill {
                    want_bottom: c.u8()? != 0,
                    want_right: c.u8()? != 0,
                },
                KIND_TRACE => TaskKind::Trace {
                    head: (c.u64()?, c.u64()?),
                },
                other => return Err(unknown("task kind", other)),
            };
            Frame::Task(TaskSpec {
                task_id,
                matrix,
                gap,
                a,
                b,
                top,
                left,
                kind,
            })
        }
        TAG_RESULT => {
            let task_id = c.u64()?;
            let output = match c.u8()? {
                OUT_FILL => TaskOutput::Fill {
                    bottom: c.i32s()?,
                    right: c.i32s()?,
                },
                OUT_TRACE => TaskOutput::Trace {
                    rev_moves: c.bytes()?,
                    exit: (c.u64()?, c.u64()?),
                },
                other => return Err(unknown("output kind", other)),
            };
            Frame::Result { task_id, output }
        }
        TAG_HEARTBEAT => Frame::Heartbeat { seq: c.u64()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        other => return Err(unknown("frame tag", other)),
    };
    c.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> TaskSpec {
        TaskSpec {
            task_id: 42,
            matrix: "dna".to_string(),
            gap: -4,
            a: vec![0, 1, 2, 3],
            b: vec![3, 2, 1],
            top: vec![0, -4, -8, -12],
            left: vec![0, -4, -8, -12, -16],
            kind: TaskKind::Fill {
                want_bottom: true,
                want_right: false,
            },
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { pid: 1234 },
            Frame::Task(sample_task()),
            Frame::Task(TaskSpec {
                kind: TaskKind::Trace { head: (4, 3) },
                ..sample_task()
            }),
            Frame::Result {
                task_id: 42,
                output: TaskOutput::Fill {
                    bottom: vec![1, 2, 3, 4],
                    right: vec![],
                },
            },
            Frame::Result {
                task_id: 43,
                output: TaskOutput::Trace {
                    rev_moves: vec![0, 1, 2, 0],
                    exit: (0, 2),
                },
            },
            Frame::Heartbeat { seq: 7 },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in sample_frames() {
            let wire = encode_frame(&f);
            let mut cursor = std::io::Cursor::new(wire);
            assert_eq!(read_frame(&mut cursor).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn trailing_junk_is_malformed() {
        let mut e = Enc::default();
        e.frame(TAG_SHUTDOWN, |e| e.u8(0));
        assert!(matches!(
            read_frame(&mut e.buf.as_slice()).unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn another_protocols_preamble_is_refused() {
        wire::read_preamble(&mut &PREAMBLE[..], PREAMBLE).unwrap();
        assert!(matches!(
            wire::read_preamble(&mut &b"FLSASRV2"[..], PREAMBLE).unwrap_err(),
            WireError::Frame { .. }
        ));
    }
}
