//! The one frame codec for every byte FastLSA moves across a process
//! boundary: checkpoint snapshots, `FLSASHD2` shard pipes, `FLSASRV2`
//! serve sockets and the serve spool (DESIGN.md §10).
//!
//! ```text
//! +-------------+---------+-------------------+---------------------------+
//! | len: u64 LE | tag: u8 | body (len bytes)  | crc32(tag ‖ body): u32 LE |
//! +-------------+---------+-------------------+---------------------------+
//! ```
//!
//! Each format is a table of tags over this layout: [`Enc::frame`] writes
//! a frame, [`read_frame`] reads one back, and [`Cur`] parses its body.
//! Everything here is written against hostile input: `len` is checked
//! against the caller's cap before any buffer is reserved, every inner
//! length against the bytes actually present, and the CRC covers every
//! byte after the length. A truncated or bit-flipped frame fails with a
//! [`WireError`] instead of an allocation bomb, a panic, or a silently
//! different message. The module also holds the FNV-1a content digest
//! snapshots use.

use std::io::{ErrorKind, Read};
use std::sync::OnceLock;

/// Bytes in front of a frame's body: the `u64` length and the tag.
pub const HEADER_LEN: usize = 9;

/// Typed decode/transport failure, shared by every format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Framing damage: a bad preamble, a length over the cap, or a
    /// stream that ended mid-frame. The stream cannot be re-synchronized.
    Frame {
        /// What was wrong with the framing.
        detail: String,
    },
    /// A complete frame that failed its CRC or did not parse.
    Malformed {
        /// What failed to verify or parse.
        detail: String,
    },
    /// Transport I/O error.
    Io {
        /// The underlying error.
        detail: String,
    },
    /// Clean end of stream between frames.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame { detail } => write!(f, "framing error: {detail}"),
            WireError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            WireError::Io { detail } => write!(f, "i/o error: {detail}"),
            WireError::Closed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            detail: e.to_string(),
        }
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `parts` laid
/// end to end — the checksum of every frame.
fn crc32(parts: &[&[u8]]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for part in parts {
        for &b in *part {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// FNV-1a 64 over a byte stream — the content digest used for the
/// scheme, sequences, and configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    pub fn update_i32(&mut self, v: i32) {
        self.update(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Append-only little-endian encoder for frames and their bodies.
#[derive(Default)]
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    /// Appends one frame: the header, the body `body` writes, the CRC.
    pub fn frame(&mut self, tag: u8, body: impl FnOnce(&mut Enc)) {
        let start = self.buf.len();
        self.u64(0); // the length, patched once the body is written
        self.u8(tag);
        body(self);
        let len = (self.buf.len() - start - HEADER_LEN) as u64;
        self.buf[start..start + 8].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&[&self.buf[start + 8..]]);
        self.u32(crc);
    }
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Length-prefixed `i32` array.
    pub fn i32s(&mut self, v: &[i32]) {
        self.usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    /// Length-prefixed `usize` array (as u64s).
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x as u64);
        }
    }
}

/// Fills `buf` from `r`; returns how many bytes arrived before the end
/// of the stream.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Reads the 8-byte preamble that opens a stream and checks it is `want`.
pub fn read_preamble(r: &mut impl Read, want: &[u8; 8]) -> Result<(), WireError> {
    let mut got = [0u8; 8];
    match read_full(r, &mut got)? {
        0 => Err(WireError::Closed),
        8 if &got == want => Ok(()),
        n => Err(WireError::Frame {
            detail: format!(
                "bad preamble {:?} (expected {:?})",
                String::from_utf8_lossy(&got[..n]),
                String::from_utf8_lossy(want)
            ),
        }),
    }
}

/// Reads one frame and verifies its CRC, returning the tag and body. A
/// length over `cap` is rejected before any buffer is reserved. A clean
/// end of stream before the first byte is [`WireError::Closed`]; one
/// anywhere inside the frame is framing damage.
pub fn read_frame(r: &mut impl Read, cap: usize) -> Result<(u8, Vec<u8>), WireError> {
    let truncated = || WireError::Frame {
        detail: "stream ended inside a frame".to_string(),
    };
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Err(WireError::Closed),
        HEADER_LEN => {}
        _ => return Err(truncated()),
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7, tag] = header;
    let len = u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7]);
    if len > cap as u64 {
        return Err(WireError::Frame {
            detail: format!("frame length {len} exceeds cap {cap}"),
        });
    }
    let len = len as usize;
    let mut body = vec![0u8; len + 4];
    if read_full(r, &mut body)? < body.len() {
        return Err(truncated());
    }
    let stored = u32::from_le_bytes([body[len], body[len + 1], body[len + 2], body[len + 3]]);
    body.truncate(len);
    let actual = crc32(&[&[tag], &body]);
    if stored != actual {
        return Err(WireError::Malformed {
            detail: format!(
                "frame {tag} CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
            ),
        });
    }
    Ok((tag, body))
}

/// Bounds-checked read cursor over a frame body.
pub struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Cur { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Rejects trailing bytes: a body must be exactly its fields.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Malformed {
                detail: format!("{n} trailing bytes after the last field"),
            }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Malformed {
                detail: format!("need {n} bytes, {} left", self.remaining()),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }

    /// A length field that must describe at most `remaining / elem_size`
    /// elements — checked before any allocation so corrupt lengths can't
    /// trigger huge reservations.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let max = self.remaining() / elem_size.max(1);
        if n > max as u64 {
            return Err(WireError::Malformed {
                detail: format!("length {n} exceeds the {max} elements actually present"),
            });
        }
        Ok(n as usize)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Malformed {
            detail: "string is not UTF-8".to_string(),
        })
    }

    pub fn i32s(&mut self) -> Result<Vec<i32>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.i32()).collect()
    }

    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed {
            detail: format!("value {v} does not fit a usize"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        let mut h = Fnv1a::default();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_scalars_and_arrays() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i32(-42);
        e.str("héllo");
        e.i32s(&[1, -2, 3]);
        e.usizes(&[0, 9, 100]);
        e.bytes(&[1, 2, 3]);
        let mut c = Cur::new(&e.buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 3);
        assert_eq!(c.i32().unwrap(), -42);
        assert_eq!(c.str().unwrap(), "héllo");
        assert_eq!(c.i32s().unwrap(), vec![1, -2, 3]);
        assert_eq!(c.usizes().unwrap(), vec![0, 9, 100]);
        assert_eq!(c.bytes().unwrap(), vec![1, 2, 3]);
        c.finish().unwrap();
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut e = Enc::default();
        e.frame(3, |e| e.str("body"));
        e.frame(0xFF, |_| {});
        let mut r = e.buf.as_slice();
        let (tag, body) = read_frame(&mut r, 64).unwrap();
        assert_eq!(tag, 3);
        assert_eq!(Cur::new(&body).str().unwrap(), "body");
        assert_eq!(read_frame(&mut r, 64).unwrap(), (0xFF, Vec::new()));
        assert_eq!(read_frame(&mut r, 64).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn eof_between_frames_is_closed_inside_is_framing() {
        let mut e = Enc::default();
        e.frame(7, |e| e.u64(42));
        assert_eq!(read_frame(&mut &[][..], 64), Err(WireError::Closed));
        for cut in 1..e.buf.len() {
            let err = read_frame(&mut &e.buf[..cut], 64).unwrap_err();
            assert!(matches!(err, WireError::Frame { .. }), "cut={cut}: {err:?}");
        }
    }

    #[test]
    fn frame_at_the_cap_passes_and_one_byte_over_is_framing_damage() {
        let mut e = Enc::default();
        e.frame(1, |e| e.buf.extend_from_slice(&[0xAB; 16]));
        assert!(read_frame(&mut e.buf.as_slice(), 16).is_ok());
        assert!(matches!(
            read_frame(&mut e.buf.as_slice(), 15),
            Err(WireError::Frame { .. })
        ));
    }

    #[test]
    fn preamble_is_checked_and_eof_before_it_is_closed() {
        assert_eq!(read_preamble(&mut &b"FLSATEST"[..], b"FLSATEST"), Ok(()));
        assert_eq!(
            read_preamble(&mut &b""[..], b"FLSATEST"),
            Err(WireError::Closed)
        );
        for bad in [&b"FLSAXXXX"[..], &b"FLSA"[..]] {
            assert!(matches!(
                read_preamble(&mut &bad[..], b"FLSATEST"),
                Err(WireError::Frame { .. })
            ));
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        let mut e = Enc::default();
        e.u64(u64::MAX); // claims ~2^64 elements
        let mut c = Cur::new(&e.buf);
        assert!(c.i32s().is_err());
        let mut c = Cur::new(&e.buf);
        assert!(c.bytes().is_err());
        // The same claim as a frame length: refused before the buffer.
        e.u8(1);
        assert!(matches!(
            read_frame(&mut e.buf.as_slice(), 1 << 20),
            Err(WireError::Frame { .. })
        ));
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut c = Cur::new(&[1, 2]);
        assert!(c.u64().is_err());
        assert_eq!(c.u8().unwrap(), 1); // cursor unchanged by the failed read
    }
}
