//! Wire-corruption sweeps (hardening satellite): replay a recorded
//! client session with every single-bit flip and every truncation
//! offset, and assert the daemon survives each one — no panic, no hang,
//! no desync that poisons later connections. The decoder is
//! length-capped and allocation-bomb-safe, so the worst a corrupt frame
//! can do is elicit a typed `ProtocolError` and (when framing itself is
//! lost) a closed connection.

mod util;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use flsa_checkpoint::wire::{read_frame, Enc, HEADER_LEN};
use flsa_serve::wire::{self, Frame, PREAMBLE};
use flsa_serve::ServeConfig;
use util::{connect, dna, req, start};

/// A short but representative session: preamble, a ping, one small
/// alignment, another ping.
fn recorded_session() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(PREAMBLE);
    bytes.extend_from_slice(&wire::encode_frame(&Frame::Ping(0xF00D)));
    let a = dna(51, 40);
    let b = dna(52, 40);
    bytes.extend_from_slice(&wire::encode_frame(&Frame::Align(req(9, &a, &b))));
    bytes.extend_from_slice(&wire::encode_frame(&Frame::Ping(0xBEEF)));
    bytes
}

/// Fires `bytes` at the server on a raw socket and walks away: the
/// socket closes immediately, so a server waiting for a never-sent
/// remainder sees EOF instead of parking forever.
fn inject(addr: std::net::SocketAddr, bytes: &[u8]) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        panic!("server stopped accepting connections");
    };
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // The server may have closed mid-write (e.g. after a corrupt
    // preamble); a write error is a legitimate outcome, not a failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain whatever the server answers (typed ProtocolError frames,
    // job responses) until it closes; bounded by the read timeout.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    while wire::read_frame(&mut stream).is_ok() {}
}

/// The liveness probe: after every injection the server must still
/// serve a brand-new, well-behaved connection.
fn assert_alive(server: &flsa_serve::Server, what: &str) {
    let mut client = connect(server);
    client
        .ping(42)
        .unwrap_or_else(|e| panic!("server unhealthy after {what}: {e}"));
}

#[test]
fn every_single_bit_flip_is_survived() {
    let server = start(ServeConfig::new(""));
    let addr = server.local_addr();
    let session = recorded_session();
    for byte in 0..session.len() {
        for bit in 0..8 {
            let mut corrupted = session.clone();
            corrupted[byte] ^= 1 << bit;
            inject(addr, &corrupted);
        }
        // Probing per-byte (not per-bit) keeps the sweep fast while
        // still localising a failure to within eight flips.
        assert_alive(&server, &format!("bit flips in byte {byte}"));
    }
    server.drain();
    assert_eq!(server.admission_used_bytes(), 0);
    server.join();
}

#[test]
fn every_truncation_offset_is_survived() {
    let server = start(ServeConfig::new(""));
    let addr = server.local_addr();
    let session = recorded_session();
    for cut in 0..=session.len() {
        inject(addr, &session[..cut]);
        assert_alive(&server, &format!("truncation at offset {cut}"));
    }
    server.drain();
    assert_eq!(server.admission_used_bytes(), 0);
    server.join();
}

#[test]
fn allocation_bombs_are_rejected_before_any_allocation() {
    let server = start(ServeConfig::new(""));
    // A frame header claiming a multi-GiB payload: the server must
    // answer with a typed error without ever trying to buffer it.
    let mut client = connect(&server);
    client
        .send_raw(&[0xFF; HEADER_LEN])
        .expect("send bomb header");
    match client.recv() {
        Ok(Frame::ProtocolError { detail }) => {
            assert!(!detail.is_empty());
        }
        other => panic!("expected typed ProtocolError, got {other:?}"),
    }
    // Framing is unrecoverable after a length lie: the server closes.
    // A fresh connection works.
    assert_alive(&server, "allocation-bomb header");

    // An Align payload whose *inner* length field lies about a huge
    // sequence: caught by the bounded cursor, connection kept.
    let a = dna(1, 16);
    let b = dna(2, 16);
    let align = wire::encode_frame(&Frame::Align(req(1, &a, &b)));
    let (tag, mut body) = read_frame(&mut align.as_slice(), wire::MAX_FRAME).expect("frame");
    // The body ends [len_b: u64][b]; make len_b claim ~2^64 bytes and
    // re-frame it, so the CRC passes and only the cursor can object.
    let pos = body.len() - b.len() - 8;
    body[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut framed = Enc::default();
    framed.frame(tag, |e| e.buf.extend_from_slice(&body));
    let mut client = connect(&server);
    client.send_raw(&framed.buf).expect("send inner bomb");
    match client.recv() {
        Ok(Frame::ProtocolError { detail }) => assert!(!detail.is_empty()),
        other => panic!("expected typed ProtocolError, got {other:?}"),
    }
    // Inner corruption is Malformed, not a framing loss: the same
    // connection still works.
    client.ping(7).expect("ping after malformed payload");
    server.drain();
    server.join();
}
