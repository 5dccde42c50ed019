//! A small blocking client for the `FLSASRV2` protocol.
//!
//! Used by the CLI (`flsa bench serve`), the load generator, and the
//! integration tests. One TCP connection, synchronous send/receive;
//! responses may arrive out of submission order when multiple requests
//! are outstanding (the server answers as workers finish), so callers
//! pipelining requests must match responses by correlation id.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{self, AlignRequest, Frame, WireError, PREAMBLE};

/// Bounds for [`Client::request_with_retry`]: how many times to submit
/// and how long to wait between attempts when the server is overloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts, the first included. Must be ≥ 1
    /// (a value of 0 is treated as 1 — the request always goes out
    /// once).
    pub max_attempts: u32,
    /// Backoff before a retry when the server's `Overloaded` carries no
    /// `retry_after_ms` hint; doubles per hintless rejection.
    pub base_backoff: Duration,
    /// Upper bound on any single wait, hinted or local — a confused
    /// server cannot park the client for minutes.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and sends the protocol preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client { stream };
        client.send_raw(PREAMBLE)?;
        Ok(client)
    }

    /// A second handle over the same connection (a shared socket): one
    /// handle can keep sending while the other blocks on receives —
    /// how the open-loop load generator splits its sender from its
    /// response reader without desyncing the frame stream.
    pub fn try_clone(&self) -> Result<Client, WireError> {
        Ok(Client {
            stream: self.stream.try_clone()?,
        })
    }

    /// Bounds how long a [`Client::recv`] may block (`None` = forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        Ok(self.stream.set_read_timeout(timeout)?)
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        wire::write_frame(&mut self.stream, frame)
    }

    /// Sends raw bytes as-is — the corruption tests use this to put
    /// deliberately damaged frames on the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        use std::io::Write;
        Ok(self.stream.write_all(bytes)?)
    }

    /// Receives one frame.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        wire::read_frame(&mut self.stream)
    }

    /// Submits one request and waits for its response (single
    /// outstanding request; skips unrelated frames such as `Pong`s).
    pub fn align(&mut self, request: AlignRequest) -> Result<Frame, WireError> {
        let id = request.id;
        self.send(&Frame::Align(request))?;
        loop {
            let frame = self.recv()?;
            let matches = match &frame {
                Frame::Ok(r) => r.id == id,
                Frame::Fail(r) => r.id == id,
                Frame::Overloaded { id: rid, .. } => *rid == id,
                Frame::ProtocolError { .. } => true,
                _ => false,
            };
            if matches {
                return Ok(frame);
            }
        }
    }

    /// Submits a request, honoring `Overloaded` rejections with a
    /// bounded, server-guided retry loop: each rejection is retried
    /// after the server's `retry_after_ms` hint (or a doubling local
    /// backoff when the server sends no hint), up to
    /// [`RetryPolicy::max_attempts`] attempts. The final attempt's
    /// response — whatever it is, including a still-`Overloaded`
    /// rejection — is returned verbatim, so the caller always sees a
    /// typed outcome rather than an open-ended spin.
    pub fn request_with_retry(
        &mut self,
        request: &AlignRequest,
        policy: &RetryPolicy,
    ) -> Result<Frame, WireError> {
        self.request_with_retry_via(request, policy, std::thread::sleep)
    }

    /// [`Client::request_with_retry`] with an injectable sleep, so the
    /// unit tests can run the whole backoff schedule on a virtual
    /// clock and assert the exact waits instead of actually waiting.
    pub fn request_with_retry_via(
        &mut self,
        request: &AlignRequest,
        policy: &RetryPolicy,
        mut sleep: impl FnMut(Duration),
    ) -> Result<Frame, WireError> {
        let mut local_backoff = policy.base_backoff;
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let frame = self.align(request.clone())?;
            match frame {
                // The guard fails on the final attempt, so the loop
                // always returns the last response verbatim.
                Frame::Overloaded { retry_after_ms, .. } if attempt < attempts => {
                    let hinted = if retry_after_ms > 0 {
                        Duration::from_millis(u64::from(retry_after_ms))
                    } else {
                        local_backoff
                    };
                    sleep(hinted.min(policy.max_backoff));
                    local_backoff = (local_backoff * 2).min(policy.max_backoff);
                }
                other => return Ok(other),
            }
        }
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self, token: u64) -> Result<(), WireError> {
        self.send(&Frame::Ping(token))?;
        match self.recv()? {
            Frame::Pong(t) if t == token => Ok(()),
            other => Err(WireError::Malformed {
                detail: format!("expected Pong({token}), got {other:?}"),
            }),
        }
    }

    /// Requests a graceful drain and waits for the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::ShutdownAck => return Ok(()),
                // Responses for still-draining jobs may interleave.
                Frame::Ok(_) | Frame::Fail(_) | Frame::Overloaded { .. } => continue,
                other => {
                    return Err(WireError::Malformed {
                        detail: format!("expected ShutdownAck, got {other:?}"),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AlignOk;
    use std::net::TcpListener;

    /// A scripted one-connection server: reads the preamble, then for
    /// each incoming `Align` answers the next frame of the script (the
    /// response id is patched to match the request).
    fn scripted_server(script: Vec<Frame>) -> (std::net::SocketAddr, std::thread::JoinHandle<u32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            flsa_checkpoint::wire::read_preamble(&mut stream, PREAMBLE).expect("preamble");
            let mut served = 0u32;
            for mut response in script {
                let request = match wire::read_frame(&mut stream) {
                    Ok(f) => f,
                    // Client gave up mid-script: report how far we got.
                    Err(_) => return served,
                };
                let Frame::Align(req) = request else {
                    panic!("expected Align, got {request:?}")
                };
                match &mut response {
                    Frame::Ok(r) => r.id = req.id,
                    Frame::Overloaded { id, .. } => *id = req.id,
                    _ => {}
                }
                wire::write_frame(&mut stream, &response).expect("respond");
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    fn request() -> AlignRequest {
        AlignRequest {
            id: 77,
            deadline_ms: 0,
            threads: 0,
            k: 0,
            gap: -2,
            base_cells: 4096,
            matrix: "dna".to_string(),
            seq_a: b"ACGT".to_vec(),
            seq_b: b"ACCT".to_vec(),
        }
    }

    fn ok_frame() -> Frame {
        Frame::Ok(AlignOk {
            id: 0,
            score: 5,
            cigar: "4M".to_string(),
        })
    }

    fn overloaded(retry_after_ms: u32) -> Frame {
        Frame::Overloaded {
            id: 0,
            retry_after_ms,
        }
    }

    #[test]
    fn retry_honors_server_hints_on_a_virtual_clock() {
        let (addr, server) = scripted_server(vec![overloaded(40), overloaded(90), ok_frame()]);
        let mut client = Client::connect(addr).expect("connect");
        let mut waits = Vec::new();
        let frame = client
            .request_with_retry_via(&request(), &RetryPolicy::default(), |d| waits.push(d))
            .expect("retry loop");
        assert!(matches!(frame, Frame::Ok(_)), "{frame:?}");
        // Each wait is exactly the server's hint, not the local schedule.
        assert_eq!(
            waits,
            vec![Duration::from_millis(40), Duration::from_millis(90)]
        );
        assert_eq!(server.join().expect("server"), 3);
    }

    #[test]
    fn hintless_rejections_double_the_local_backoff_and_cap_it() {
        let (addr, server) = scripted_server(vec![
            overloaded(0),
            overloaded(0),
            overloaded(0),
            ok_frame(),
        ]);
        let mut client = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(15),
        };
        let mut waits = Vec::new();
        let frame = client
            .request_with_retry_via(&request(), &policy, |d| waits.push(d))
            .expect("retry loop");
        assert!(matches!(frame, Frame::Ok(_)), "{frame:?}");
        // 10ms, then doubled-but-capped 15ms twice.
        assert_eq!(
            waits,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(15),
                Duration::from_millis(15),
            ]
        );
        assert_eq!(server.join().expect("server"), 4);
    }

    #[test]
    fn attempts_are_bounded_and_the_last_rejection_is_returned() {
        let (addr, server) = scripted_server(vec![overloaded(5), overloaded(5), overloaded(5)]);
        let mut client = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut waits = Vec::new();
        let frame = client
            .request_with_retry_via(&request(), &policy, |d| waits.push(d))
            .expect("retry loop");
        // The caller sees the typed rejection, not an error or a spin.
        assert!(matches!(frame, Frame::Overloaded { .. }), "{frame:?}");
        assert_eq!(waits.len(), 2, "no wait after the final attempt");
        drop(client);
        assert_eq!(server.join().expect("server"), 3);
    }

    #[test]
    fn zero_attempts_still_submits_once() {
        let (addr, server) = scripted_server(vec![ok_frame()]);
        let mut client = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let frame = client
            .request_with_retry_via(&request(), &policy, |_| panic!("no wait expected"))
            .expect("retry loop");
        assert!(matches!(frame, Frame::Ok(_)), "{frame:?}");
        assert_eq!(server.join().expect("server"), 1);
    }
}
