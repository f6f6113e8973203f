//! Helpers shared by the socket-level integration tests.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::io::{ErrorKind, Read};
use std::net::TcpStream;

use psd_server::EngineKind;

/// The reactor backends testable on this kernel: always epoll, plus
/// uring when the probe passes (the front end would otherwise silently
/// serve epoll and the case would test nothing new).
pub fn reactor_backends() -> Vec<EngineKind> {
    let mut v = vec![EngineKind::Reactor];
    if psd_server::uring_available() {
        v.push(EngineKind::Uring);
    } else {
        eprintln!("skipping uring cases: io_uring unavailable on this kernel");
    }
    v
}

/// All engines testable on this kernel (wire-parity suites).
pub fn all_engines() -> Vec<EngineKind> {
    let mut v = vec![EngineKind::Threads];
    v.extend(reactor_backends());
    v
}

/// Read one response off a keep-alive connection: head, then the body
/// up to its final newline (every body this server sends ends with
/// `'\n'`, and `Content-Length` framing means a complete head + body is
/// readable once it arrives), or a bodiless `Content-Length: 0`
/// response. EOF ends the read too. `EINTR` is retried — a signal
/// landing on the test thread is not a server fault.
pub fn read_response(s: &mut TcpStream) -> String {
    let mut buf = [0u8; 4096];
    let mut out = String::new();
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                out.push_str(std::str::from_utf8(&buf[..n]).expect("utf8 response"));
                if out.contains("\r\n\r\n") && out.ends_with('\n') && !out.ends_with("\r\n\r\n") {
                    break;
                }
                if out.contains("Content-Length: 0\r\n") && out.contains("\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("read failed: {e}"),
        }
    }
    out
}
