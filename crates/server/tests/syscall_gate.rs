//! Syscall-count gate for the io_uring engine.
//!
//! The entire point of the uring backend is syscall amortization: one
//! `io_uring_enter` submits a batch of reads, writes and accepts and
//! reaps their completions, where the epoll backend pays
//! `epoll_wait` + `read` + `write` (+ `accept`) per exchange. Every
//! I/O-plane syscall either backend issues goes through the counters
//! in `polling::count`, so this test measures the steady-state
//! syscalls-per-request of both backends over the same request script
//! and pins the uring engine **strictly below** the epoll engine. A
//! perf regression that quietly reintroduces a per-request syscall
//! (dropping batching, re-arming through an extra enter, falling back
//! to eventfd round-trips) fails this gate rather than shipping.
//!
//! The counter is process-global, so everything runs inside ONE test
//! function — the harness would otherwise interleave other tests'
//! syscalls into the window.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use psd_server::{EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig};

use common::read_response;

const REQUESTS: usize = 400;

fn quick_server() -> Arc<PsdServer> {
    Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0, 2.0],
        work_unit: Duration::from_micros(50),
        ..ServerConfig::default()
    }))
}

/// Serve `REQUESTS` keep-alive exchanges on `engine` and return the
/// I/O-plane syscalls spent on the steady-state portion (startup,
/// connection setup and shutdown are all excluded by a warmup request
/// before the first snapshot and by snapshotting again before drop).
fn steady_state_syscalls(engine: EngineKind) -> u64 {
    let server = quick_server();
    let fe = HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        FrontendConfig { engine, ..FrontendConfig::default() },
    )
    .expect("bind");
    assert_eq!(fe.engine(), engine, "probe passed, so no silent fallback");

    let mut s = TcpStream::connect(fe.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Warm up: connection registered, buffers pooled, first SQEs armed.
    s.write_all(b"GET /warmup?cost=0.2 HTTP/1.1\r\n\r\n").unwrap();
    assert!(read_response(&mut s).starts_with("HTTP/1.1 200 OK"));

    let before = polling::count::total();
    for i in 0..REQUESTS {
        s.write_all(format!("GET /class{}/g?cost=0.2 HTTP/1.1\r\n\r\n", i % 2).as_bytes()).unwrap();
        let resp = read_response(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?} request {i}: {resp}");
    }
    let spent = polling::count::total() - before;

    drop(s);
    assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
    Arc::try_unwrap(server).ok().expect("released").shutdown();
    spent
}

#[test]
fn uring_spends_strictly_fewer_syscalls_than_epoll() {
    if !psd_server::uring_available() {
        eprintln!("skipping syscall gate: io_uring unavailable on this kernel");
        return;
    }

    let epoll = steady_state_syscalls(EngineKind::Reactor);
    let uring = steady_state_syscalls(EngineKind::Uring);
    let per_req = |n: u64| n as f64 / REQUESTS as f64;
    eprintln!(
        "syscall gate: epoll {epoll} ({:.2}/req) vs uring {uring} ({:.2}/req) over {REQUESTS} requests",
        per_req(epoll),
        per_req(uring)
    );

    // Sanity: both planes actually metered through the shim. Epoll
    // spends at least wait+read+write per exchange even when perfectly
    // coalesced, so anything below 2/req means the counters came loose.
    assert!(
        per_req(epoll) >= 2.0,
        "epoll metering looks broken: {epoll} syscalls for {REQUESTS} requests"
    );
    assert!(uring > 0, "uring metering looks broken: zero syscalls recorded");

    // The gate: batching must beat readiness polling outright — not by
    // a tolerance band, strictly. One enter replaces wait+read+write,
    // so in practice the ratio is far below 1; the strict `<` keeps
    // the gate robust to scheduling noise while still catching any
    // change that makes uring pay per-request syscalls again.
    assert!(
        uring < epoll,
        "uring engine must spend strictly fewer I/O syscalls than epoll: \
         uring={uring} ({:.2}/req) epoll={epoll} ({:.2}/req)",
        per_req(uring),
        per_req(epoll)
    );
}
