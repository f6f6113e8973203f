//! End-to-end tests for the reactor front-end — on **both** of its
//! backends: the sharded epoll event loops and the io_uring completion
//! engine. Real sockets, the real per-class task servers, and the
//! concurrency levels the thread-per-connection baseline cannot reach
//! on a bounded thread count. Every uring case self-skips (with a note) on kernels
//! that refuse io_uring, where the frontend would silently serve epoll.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psd_server::{EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig};

use common::{all_engines, reactor_backends, read_response};

fn cfg_for(engine: EngineKind) -> FrontendConfig {
    FrontendConfig { engine, ..FrontendConfig::default() }
}

fn quick_server(deltas: Vec<f64>) -> Arc<PsdServer> {
    Arc::new(PsdServer::start(ServerConfig {
        deltas,
        work_unit: Duration::from_micros(100),
        ..ServerConfig::default()
    }))
}

#[test]
fn serves_keep_alive_requests_end_to_end() {
    for engine in reactor_backends() {
        let server = quick_server(vec![1.0, 2.0]);
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg_for(engine))
            .expect("bind reactor");
        // The probe passed, so the frontend must actually be serving
        // the requested backend, not the fallback.
        assert_eq!(fe.engine(), engine);
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for i in 0..20 {
            s.write_all(format!("GET /class{}/x?cost=0.5 HTTP/1.1\r\n\r\n", i % 2).as_bytes())
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?} request {i}: {resp}");
            assert!(resp.contains("X-Slowdown:"), "{engine:?} request {i}: {resp}");
            assert!(resp.contains("Connection: keep-alive"), "{engine:?} request {i}: {resp}");
        }
        drop(s);
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        let stats = Arc::try_unwrap(server).ok().expect("reactor released the server").shutdown();
        let total: u64 = stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(total, 20, "{engine:?}: all keep-alive exchanges executed");
    }
}

/// Drive `conns` keep-alive connections through `rounds` full request
/// rounds against a reactor with `shards` event loops; returns the
/// server-side total completions after a clean drain.
fn run_concurrent_rounds(engine: EngineKind, conns: usize, rounds: usize, shards: usize) -> u64 {
    let server = quick_server(vec![1.0, 2.0]);
    let fe = HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        FrontendConfig { engine, shards, max_connections: conns + 8, ..FrontendConfig::default() },
    )
    .expect("bind reactor");

    let mut streams: Vec<TcpStream> = (0..conns)
        .map(|i| {
            let s = TcpStream::connect(fe.addr()).unwrap_or_else(|e| panic!("connect {i}: {e}"));
            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            s
        })
        .collect();

    for round in 0..rounds {
        // Fire every request before reading any response: all of them
        // are genuinely in flight through the reactor and the class
        // lanes at once.
        for (i, s) in streams.iter_mut().enumerate() {
            s.write_all(
                format!("GET /class{}/r{round}?cost=0.2 HTTP/1.1\r\n\r\n", i % 2).as_bytes(),
            )
            .unwrap_or_else(|e| panic!("write {i}: {e}"));
        }
        for (i, s) in streams.iter_mut().enumerate() {
            let resp = read_response(s);
            assert!(
                resp.starts_with("HTTP/1.1 200 OK"),
                "{engine:?} {shards} shard(s) round {round} conn {i}: {resp}"
            );
            assert!(
                resp.contains("Connection: keep-alive"),
                "{engine:?} {shards} shard(s) round {round} conn {i} must stay alive: {resp}"
            );
        }
    }

    drop(streams);
    assert_eq!(fe.shutdown(Duration::from_secs(30)).expect("drain"), 0);
    let stats = Arc::try_unwrap(server).ok().expect("reactor released the server").shutdown();
    stats.classes.iter().map(|c| c.completed).sum()
}

/// The tentpole claim: ≥512 concurrent keep-alive connections on ONE
/// reactor thread (the threaded baseline would need 512 OS threads) —
/// on either backend. Every connection makes two request rounds — the
/// second proves the connections all stayed alive concurrently, not
/// serially. On the uring backend this also exercises slot allocation:
/// each of the 512 connections reads and writes through its own
/// engine-owned heap slot.
#[test]
fn holds_512_concurrent_keep_alive_connections() {
    for engine in reactor_backends() {
        assert_eq!(
            run_concurrent_rounds(engine, 512, 2, 1),
            1024,
            "{engine:?}: both rounds fully served"
        );
    }
}

/// Shard parity: the same 512-connection script spread round-robin
/// over 2 event-loop shards serves exactly what the single shard does
/// — sharding changes who owns an fd, never what the wire does.
#[test]
fn two_shards_serve_512_connections_with_single_shard_parity() {
    for engine in reactor_backends() {
        let sharded = run_concurrent_rounds(engine, 512, 2, 2);
        assert_eq!(sharded, 1024, "{engine:?}: 2-shard run fully served");
        assert_eq!(
            sharded,
            run_concurrent_rounds(engine, 512, 2, 1),
            "{engine:?}: parity with 1 shard"
        );
    }
}

#[test]
fn over_cap_connections_get_503() {
    for engine in reactor_backends() {
        let server = quick_server(vec![1.0]);
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, max_connections: 2, ..FrontendConfig::default() },
        )
        .expect("bind reactor");
        let hold_a = TcpStream::connect(fe.addr()).expect("connect");
        let hold_b = TcpStream::connect(fe.addr()).expect("connect");
        // Give the reactor a tick to register both before over-filling.
        std::thread::sleep(Duration::from_millis(150));
        let mut s3 = TcpStream::connect(fe.addr()).expect("connect");
        s3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut all = String::new();
        s3.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 503"), "{engine:?}: over-cap must 503, got: {all:?}");
        assert!(all.contains("Connection: close"), "{engine:?}: got: {all:?}");
        drop((hold_a, hold_b, s3));
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

/// Slow-loris: a client that opens a connection and drips a partial
/// head (or nothing at all) must be reaped by the idle timeout, on
/// every engine, instead of pinning a connection forever — on the uring
/// backend that close also cancels the connection's in-flight read SQE.
#[test]
fn slow_loris_is_reaped_by_idle_timeout() {
    for engine in all_engines() {
        let server = quick_server(vec![1.0]);
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig {
                engine,
                idle_timeout: Duration::from_millis(300),
                ..FrontendConfig::default()
            },
        )
        .expect("bind reactor");
        let mut loris = TcpStream::connect(fe.addr()).expect("connect");
        loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Half a request head, then silence.
        loris.write_all(b"GET /slow HTTP/1.1\r\nX-Cl").unwrap();
        let t = Instant::now();
        let mut buf = [0u8; 64];
        let n = loop {
            match loris.read(&mut buf) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                read => break read.expect("server closes, not times out"),
            }
        };
        assert_eq!(n, 0, "{engine:?}: connection must be closed with no response");
        let waited = t.elapsed();
        assert!(waited >= Duration::from_millis(200), "{engine:?}: not instant ({waited:?})");
        assert!(waited < Duration::from_secs(5), "{engine:?}: reaped by timeout ({waited:?})");

        // The reactor is still healthy for well-behaved clients.
        let mut ok = TcpStream::connect(fe.addr()).expect("connect");
        ok.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        ok.write_all(b"GET /fine HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let resp = read_response(&mut ok);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?}: {resp}");
        drop(ok);
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

#[test]
fn malformed_head_gets_400_and_close() {
    for engine in reactor_backends() {
        let server = quick_server(vec![1.0]);
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg_for(engine))
            .expect("bind reactor");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET / JUNK/9\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.0 400"), "{engine:?}: got: {all:?}");
        drop(s);
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

/// Pipelined requests on one connection are served strictly in order,
/// one PSD execution at a time (the reactor parks the connection while
/// each request waits in its class's lane).
#[test]
fn pipelined_requests_answered_in_order() {
    for engine in reactor_backends() {
        let server = quick_server(vec![1.0, 2.0]);
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg_for(engine))
            .expect("bind reactor");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(
            b"GET /p1 HTTP/1.1\r\n\r\nGET /p2 HTTP/1.1\r\n\r\nGET /p3 HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        let i1 = all.find("path=/p1").expect("p1 answered");
        let i2 = all.find("path=/p2").expect("p2 answered");
        let i3 = all.find("path=/p3").expect("p3 answered");
        assert!(i1 < i2 && i2 < i3, "{engine:?}: responses in request order:\n{all}");
        assert_eq!(all.matches("200 OK").count(), 3, "{engine:?}: {all}");
        drop(s);
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

/// All engines speak the same protocol: identical request scripts get
/// equivalent responses (modulo timing header values).
#[test]
fn engines_agree_on_the_wire_protocol() {
    for engine in all_engines() {
        let server = quick_server(vec![1.0, 2.0]);
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, ..FrontendConfig::default() },
        )
        .expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 5\r\nX-Class: 1\r\n\r\nhello").unwrap();
        let resp = read_response(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?}: {resp}");
        assert!(resp.contains("X-Class: 1"), "{engine:?}: {resp}");
        assert!(resp.contains("class=1"), "{engine:?}: {resp}");
        // HTTP/1.0 with no Connection header → close after response.
        s.write_all(b"GET /b HTTP/1.0\r\n\r\n").unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("HTTP/1.0 200 OK"), "{engine:?}: {rest}");
        assert!(rest.contains("Connection: close"), "{engine:?}: {rest}");
        drop(s);
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

/// `?cost=inf` parses as a valid f64; it must be clamped into the
/// queue's accepted band, not allowed to trip the positivity assert —
/// on the reactor engines that panic would kill a whole event loop
/// (one remote request = total outage). Regression test for a
/// review-verified crash.
#[test]
fn non_finite_cost_is_clamped_not_fatal() {
    for engine in all_engines() {
        let server = quick_server(vec![1.0]);
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, ..FrontendConfig::default() },
        )
        .expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for bad in ["inf", "-inf", "nan", "1e309"] {
            s.write_all(format!("GET /a?cost={bad} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?} cost={bad}: {resp}");
        }
        // The engine survived all of them and still serves.
        s.write_all(b"GET /ok?cost=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("200 OK"), "{engine:?}: engine must outlive bad costs: {rest}");
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();
    }
}

/// A client that disconnects while its request is queued (the reactor
/// parks such connections with no read interest / no read SQE) must
/// neither break the loop nor starve other connections. Regression
/// test for a review-verified busy-spin on the level-triggered hang-up
/// event.
#[test]
fn aborted_client_mid_queue_leaves_the_loop_healthy() {
    for engine in reactor_backends() {
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            work_unit: Duration::from_millis(1),
            ..ServerConfig::default()
        }));
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg_for(engine))
            .expect("bind reactor");
        // Occupy the single worker with a slow request…
        let mut slow = TcpStream::connect(fe.addr()).expect("connect");
        slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        slow.write_all(b"GET /slow?cost=400 HTTP/1.1\r\n\r\n").unwrap();
        // …queue a request behind it and abort the connection.
        let mut ghost = TcpStream::connect(fe.addr()).expect("connect");
        ghost.write_all(b"GET /ghost?cost=1 HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50)); // request reaches the queue
        drop(ghost);
        // While the ghost's request is still queued, a healthy client
        // must connect and be served as soon as the worker frees up.
        let mut live = TcpStream::connect(fe.addr()).expect("connect");
        live.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        live.write_all(b"GET /live?cost=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let slow_resp = read_response(&mut slow);
        assert!(slow_resp.starts_with("HTTP/1.1 200 OK"), "{engine:?}: {slow_resp}");
        let mut live_resp = String::new();
        live.read_to_string(&mut live_resp).unwrap();
        assert!(live_resp.contains("200 OK"), "{engine:?}: loop must stay healthy: {live_resp}");
        drop((slow, live));
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        let stats = Arc::try_unwrap(server).ok().expect("released").shutdown();
        assert_eq!(
            stats.classes[0].completed, 3,
            "{engine:?}: ghost's queued request still executes"
        );
    }
}

/// Shutdown while requests are in flight serves them out (graceful
/// drain), then releases the server for final statistics.
#[test]
fn drain_serves_in_flight_requests() {
    for engine in reactor_backends() {
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            // Long enough that the drain demonstrably overlaps execution.
            work_unit: Duration::from_millis(2),
            ..ServerConfig::default()
        }));
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg_for(engine))
            .expect("bind reactor");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /inflight?cost=25 HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(20)); // request reaches the queue
        let fe_thread = std::thread::spawn(move || fe.shutdown(Duration::from_secs(10)));
        let resp = read_response(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?}: in-flight served: {resp}");
        assert!(resp.contains("Connection: close"), "{engine:?}: drain must close: {resp}");
        assert_eq!(fe_thread.join().unwrap().expect("drain"), 0);
        let stats = Arc::try_unwrap(server).ok().expect("released").shutdown();
        assert_eq!(stats.classes[0].completed, 1, "{engine:?}");
    }
}

/// A one-class reactor whose requests take `cost` ms of service, with
/// room for `cap` connections.
fn parked_case(engine: EngineKind, cap: usize) -> (HttpFrontend, Arc<PsdServer>) {
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0],
        work_unit: Duration::from_millis(1),
        ..ServerConfig::default()
    }));
    let cfg = FrontendConfig { engine, max_connections: cap, ..FrontendConfig::default() };
    let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg).expect("bind");
    assert_eq!(fe.engine(), engine);
    (fe, server)
}

/// Every connection the case opened is gone from the live count: all
/// `cap` slots serve at once (a leaked slot would answer 503), then the
/// drain is clean.
fn assert_slots_free_then_drain(
    engine: EngineKind,
    fe: HttpFrontend,
    server: Arc<PsdServer>,
    cap: usize,
) {
    std::thread::sleep(Duration::from_millis(100)); // the server saw the closes
    let held: Vec<TcpStream> = (0..cap)
        .map(|i| {
            let mut s = TcpStream::connect(fe.addr()).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /slot?cost=0.01 HTTP/1.1\r\n\r\n").unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200"), "{engine:?}: slot {i} of {cap}: {resp}");
            s
        })
        .collect();
    drop(held);
    assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0, "{engine:?}");
    Arc::try_unwrap(server).ok().expect("released").shutdown();
}

/// A request written while the previous one on its connection is
/// parked is read once the first reply is out and answered after it.
/// On epoll its arrival raised the connection's only edge while nothing
/// was reading.
#[test]
fn a_request_sent_while_parked_is_answered_in_order() {
    for engine in reactor_backends() {
        let (fe, server) = parked_case(engine, 2);
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /first?cost=30 HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(10)); // the first is parked in its lane
        s.write_all(b"GET /second?cost=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).expect("both answered, then closed");
        let first = all.find("path=/first").expect("first answered");
        let second = all.find("path=/second").expect("second answered");
        assert!(first < second, "{engine:?}: in request order:\n{all}");
        assert_eq!(all.matches("200 OK").count(), 2, "{engine:?}: {all}");
        drop(s);
        assert_slots_free_then_drain(engine, fe, server, 2);
    }
}

/// One write of a request and more than 8 KiB of pipelined requests
/// behind it: every one is answered, in order. On epoll the first read
/// fills its 8 KiB chunk and stops at the first request, so the rest
/// waits in the socket with no edge left to announce it.
#[test]
fn pipelined_requests_past_one_read_chunk_are_all_answered() {
    for engine in reactor_backends() {
        let (fe, server) = parked_case(engine, 2);
        let n = 400;
        let mut burst = String::new();
        for i in 0..n {
            let close = if i + 1 == n { "Connection: close\r\n" } else { "" };
            burst.push_str(&format!("GET /p{i}?cost=0.01 HTTP/1.1\r\n{close}\r\n"));
        }
        assert!(burst.len() > 8192 + 4096, "{} bytes", burst.len());
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(burst.as_bytes()).unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).expect("every request answered, then closed");
        assert_eq!(all.matches("200 OK").count(), n, "{engine:?}");
        let last = all.find(&format!("path=/p{} ", n - 1)).expect("last answered");
        assert!(all.find("path=/p0 ").expect("first answered") < last, "{engine:?}");
        drop(s);
        assert_slots_free_then_drain(engine, fe, server, 2);
    }
}

/// A client that half-closes gets its reply and then a prompt close:
/// whether the FIN arrives while the request is parked, or right behind
/// the request (on epoll, the same edge then reports the request and the
/// hang-up, which is never reported again).
#[test]
fn a_half_close_gets_the_reply_then_a_prompt_close() {
    for engine in reactor_backends() {
        let (fe, server) = parked_case(engine, 2);
        for (cost, pause) in [(30, Duration::from_millis(10)), (1, Duration::ZERO)] {
            let mut s = TcpStream::connect(fe.addr()).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(format!("GET /half?cost={cost} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
            std::thread::sleep(pause);
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let reply = read_response(&mut s);
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{engine:?} cost {cost}: {reply}");
            let t = Instant::now();
            let mut rest = Vec::new();
            s.read_to_end(&mut rest).expect("closed, not timed out");
            assert!(rest.is_empty(), "{engine:?} cost {cost}: nothing after the reply");
            let waited = t.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "{engine:?} cost {cost}: closed after {waited:?}"
            );
        }
        assert_slots_free_then_drain(engine, fe, server, 2);
    }
}
