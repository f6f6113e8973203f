//! Integration tests of the threaded server substrate: differentiation
//! on real threads and the HTTP-lite front-end over a loopback socket.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use psd::dist::{Deterministic, ServiceDist};
use psd::server::driver::{drive, ClassTraffic};
use psd::server::{httplite, PsdServer, ServerConfig, Workload};

fn server_cfg(deltas: Vec<f64>) -> ServerConfig {
    ServerConfig { deltas, work_unit: Duration::from_micros(150), ..ServerConfig::default() }
}

/// Under high symmetric traffic, the lower class must experience
/// clearly higher slowdown than the premium class.
///
/// Sleep workload with a 1 ms work unit: the timer thread's lateness
/// (tens of µs) stays a few percent of every service time, and waiting
/// burns no CPU, so the result does not depend on how many cores the
/// test machine can spare for spinning task servers.
#[test]
fn threaded_server_differentiates() {
    let mut cfg = server_cfg(vec![1.0, 4.0]);
    cfg.work_unit = Duration::from_millis(1);
    let server = Arc::new(PsdServer::start(cfg));
    let det = ServiceDist::Deterministic(Deterministic::new(1.0).unwrap());
    // 1 ms per unit ⇒ capacity 1 000 units/s; drive ≈ 75% load split
    // evenly.
    let rate = 1_000.0 * 0.75 / 2.0;
    drive(
        &server,
        &[
            ClassTraffic { rate_per_s: rate, cost: det.clone() },
            ClassTraffic { rate_per_s: rate, cost: det },
        ],
        Duration::from_secs(2),
        99,
    );
    let stats = Arc::try_unwrap(server).ok().expect("drivers joined").shutdown();
    let s0 = stats.classes[0].mean_slowdown;
    let s1 = stats.classes[1].mean_slowdown;
    assert!(stats.classes[0].completed > 500);
    assert!(stats.classes[1].completed > 500);
    assert!(s1 > 1.3 * s0, "δ = (1,4) must separate the classes: premium {s0:.2}, basic {s1:.2}");
}

/// The HTTP front-end classifies, executes and reports timings.
#[test]
fn httplite_roundtrip() {
    let server = Arc::new(PsdServer::start(server_cfg(vec![1.0, 2.0])));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || httplite::serve(listener, server, 1.0, stop))
    };

    let fetch = |path: &str, header: Option<&str>| -> (String, Vec<String>) {
        let mut s = TcpStream::connect(addr).expect("connect");
        let h = header.map(|h| format!("X-Class: {h}\r\n")).unwrap_or_default();
        write!(s, "GET {path} HTTP/1.0\r\n{h}\r\n").unwrap();
        let mut reader = BufReader::new(s);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            headers.push(line.trim().to_string());
        }
        (status.trim().to_string(), headers)
    };

    let (status, headers) = fetch("/class0/index.html?cost=2", None);
    assert!(status.contains("200"), "status: {status}");
    assert!(headers.iter().any(|h| h == "X-Class: 0"), "headers: {headers:?}");

    let (status, headers) = fetch("/whatever", Some("1"));
    assert!(status.contains("200"));
    assert!(headers.iter().any(|h| h == "X-Class: 1"), "X-Class header wins: {headers:?}");

    let (status, headers) = fetch("/unknown/path", None);
    assert!(status.contains("200"));
    // Default class is the last one (1 here).
    assert!(headers.iter().any(|h| h == "X-Class: 1"), "{headers:?}");

    stop.store(true, Ordering::SeqCst);
    accept_thread.join().unwrap().expect("accept loop clean exit");
    Arc::try_unwrap(server).ok().expect("handlers done").shutdown();
}

/// Both execution kernels — Sleep deadlines on the timer thread, Spin
/// on one thread per class — keep the server functional end to end.
#[test]
fn all_kernels_complete_work() {
    for workload in [Workload::Sleep, Workload::Spin] {
        let mut cfg = server_cfg(vec![1.0, 2.0]);
        cfg.workload = workload;
        let server = PsdServer::start(cfg);
        for i in 0..60 {
            assert!(server.submit(i % 2, 0.5));
        }
        let stats = server.shutdown();
        let done: u64 = stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(done, 60, "{workload:?} lost work");
    }
}
