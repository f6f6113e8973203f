//! Integration tests of the threaded server substrate: differentiation
//! under the load generator's HTTP traffic, and the HTTP-lite front-end
//! over a loopback socket.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use psd::dist::{Deterministic, ServiceDist};
use psd::loadgen::scenario::mean_cost;
use psd::loadgen::{harness, ArrivalSpec, ClassMix, LoadMode, Scenario};
use psd::server::{EngineKind, HttpFrontend, PsdServer, ServerConfig};

fn server_cfg(deltas: Vec<f64>) -> ServerConfig {
    ServerConfig { deltas, work_unit: Duration::from_micros(150), ..ServerConfig::default() }
}

/// Under high symmetric traffic, the lower class must experience
/// clearly higher slowdown than the premium class.
///
/// The generator's `steady` scenario over HTTP, with a 1 ms work unit:
/// the timer thread's lateness (tens of µs) stays a few percent of
/// every service time, and waiting burns no CPU.
#[test]
fn threaded_server_differentiates() {
    let mut scenario = Scenario::by_name("steady").expect("stock scenario");
    scenario.mix = (0..2)
        .map(|_| ClassMix {
            weight: 1.0,
            cost: ServiceDist::Deterministic(Deterministic::new(1.0).unwrap()),
        })
        .collect();
    scenario.server.deltas = vec![1.0, 4.0];
    scenario.server.mean_cost = mean_cost(&scenario.mix);
    scenario.server.work_unit = Duration::from_millis(1);
    // 1 ms per unit ⇒ capacity 1 000 units/s; offer ≈ 75% load split
    // evenly.
    scenario.mode = LoadMode::Open { arrival: ArrivalSpec::Steady { rate: 1_000.0 * 0.75 } };
    scenario.duration = Duration::from_secs(2);
    scenario.warmup = Duration::from_millis(500);
    scenario.seed = 99;
    scenario.frontend.engine = EngineKind::Threads;
    let stats = harness::run_scenario(&scenario).expect("harness run").server_stats;
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
    let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server)).expect("bind loopback");
    let addr = fe.addr();

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

    assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("clean drain"), 0);
    Arc::try_unwrap(server).ok().expect("handlers done").shutdown();
}

/// The execution kernel — deadlines on the timer thread — keeps the
/// server functional end to end.
#[test]
fn all_kernels_complete_work() {
    let server = PsdServer::start(server_cfg(vec![1.0, 2.0]));
    for i in 0..60 {
        assert!(server.submit(i % 2, 0.5));
    }
    let stats = server.shutdown();
    let done: u64 = stats.classes.iter().map(|c| c.completed).sum();
    assert_eq!(done, 60, "lost work");
}
