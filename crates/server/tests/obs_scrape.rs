//! End-to-end observability: scrape every observability route over
//! real TCP on **all three** engines while the server is shedding
//! load, and
//! validate the bodies with the same `psd-obs` parsers offline tooling
//! uses. Also pins the satellite contract that every admin response
//! carries an explicit `Content-Type`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

use psd_server::{
    ControllerKind, EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig,
};

use common::all_engines;

/// One `Connection: close` exchange on a fresh socket.
fn exchange(addr: std::net::SocketAddr, req: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(req.as_bytes()).expect("write");
    let mut all = String::new();
    s.read_to_string(&mut all).expect("read");
    all
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"))
}

/// The value of a response header (case-insensitive lookup).
fn header(resp: &str, name: &str) -> Option<String> {
    let head = resp.split("\r\n\r\n").next()?;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(name) {
                return Some(v.trim().to_string());
            }
        }
    }
    None
}

fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

/// Look up one sample by name + one label pair.
fn sample(samples: &[psd_obs::PromSample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .unwrap_or_else(|| panic!("no sample {name} with label {label:?}"))
        .value
}

fn teardown(fe: HttpFrontend, server: Arc<PsdServer>) {
    assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
    Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
}

/// Every engine, mid-overload: class 1 is shed at the door while
/// class 0 serves; every observability route answers 200 with a typed
/// body, the Prometheus exposition parses and reflects the shedding,
/// the span ring carries both admitted and shed spans. The uring case
/// self-skips on kernels without io_uring (the frontend would fall
/// back to epoll and the engine-token assertions below would lie).
#[test]
fn observability_routes_scrape_mid_overload() {
    for engine in all_engines() {
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0, 2.0],
            work_unit: Duration::from_micros(100),
            // Keep the monitor out of the way: the published admission
            // table below stays in force for the whole test.
            control_window: Duration::from_secs(3600),
            ..ServerConfig::default()
        }));
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, shards: 2, ..FrontendConfig::default() },
        )
        .expect("bind");
        let addr = fe.addr();
        // Overload posture: admit all of class 0, shed all of class 1.
        server.control().publish(0, &[0.5, 0.5], Some(&[1.0, 0.0]));

        for i in 0..6 {
            let ok = get(addr, "/class0/x");
            assert!(ok.contains("200 OK"), "{engine:?} request {i}: {ok}");
        }
        for i in 0..3 {
            let shed = exchange(addr, "GET /class1/x HTTP/1.1\r\n\r\n");
            assert!(shed.starts_with("HTTP/1.1 503"), "{engine:?} shed {i}: {shed}");
            assert!(shed.contains("X-Shed: 1"), "{engine:?} shed {i}: {shed}");
        }

        // Every admin route answers 200 with an explicit Content-Type.
        for (path, want_type) in [
            ("/metrics", "application/json"),
            ("/metrics/prometheus", "text/plain; version=0.0.4"),
            ("/config", "application/json"),
            ("/healthz", "application/json"),
            ("/trace", "application/json"),
            ("/trace/control", "application/json"),
        ] {
            let resp = get(addr, path);
            assert!(resp.contains("200 OK"), "{engine:?} GET {path}: {resp}");
            let ct = header(&resp, "content-type")
                .unwrap_or_else(|| panic!("{engine:?} GET {path}: no Content-Type\n{resp}"));
            assert_eq!(ct, want_type, "{engine:?} GET {path}");
        }
        // Error responses are typed too.
        let bad = exchange(addr, "DELETE /config HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(bad.contains("405"), "{engine:?}: {bad}");
        assert_eq!(header(&bad, "content-type").as_deref(), Some("application/json"));

        let hz = get(addr, "/healthz");
        let hz_body = body(&hz);
        assert!(hz_body.contains("\"status\":\"ok\""), "{engine:?}: {hz_body}");
        let token = match engine {
            EngineKind::Threads => "\"engine\":\"threads\"",
            EngineKind::Reactor => "\"engine\":\"reactor\"",
            EngineKind::Uring => "\"engine\":\"uring\"",
        };
        assert!(hz_body.contains(token), "{engine:?}: {hz_body}");
        assert!(hz_body.contains("\"classes\":2"), "{engine:?}: {hz_body}");

        // The span ring fills asynchronously with the response write;
        // wait until all 9 spans (6 admitted + 3 shed) landed.
        let deadline = Instant::now() + Duration::from_secs(5);
        let trace = loop {
            let t = get(addr, "/trace?n=100");
            if body(&t).contains("\"recorded\":9") {
                break t;
            }
            assert!(Instant::now() < deadline, "{engine:?}: span ring never reached 9:\n{t}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let trace_body = body(&trace);
        assert!(trace_body.contains("\"admitted\":false"), "{engine:?}: {trace_body}");
        assert!(trace_body.contains("\"admitted\":true"), "{engine:?}: {trace_body}");
        for stage in [
            "\"queue_us\"",
            "\"service_us\"",
            "\"stretch_us\"",
            "\"writeback_us\"",
            "\"decomposition\"",
            "\"slowdown\"",
        ] {
            assert!(trace_body.contains(stage), "{engine:?}: /trace lost {stage}:\n{trace_body}");
        }

        let prom = get(addr, "/metrics/prometheus");
        let samples = psd_obs::parse_prometheus(body(&prom))
            .unwrap_or_else(|e| panic!("{engine:?}: exposition does not parse: {e}\n{prom}"));
        let engine_token = engine.as_str();
        assert_eq!(sample(&samples, "psd_server_info", Some(("engine", engine_token))), 1.0);
        assert_eq!(
            sample(&samples, "psd_requests_completed_total", Some(("class", "0"))),
            6.0,
            "{engine:?}"
        );
        assert_eq!(
            sample(&samples, "psd_requests_shed_total", Some(("class", "1"))),
            3.0,
            "{engine:?}"
        );
        assert_eq!(sample(&samples, "psd_admission_draws_total", None), 9.0, "{engine:?}");
        assert_eq!(sample(&samples, "psd_admission_sheds_total", None), 3.0, "{engine:?}");
        assert!(sample(&samples, "psd_trace_spans_recorded_total", None) >= 9.0, "{engine:?}");
        // Sleep × RatePartition engages the timer wheel on both
        // engines: all six admitted requests crossed it.
        assert!(sample(&samples, "psd_wheel_scheduled_total", None) >= 6.0, "{engine:?}");
        // The latency histogram saw every admitted request.
        assert_eq!(
            sample(&samples, "psd_request_duration_seconds_count", Some(("class", "0"))),
            6.0,
            "{engine:?}"
        );
        let shard_metrics = samples.iter().any(|s| s.name == "psd_reactor_accepts_total");
        let uring_metrics = samples.iter().any(|s| s.name == "psd_uring_enters_total");
        match engine {
            EngineKind::Reactor | EngineKind::Uring => {
                assert!(shard_metrics, "{engine:?} must expose per-shard loop counters");
                let accepts: f64 = samples
                    .iter()
                    .filter(|s| s.name == "psd_reactor_accepts_total")
                    .map(|s| s.value)
                    .sum();
                assert!(accepts >= 9.0, "accepts across shards: {accepts}");
            }
            EngineKind::Threads => {
                assert!(!shard_metrics, "threads engine has no reactor shards");
            }
        }
        match engine {
            EngineKind::Uring => {
                assert!(uring_metrics, "uring engine must expose ring counters");
                let enters: f64 = samples
                    .iter()
                    .filter(|s| s.name == "psd_uring_enters_total")
                    .map(|s| s.value)
                    .sum();
                assert!(enters > 0.0, "uring shards must have entered the ring: {enters}");
                let sqes: f64 = samples
                    .iter()
                    .filter(|s| s.name == "psd_uring_sqes_total")
                    .map(|s| s.value)
                    .sum();
                assert!(sqes > 0.0, "uring shards must have submitted SQEs: {sqes}");
            }
            _ => assert!(!uring_metrics, "{engine:?} must not expose ring counters"),
        }
        // The process-wide I/O-plane syscall meter is always exported
        // (the syscall-count gate diffs it across engines).
        assert!(
            sample(&samples, "psd_reactor_syscalls_total", None) > 0.0,
            "{engine:?}: syscall meter must be live"
        );

        // The flight record parses (empty here: the 3600 s window never
        // elapsed — the live-capture test below covers the filling).
        let ct = get(addr, "/trace/control");
        let traces = psd_obs::parse_traces(body(&ct))
            .unwrap_or_else(|e| panic!("{engine:?}: flight record does not parse: {e}"));
        assert!(traces.is_empty(), "{engine:?}: no control window should have elapsed");

        teardown(fe, server);
    }
}

/// With a short control window the live monitor records one
/// `ControlTrace` per window into the flight recorder, and the dump
/// carries the feedback controller's internals.
#[test]
fn flight_recorder_captures_live_control_windows() {
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0, 2.0],
        work_unit: Duration::from_micros(100),
        control_window: Duration::from_millis(25),
        controller: ControllerKind::Feedback,
        gain: 0.3,
        ..ServerConfig::default()
    }));
    let fe = HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        FrontendConfig { engine: EngineKind::Threads, shards: 1, ..FrontendConfig::default() },
    )
    .expect("bind");
    let addr = fe.addr();

    for _ in 0..10 {
        let ok = get(addr, "/class0/x");
        assert!(ok.contains("200 OK"), "{ok}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let traces = loop {
        let dump = get(addr, "/trace/control");
        let traces = psd_obs::parse_traces(body(&dump)).expect("flight record parses");
        if traces.len() >= 3 {
            break traces;
        }
        assert!(Instant::now() < deadline, "monitor never recorded 3 windows");
        std::thread::sleep(Duration::from_millis(20));
    };
    for pair in traces.windows(2) {
        assert!(
            pair[1].observation.index > pair[0].observation.index,
            "window indices must increase: {} then {}",
            pair[0].observation.index,
            pair[1].observation.index
        );
        assert!(pair[1].at_s >= pair[0].at_s, "control instants must not go back");
    }
    for t in &traces {
        assert_eq!(t.applied_rates.len(), 2, "one applied rate per class");
        assert!(
            t.internals.iter().any(|(name, vals)| name == "integral_terms" && vals.len() == 2),
            "feedback internals must carry the integral terms: {:?}",
            t.internals
        );
    }
    teardown(fe, server);
}
