//! The unified control plane, end to end on the live-server side:
//!
//! * feedback-parity: `--controller feedback --gain 0` produces
//!   **byte-identical** rate trajectories to `--controller open` over a
//!   recorded arrival sequence, through the exact factory the server
//!   monitor uses (the live mirror of the desim property test);
//! * the admin route family (`GET /metrics`, `GET`/`PUT /config`) on
//!   every engine (uring self-skipping via the probe), including hot
//!   reconfiguration epochs;
//! * admission shedding over HTTP: `503` + `X-Shed: 1` +
//!   `Connection: close` on every engine, protected classes untouched;
//! * the monitor applies a hot-swapped class table at a window
//!   boundary (`applied_epoch` catches up to `epoch`).

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psd_core::control::{build_controller, ControllerKind, RateController, WindowObservation};
use psd_server::{EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig};

use common::all_engines;

/// A deterministic "recorded arrival sequence": per-window arrivals,
/// offered work and measured slowdowns as a live monitor would sweep
/// them — including an empty window (index 3) and a one-sided window
/// (index 5).
fn recorded_windows() -> Vec<WindowObservation> {
    let shapes: &[(u64, u64, Option<f64>, Option<f64>)] = &[
        (120, 80, Some(1.5), Some(3.2)),
        (200, 40, Some(2.0), Some(4.5)),
        (90, 160, Some(1.1), Some(1.9)),
        (0, 0, None, None),
        (300, 300, Some(4.0), Some(2.0)),
        (50, 0, Some(1.3), None),
        (140, 140, Some(2.2), Some(4.6)),
        (10, 400, Some(0.9), Some(5.0)),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(a0, a1, s0, s1))| {
            let comp = |s: Option<f64>, a: u64| if s.is_some() { a.max(1) / 2 } else { 0 };
            let (c0, c1) = (comp(s0, a0), comp(s1, a1));
            WindowObservation {
                index: i as u64,
                start: i as f64 * 0.05,
                end: (i + 1) as f64 * 0.05,
                arrivals: vec![a0, a1],
                arrived_work: vec![a0 as f64 * 0.0006, a1 as f64 * 0.0006],
                completions: vec![c0, c1],
                shed_work: vec![0.0; 2],
                backlog: vec![a0 / 10, a1 / 10],
                slowdown_sums: vec![
                    s0.map_or(0.0, |s| s * c0 as f64),
                    s1.map_or(0.0, |s| s * c1 as f64),
                ],
            }
        })
        .collect()
}

/// `feedback --gain 0` ≡ `open`, bit for bit, through the same factory
/// the live monitor calls — the end-to-end guard on the g = 0 ⇒ Eq. 17
/// reduction.
#[test]
fn feedback_gain_zero_is_bit_identical_to_open_loop() {
    let deltas = [1.0, 2.0];
    let mean_service = 0.0001;
    let mut open = build_controller(ControllerKind::Open, &deltas, mean_service, 0.0, 5, None);
    let mut fb = build_controller(ControllerKind::Feedback, &deltas, mean_service, 0.0, 5, None);
    let init_open = open.initial_rates(2);
    let init_fb = fb.initial_rates(2);
    assert_eq!(
        init_open.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        init_fb.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        "initial rates must be byte-identical"
    );
    for (i, w) in recorded_windows().iter().enumerate() {
        let d_open = open.control(w.end, w);
        let d_fb = fb.control(w.end, w);
        assert_eq!(d_open.admit_probability, None);
        assert_eq!(d_fb.admit_probability, None);
        let r_open = d_open.rates.expect("open loop re-allocates every window");
        let r_fb = d_fb.rates.expect("feedback re-allocates every window");
        assert_eq!(
            r_open.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            r_fb.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            "window {i}: gain 0 must reduce exactly to Eq. 17 ({r_open:?} vs {r_fb:?})"
        );
    }
}

/// With a real gain the trajectories *must* diverge once slowdown
/// errors accumulate — otherwise the parity test above proves nothing.
#[test]
fn feedback_with_gain_diverges_from_open_loop() {
    let deltas = [1.0, 2.0];
    let mut open = build_controller(ControllerKind::Open, &deltas, 0.0001, 0.0, 5, None);
    let mut fb = build_controller(ControllerKind::Feedback, &deltas, 0.0001, 0.5, 5, None);
    open.initial_rates(2);
    fb.initial_rates(2);
    let mut diverged = false;
    for w in recorded_windows() {
        let r_open = open.control(w.end, &w).rates.unwrap();
        let r_fb = fb.control(w.end, &w).rates.unwrap();
        diverged |= r_open.iter().zip(&r_fb).any(|(a, b)| a.to_bits() != b.to_bits());
    }
    assert!(diverged, "gain 0.5 must actually move the allocation");
}

fn wait_ok(stream: &mut TcpStream, req: &str) -> String {
    stream.write_all(req.as_bytes()).unwrap();
    let mut all = String::new();
    stream.read_to_string(&mut all).unwrap();
    all
}

fn start_frontend(engine: EngineKind, cfg: ServerConfig) -> (HttpFrontend, Arc<PsdServer>) {
    let server = Arc::new(PsdServer::start(cfg));
    let fe = HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        FrontendConfig { engine, shards: 1, ..FrontendConfig::default() },
    )
    .expect("bind");
    (fe, server)
}

fn teardown(fe: HttpFrontend, server: Arc<PsdServer>) {
    assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
    Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
}

/// GET /metrics and GET/PUT /config on every engine: JSON snapshots,
/// validation errors, and the epoch bump of a hot reconfiguration.
#[test]
fn admin_routes_serve_on_both_engines() {
    for engine in all_engines() {
        let (fe, server) = start_frontend(
            engine,
            ServerConfig {
                deltas: vec![1.0, 2.0],
                work_unit: Duration::from_micros(100),
                ..ServerConfig::default()
            },
        );
        let addr = fe.addr();

        // A normal request first, so /metrics has something to show.
        let mut s = TcpStream::connect(addr).unwrap();
        let all = wait_ok(&mut s, "GET /class0/x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(all.contains("200 OK"), "{engine:?}: {all}");

        let mut s = TcpStream::connect(addr).unwrap();
        let metrics = wait_ok(&mut s, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(metrics.contains("200 OK"), "{engine:?}: {metrics}");
        assert!(metrics.contains("application/json"), "{engine:?}: {metrics}");
        for key in ["\"controller\":\"open\"", "\"rates\":", "\"admit_probability\":", "\"shed\":0"]
        {
            assert!(metrics.contains(key), "{engine:?}: /metrics lost {key}:\n{metrics}");
        }

        let mut s = TcpStream::connect(addr).unwrap();
        let config = wait_ok(&mut s, "GET /config HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(config.contains("\"deltas\":[1,2]"), "{engine:?}: {config}");
        assert!(config.contains("\"epoch\":0"), "{engine:?}: {config}");

        // Hot reconfiguration: swap δ's, flip controller, set a cap.
        let mut s = TcpStream::connect(addr).unwrap();
        let put = wait_ok(
            &mut s,
            "PUT /config?deltas=2,1&controller=feedback&gain=0.5&admission-cap=0.9 \
             HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(put.contains("200 OK"), "{engine:?}: {put}");
        assert!(put.contains("\"epoch\":1"), "{engine:?}: {put}");
        assert!(put.contains("\"deltas\":[2,1]"), "{engine:?}: {put}");
        assert!(put.contains("\"controller\":\"feedback\""), "{engine:?}: {put}");
        assert!(put.contains("\"admission_cap\":0.9"), "{engine:?}: {put}");

        // Invalid updates answer 400 and leave the table untouched.
        let mut s = TcpStream::connect(addr).unwrap();
        let bad = wait_ok(&mut s, "PUT /config?deltas=1,2,3 HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(bad.contains("400 Bad Request"), "{engine:?}: {bad}");
        assert!(bad.contains("\"error\""), "{engine:?}: {bad}");
        let mut s = TcpStream::connect(addr).unwrap();
        let after = wait_ok(&mut s, "GET /config HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(after.contains("\"deltas\":[2,1]"), "{engine:?}: {after}");
        assert!(after.contains("\"epoch\":1"), "{engine:?}: rejected update bumped the epoch");

        // Unknown methods on admin routes: 405.
        let mut s = TcpStream::connect(addr).unwrap();
        let del = wait_ok(&mut s, "DELETE /config HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(del.contains("405"), "{engine:?}: {del}");

        teardown(fe, server);
    }
}

/// The monitor picks a bumped epoch up at the next window boundary:
/// `applied_epoch` converges to `epoch`, and the published rates now
/// come from the new table.
#[test]
fn hot_reconfig_applies_at_a_window_boundary() {
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0, 2.0],
        control_window: Duration::from_millis(20),
        work_unit: Duration::from_micros(100),
        ..ServerConfig::default()
    }));
    // Offer some load so the controller has something to allocate on.
    for i in 0..40 {
        server.submit(i % 2, 1.0);
    }
    let epoch = server.control().update(|t| t.deltas = vec![2.0, 1.0]).expect("valid");
    assert_eq!(epoch, 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.control().applied_epoch() != epoch {
        assert!(Instant::now() < deadline, "monitor never applied the new epoch");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rates = server.control().rates();
    assert!((rates.iter().sum::<f64>() - 1.0).abs() < 1e-6, "published rates sum to 1: {rates:?}");
    Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
}

/// Admission shedding over HTTP on every engine: the shed response is
/// exactly `503` + `X-Shed: 1` + `Connection: close`, the protected
/// class is never shed, and the shed counters land in the stats. The
/// admission table is published directly (long control window keeps
/// the monitor out of the way) so the test is deterministic.
#[test]
fn shed_responses_are_503_with_close_on_both_engines() {
    for engine in all_engines() {
        let (fe, server) = start_frontend(
            engine,
            ServerConfig {
                deltas: vec![1.0, 2.0],
                work_unit: Duration::from_micros(100),
                control_window: Duration::from_secs(3600),
                ..ServerConfig::default()
            },
        );
        // Shed every class-1 request, admit all of class 0.
        server.control().publish(0, &[0.5, 0.5], Some(&[1.0, 0.0]));

        let mut s = TcpStream::connect(fe.addr()).unwrap();
        let shed = wait_ok(&mut s, "GET /class1/x HTTP/1.1\r\n\r\n");
        assert!(shed.starts_with("HTTP/1.1 503"), "{engine:?}: {shed}");
        assert!(shed.contains("X-Shed: 1"), "{engine:?}: {shed}");
        assert!(shed.contains("Connection: close"), "{engine:?}: {shed}");

        let mut s = TcpStream::connect(fe.addr()).unwrap();
        let ok = wait_ok(&mut s, "GET /class0/x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(ok.contains("200 OK"), "{engine:?}: protected class must serve: {ok}");
        assert!(!ok.contains("X-Shed"), "{engine:?}: {ok}");

        assert_eq!(server.shed_count(1), 1, "{engine:?}");
        assert_eq!(server.shed_count(0), 0, "{engine:?}");
        let stats = server.stats();
        assert_eq!(stats.classes[1].shed, 1, "{engine:?}");
        teardown(fe, server);
    }
}

/// The feedback controller runs the live monitor end to end: real
/// traffic, real sweeps, rates published every window and everything
/// drains — the smoke behind `--controller feedback`.
#[test]
fn feedback_controller_drives_the_live_monitor() {
    use psd_dist::{Deterministic, ServiceDist};
    use psd_server::driver::{drive, ClassTraffic};

    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0, 2.0],
        controller: ControllerKind::Feedback,
        gain: 0.3,
        work_unit: Duration::from_micros(100),
        control_window: Duration::from_millis(25),
        ..ServerConfig::default()
    }));
    let det = ServiceDist::Deterministic(Deterministic::new(1.0).unwrap());
    let submitted = drive(
        &server,
        &[
            ClassTraffic { rate_per_s: 300.0, cost: det.clone() },
            ClassTraffic { rate_per_s: 300.0, cost: det },
        ],
        Duration::from_millis(500),
        11,
    );
    assert!(submitted.iter().sum::<u64>() > 50);
    let rates = server.control().rates();
    assert!((rates.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{rates:?}");
    let stats = Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
    let done: u64 = stats.classes.iter().map(|c| c.completed).sum();
    assert_eq!(done, submitted.iter().sum::<u64>(), "everything drains under feedback");
}

/// The driver honors admission too: with everything shed, arrivals
/// never enter the system and show up as shed counts instead.
#[test]
fn driver_respects_admission_gate() {
    use psd_dist::{Deterministic, ServiceDist};
    use psd_server::driver::{drive, ClassTraffic};

    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0],
        work_unit: Duration::from_micros(100),
        control_window: Duration::from_secs(3600),
        ..ServerConfig::default()
    }));
    server.control().publish(0, &[1.0], Some(&[0.0]));
    let det = ServiceDist::Deterministic(Deterministic::new(1.0).unwrap());
    let submitted = drive(
        &server,
        &[ClassTraffic { rate_per_s: 500.0, cost: det }],
        Duration::from_millis(200),
        3,
    );
    assert_eq!(submitted[0], 0, "everything shed at the gate");
    let stats = Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
    assert_eq!(stats.classes[0].completed, 0);
    assert!(stats.classes[0].shed > 0, "sheds are visible in the stats");
}
