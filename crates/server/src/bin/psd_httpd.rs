//! `psd_httpd` — a runnable PSD-scheduled HTTP-lite server: one
//! rate-partitioned task server per class (paper Fig. 1) behind a
//! selectable front-end engine.
//!
//! ```text
//! psd_httpd [--addr 127.0.0.1:8080] [--deltas 1,2,4]
//!           [--work-unit-us 300] [--default-cost 1.0]
//!           [--engine threads|reactor|uring] [--shards N]
//!           [--controller open|feedback] [--gain G] [--admission-cap C]
//!           [--max-connections 1024] [--duration-s N]
//!
//! Requests are classified by URL (`/class0/...`, `/premium/...`) or an
//! `X-Class` header; `?cost=2.5` sets the work amount. Responses carry
//! `X-Delay-Us` and `X-Slowdown` headers. HTTP/1.1 connections are
//! kept alive. Class `i` executes one request at a time at its
//! allocated rate `r_i` (service stretched by `1/r_i`): as a finish
//! deadline, fired in reactor shard 0's own loop where its waits are
//! exact and otherwise (`--engine threads`, say) by one timer thread.
//!
//! `--engine threads` (default) serves one blocking thread per
//! connection; `--engine reactor` multiplexes connections over
//! `--shards N` epoll event-loop threads (default: min(cores, 4)),
//! assigned round-robin; `--engine uring` runs the same sharded
//! reactor on an io_uring completion plane (batched submissions,
//! registered buffers) and falls back to `reactor` with a warning on
//! kernels without io_uring. Past `--max-connections`, new arrivals
//! are answered `503` + `Connection: close` on every engine.
//!
//!   curl 'http://127.0.0.1:8080/class0/hello?cost=2'
//! ```
//!
//! `--controller feedback` closes the control loop on measured
//! per-class slowdowns: `--gain G` is the integral gain of the one PSD
//! controller, `open` runs it at gain 0 whatever `G` is, and feedback
//! at gain 0 is that same open loop (`/trace/control` then carries no
//! `integral_terms`). Either way a class whose rate falls under the
//! floor is pinned at `min_rate` and the rest share the remainder;
//! `--admission-cap C` sheds the lowest classes (`503` + `X-Shed`)
//! once the offered load exceeds `C`. Both engines also serve the
//! admin routes: `GET /metrics` (JSON snapshot) and `GET|PUT /config`
//! (hot reconfiguration of δ's/gain/cap without restart):
//!
//!   curl 'http://127.0.0.1:8080/metrics'
//!   curl -X PUT 'http://127.0.0.1:8080/config?deltas=2,1,4&gain=0.5'
//!
//! With `--duration-s N` the server runs for N seconds and then drains
//! gracefully — stop accepting, finish in-flight requests, join the
//! task servers via `PsdServer::shutdown()` — and prints final per-class
//! statistics. Without it the accept loop runs until Ctrl-C (no drain).

use std::sync::Arc;
use std::time::Duration;

use psd_server::{
    ControllerKind, EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig,
};

fn main() {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut deltas = vec![1.0, 2.0, 4.0];
    let mut work_unit_us = 300u64;
    let mut default_cost = 1.0f64;
    let mut engine = EngineKind::Threads;
    let mut shards = psd_server::default_shards();
    let mut controller = ControllerKind::Open;
    let mut gain = 0.3f64;
    let mut admission_cap: Option<f64> = None;
    let mut max_connections = FrontendConfig::default().max_connections;
    let mut duration_s: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| die("--addr needs a value")),
            "--deltas" => {
                let v = args.next().unwrap_or_else(|| die("--deltas needs a list"));
                deltas = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("bad delta")))
                    .collect();
                if deltas.iter().any(|&d: &f64| d <= 0.0 || !d.is_finite()) {
                    die("deltas must be positive and finite");
                }
            }
            "--work-unit-us" => {
                work_unit_us = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n >= 1)
                    .unwrap_or_else(|| die("--work-unit-us needs a positive integer"));
            }
            "--default-cost" => {
                default_cost = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&c: &f64| c > 0.0 && c.is_finite())
                    .unwrap_or_else(|| die("--default-cost needs a positive number"));
            }
            "--engine" => {
                engine = args
                    .next()
                    .as_deref()
                    .and_then(EngineKind::parse)
                    .unwrap_or_else(|| die("--engine needs 'threads', 'reactor' or 'uring'"));
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| die("--shards needs a positive integer"));
            }
            "--controller" => {
                controller = args
                    .next()
                    .as_deref()
                    .and_then(ControllerKind::parse)
                    .unwrap_or_else(|| die("--controller needs 'open' or 'feedback'"));
            }
            "--gain" => {
                gain = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&g: &f64| g >= 0.0 && g.is_finite())
                    .unwrap_or_else(|| die("--gain needs a number >= 0"));
            }
            "--admission-cap" => {
                admission_cap = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&c: &f64| c > 0.0 && c < 1.0)
                        .unwrap_or_else(|| die("--admission-cap needs a value in (0,1)")),
                );
            }
            "--max-connections" => {
                max_connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| die("--max-connections needs a positive integer"));
            }
            "--duration-s" => {
                duration_s = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&d: &f64| d > 0.0)
                        .unwrap_or_else(|| die("--duration-s needs a positive number")),
                );
            }
            // Exit 0 if this kernel serves io_uring, 1 otherwise — for
            // scripts/CI to gate uring-engine runs without grepping
            // fallback warnings off stderr.
            "--probe-uring" => {
                if psd_server::uring_available() {
                    println!("io_uring: available");
                    return;
                }
                die("io_uring: unavailable on this kernel");
            }
            "--help" | "-h" => {
                println!(
                    "usage: psd_httpd [--addr A] [--deltas 1,2,4] \
                     [--work-unit-us U] [--default-cost C] \
                     [--engine threads|reactor|uring] [--shards N] \
                     [--controller open|feedback] [--gain G] [--admission-cap C] \
                     [--max-connections N] [--duration-s N] [--probe-uring]"
                );
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    // Everything not exposed as a flag comes from the one documented
    // default set (control window, estimator history, …).
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: deltas.clone(),
        mean_cost: default_cost,
        work_unit: Duration::from_micros(work_unit_us),
        controller,
        gain,
        admission_cap,
        ..ServerConfig::default()
    }));

    let frontend = HttpFrontend::start_with(
        &addr,
        Arc::clone(&server),
        FrontendConfig {
            engine,
            shards,
            max_connections,
            default_cost,
            ..FrontendConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    eprintln!(
        "psd_httpd listening on {} — {} engine ({shards} shard(s)), {} classes \
         (deltas {deltas:?}), {} controller{}, rate partition (sleep), \
         {work_unit_us}µs/work-unit, ≤{max_connections} connections",
        frontend.addr(),
        engine.as_str(),
        deltas.len(),
        controller.as_str(),
        admission_cap.map(|c| format!(" (admission cap {c})")).unwrap_or_default(),
    );
    eprintln!("try: curl 'http://{}/class0/hello?cost=2'", frontend.addr());

    match duration_s {
        None => {
            // Run forever: park this thread while the front-end serves.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            eprintln!("psd_httpd: draining…");
            let leftover = frontend
                .shutdown(Duration::from_secs(10))
                .unwrap_or_else(|e| die(&format!("drain failed: {e}")));
            if leftover > 0 {
                // Undrained connections still hold the server; final
                // stats are unavailable, so report and exit instead of
                // tripping over the Arc.
                eprintln!("psd_httpd: {leftover} connection(s) did not drain in time");
                std::process::exit(1);
            }
            let stats = Arc::try_unwrap(server)
                .unwrap_or_else(|_| die("connection handlers still hold the server"))
                .shutdown();
            for (c, s) in stats.classes.iter().enumerate() {
                eprintln!(
                    "class {c}: completed={} mean_delay={:.6}s mean_slowdown={:.3}",
                    s.completed, s.mean_delay, s.mean_slowdown
                );
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
