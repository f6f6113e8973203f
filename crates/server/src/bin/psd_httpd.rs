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
//! `X-Class` header; `?cost=2.5` sets the work amount, and without it a
//! request costs `--default-cost`, the allocator's mean cost E[X].
//! Responses carry `X-Delay-Us` and `X-Slowdown` headers. HTTP/1.1
//! connections are kept alive. Class `i` executes one request at a time
//! at its allocated rate `r_i` (service stretched by `1/r_i`): as a
//! finish deadline, fired in reactor shard 0's own loop where its waits
//! are exact and otherwise (`--engine threads`, say) by one timer
//! thread.
//!
//! `--engine reactor` (default) multiplexes connections over
//! `--shards N` epoll event-loop threads (default: min(cores, 4)),
//! assigned round-robin; `--engine uring` runs the same sharded
//! reactor on an io_uring completion plane (batched submissions,
//! engine-owned slot buffers) and falls back to `reactor` with a
//! warning on kernels without it or older than 5.19; `--engine
//! threads` serves one blocking thread per connection. Past
//! `--max-connections`, new arrivals are answered `503` +
//! `Connection: close` on every engine.
//!
//!   curl 'http://127.0.0.1:8080/class0/hello?cost=2'
//! ```
//!
//! `--controller feedback` closes the control loop on measured
//! per-class slowdowns: `--gain G` is the integral gain of the one PSD
//! controller, `open` runs it at gain 0 whatever `G` is, and feedback
//! at gain 0 is that same open loop (`/trace/control` then carries no
//! `integral_terms`). Either way a class whose rate falls under the
//! floor is pinned at `MIN_RATE` and the rest share the remainder;
//! `--admission-cap C` sheds the lowest classes (`503` + `X-Shed`)
//! once the offered load exceeds `C`. All three engines also serve the
//! admin routes, among them `GET /metrics/prometheus` (the exposition)
//! and `GET|PUT /config` (hot reconfiguration of δ's/gain/cap without
//! restart):
//!
//!   curl 'http://127.0.0.1:8080/metrics/prometheus'
//!   curl -X PUT 'http://127.0.0.1:8080/config?deltas=2,1,4&gain=0.5'
//!
//! With `--duration-s N` the server runs for N seconds and then drains
//! gracefully — stop accepting, finish in-flight requests, join the
//! task servers via `PsdServer::shutdown()` — and prints final per-class
//! statistics. Without it the accept loop runs until Ctrl-C (no drain).

use std::sync::Arc;
use std::time::Duration;

use psd_server::{cli, FrontendConfig, HttpFrontend, PsdServer, ServerConfig};

fn main() {
    let mut addr = "127.0.0.1:8080".to_string();
    // Everything not exposed as a flag comes from the one documented
    // default set (control window, …).
    let mut cfg = ServerConfig {
        deltas: vec![1.0, 2.0, 4.0],
        work_unit: Duration::from_micros(300),
        ..ServerConfig::default()
    };
    let mut front = FrontendConfig::default();
    let mut duration: Option<Duration> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| die("--addr needs a value")),
            // The cost of a request without `?cost=`, which makes it the
            // allocator's E[X] too.
            "--default-cost" => {
                let ok = |&c: &f64| c > 0.0 && c.is_finite();
                cfg.mean_cost = cli::value(&mut args, ok, "--default-cost needs a positive number")
                    .unwrap_or_else(|why| die(&why));
            }
            "--max-connections" => {
                let why = "--max-connections needs a positive integer";
                front.max_connections =
                    cli::value(&mut args, |&n: &usize| n >= 1, why).unwrap_or_else(|why| die(&why));
            }
            // Refused here, before the server binds, when no `Duration`
            // holds it (`inf`, `1e300`).
            "--duration-s" => {
                let secs = args.next().and_then(|v| v.parse().ok()).filter(|&s: &f64| s > 0.0);
                let d = secs.and_then(|s| Duration::try_from_secs_f64(s).ok());
                duration = Some(d.unwrap_or_else(|| die("--duration-s needs a positive number")));
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
            other => match cli::server_flag(other, &mut args, &mut cfg, &mut front) {
                Ok(true) => {}
                Ok(false) => die(&format!("unknown argument: {other}")),
                Err(why) => die(&why),
            },
        }
    }

    let server = Arc::new(PsdServer::start(cfg.clone()));
    let frontend = HttpFrontend::start_with(&addr, Arc::clone(&server), front.clone())
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    eprintln!(
        "psd_httpd listening on {} — {} engine ({} shard(s)), {} classes \
         (deltas {:?}), {} controller{}, rate partition (sleep), \
         {}µs/work-unit, ≤{} connections",
        frontend.addr(),
        front.engine.as_str(),
        front.shards,
        cfg.deltas.len(),
        cfg.deltas,
        cfg.controller.as_str(),
        cfg.admission_cap.map(|c| format!(" (admission cap {c})")).unwrap_or_default(),
        cfg.work_unit.as_micros(),
        front.max_connections,
    );
    eprintln!("try: curl 'http://{}/class0/hello?cost=2'", frontend.addr());

    match duration {
        None => {
            // Run forever: park this thread while the front-end serves.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(d) => {
            std::thread::sleep(d);
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
