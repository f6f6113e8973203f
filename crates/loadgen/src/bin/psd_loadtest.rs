//! `psd_loadtest` — run a load scenario against an in-process PSD
//! server and report slowdown differentiation end to end.
//!
//! ```text
//! psd_loadtest [--scenario steady] [--duration 10s] [--warmup 3s]
//!              [--connections 64] [--rate R] [--deltas 1,2]
//!              [--engine threads|reactor|uring] [--shards N]
//!              [--controller open|feedback] [--gain G]
//!              [--admission-cap C] [--work-unit-us U] [--seed N]
//!              [--trace-sample P] [--obs-scrape DIR]
//!              [--json PATH] [--check MAX_DEV] [--list]
//!
//!   --scenario     steady | burst | flashcrowd | stepload |
//!                  classmix-shift | closed | overload | reconfig
//!                  (default: steady)
//!   --duration     total run length, e.g. 10s / 1500ms (incl. warmup)
//!   --warmup       leading window excluded from statistics
//!   --connections  connection pool size (open) / sessions (closed)
//!   --rate         override the scenario's aggregate arrival rate
//!   --deltas       comma-separated differentiation parameters
//!   --engine       HTTP front-end engine under test: threads
//!                  (one thread per connection, the baseline),
//!                  reactor (epoll event loop), or uring (io_uring
//!                  completion plane; falls back to reactor when the
//!                  kernel refuses io_uring)     (default: threads)
//!   --shards       reactor event-loop shard count
//!                  (default: min(cores, 4); threads engine ignores)
//!   --controller   how the PSD controller drives the monitor: open
//!                  (Eq. 17, gain 0) or feedback (its slowdown integral
//!                  loop engaged); feedback at gain 0 is open
//!   --gain         feedback integral gain (default 0.3)
//!   --admission-cap
//!                  target admitted utilization in (0,1): sheds the
//!                  lowest classes (503 + X-Shed) once the offered
//!                  load exceeds it (default: no admission control)
//!   --work-unit-us wall-clock µs per work unit — scales the machine
//!                  rate, e.g. 300 doubles capacity vs the stock 600
//!   --control-window-ms
//!                  allocator monitor window (default 500; short runs
//!                  at high rates converge faster with ~150)
//!   --seed         schedule + cost-draw seed
//!   --trace-sample request-trace sampling probability in [0,1]
//!                  (default 1.0; 0 disables the span ring — the CI
//!                  observability smoke's baseline)
//!   --obs-scrape DIR
//!                  scrape /metrics/prometheus, /healthz, /trace and
//!                  /trace/control at half-run (while traffic is
//!                  offered), validate them with the psd-obs parsers,
//!                  and write the bodies under DIR
//!   --json PATH    also write the JSON report to PATH
//!   --check D      exit non-zero on errors or slowdown-ratio
//!                  deviation > D (e.g. 0.5 for 50%)
//!   --list         print the scenario catalog and exit
//! ```

use std::time::Duration;

use psd_loadgen::scenario::ArrivalSpec;
use psd_loadgen::{harness, LoadMode, Scenario};
use psd_server::{ControllerKind, EngineKind};

fn main() {
    let mut name = "steady".to_string();
    let mut duration: Option<Duration> = None;
    let mut warmup: Option<Duration> = None;
    let mut connections: Option<usize> = None;
    let mut rate: Option<f64> = None;
    let mut deltas: Option<Vec<f64>> = None;
    let mut engine: Option<EngineKind> = None;
    let mut shards: Option<usize> = None;
    let mut controller: Option<ControllerKind> = None;
    let mut gain: Option<f64> = None;
    let mut admission_cap: Option<f64> = None;
    let mut work_unit_us: Option<u64> = None;
    let mut control_window_ms: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut trace_sample: Option<f64> = None;
    let mut obs_scrape: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut check: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => name = args.next().unwrap_or_else(|| die("--scenario needs a name")),
            "--duration" => {
                duration = Some(parse_duration(
                    &args.next().unwrap_or_else(|| die("--duration needs a value")),
                ));
            }
            "--warmup" => {
                warmup = Some(parse_duration(
                    &args.next().unwrap_or_else(|| die("--warmup needs a value")),
                ));
            }
            "--connections" => {
                connections = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--connections needs a positive integer")),
                );
            }
            "--rate" => {
                rate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r: &f64| r > 0.0)
                        .unwrap_or_else(|| die("--rate needs a positive number")),
                );
            }
            "--deltas" => {
                let v = args.next().unwrap_or_else(|| die("--deltas needs a list"));
                let parsed: Vec<f64> = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("bad delta")))
                    .collect();
                if parsed.is_empty() || parsed.iter().any(|&d| d <= 0.0) {
                    die("deltas must be positive");
                }
                deltas = Some(parsed);
            }
            "--engine" => {
                engine = Some(
                    args.next()
                        .as_deref()
                        .and_then(EngineKind::parse)
                        .unwrap_or_else(|| die("--engine needs 'threads', 'reactor' or 'uring'")),
                );
            }
            "--shards" => {
                shards = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--shards needs a positive integer")),
                );
            }
            "--controller" => {
                controller = Some(
                    args.next()
                        .as_deref()
                        .and_then(ControllerKind::parse)
                        .unwrap_or_else(|| die("--controller needs 'open' or 'feedback'")),
                );
            }
            "--gain" => {
                gain = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&g: &f64| g >= 0.0 && g.is_finite())
                        .unwrap_or_else(|| die("--gain needs a number >= 0")),
                );
            }
            "--admission-cap" => {
                admission_cap = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&c: &f64| c > 0.0 && c < 1.0)
                        .unwrap_or_else(|| die("--admission-cap needs a value in (0,1)")),
                );
            }
            "--work-unit-us" => {
                work_unit_us = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--work-unit-us needs a positive integer")),
                );
            }
            "--control-window-ms" => {
                control_window_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--control-window-ms needs a positive integer")),
                );
            }
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer")),
                );
            }
            "--trace-sample" => {
                trace_sample = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&p: &f64| (0.0..=1.0).contains(&p))
                        .unwrap_or_else(|| die("--trace-sample needs a probability in [0,1]")),
                );
            }
            "--obs-scrape" => {
                obs_scrape = Some(args.next().unwrap_or_else(|| die("--obs-scrape needs a dir")));
            }
            "--json" => json_path = Some(args.next().unwrap_or_else(|| die("--json needs a path"))),
            "--check" => {
                check = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&d: &f64| d > 0.0)
                        .unwrap_or_else(|| die("--check needs a positive deviation bound")),
                );
            }
            "--list" => {
                for n in Scenario::catalog() {
                    println!("{n}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: psd_loadtest [--scenario NAME] [--duration 10s] [--warmup 3s] \
                     [--connections N] [--rate R] [--deltas 1,2] \
                     [--engine threads|reactor|uring] [--shards N] \
                     [--controller open|feedback] [--gain G] [--admission-cap C] \
                     [--work-unit-us U] [--control-window-ms M] [--seed N] \
                     [--trace-sample P] [--obs-scrape DIR] \
                     [--json PATH] [--check D] [--list]"
                );
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let mut scenario = Scenario::by_name(&name)
        .unwrap_or_else(|| die(&format!("unknown scenario '{name}' (try --list)")));
    if let Some(d) = duration {
        scenario.duration = d;
    }
    if let Some(w) = warmup {
        scenario.warmup = w;
    } else if scenario.warmup >= scenario.duration {
        // A short custom duration keeps a proportional warmup.
        scenario.warmup = scenario.duration / 4;
    }
    if let Some(c) = connections {
        scenario.connections = c;
        if let LoadMode::Closed { sessions, .. } = &mut scenario.mode {
            *sessions = c;
        }
    }
    if let Some(r) = rate {
        match &mut scenario.mode {
            // Scale every segment so the long-run aggregate equals the
            // requested rate, preserving the scenario's shape.
            LoadMode::Open { arrival } => {
                let scale = r / arrival.mean_rate(scenario.duration).max(1e-9);
                match arrival {
                    ArrivalSpec::Steady { rate } => *rate *= scale,
                    ArrivalSpec::Burst { mean_rate, .. } => *mean_rate *= scale,
                    ArrivalSpec::FlashCrowd { base_rate, peak_rate, .. } => {
                        *base_rate *= scale;
                        *peak_rate *= scale;
                    }
                    ArrivalSpec::Step { rate_before, rate_after, .. } => {
                        *rate_before *= scale;
                        *rate_after *= scale;
                    }
                }
            }
            LoadMode::Closed { .. } => die("--rate applies to open-loop scenarios"),
        }
    }
    if let Some(d) = deltas {
        if d.len() != scenario.deltas.len() {
            // Rebuild the mix so lengths stay consistent. The stock
            // mix-shift weights are meaningless for a different class
            // count, so the shift is disabled rather than faked.
            let template = scenario.mix[0].clone();
            scenario.mix = d.iter().map(|_| template.clone()).collect();
            if scenario.mix_shift.take().is_some() {
                eprintln!(
                    "psd_loadtest: note — custom --deltas class count disables the \
                     scenario's mix shift"
                );
            }
        }
        scenario.deltas = d;
    }
    if let Some(e) = engine {
        scenario.server.engine = e;
    }
    if let Some(n) = shards {
        scenario.server.shards = n;
    }
    if let Some(c) = controller {
        scenario.server.controller = c;
    }
    if let Some(g) = gain {
        scenario.server.gain = g;
    }
    if let Some(cap) = admission_cap {
        scenario.server.admission_cap = Some(cap);
    }
    if let Some(u) = work_unit_us {
        scenario.server.work_unit = Duration::from_micros(u);
    }
    if let Some(ms) = control_window_ms {
        scenario.server.control_window = Duration::from_millis(ms);
    }
    if let Some(s) = seed {
        scenario.seed = s;
    }
    if let Some(p) = trace_sample {
        scenario.server.trace_sample = p;
    }
    scenario.validate();

    eprintln!(
        "psd_loadtest: scenario '{}' for {:?} ({} connections, {} engine, {} shard(s), \
         {} controller{})…",
        scenario.name,
        scenario.duration,
        scenario.connections,
        scenario.server.engine.as_str(),
        scenario.server.shards,
        scenario.server.controller.as_str(),
        scenario.server.admission_cap.map(|c| format!(", admission cap {c}")).unwrap_or_default()
    );
    let out = match &obs_scrape {
        None => harness::run_scenario(&scenario)
            .unwrap_or_else(|e| die(&format!("scenario run failed: {e}"))),
        Some(dir) => {
            let (out, scrape) = harness::run_scenario_scraped(&scenario, 0.5)
                .unwrap_or_else(|e| die(&format!("scenario run failed: {e}")));
            write_scrape(dir, &scrape);
            out
        }
    };
    let report = &out.report;

    println!("{}", report.to_markdown());
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("psd_loadtest: JSON report written to {path}");
    }
    if let Some(max_dev) = check {
        if let Err(why) = report.check(max_dev) {
            eprintln!("psd_loadtest: CHECK FAILED — {why}");
            std::process::exit(1);
        }
        eprintln!("psd_loadtest: check passed (max deviation {:.0}%)", max_dev * 100.0);
    }
}

/// Validate the mid-run scrape with the psd-obs parsers and write the
/// bodies under `dir` (created if absent).
fn write_scrape(dir: &str, scrape: &psd_loadgen::harness::ObsScrape) {
    let samples = psd_obs::parse_prometheus(&scrape.prometheus)
        .unwrap_or_else(|e| die(&format!("mid-run /metrics/prometheus does not parse: {e}")));
    let traces = psd_obs::parse_traces(&scrape.control_trace)
        .unwrap_or_else(|e| die(&format!("mid-run /trace/control does not parse: {e}")));
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
    let files = [
        ("prometheus.txt", &scrape.prometheus),
        ("healthz.json", &scrape.healthz),
        ("trace.json", &scrape.trace),
        ("control_trace.json", &scrape.control_trace),
    ];
    for (name, body) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, body).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
    eprintln!(
        "psd_loadtest: mid-run scrape OK — {} Prometheus samples, {} control trace(s) → {dir}/",
        samples.len(),
        traces.len()
    );
}

/// Parse `10s`, `1500ms`, or a bare number of seconds.
fn parse_duration(s: &str) -> Duration {
    let (num, unit) = match s.strip_suffix("ms") {
        Some(n) => (n, 1e-3),
        None => match s.strip_suffix('s') {
            Some(n) => (n, 1.0),
            None => (s, 1.0),
        },
    };
    let v: f64 = num.parse().unwrap_or_else(|_| die(&format!("bad duration '{s}'")));
    if v <= 0.0 {
        die(&format!("duration must be positive, got '{s}'"));
    }
    Duration::from_secs_f64(v * unit)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
