//! `psd_loadtest` — run a load scenario against an in-process PSD
//! server and report slowdown differentiation end to end.
//!
//! ```text
//! psd_loadtest [--scenario steady] [--duration 10s] [--warmup 3s]
//!              [--connections 64] [--rate R] [--deltas 1,2]
//!              [--engine threads|reactor|uring] [--shards N]
//!              [--controller open|feedback] [--gain G]
//!              [--admission-cap C] [--work-unit-us U]
//!              [--control-window-ms M] [--seed N]
//!              [--obs-scrape DIR] [--json PATH] [--check MAX_DEV]
//!              [--list]
//!
//!   --scenario     steady | burst | flashcrowd | stepload |
//!                  classmix-shift | closed | overload | reconfig
//!                  (default: steady)
//!   --duration     total run length, e.g. 10s / 1500ms (incl. warmup)
//!   --warmup       leading window excluded from statistics
//!   --connections  connection pool size (open) / sessions (closed)
//!   --rate         override the scenario's aggregate arrival rate
//!   --deltas       comma-separated differentiation parameters
//!   --engine       HTTP front-end engine under test: reactor
//!                  (epoll event loop), uring (io_uring completion
//!                  plane; falls back to reactor when the kernel
//!                  refuses io_uring), or threads (one thread per
//!                  connection, the wire-parity baseline)
//!                  (default: reactor)
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
//!
//! A flag or value the scenario cannot run with (a non-finite duration,
//! rate or delta, a warm-up as long as the run, …) exits 2 with an
//! `error:` line before any server starts.

use std::time::Duration;

use psd_loadgen::scenario::{self, ArrivalSpec};
use psd_loadgen::{harness, LoadMode, Scenario};
use psd_server::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The named scenario comes first, wherever `--scenario` stands:
    // every other flag writes into it.
    let name = args.windows(2).rev().find(|w| w[0] == "--scenario").map_or("steady", |w| &w[1]);
    let mut scenario = Scenario::by_name(name)
        .unwrap_or_else(|| die(&format!("unknown scenario '{name}' (try --list)")));
    let mut warmup_given = false;
    let mut obs_scrape: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut check: Option<f64> = None;

    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            // Looked up above; only its value is skipped here.
            "--scenario" => {
                args.next().unwrap_or_else(|| die("--scenario needs a name"));
            }
            "--duration" => {
                scenario.duration =
                    parse_duration(&args.next().unwrap_or_else(|| die("--duration needs a value")));
            }
            "--warmup" => {
                scenario.warmup =
                    parse_duration(&args.next().unwrap_or_else(|| die("--warmup needs a value")));
                warmup_given = true;
            }
            "--connections" => {
                let why = "--connections needs a positive integer";
                let c = cli::value(&mut args, |&n| n >= 1, why).unwrap_or_else(|why| die(&why));
                scenario.connections = c;
                if let LoadMode::Closed { sessions, .. } = &mut scenario.mode {
                    *sessions = c;
                }
            }
            "--rate" => {
                let ok = |&r: &f64| r.is_finite() && r > 0.0;
                let why = "--rate needs a positive finite number";
                let r = cli::value(&mut args, ok, why).unwrap_or_else(|why| die(&why));
                let LoadMode::Open { arrival } = &mut scenario.mode else {
                    die("--rate applies to open-loop scenarios")
                };
                // Scale every segment so the long-run aggregate equals
                // the requested rate, preserving the scenario's shape.
                let scale = r / arrival.mean_rate().max(1e-9);
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
            "--control-window-ms" => {
                let why = "--control-window-ms needs a positive integer";
                let ms = cli::value(&mut args, |&n| n >= 1, why).unwrap_or_else(|why| die(&why));
                scenario.server.control_window = Duration::from_millis(ms);
            }
            "--seed" => {
                scenario.seed = cli::value(&mut args, |_| true, "--seed needs an integer")
                    .unwrap_or_else(|why| die(&why));
            }
            "--obs-scrape" => {
                obs_scrape = Some(args.next().unwrap_or_else(|| die("--obs-scrape needs a dir")));
            }
            "--json" => json_path = Some(args.next().unwrap_or_else(|| die("--json needs a path"))),
            "--check" => {
                let why = "--check needs a positive deviation bound";
                check =
                    Some(cli::value(&mut args, |&d| d > 0.0, why).unwrap_or_else(|why| die(&why)));
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
                     [--obs-scrape DIR] [--json PATH] [--check D] [--list]"
                );
                return;
            }
            other => match cli::server_flag(
                other,
                &mut args,
                &mut scenario.server,
                &mut scenario.frontend,
            ) {
                Ok(true) => {}
                Ok(false) => die(&format!("unknown argument: {other}")),
                Err(why) => die(&why),
            },
        }
    }

    if !warmup_given && scenario.warmup >= scenario.duration {
        // A short custom duration keeps a proportional warmup.
        scenario.warmup = scenario.duration / 4;
    }
    if scenario.mix.len() != scenario.server.deltas.len() {
        // `--deltas` changed the class count: rebuild the mix so lengths
        // stay consistent. The stock mix-shift weights are meaningless
        // for a different class count, so the shift is disabled rather
        // than faked.
        let template = scenario.mix[0].clone();
        scenario.mix = scenario.server.deltas.iter().map(|_| template.clone()).collect();
        scenario.server.mean_cost = scenario::mean_cost(&scenario.mix);
        if scenario.mix_shift.take().is_some() {
            eprintln!(
                "psd_loadtest: note — custom --deltas class count disables the \
                 scenario's mix shift"
            );
        }
    }
    if let Err(why) = scenario.validate() {
        die(&why);
    }

    eprintln!(
        "psd_loadtest: scenario '{}' for {:?} ({} connections, {} engine, {} shard(s), \
         {} controller{})…",
        scenario.name,
        scenario.duration,
        scenario.connections,
        scenario.frontend.engine.as_str(),
        scenario.frontend.shards,
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
    match Duration::try_from_secs_f64(v * unit) {
        Ok(d) if !d.is_zero() => d,
        _ => die(&format!("duration must be positive and finite, got '{s}'")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
