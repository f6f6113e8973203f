//! The repo's one benchmark. See `README.md` beside this crate.
//!
//! ```text
//! psd-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! psd-benchmark run [--seed N] [--seconds S] [--trace] [--json FILE]
//! psd-benchmark calibrate --runs N [--seed N] [--seconds S]
//! psd-benchmark sensitivity [--seed N] [--seconds S]
//! psd-benchmark compare A.json B.json
//! ```

mod alloc;
mod inputs;
mod layers;
mod procfs;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::thread;

use report::{end_to_end_readings, result_line, Reading, DEFAULT_SECONDS};
use workloads::{Params, CONNECTIONS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Why each workload exists, in one line (the long form is in the README).
const WHY: [&str; 5] = [
    "open loop, no HTTP: wheel, monitor, Eq. 17 controller, estimator, metrics sink",
    "closed loop, keep-alive, epoll reactor: codec, reactor, mailbox/doorbell, polling",
    "the same traffic on the io_uring copy of the connection state machine",
    "a connection per request on io_uring: accept, adopt, slot alloc/release, async close",
    "fixed simulator work on one thread: desim, dist, core, control, queueing",
];

/// Where a traced run writes its spans, relative to the repository
/// root the benchmark is run from.
const TRACE_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  psd-benchmark --workload W --seed N --seconds S --trace 0|1 [--tight-loops 0|1]
  psd-benchmark run [--seed N] [--seconds S] [--trace] [--json FILE]
  psd-benchmark calibrate --runs N [--seed N] [--seconds S]
  psd-benchmark sensitivity [--seed N] [--seconds S]
  psd-benchmark compare A.json B.json";

/// `--key value` options (a key without a value reads "1") and the
/// positional words around them.
struct Args {
    words: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut args = Self { words: Vec::new(), options: BTreeMap::new() };
        let mut i = 0;
        while i < raw.len() {
            match raw[i].strip_prefix("--") {
                Some(key) => {
                    let value = raw.get(i + 1).filter(|v| !v.starts_with("--"));
                    i += usize::from(value.is_some());
                    args.options.insert(key.to_string(), value.map_or("1".into(), String::clone));
                }
                None => args.words.push(raw[i].clone()),
            }
            i += 1;
        }
        args
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a valid value")),
            None => Ok(default),
        }
    }
}

/// One run of one workload: the form the driver invokes. The suite
/// commands also use it for their `layers` pass.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.options.get("workload").ok_or("missing --workload")?.as_str();
    let why = match WORKLOADS.iter().position(|w| *w == name) {
        Some(idx) => WHY[idx],
        None if name == layers::PASS => "tight loops and start/stop cycles on public functions",
        None => return Err(format!("unknown workload {name}; one of {WORKLOADS:?}")),
    };
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds {seconds}: at least 1"));
    }
    let params = Params {
        seed: args.get("seed", 1)?,
        seconds,
        inject_ns: args.get::<u64>("inject-us", 0)? * 1_000,
        think_max_ns: args.get("think-us", inputs::THINK_MAX_NS / 1_000)? * 1_000,
    };
    let flag = |key: &str, default: u8| match args.get::<u8>(key, default)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--{key} {other}: 0 or 1")),
    };
    let traced = flag("trace", 0)?;
    // A traced run measures the tight loops too, so that it reports
    // every per-layer metric on its own; `run --trace` measures them
    // once per set, in the `layers` pass, and switches them off here.
    let tight_loops = name == layers::PASS || (traced && flag("tight-loops", 1)?);

    println!("workload {name}: {why}");
    let generator = match name {
        "psd-open" => "1 thread submitting both classes' arrivals to the server in-process".into(),
        "sim-sweep" | layers::PASS => "1 thread running fixed work".to_string(),
        _ => format!("1 thread polling {CONNECTIONS} connections over loopback"),
    };
    println!(
        "load generated inside this process by {generator}; {} cores; seed {}; window {} s; {}",
        thread::available_parallelism().map_or(0, usize::from),
        params.seed,
        params.seconds,
        if traced { "traced pass" } else { "untraced" }
    );
    let core = sys::pin_to_one_core().map_err(|e| format!("pinning to one core: {e}"))?;
    println!("every thread of this process runs on core {core}; the generator polls and yields");

    let mut measured: Vec<(&'static str, f64)> = Vec::new();
    let mut outcome = workloads::Outcome::default();
    if tight_loops {
        workloads::settle();
        match layers::tight_loops(params.seed) {
            Ok(loops) => {
                outcome.attempted = loops.len() as u64;
                measured = loops;
            }
            Err(why) => outcome.violations.push(why),
        }
    }
    if name != layers::PASS {
        let mut run = workloads::run(name, &params, traced).expect("name checked above");
        run.violations.append(&mut outcome.violations);
        outcome = run;
    }

    let mut readings: Vec<Reading> = Vec::new();
    if name == layers::PASS {
        readings = layers::LAYER_METRICS
            .iter()
            .filter_map(|&(n, unit)| Some((n, measured.iter().find(|(m, _)| *m == n)?.1, unit)))
            .collect();
    } else if traced {
        measured.append(&mut outcome.layer);
        readings = layers::LAYER_METRICS
            .iter()
            .map(|&(n, unit)| {
                (n, measured.iter().find(|(m, _)| *m == n).map_or(0.0, |(_, v)| *v), unit)
            })
            .collect();
        let text = trace::render_jsonl(name, params.seed, &outcome.tracers, &readings);
        match trace::write_trace(Path::new(TRACE_DIR), name, &text) {
            Ok(()) => println!("spans and counters written to {TRACE_DIR}/trace-{name}.jsonl"),
            Err(e) => outcome.violations.push(format!("writing the trace: {e}")),
        }
    } else if let Some(e) = &outcome.end_to_end {
        println!("steady: {}", e.steady);
        readings = end_to_end_readings(e);
    }
    for (n, v, unit) in &readings {
        println!("{n:<32} {v:>16.4} {unit}");
    }
    if let (false, Some(e)) = (traced, &outcome.end_to_end) {
        let note = "not held end to end: a per-layer metric";
        println!("{:<32} {:>16.4} us  ({note})", "latency_p99_us", e.latency_p99_us);
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0 && !readings.is_empty();
    println!("{}", result_line(correct, outcome.attempted.max(1), outcome.failed, &readings));
    Ok(correct)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    match args.words.first().map(String::as_str) {
        None => single(args),
        Some("run") => {
            let json = args.options.get("json").map(String::as_str);
            suite::run(seed, seconds, args.options.contains_key("trace"), json)
        }
        Some("calibrate") => suite::calibrate(seed, seconds, args.get("runs", 0)?),
        Some("sensitivity") => suite::sensitivity(seed, seconds),
        Some("compare") if args.words.len() == 3 => suite::compare(&args.words[1], &args.words[2]),
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match dispatch(&Args::parse(&raw)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("psd-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_take_a_value_or_read_as_set() {
        let raw: Vec<String> =
            "run --seed 7 --trace --json out/a.json".split(' ').map(String::from).collect();
        let a = Args::parse(&raw);
        assert_eq!(a.words, ["run"]);
        assert_eq!(a.get::<u64>("seed", 1), Ok(7));
        assert_eq!(a.get::<u8>("trace", 0), Ok(1));
        assert_eq!(a.get::<f64>("seconds", 10.0), Ok(10.0));
        assert!(a.get::<u64>("json", 0).is_err());
        let raw: Vec<String> = "--workload sim-sweep --seed 3 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&raw);
        assert!(a.words.is_empty());
        assert_eq!(a.get::<u8>("trace", 1), Ok(0));
    }

    #[test]
    fn every_workload_has_its_reason() {
        assert_eq!(WHY.len(), WORKLOADS.len());
        assert!(WHY.iter().all(|w| w.len() <= 200));
    }
}
