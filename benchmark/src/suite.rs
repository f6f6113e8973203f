//! The commands that run more than one workload: `run`, `calibrate`,
//! `sensitivity` and `compare`. Every workload runs in a fresh child
//! process (this same executable), so no run inherits another's heap,
//! threads or sleep-overshoot calibration.

use std::collections::BTreeMap;
use std::env;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use psd_obs::json::push_json_str;
use psd_obs::JsonValue;

use crate::report::{
    parse_result, parse_result_line, result_line, worse_beyond, MetricSpec, RunResult, END_TO_END,
    UNRESOLVED,
};
use crate::stats::{iqr_spread, max_dev_spread, median};
use crate::workloads::WORKLOADS;

/// The widest bound the benchmark's contract accepts; a pair that needs
/// more is no end-to-end measurement on this machine. (The issue asked
/// for 0.15. A result must carry every end-to-end metric on every
/// workload, so a single time-valued pair cannot be dropped, and
/// identical `sim-sweep` work alone runs 5.2-7.0 M completions/s from
/// one run to the next on the reference VM; see the README.)
const MAX_BOUND: f64 = 0.25;

/// `sensitivity`: the delay injected client-side, and the band the
/// median latency must rise by.
const INJECT_US: u64 = 20;
const RISE_BAND_US: (f64, f64) = (10.0, 30.0);

/// Run one workload in a child process and read its result line. The
/// child's other output is passed through, indented.
pub fn child(workload: &str, seed: u64, seconds: f64, extra: &[&str]) -> Result<RunResult, String> {
    let exe = env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    for l in lines {
        println!("  | {l}");
    }
    let result = parse_result_line(last).map_err(|e| format!("{workload}: {e}: {last}"))?;
    if result.correct != output.status.success() {
        return Err(format!("{workload}: exit {} contradicts the result line", output.status));
    }
    Ok(result)
}

/// One set: every workload once, in the fixed order. A traced set
/// leaves the tight loops to the `layers` pass.
fn run_set(seed: u64, seconds: f64, traced: bool) -> Result<Vec<(String, RunResult)>, String> {
    let extra: &[&str] =
        if traced { &["--trace", "1", "--tight-loops", "0"] } else { &["--trace", "0"] };
    let mut set = Vec::new();
    for w in WORKLOADS {
        println!("{w} (seed {seed}, {seconds} s, {extra:?})");
        set.push((w.to_string(), child(w, seed, seconds, extra)?));
    }
    Ok(set)
}

fn print_table(set: &[(String, RunResult)]) {
    let Some((_, first)) = set.first() else { return };
    print!("{:<24}", "workload");
    for (name, _, unit) in &first.metrics {
        print!(" {:>22}", format!("{name} [{unit}]"));
    }
    println!(" {:>10} {:>7}", "attempted", "failed");
    for (w, r) in set {
        print!("{w:<24}");
        for (_, v, _) in &r.metrics {
            print!(" {v:>22.4}");
        }
        println!(" {:>10} {:>7}", r.attempted, r.failed);
    }
}

fn set_to_json_lines(set: &[(String, RunResult)]) -> String {
    let mut out = String::new();
    for (w, r) in set {
        out.push_str("{\"workload\":");
        push_json_str(&mut out, w);
        let metrics: Vec<_> =
            r.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())).collect();
        let _ = writeln!(
            out,
            ",\"result\":{}}}",
            result_line(r.correct, r.attempted, r.failed, &metrics)
        );
    }
    out
}

fn parse_set(text: &str) -> Result<Vec<(String, RunResult)>, String> {
    text.lines()
        .map(|line| {
            let doc = JsonValue::parse(line)?;
            let w = doc.get("workload").and_then(JsonValue::as_str).ok_or("no workload")?;
            Ok((w.to_string(), parse_result(doc.get("result").ok_or("no result")?)?))
        })
        .collect()
}

fn all_correct(set: &[(String, RunResult)]) -> bool {
    set.iter().all(|(_, r)| r.correct)
}

/// `run`: every workload once (and once more traced with `--trace`),
/// every metric printed by name with its unit.
pub fn run(seed: u64, seconds: f64, traced: bool, json: Option<&str>) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let set = run_set(seed, seconds, false)?;
    println!("\nend-to-end (seed {seed}):");
    print_table(&set);
    let mut ok = all_correct(&set);
    if let Some(path) = json {
        if let Some(dir) = Path::new(path).parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
        fs::write(path, set_to_json_lines(&set)).map_err(|e| format!("{path}: {e}"))?;
    }
    if traced {
        let in_situ = run_set(seed, seconds, true)?;
        println!("{} (seed {seed})", crate::layers::PASS);
        let loops = child(crate::layers::PASS, seed, seconds, &[])?;
        println!(
            "\nper-layer, in situ (seed {seed}; 0 = the workload does not exercise that layer):"
        );
        print!("{:<32}", "");
        for w in WORKLOADS {
            print!(" {:>14}", w.trim_start_matches("http-"));
        }
        println!();
        for (i, (name, _, unit)) in in_situ[0].1.metrics.iter().enumerate() {
            if loops.value(name).is_some() {
                continue;
            }
            print!("{:<32}", format!("{name} [{unit}]"));
            for (_, r) in &in_situ {
                print!(" {:>14.4}", r.metrics[i].1);
            }
            println!();
        }
        println!("\nper-layer, tight loops on public functions (the `layers` pass):");
        for (name, v, unit) in &loops.metrics {
            println!("{:<32} {v:>14.4}", format!("{name} [{unit}]"));
        }
        ok &= all_correct(&in_situ) && loops.correct;
    }
    println!("\nwall time of this set: {:.0} s", started.elapsed().as_secs_f64());
    Ok(ok)
}

/// What `calibrate` concludes about one (metric, workload) pair.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Twice the spread is inside the bound.
    Holds,
    /// The bound is too tight; twice the spread is still an acceptable
    /// bound.
    Widen(f64),
    /// Even twice the spread is no acceptable bound: the pair cannot be
    /// held end to end and belongs in the layer table.
    Drop,
}

/// Judge a pair's spread (`max |x - median| / median`) against its
/// bound. Two runs of the same code can sit on opposite sides of the
/// median, so they differ by up to twice the spread — and two runs are
/// what `compare` and `selfcheck.sh` judge. A pair therefore holds when
/// twice its spread is within its bound: then a `Holds` on every pair
/// means two sets agree.
pub fn verdict(spread: f64, bound: f64) -> Verdict {
    if 2.0 * spread <= bound {
        Verdict::Holds
    } else if 2.0 * spread <= MAX_BOUND {
        Verdict::Widen(2.0 * spread)
    } else {
        Verdict::Drop
    }
}

/// `calibrate`: N sets on N consecutive seeds, then each pair's spread
/// against the bounds table.
pub fn calibrate(seed: u64, seconds: f64, runs: u64) -> Result<bool, String> {
    if runs < 5 {
        return Err("calibrate needs --runs of at least 5".into());
    }
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        for (w, (_, r)) in run_set(seed + i, seconds, false)?.iter().enumerate() {
            if !r.correct {
                return Err(format!("{} failed its checks on seed {}", WORKLOADS[w], seed + i));
            }
            for (m, spec) in END_TO_END.iter().enumerate() {
                let v = r.value(spec.name).ok_or_else(|| format!("{} missing", spec.name))?;
                values.entry((m, w)).or_default().push(v);
            }
        }
    }
    println!(
        "\n{:<16} {:<22} {:>12} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "median", "max-dev", "iqr", "bound"
    );
    let mut holds = true;
    for ((m, w), v) in &values {
        let spec = END_TO_END[*m];
        // The inter-quartile spread is printed beside the judged one.
        let (dev, iqr) = (max_dev_spread(v), iqr_spread(v));
        let verdict = verdict(dev, spec.bound);
        let unresolved = UNRESOLVED.contains(&(spec.name, WORKLOADS[*w]));
        holds &= verdict == Verdict::Holds || unresolved;
        println!(
            "{:<16} {:<22} {:>12.4} {:>9.4} {:>9.4} {:>7.2}  {:?}{}",
            spec.name,
            WORKLOADS[*w],
            median(v).unwrap_or(f64::NAN),
            dev,
            iqr,
            spec.bound,
            verdict,
            if unresolved { " (listed as unresolved: reported, not judged)" } else { "" }
        );
    }
    Ok(holds)
}

/// `sensitivity`: does a 20 µs delay injected inside the timed interval
/// of `http-keepalive-epoll` show up as 10–30 µs of median latency?
/// With the think-time jitter it must; with the jitter forced to 0 the
/// closed loop locks to the 50 µs wheel grid and the same check is
/// printed for contrast only.
pub fn sensitivity(seed: u64, seconds: f64) -> Result<bool, String> {
    const W: &str = "http-keepalive-epoll";
    let inject = INJECT_US.to_string();
    let p50 = |extra: &[&str]| -> Result<f64, String> {
        let mut args = vec!["--trace", "0"];
        args.extend_from_slice(extra);
        let r = child(W, seed, seconds, &args)?;
        if !r.correct {
            return Err(format!("{W} {extra:?} failed its checks"));
        }
        r.value("latency_p50_us").ok_or_else(|| "latency_p50_us missing".to_string())
    };
    let base = p50(&[])?;
    let injected = p50(&["--inject-us", &inject])?;
    let locked_base = p50(&["--think-us", "0"])?;
    let locked_injected = p50(&["--think-us", "0", "--inject-us", &inject])?;
    let (rise, locked_rise) = (injected - base, locked_injected - locked_base);
    let pass = (RISE_BAND_US.0..=RISE_BAND_US.1).contains(&rise);
    println!("\n{W}, {INJECT_US} us injected inside the timed interval:");
    println!(
        "  think 0-100 us: p50 {base:.1} -> {injected:.1} us, rise {rise:+.1} us \
         (must be {}-{} us): {}",
        RISE_BAND_US.0,
        RISE_BAND_US.1,
        if pass { "pass" } else { "FAIL" }
    );
    println!(
        "  think 0 (wheel-locked): p50 {locked_base:.1} -> {locked_injected:.1} us, \
         rise {locked_rise:+.1} us (for contrast, not asserted)"
    );
    Ok(pass)
}

/// Pairs of `(workload, metric)` on which set `b` is worse than set `a`
/// beyond the metric's bound, either way round. [`UNRESOLVED`] pairs
/// are not judged.
pub fn disagreements(
    a: &[(String, RunResult)],
    b: &[(String, RunResult)],
    table: &[MetricSpec],
) -> Vec<String> {
    let mut out = Vec::new();
    for ((w, ra), (_, rb)) in a.iter().zip(b) {
        for spec in table.iter().filter(|s| !UNRESOLVED.contains(&(s.name, w.as_str()))) {
            match (ra.value(spec.name), rb.value(spec.name)) {
                (Some(x), Some(y)) if worse_beyond(spec, x, y) || worse_beyond(spec, y, x) => {
                    out.push(format!("{w} {}: {x:.4} vs {y:.4} (bound {})", spec.name, spec.bound));
                }
                (Some(_), Some(_)) => {}
                _ => out.push(format!("{w} {}: missing", spec.name)),
            }
        }
    }
    out
}

/// `compare`: two sets written by `run --json`; true when every pair
/// agrees within its bound.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        parse_set(&fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a)?, read(b)?);
    if a.len() != b.len() || a.iter().zip(&b).any(|(x, y)| x.0 != y.0) {
        return Err("the two sets hold different workloads".into());
    }
    let bad = disagreements(&a, &b, &END_TO_END);
    for line in &bad {
        println!("disagree: {line}");
    }
    for (metric, w) in UNRESOLVED {
        let at = |set: &[(String, RunResult)]| {
            set.iter().find(|(name, _)| name == w).and_then(|(_, r)| r.value(metric))
        };
        if let (Some(x), Some(y)) = (at(&a), at(&b)) {
            println!("unresolved (spread wider than any bound): {w} {metric}: {x:.4} vs {y:.4}");
        }
    }
    let judged = a.len() * END_TO_END.len() - UNRESOLVED.len();
    println!("{} of {judged} judged pairs agree within their bounds", judged - bad.len());
    Ok(bad.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p50: f64, goodput: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("latency_p50_us".into(), p50, "us".into()),
                ("goodput_rps".into(), goodput, "1/s".into()),
            ],
        }
    }

    #[test]
    fn verdicts_follow_the_widen_or_drop_rule() {
        assert_eq!(verdict(0.02, 0.05), Verdict::Holds);
        assert_eq!(verdict(0.025, 0.05), Verdict::Holds, "two runs differ by 5 % at most");
        assert_eq!(verdict(0.03, 0.05), Verdict::Widen(0.06));
        assert_eq!(verdict(0.12, 0.10), Verdict::Widen(0.24));
        assert_eq!(verdict(0.13, 0.10), Verdict::Drop, "2 x 0.13 is past the widest bound");
    }

    #[test]
    fn disagreement_is_symmetric_and_per_pair() {
        let spec =
            |name, higher_is_better| MetricSpec { name, unit: "", higher_is_better, bound: 0.10 };
        let table = [spec("latency_p50_us", false), spec("goodput_rps", true)];
        let a = vec![("w".to_string(), result(200.0, 7_500.0))];
        assert!(disagreements(&a, &a, &table).is_empty());
        let slower = vec![("w".to_string(), result(230.0, 7_400.0))];
        let bad = disagreements(&a, &slower, &table);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("w latency_p50_us"));
        assert_eq!(disagreements(&slower, &a, &table).len(), 1, "either order");
    }

    #[test]
    fn an_unresolved_pair_is_reported_not_judged() {
        let spec =
            MetricSpec { name: "latency_p50_us", unit: "us", higher_is_better: false, bound: 0.25 };
        let (a, b) = (result(4_000.0, 6e6), result(5_500.0, 6e6));
        let on = |w: &str| {
            disagreements(&[(w.to_string(), a.clone())], &[(w.to_string(), b.clone())], &[spec])
        };
        assert_eq!(on("http-keepalive-uring").len(), 1, "+37 % is past the bound");
        assert!(on("sim-sweep").is_empty(), "listed in UNRESOLVED");
        for (metric, w) in UNRESOLVED {
            assert!(END_TO_END.iter().any(|m| m.name == metric), "{metric}");
            assert!(WORKLOADS.contains(&w), "{w}");
        }
    }

    #[test]
    fn sets_survive_the_json_file() {
        let set = vec![("psd-open".to_string(), result(2_100.5, 509.25))];
        assert_eq!(parse_set(&set_to_json_lines(&set)).unwrap(), set);
    }
}
