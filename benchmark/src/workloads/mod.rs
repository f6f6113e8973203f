//! The five workloads and the protocol every one of them runs under:
//! settle → set-up (several times, timed) → warm-up → one measured
//! window cut into ten slices → drain and conservation checks.

pub mod http;
pub mod psd_open;
pub mod sim_sweep;

use std::thread;
use std::time::{Duration, Instant};

use crate::procfs::CpuReading;
use crate::stats::{self, Sample, SliceStats, SLICES};
use crate::trace::Tracer;

/// Workload names, in the order a full set runs them: `sim-sweep` last,
/// because a CPU-saturating phase slows the wake-up-heavy workloads
/// that follow it for several seconds.
pub const WORKLOADS: [&str; 5] =
    ["psd-open", "http-keepalive-epoll", "http-keepalive-uring", "http-churn-uring", "sim-sweep"];

/// The closed-loop workloads hold this many connections, one per class,
/// all driven by the one generator thread.
pub const CONNECTIONS: usize = 2;

/// What `slowdown_c0` and `psd_fidelity` read on a workload that has no
/// queue to differentiate (the closed loops): the result format wants a
/// number, never 0, for every end-to-end metric on every workload.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Idle time before anything is timed.
const SETTLE: Duration = Duration::from_secs(1);

/// Let the process settle before anything is timed.
pub fn settle() {
    thread::sleep(SETTLE);
}

/// Complete set-ups per run; `setup_s` is their median. Nine, because
/// the median of five 0.12 s set-ups of `sim-sweep` still moved by a
/// quarter between runs.
const SETUP_CYCLES: usize = 9;

/// Untimed warm-up between the last set-up and the measured window.
const WARMUP: Duration = Duration::from_secs(2);

/// First-five vs last-five slice goodput gap above which a closed-loop
/// window is retried once.
const STEADY_GAP: f64 = 0.05;

/// Idle time before a window is measured once more; a fresh warm-up
/// follows it. Short, because the worst case — every run of a driver's
/// batch retried — must still fit the batch's time cap.
const RETRY_IDLE: Duration = Duration::from_secs(1);

/// What the command line fixes for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// `sensitivity` only: busy-wait injected client-side inside the
    /// timed interval of every closed-loop request.
    pub inject_ns: u64,
    /// Upper edge of the closed-loop think time (`sensitivity` forces 0).
    pub think_max_ns: u64,
}

/// What the generator thread hands back from one window.
#[derive(Debug, Default)]
pub struct GenOutput {
    /// Completed, correct operations.
    pub samples: Vec<Sample>,
    /// Operations started.
    pub attempted: u64,
    /// Operations refused, answered wrongly, mis-classed or timed out.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// This thread's CPU time and context switches over the window.
    pub cpu: CpuReading,
    /// `(calls, bytes)` the counting allocator saw while this thread's
    /// loop ran, when the window was traced. The loop itself allocates
    /// nothing, so these are the program's.
    pub allocs: (u64, u64),
    /// Spans, when the window was traced.
    pub tracer: Option<Tracer>,
}

impl GenOutput {
    /// Count one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(why());
        }
    }
}

/// One measured window of one workload.
#[derive(Debug, Default)]
pub struct Window {
    /// Window length in nanoseconds.
    pub window_ns: u64,
    /// Completed, correct operations.
    pub samples: Vec<Sample>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failure descriptions and instrument-check violations; a
    /// non-empty list makes the run incorrect.
    pub violations: Vec<String>,
    /// Class-0 slowdown as this workload defines it.
    pub slowdown_c0: Option<f64>,
    /// PSD fidelity as this workload defines it.
    pub psd_fidelity: Option<f64>,
    /// Generator-thread CPU and context switches.
    pub gen_cpu: CpuReading,
    /// CPU and context switches of every other thread of the process.
    pub server_cpu: CpuReading,
    /// Spans of a traced window.
    pub tracers: Vec<Tracer>,
    /// Workload-specific layer readings of a traced window.
    pub layer: Vec<(&'static str, f64)>,
    /// Set when the generator itself ran late (an open loop's lag check):
    /// the window is measured once more, and fails the run if it is late
    /// again. One late window is usually the VM stalling, not the program.
    pub generator_late: Option<String>,
    /// Set when the window saw the machine stall (an open loop's worst
    /// lag): it is measured once more, and reported unsteady — not failed
    /// — if the second one stalls too.
    pub stalled: Option<String>,
    /// `(calls, bytes)` the counting allocator saw during a traced window.
    pub allocs: (u64, u64),
    /// `VmHWM` when the run's first window closed. A re-measured window
    /// keeps the first one's reading: memory the retry itself touches is
    /// the benchmark's, not the program's.
    pub peak_rss_mb: Option<f64>,
}

impl Window {
    /// Fold the generator thread's output into the window.
    pub fn absorb(&mut self, mut o: GenOutput) {
        self.samples.append(&mut o.samples);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations.append(&mut o.failures);
        self.gen_cpu = o.cpu;
        self.allocs = o.allocs;
        self.tracers.extend(o.tracer);
    }
}

/// A workload: how to set it up from a seed, drive it, and check it.
pub trait Workload: Sized {
    /// Whether arrivals follow a schedule instead of waiting for replies.
    /// An open loop's goodput is its offered rate, so a first-half vs
    /// second-half goodput gap says nothing about the machine; and its
    /// slices hold different requests, so its latency percentiles are
    /// read off the pooled window, not off the slices.
    const OPEN_LOOP: bool;

    /// Make the inputs from the seed, start the program's parts,
    /// connect, and run the fixed-count priming script. Timed as
    /// `setup_s`.
    fn setup(name: &str, p: &Params) -> Result<Self, String>;

    /// Drive the workload for `d` without recording.
    fn warm(&mut self, d: Duration) -> Result<(), String>;

    /// Drive the workload for one window of `d` and collect it.
    fn measure(&mut self, d: Duration, traced: bool) -> Result<Window, String>;

    /// Stop everything and check what must hold after a drain.
    fn teardown(self) -> Result<(), String>;
}

/// The end-to-end numbers of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Median seconds of [`SETUP_CYCLES`] complete set-ups.
    pub setup_s: f64,
    /// Median of the per-slice goodputs.
    pub goodput_rps: f64,
    /// Median of the per-slice median latencies.
    pub latency_p50_us: f64,
    /// See [`stats::window_p99_us`]. Printed, not held: a per-layer
    /// metric since `calibrate` dropped it from the end-to-end set.
    pub latency_p99_us: f64,
    /// `VmHWM` of this process.
    pub peak_rss_mb: f64,
    /// Class-0 slowdown.
    pub slowdown_c0: f64,
    /// PSD fidelity.
    pub psd_fidelity: f64,
    /// Whether the window passed the steadiness check (after at most
    /// one retry).
    pub steady: bool,
}

/// A finished run: counts, violations, and whichever numbers it was for.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Operations that failed in the measured window.
    pub failed: u64,
    /// Why the run is incorrect; empty when it is correct.
    pub violations: Vec<String>,
    /// Present after an untraced run with a valid window.
    pub end_to_end: Option<EndToEnd>,
    /// In-situ layer readings of a traced run.
    pub layer: Vec<(&'static str, f64)>,
    /// Spans of a traced run.
    pub tracers: Vec<Tracer>,
}

/// The timer wheel's `(wakeups, cascades)` so far; zeros when the server
/// does not run on the wheel.
fn wheel_counts(server: &psd_server::PsdServer) -> (u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    server
        .wheel_stats()
        .map_or((0, 0), |(w, _)| (w.wakeups.load(Relaxed), w.cascades.load(Relaxed)))
}

/// The instrument checks on a window's slices: every slice completed
/// something and no median latency reads 0.
pub fn check_slices(s: &SliceStats) -> Result<(), String> {
    for k in 0..SLICES {
        if s.goodput_rps[k] <= 0.0 {
            return Err(format!("slice {k} has no completions"));
        }
        if s.p50_us[k] <= 0.0 {
            return Err(format!("slice {k} reads a median latency of 0"));
        }
    }
    Ok(())
}

/// `(p50, p99)` latency of a window in microseconds: medians of the
/// per-slice values, or read off the pooled window on an open loop (see
/// [`Workload::OPEN_LOOP`]).
fn latency_percentiles_us(
    w: &Window,
    slices: &SliceStats,
    open_loop: bool,
) -> (Option<f64>, Option<f64>) {
    if open_loop {
        (
            stats::pooled_quantile_us(&w.samples, 0.5, 0),
            stats::pooled_quantile_us(&w.samples, 0.99, stats::MIN_BEYOND),
        )
    } else {
        (stats::median(&slices.p50_us), stats::window_p99_us(&w.samples, slices))
    }
}

/// Reduce a window to the end-to-end numbers, or say which instrument
/// check it fails.
pub fn reduce(w: &Window, open_loop: bool, setup_s: f64, steady: bool) -> Result<EndToEnd, String> {
    let slices = stats::cut_slices(&w.samples, w.window_ns);
    check_slices(&slices)?;
    let (p50_us, p99_us) = latency_percentiles_us(w, &slices, open_loop);
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("{what} is not measurable"));
    Ok(EndToEnd {
        setup_s,
        goodput_rps: need(stats::median(&slices.goodput_rps), "goodput_rps")?,
        latency_p50_us: need(p50_us, "latency_p50_us")?,
        latency_p99_us: need(p99_us, "latency_p99_us (fewer than ten samples beyond it)")?,
        peak_rss_mb: need(w.peak_rss_mb, "peak_rss_mb")?,
        slowdown_c0: need(w.slowdown_c0, "slowdown_c0")?,
        psd_fidelity: need(w.psd_fidelity, "psd_fidelity")?,
        steady,
    })
}

fn window_is_steady<W: Workload>(name: &str, w: &Window) -> bool {
    let goodput = stats::cut_slices(&w.samples, w.window_ns).goodput_rps;
    let gap = stats::half_gap(&goodput);
    println!("{name}: per-slice goodput {goodput:.0?}, first-five vs last-five gap {gap:.3}");
    W::OPEN_LOOP || gap <= STEADY_GAP
}

/// Measure one window. If its instruments say the machine rather than
/// the program shaped it — an unsteady goodput (only judged when
/// `judge_steadiness`), a stall, a late generator — measure once more after
/// [`RETRY_IDLE`] and a fresh warm-up. Returns the window that counts and
/// whether it is steady; a generator that is late twice is a violation.
fn measure_with_retry<W: Workload>(
    name: &str,
    instance: &mut W,
    d: Duration,
    traced: bool,
    judge_steadiness: bool,
) -> Result<(Window, bool), String> {
    let attempt = |instance: &mut W| -> Result<(Window, bool), String> {
        let mut w = instance.measure(d, traced)?;
        w.peak_rss_mb = crate::procfs::peak_rss_mb();
        let steady = w.stalled.is_none() && (!judge_steadiness || window_is_steady::<W>(name, &w));
        Ok((w, steady))
    };
    let (mut w, mut steady) = attempt(instance)?;
    if w.violations.is_empty() && (!steady || w.generator_late.is_some()) {
        let why =
            w.generator_late.as_deref().or(w.stalled.as_deref()).unwrap_or("unsteady goodput");
        println!("{name}: {why}; measuring once more after {RETRY_IDLE:?} idle and a warm-up");
        let peak_rss_mb = w.peak_rss_mb;
        drop(w);
        thread::sleep(RETRY_IDLE);
        // Not optional: `psd-open`'s estimator forgets the load while
        // nothing arrives, and a window opened cold starved class 1 for
        // its first half second (fidelity 0.06, p99 0.7 s).
        instance.warm(WARMUP)?;
        (w, steady) = attempt(instance)?;
        w.peak_rss_mb = peak_rss_mb;
    }
    w.violations.extend(w.generator_late.take());
    Ok((w, steady))
}

/// The untraced run: several timed set-ups, a warm-up, one measured
/// window, teardown.
fn run_untraced<W: Workload>(name: &str, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let result = (|| -> Result<(), String> {
        settle();
        let mut setups = Vec::new();
        let mut kept = None;
        for cycle in 0..SETUP_CYCLES {
            let t = Instant::now();
            let instance = W::setup(name, p)?;
            setups.push(t.elapsed().as_secs_f64());
            if cycle + 1 < SETUP_CYCLES {
                instance.teardown()?;
            } else {
                kept = Some(instance);
            }
        }
        let mut instance = kept.expect("the last set-up is kept");
        let setup_s = stats::median(&setups).expect("at least one set-up");
        println!("{name}: set-up cycles took {setups:.3?} s");
        instance.warm(WARMUP)?;
        let window = Duration::from_secs_f64(p.seconds);
        let (mut w, steady) = measure_with_retry(name, &mut instance, window, false, true)?;
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.violations.append(&mut w.violations);
        match reduce(&w, W::OPEN_LOOP, setup_s, steady) {
            Ok(e) => out.end_to_end = Some(e),
            Err(why) => out.violations.push(why),
        }
        instance.teardown()
    })();
    if let Err(why) = result {
        out.violations.push(why);
    }
    out
}

/// The traced run: one set-up, a warm-up, a short untraced window (the
/// base of `trace.overhead_share`), then the traced window.
fn run_traced<W: Workload>(name: &str, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let result = (|| -> Result<(), String> {
        settle();
        let mut instance = W::setup(name, p)?;
        instance.warm(WARMUP)?;
        let base = instance.measure(Duration::from_secs_f64(p.seconds / 4.0), false)?;
        let traced = Duration::from_secs_f64(p.seconds / 2.0);
        let (mut w, _) = measure_with_retry(name, &mut instance, traced, true, false)?;
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.violations.append(&mut w.violations);
        out.layer = crate::layers::in_situ(&base, &w);
        let slices = stats::cut_slices(&w.samples, w.window_ns);
        let (_, p99_us) = latency_percentiles_us(&w, &slices, W::OPEN_LOOP);
        out.layer.push(("latency_p99_us", p99_us.ok_or("no p99 with ten samples beyond it")?));
        out.tracers = std::mem::take(&mut w.tracers);
        instance.teardown()
    })();
    if let Err(why) = result {
        out.violations.push(why);
    }
    out
}

/// Run workload `name`, untraced or traced.
pub fn run(name: &str, p: &Params, traced: bool) -> Option<Outcome> {
    fn go<W: Workload>(name: &str, p: &Params, traced: bool) -> Outcome {
        if traced {
            run_traced::<W>(name, p)
        } else {
            run_untraced::<W>(name, p)
        }
    }
    Some(match name {
        "psd-open" => go::<psd_open::PsdOpen>(name, p, traced),
        "http-keepalive-epoll" | "http-keepalive-uring" | "http-churn-uring" => {
            go::<http::Http>(name, p, traced)
        }
        "sim-sweep" => go::<sim_sweep::SimSweep>(name, p, traced),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_with(per_slice: usize, latency_ns: u64) -> Window {
        let mut w = Window { window_ns: 1_000_000, ..Window::default() };
        for k in 0..SLICES as u64 {
            for j in 0..per_slice as u64 {
                w.samples.push(Sample {
                    done_ns: k * 100_000 + j,
                    latency_ns: latency_ns + j,
                    class: 0,
                    weight: 1,
                });
            }
        }
        w.slowdown_c0 = Some(1.5);
        w.psd_fidelity = Some(0.9);
        w.peak_rss_mb = Some(8.0);
        w
    }

    #[test]
    fn a_full_window_reduces_to_numbers() {
        let e = reduce(&window_with(1_200, 150_000), false, 0.25, true).expect("valid window");
        assert_eq!(e.setup_s, 0.25);
        assert!((e.goodput_rps - 1_200.0 / 100e-6).abs() < 1.0);
        assert!(e.latency_p50_us > 150.0 && e.latency_p99_us > e.latency_p50_us);
        assert!(e.peak_rss_mb > 0.0);
    }

    #[test]
    fn an_open_loop_reads_its_percentiles_off_the_pooled_window() {
        // Slices with different content: 9 fast ones and one slow one.
        let mut w = window_with(1_200, 100_000);
        for s in w.samples.iter_mut().filter(|s| s.done_ns / 100_000 == 4) {
            s.latency_ns += 900_000;
        }
        let closed = reduce(&w, false, 0.1, true).unwrap();
        let open = reduce(&w, true, 0.1, true).unwrap();
        assert!(closed.latency_p99_us < 102.0, "median of slice p99s ignores the slow slice");
        assert!(open.latency_p99_us > 1_000.0, "the pooled p99 is the slow slice's");
        assert!((open.latency_p50_us - closed.latency_p50_us).abs() < 1.0);
    }

    #[test]
    fn an_empty_slice_fails_the_run() {
        let mut w = window_with(1_200, 150_000);
        w.samples.retain(|s| s.done_ns / 100_000 != 7);
        let why = reduce(&w, false, 0.1, true).unwrap_err();
        assert!(why.contains("slice 7 has no completions"), "{why}");
    }

    #[test]
    fn a_zero_median_latency_fails_the_run() {
        let mut w = window_with(1_200, 150_000);
        for s in w.samples.iter_mut().filter(|s| s.done_ns / 100_000 == 2) {
            s.latency_ns = 0;
        }
        let why = reduce(&w, false, 0.1, true).unwrap_err();
        assert!(why.contains("slice 2 reads a median latency of 0"), "{why}");
    }

    #[test]
    fn an_unsupported_tail_or_missing_slowdown_fails_the_run() {
        let why = reduce(&window_with(50, 150_000), false, 0.1, true).unwrap_err();
        assert!(why.contains("latency_p99_us"), "{why}");
        let mut w = window_with(1_200, 150_000);
        w.psd_fidelity = None;
        assert!(reduce(&w, false, 0.1, true).unwrap_err().contains("psd_fidelity"));
    }
}
