//! `psd-open`: the paper's scenario on the live server, no HTTP. The
//! generator thread submits both classes' Poisson arrivals through
//! `admit` + `submit_async`; the timer wheel, the monitor, the Eq. 17
//! controller, the estimator and the metrics sink do all the work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psd_dist::{BoundedPareto, ServiceDistribution};
use psd_server::{Completion, PsdServer, SchedulerKind, ServerConfig, Workload as ExecKind};

use super::{GenOutput, Params, Window, Workload};
use crate::inputs::{open_schedule, OpenSchedule};
use crate::procfs::CpuReading;
use crate::stats::{self, quantile_with_support, Sample};
use crate::trace::Tracer;

/// Differentiation parameters of the two classes.
const DELTAS: [f64; 2] = [1.0, 2.0];

/// Classes, one arrival stream each.
const GEN_CLASSES: usize = DELTAS.len();

/// Offered load, split equally between the classes. 0.6 with a 1 ms
/// unit is deliberate: at 300 µs / 0.75 the per-process sleep-overshoot
/// calibration shifts the effective load enough to swing class-0
/// slowdown between 2.3 and 3.0 on one seed.
const TOTAL_LOAD: f64 = 0.6;

/// Wall-clock length of one work unit.
const WORK_UNIT: Duration = Duration::from_millis(1);

/// Monitor window of the server under test.
const CONTROL_WINDOW: Duration = Duration::from_millis(200);

/// The priming script of a set-up: this many cost-1 requests per class,
/// this far apart. Fixed, not seeded, so `setup_s` is the same work for
/// every seed.
const PRIME_REQUESTS: usize = 100;
const PRIME_GAP: Duration = Duration::from_millis(2);

/// Schedule seconds generated beyond two measured windows: two
/// warm-ups plus slack.
const SCHEDULE_EXTRA_S: f64 = 5.0;

/// How long a window waits for its last completions.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

fn cost_dist() -> BoundedPareto {
    BoundedPareto::new(1.5, 0.5, 10.0).expect("valid bounded Pareto")
}

/// `gen.lag_us_p99` above one work unit means the generator, not the
/// server, shaped the arrivals: the window is not a measurement.
pub fn check_lag(lag_p99_us: f64) -> Result<(), String> {
    let limit_us = WORK_UNIT.as_secs_f64() * 1e6;
    if lag_p99_us <= limit_us {
        Ok(())
    } else {
        Err(format!("gen.lag_us_p99 {lag_p99_us:.0} exceeds one work unit ({limit_us:.0} us)"))
    }
}

/// A single arrival submitted this late means every thread of the
/// process stood still for that long: the VM stalled. The requests it
/// delayed are most of the window's worst percent, so its tail latency
/// is the stall's, not the program's.
pub fn check_stall(worst_lag_us: f64) -> Result<(), String> {
    let limit_us = 20.0 * WORK_UNIT.as_secs_f64() * 1e6;
    if worst_lag_us <= limit_us {
        Ok(())
    } else {
        Err(format!("an arrival was submitted {worst_lag_us:.0} us late: the machine stalled"))
    }
}

/// What must hold once a window has drained.
pub fn check_conservation(submitted: u64, completed: u64) -> Result<(), String> {
    if submitted == completed {
        Ok(())
    } else {
        Err(format!("{completed} completions for {submitted} submissions after drain"))
    }
}

/// Completion receipts of one segment's requests, written by the
/// callbacks on the wheel thread and read by the generator thread after
/// the drain. Times are nanoseconds after the instance's epoch, plus 1
/// so that 0 means "not yet".
struct Receipts {
    done_ns: Vec<AtomicU64>,
    callback_end_ns: Vec<AtomicU64>,
    delay_s: Vec<AtomicU64>,
    service_s: Vec<AtomicU64>,
}

impl Receipts {
    fn new(n: usize) -> Self {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect();
        Self { done_ns: zeros(), callback_end_ns: zeros(), delay_s: zeros(), service_s: zeros() }
    }
}

/// One arrival of a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    due_ns: u64,
    class: usize,
    cost: f64,
}

/// Merge per-class `(due_ns, cost)` slices into one timeline, by due
/// instant (class order on a tie).
fn merge(per_class: &[(&[u64], &[f64])]) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = per_class
        .iter()
        .enumerate()
        .flat_map(|(class, (due, cost))| {
            due.iter().zip(*cost).map(move |(&due_ns, &cost)| Arrival { due_ns, class, cost })
        })
        .collect();
    all.sort_by_key(|a| (a.due_ns, a.class));
    all
}

/// A stretch of the schedule, and when to play it.
struct Segment {
    arrivals: Vec<Arrival>,
    /// Instant of schedule time 0.
    anchor: Instant,
    /// Instant the window opened (sample times count from here).
    window_open: Instant,
}

/// Per-request generator-side readings of one segment.
#[derive(Default)]
struct SegmentOutput {
    gen: GenOutput,
    lag_ns: Vec<u64>,
    submit_call_ns: Vec<u64>,
    notify_lag_ns: Vec<u64>,
    /// Per class: summed server-reported slowdown and its count.
    slowdown: [(f64, u64); GEN_CLASSES],
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// The generator thread: play a segment, wait for its completions, and
/// turn the receipts into samples. It waits for each due instant by
/// polling and yielding, never sleeping (see `sys`).
fn play(
    server: &PsdServer,
    seg: Segment,
    epoch: Instant,
    mut tracer: Option<Tracer>,
) -> SegmentOutput {
    let cpu0 = CpuReading::this_thread();
    let n = seg.arrivals.len();
    let receipts = Arc::new(Receipts::new(n));
    let mut out = SegmentOutput::default();
    let traced = tracer.is_some();
    // (due, submit, admitted, returned) instants per request.
    let mut marks: Vec<[Instant; 4]> = Vec::with_capacity(n);
    out.gen.samples.reserve(n);
    out.lag_ns.reserve(n);
    out.submit_call_ns.reserve(n);
    out.notify_lag_ns.reserve(n);

    // From here to the drain the generator allocates nothing of its own
    // (the callback box is the submit path's), so a traced window counts
    // the program's allocations.
    let allocs0 = crate::alloc::totals();
    crate::alloc::arm(traced);
    for (i, a) in seg.arrivals.iter().enumerate() {
        let due = seg.anchor + Duration::from_nanos(a.due_ns);
        while Instant::now() < due {
            thread::yield_now();
        }
        let submit = Instant::now();
        out.gen.attempted += 1;
        let class = a.class;
        let admitted_ok = server.admit(class, a.cost);
        let admitted = if traced { Instant::now() } else { submit };
        let accepted = admitted_ok && {
            let r = Arc::clone(&receipts);
            server.submit_async(class, a.cost, move |c: Completion| {
                let now = ns_since(epoch, Instant::now());
                r.delay_s[i].store(c.delay_s.to_bits(), Ordering::Relaxed);
                r.service_s[i].store(c.service_s.to_bits(), Ordering::Relaxed);
                if traced {
                    let end = ns_since(epoch, Instant::now());
                    r.callback_end_ns[i].store(end + 1, Ordering::Relaxed);
                }
                r.done_ns[i].store(now + 1, Ordering::Release);
            })
        };
        let returned = Instant::now();
        marks.push([due, submit, admitted, returned]);
        if !accepted {
            out.gen.fail(|| format!("class {class} request {i} refused"));
            receipts.done_ns[i].store(u64::MAX, Ordering::Release);
        }
    }
    let drain_by = Instant::now() + DRAIN_TIMEOUT;
    while receipts.done_ns.iter().any(|d| d.load(Ordering::Acquire) == 0) {
        if Instant::now() >= drain_by {
            break;
        }
        thread::yield_now();
    }
    crate::alloc::arm(false);
    out.gen.allocs = crate::alloc::since(allocs0);

    let unit_s = WORK_UNIT.as_secs_f64();
    for (i, ([due, submit, admitted, returned], a)) in
        marks.into_iter().zip(&seg.arrivals).enumerate()
    {
        let done = match receipts.done_ns[i].load(Ordering::Acquire) {
            u64::MAX => continue,
            0 => {
                out.gen.fail(|| format!("class {} request {i} never completed", a.class));
                continue;
            }
            d => epoch + Duration::from_nanos(d - 1),
        };
        let delay_s = f64::from_bits(receipts.delay_s[i].load(Ordering::Relaxed));
        let service_s = f64::from_bits(receipts.service_s[i].load(Ordering::Relaxed));
        // A class runs at most at the full machine rate, and the wheel's
        // overshoot compensation shaves at most a quarter off a wait.
        if !(delay_s >= 0.0 && service_s >= 0.7 * a.cost * unit_s) {
            out.gen.fail(|| {
                format!(
                    "class {} request {i}: cost {:.3} served in {service_s:.6} s after {delay_s:.6} s",
                    a.class,
                    a.cost
                )
            });
            continue;
        }
        out.gen.samples.push(Sample {
            done_ns: ns_since(seg.window_open, done),
            latency_ns: ns_since(due, done),
            class: a.class as u8,
            weight: 1,
        });
        out.lag_ns.push(ns_since(due, submit));
        out.submit_call_ns.push(ns_since(submit, returned));
        let in_server = Duration::from_secs_f64(delay_s + service_s);
        out.notify_lag_ns.push(ns_since(submit + in_server, done));
        out.slowdown[a.class].0 += delay_s / service_s;
        out.slowdown[a.class].1 += 1;
        if let Some(t) = tracer.as_mut() {
            let cb_end = receipts.callback_end_ns[i].load(Ordering::Relaxed).saturating_sub(1);
            let cb_end = epoch + Duration::from_nanos(cb_end);
            let root = t.span("request", due, cb_end, 0, 0);
            t.span("gen.wait", due, submit, root, root);
            t.span("server.admit", submit, admitted, root, root);
            t.span("server.submit", admitted, returned, root, root);
            t.span("completion.callback", done, cb_end, root, root);
        }
    }
    out.gen.cpu = CpuReading::this_thread().since(&cpu0);
    out.gen.tracer = tracer;
    out
}

fn percentile_us(values: &mut [u64], q: f64) -> f64 {
    values.sort_unstable();
    quantile_with_support(values, q, 0).map_or(0.0, |v| v as f64 * 1e-3)
}

/// A running `psd-open` instance.
pub struct PsdOpen {
    server: PsdServer,
    epoch: Instant,
    /// One schedule per class.
    schedules: Vec<OpenSchedule>,
    /// Next unplayed arrival of each class.
    cursor: Vec<usize>,
    /// Schedule time already played, nanoseconds.
    played_ns: u64,
    submitted: u64,
}

impl PsdOpen {
    /// Play `seg` on the generator thread.
    fn play_segment(&mut self, seg: Segment, traced: bool) -> SegmentOutput {
        let (server, epoch) = (&self.server, self.epoch);
        let tracer = traced.then(|| Tracer::new(seg.window_open, 1));
        let out = thread::scope(|s| {
            thread::Builder::new()
                .name("bench-gen".into())
                .spawn_scoped(s, move || play(server, seg, epoch, tracer))
                .expect("spawn generator thread")
                .join()
                .expect("generator thread panicked")
        });
        self.submitted += out.gen.attempted - out.gen.failed;
        out
    }

    /// Play the next `d` of the seeded schedule.
    fn play_next(&mut self, d: Duration, traced: bool) -> SegmentOutput {
        let from_ns = self.played_ns;
        let to_ns = from_ns + d.as_nanos() as u64;
        let mut ends = self.cursor.clone();
        let slices: Vec<(&[u64], &[f64])> = self
            .schedules
            .iter()
            .enumerate()
            .map(|(class, s)| {
                let start = self.cursor[class];
                let len = s.due_ns[start..].partition_point(|&t| t < to_ns);
                ends[class] = start + len;
                (&s.due_ns[start..start + len], &s.cost[start..start + len])
            })
            .collect();
        let arrivals = merge(&slices);
        // Schedule time `from_ns` happens a moment from now, so the
        // generator does not start late.
        let window_open = Instant::now() + Duration::from_millis(2);
        let anchor = window_open - Duration::from_nanos(from_ns);
        let out = self.play_segment(Segment { arrivals, anchor, window_open }, traced);
        self.cursor = ends;
        self.played_ns = to_ns;
        out
    }
}

impl Workload for PsdOpen {
    const OPEN_LOOP: bool = true;

    fn setup(_name: &str, p: &Params) -> Result<Self, String> {
        let dist = cost_dist();
        let mean_cost = dist.mean();
        let rate = TOTAL_LOAD / GEN_CLASSES as f64 / (mean_cost * WORK_UNIT.as_secs_f64());
        // Room for the warm-up, the window and one retried window.
        let horizon_s = 2.0 * p.seconds + SCHEDULE_EXTRA_S;
        let schedules: Vec<OpenSchedule> = (0..GEN_CLASSES)
            .map(|class| open_schedule(p.seed, class as u64, rate, &dist, p.seconds, horizon_s))
            .collect();
        let server = PsdServer::start(ServerConfig {
            deltas: DELTAS.to_vec(),
            mean_cost,
            scheduler: SchedulerKind::RatePartition,
            workload: ExecKind::Sleep,
            work_unit: WORK_UNIT,
            control_window: CONTROL_WINDOW,
            ..ServerConfig::default()
        });
        let mut this = Self {
            server,
            epoch: Instant::now(),
            schedules,
            cursor: vec![0; GEN_CLASSES],
            played_ns: 0,
            submitted: 0,
        };

        let due_ns: Vec<u64> =
            (0..PRIME_REQUESTS as u64).map(|i| i * PRIME_GAP.as_nanos() as u64).collect();
        let cost = vec![1.0; PRIME_REQUESTS];
        let arrivals = merge(&[(&due_ns[..], &cost[..]); GEN_CLASSES]);
        let window_open = Instant::now() + Duration::from_millis(1);
        let primed =
            this.play_segment(Segment { arrivals, anchor: window_open, window_open }, false);
        match primed.gen.failures.first() {
            Some(why) => Err(format!("priming failed: {why}")),
            None => Ok(this),
        }
    }

    fn warm(&mut self, d: Duration) -> Result<(), String> {
        self.play_next(d, false);
        Ok(())
    }

    fn measure(&mut self, d: Duration, traced: bool) -> Result<Window, String> {
        let wheel0 = super::wheel_counts(&self.server);
        let server_cpu0 = CpuReading::all_threads();
        let mut out = self.play_next(d, traced);
        let server_cpu = CpuReading::all_threads().since(&server_cpu0);
        let wheel1 = super::wheel_counts(&self.server);

        let mut w = Window { window_ns: d.as_nanos() as u64, server_cpu, ..Window::default() };
        let means: Vec<f64> = out.slowdown.iter().map(|&(sum, n)| sum / n.max(1) as f64).collect();
        w.slowdown_c0 = (out.slowdown[0].1 > 0).then_some(means[0]);
        w.psd_fidelity = stats::psd_fidelity(&means, &DELTAS);

        let reqs = out.lag_ns.len().max(1) as f64;
        let worst_lag_us = out.lag_ns.iter().max().map_or(0.0, |&ns| ns as f64 * 1e-3);
        w.layer = vec![
            ("gen.lag_us_p50", percentile_us(&mut out.lag_ns, 0.5)),
            ("gen.lag_us_p99", percentile_us(&mut out.lag_ns, 0.99)),
            ("server.submit_call_ns_p50", percentile_us(&mut out.submit_call_ns, 0.5) * 1e3),
            ("server.submit_call_ns_p99", percentile_us(&mut out.submit_call_ns, 0.99) * 1e3),
            ("server.notify_lag_us_p50", percentile_us(&mut out.notify_lag_ns, 0.5)),
            ("server.notify_lag_us_p99", percentile_us(&mut out.notify_lag_ns, 0.99)),
            ("wheel.wakeups_per_req", (wheel1.0 - wheel0.0) as f64 / reqs),
            ("wheel.cascades_per_req", (wheel1.1 - wheel0.1) as f64 / reqs),
        ];
        w.absorb(out.gen);
        w.generator_late = check_lag(w.layer[1].1).err();
        w.stalled = check_stall(worst_lag_us).err();
        Ok(w)
    }

    fn teardown(self) -> Result<(), String> {
        let completed: u64 = self.server.shutdown().classes.iter().map(|c| c.completed).sum();
        check_conservation(self.submitted, completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_generator_fails_the_window() {
        assert!(check_lag(180.0).is_ok());
        assert!(check_lag(1_000.0).is_ok(), "exactly one work unit still passes");
        let why = check_lag(1_450.0).unwrap_err();
        assert!(why.contains("gen.lag_us_p99 1450 exceeds one work unit"), "{why}");
    }

    #[test]
    fn one_very_late_arrival_marks_a_stall() {
        assert!(check_stall(300.0).is_ok());
        assert!(check_stall(20_000.0).is_ok());
        assert!(check_stall(48_000.0).unwrap_err().contains("48000 us late"));
    }

    #[test]
    fn lost_or_extra_completions_fail_the_drain() {
        assert!(check_conservation(5_000, 5_000).is_ok());
        assert!(check_conservation(5_000, 4_999).unwrap_err().contains("4999 completions"));
        assert!(check_conservation(5_000, 5_001).is_err());
    }

    #[test]
    fn offered_rate_matches_the_stated_load() {
        let mean_cost = cost_dist().mean();
        assert!((mean_cost - 1.1777).abs() < 1e-3, "BP(1.5, 0.5, 10) mean, got {mean_cost}");
        let total_rate = TOTAL_LOAD / (mean_cost * WORK_UNIT.as_secs_f64());
        assert!((total_rate - 509.5).abs() < 1.0, "~510 req/s, got {total_rate}");
    }
}
