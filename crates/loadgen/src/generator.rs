//! The traffic engine: a multi-threaded connection-worker pool driving
//! the server over real TCP, in open loop (arrival schedule from
//! `psd-dist::arrival`, latency measured from the *intended* arrival
//! instant so coordinated omission cannot hide queueing) or closed loop
//! (a fixed session population with exponential think times).

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use psd_dist::rng::{SplitMix64, Xoshiro256pp};
use psd_dist::stats::Welford;
use psd_dist::ServiceDistribution;
use psd_obs::LogHistogram;

use crate::client::{Connection, Exchange};
use crate::scenario::{LoadMode, Scenario};

/// Floor on sampled costs: keeps every request at least a fraction of a
/// work unit so degenerate draws cannot produce sub-measurable service.
const MIN_COST: f64 = 0.05;

/// How long a connection worker waits for one response before calling
/// the exchange failed.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request of the open-loop plan.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Intended send instant, as an offset from the run start.
    intended: Duration,
    class: usize,
    cost: f64,
}

/// FIFO handoff between the schedule and the connection workers.
#[derive(Default)]
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    /// The queue and its closed flag, even after a holder panicked: each
    /// critical section is one push, pop or flag write, so it is whole.
    fn lock(&self) -> MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        let mut g = self.lock();
        g.0.push_back(job);
        drop(g);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.lock().1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut g = self.lock();
        loop {
            if let Some(j) = g.0.pop_front() {
                return Some(j);
            }
            if g.1 {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A one-shot timer thread that runs its action at an instant of the
/// run — the `reconfig` spec's `PUT` here, the harness's mid-run
/// scrape — and can be cancelled: a run that dies early must not sit
/// out the remaining wait (and then act against a dead server) before
/// its caller sees the failure.
pub(crate) struct Timer<T> {
    cancel: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<Option<T>>>,
}

impl<T: Send + 'static> Timer<T> {
    /// Run `fire` once `after` has passed, unless cancelled first.
    pub(crate) fn start(
        after: Duration,
        fire: impl FnOnce() -> std::io::Result<T> + Send + 'static,
    ) -> Self {
        let cancel = Arc::new(AtomicBool::new(false));
        let cancelled = Arc::clone(&cancel);
        let thread = thread::spawn(move || {
            let deadline = Instant::now() + after;
            loop {
                if cancelled.load(Ordering::Relaxed) {
                    return Ok(None);
                }
                let now = Instant::now();
                if now >= deadline {
                    return fire().map(Some);
                }
                thread::sleep((deadline - now).min(Duration::from_millis(50)));
            }
        });
        Self { cancel, thread }
    }

    /// Cancel the action if it has not fired yet, and wait for the
    /// thread: `Ok(None)` when it never fired.
    pub(crate) fn finish(self) -> std::io::Result<Option<T>> {
        self.cancel.store(true, Ordering::Relaxed);
        self.thread.join().expect("timer thread panicked")
    }
}

/// Per-class measurements accumulated by one worker (merged at join).
#[derive(Debug, Clone, Default)]
pub struct ClassCounters {
    /// Requests attempted, whole run.
    pub sent: u64,
    /// 2xx responses, whole run.
    pub ok: u64,
    /// Non-2xx responses plus transport failures, whole run. A shed
    /// response that violates the shed contract (not `503` or not
    /// `Connection: close`) counts here, not in `shed`.
    pub errors: u64,
    /// Requests shed by admission control (`503` + `X-Shed: 1` +
    /// `Connection: close`), whole run — deliberate overload control,
    /// accounted separately from `errors`.
    pub shed: u64,
    /// Latencies of 2xx responses inside the measurement window, in
    /// microseconds (open loop: from the intended arrival instant).
    pub latency_us: LogHistogram,
    /// Server-reported `X-Slowdown` of measured 2xx responses.
    pub slowdown: Welford,
}

impl ClassCounters {
    fn merge(&mut self, other: &ClassCounters) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.shed += other.shed;
        self.latency_us.merge(&other.latency_us);
        self.slowdown.merge(&other.slowdown);
    }
}

/// The generator's raw output: per-class counters plus run geometry.
#[derive(Debug, Clone)]
pub struct GenStats {
    /// Per-class merged counters.
    pub classes: Vec<ClassCounters>,
    /// Seconds inside the measurement window (duration − warmup).
    pub measured_s: f64,
    /// Worker threads that aborted on transport errors.
    pub dead_workers: usize,
}

impl GenStats {
    /// Total attempted requests.
    pub fn total_sent(&self) -> u64 {
        self.classes.iter().map(|c| c.sent).sum()
    }

    /// Total errors.
    pub fn total_errors(&self) -> u64 {
        self.classes.iter().map(|c| c.errors).sum()
    }
}

/// Draw a class index from `weights` (not necessarily normalized).
fn pick_class(weights: &[f64], rng: &mut Xoshiro256pp) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.next_open_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Latency of an open-loop exchange sent at `sent` and answered at
/// `done` (all offsets from the run start): measured from the intended
/// instant when the send ran late (coordinated-omission corrected), and
/// from the actual send if it ever ran early (exact pacing does not) —
/// a reply cannot be faster than the request that caused it.
fn open_loop_latency(intended: Duration, sent: Duration, done: Duration) -> Duration {
    done.saturating_sub(sent.min(intended))
}

/// Record one finished exchange into `c`. A 2xx response counts even
/// when the server announced `Connection: close` alongside it; `at` is
/// the request's time since run start (intended instant in open loop),
/// and responses before `warmup` are excluded from the measured
/// statistics.
fn record(
    c: &mut ClassCounters,
    outcome: &std::io::Result<Exchange>,
    latency: Duration,
    at: Duration,
    warmup: Duration,
) {
    match outcome {
        Ok(ex) if ex.ok() => {
            c.ok += 1;
            if at >= warmup {
                c.latency_us.record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
                if let Some(s) = ex.slowdown {
                    c.slowdown.push(s);
                }
            }
        }
        // The shed contract: 503, tagged, and closing. Anything tagged
        // `X-Shed` that breaks the contract is a server bug — an error.
        Ok(ex) if ex.shed && ex.status == 503 && ex.closed => c.shed += 1,
        Ok(_) | Err(_) => c.errors += 1,
    }
}

/// After `record`, apply the shared connection policy: keep the
/// connection, or reconnect when the server said `Connection: close`
/// (benign) or the exchange failed outright. Returns `Some(died)` when
/// the worker must stop — `died` is true only for hard transport
/// failures (a refused reconnect after a server-initiated close just
/// means the server is going away; that stop is clean).
fn settle_connection(
    conn: &mut Connection,
    addr: SocketAddr,
    outcome: &std::io::Result<Exchange>,
) -> Option<bool> {
    let hard_failure = match outcome {
        Ok(ex) if !ex.closed => return None,
        Ok(_) => false,
        Err(_) => true,
    };
    match Connection::connect(addr, EXCHANGE_TIMEOUT) {
        Ok(fresh) => {
            *conn = fresh;
            None
        }
        Err(_) => Some(hard_failure),
    }
}

fn new_counters(n: usize) -> Vec<ClassCounters> {
    (0..n).map(|_| ClassCounters::default()).collect()
}

/// Run `scenario` against a server listening on `addr`; blocks until
/// the run completes and every worker joined. A `reconfig` spec fires
/// its `PUT /config` from a `Timer` at the configured instant (wall
/// clock, not the generator's look-ahead schedule); a failed or
/// rejected reconfiguration fails the whole run.
pub fn run(addr: SocketAddr, scenario: &Scenario) -> std::io::Result<GenStats> {
    scenario.validate().expect("invalid scenario");
    let reconfig = scenario.reconfig.clone().map(|spec| {
        Timer::start(scenario.duration.mul_f64(spec.at_frac), move || {
            let deltas = spec.deltas.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
            let status =
                crate::client::put_config(addr, &format!("deltas={deltas}"), EXCHANGE_TIMEOUT)?;
            if status != 200 {
                return Err(std::io::Error::other(format!("PUT /config answered {status}")));
            }
            Ok(())
        })
    });
    let stats = match &scenario.mode {
        LoadMode::Open { .. } => run_open(addr, scenario),
        LoadMode::Closed { sessions, mean_think } => {
            run_closed(addr, scenario, *sessions, *mean_think)
        }
    };
    let reconfig_outcome = reconfig.map(Timer::finish);
    // The run's own failure is the primary diagnosis — a PUT that then
    // failed against the dead server must not mask it.
    let stats = stats?;
    if let Some(outcome) = reconfig_outcome {
        if outcome?.is_none() {
            return Err(std::io::Error::other(
                "run finished before the reconfig instant — the δ flip never fired",
            ));
        }
    }
    Ok(stats)
}

fn run_open(addr: SocketAddr, scenario: &Scenario) -> std::io::Result<GenStats> {
    let LoadMode::Open { arrival } = &scenario.mode else { unreachable!("checked by caller") };
    let n = scenario.server.deltas.len();
    let queue = Arc::new(JobQueue::default());
    let start = Instant::now();
    let warmup = scenario.warmup;

    // Connection workers: pace each job to its intended instant, then
    // measure from it (see `open_loop_latency`).
    let mut handles = Vec::with_capacity(scenario.connections);
    for _ in 0..scenario.connections {
        let queue = Arc::clone(&queue);
        handles.push(thread::spawn(move || -> (Vec<ClassCounters>, bool) {
            let mut counters = new_counters(n);
            let mut conn = match Connection::connect(addr, EXCHANGE_TIMEOUT) {
                Ok(c) => c,
                Err(_) => return (counters, true),
            };
            while let Some(job) = queue.pop() {
                // Exact pacing (psd_server::timing: no timer slack):
                // plain `thread::sleep` lateness would shift every
                // intended arrival late and shave the offered rate at
                // exactly the high-rate operating points under test.
                psd_server::timing::sleep_until(start + job.intended);
                let sent = start.elapsed();
                let c = &mut counters[job.class];
                c.sent += 1;
                let outcome = conn.exchange(job.class, job.cost);
                let latency = open_loop_latency(job.intended, sent, start.elapsed());
                record(c, &outcome, latency, job.intended, warmup);
                if let Some(died) = settle_connection(&mut conn, addr, &outcome) {
                    return (counters, died);
                }
            }
            (counters, false)
        }));
    }

    // The schedule: generated a bounded lookahead ahead of wall-clock,
    // so queue memory stays O(lookahead·rate) however long the run is,
    // while workers always have jobs ready well before their intended
    // instants.
    const LOOKAHEAD: Duration = Duration::from_secs(5);
    let mut rng = Xoshiro256pp::seed_from(SplitMix64::derive(scenario.seed, 0));
    let mut process = arrival.build(scenario.duration);
    let horizon = scenario.duration.as_secs_f64();
    let weights_before: Vec<f64> = scenario.mix.iter().map(|m| m.weight).collect();
    let mut t = 0.0;
    loop {
        t += process.next_interarrival(&mut rng);
        if t >= horizon {
            break;
        }
        let intended = Duration::from_secs_f64(t);
        let now = start.elapsed();
        if intended > now + LOOKAHEAD {
            thread::sleep(intended - now - LOOKAHEAD);
        }
        let weights = match &scenario.mix_shift {
            Some((frac, after)) if t / horizon >= *frac => after.as_slice(),
            _ => weights_before.as_slice(),
        };
        let class = pick_class(weights, &mut rng);
        let cost = scenario.mix[class].cost.sample(&mut rng).max(MIN_COST);
        queue.push(Job { intended, class, cost });
    }
    queue.close();

    let mut classes = new_counters(n);
    let mut dead_workers = 0usize;
    for h in handles {
        let (counters, died) = h.join().expect("connection worker panicked");
        for (agg, c) in classes.iter_mut().zip(&counters) {
            agg.merge(c);
        }
        dead_workers += usize::from(died);
    }
    Ok(GenStats {
        classes,
        measured_s: (scenario.duration - scenario.warmup).as_secs_f64(),
        dead_workers,
    })
}

fn run_closed(
    addr: SocketAddr,
    scenario: &Scenario,
    sessions: usize,
    mean_think: Duration,
) -> std::io::Result<GenStats> {
    let n = scenario.server.deltas.len();
    let start = Instant::now();
    let duration = scenario.duration;
    let warmup = scenario.warmup;
    let think_s = mean_think.as_secs_f64();
    let horizon = duration.as_secs_f64();

    let mut handles = Vec::with_capacity(sessions);
    for session in 0..sessions {
        let mix = scenario.mix.clone();
        let mix_shift = scenario.mix_shift.clone();
        let seed = SplitMix64::derive(scenario.seed, session as u64 + 1);
        handles.push(thread::spawn(move || -> (Vec<ClassCounters>, bool) {
            let mut counters = new_counters(n);
            let mut rng = Xoshiro256pp::seed_from(seed);
            let mut conn = match Connection::connect(addr, EXCHANGE_TIMEOUT) {
                Ok(c) => c,
                Err(_) => return (counters, true),
            };
            let weights_before: Vec<f64> = mix.iter().map(|m| m.weight).collect();
            loop {
                // Think, then issue the next request of this session.
                if think_s > 0.0 {
                    let gap = -rng.next_open_f64().ln() * think_s;
                    thread::sleep(Duration::from_secs_f64(gap));
                }
                let elapsed = start.elapsed();
                if elapsed >= duration {
                    return (counters, false);
                }
                let weights = match &mix_shift {
                    Some((frac, after)) if elapsed.as_secs_f64() / horizon >= *frac => {
                        after.as_slice()
                    }
                    _ => weights_before.as_slice(),
                };
                let class = pick_class(weights, &mut rng);
                let cost = mix[class].cost.sample(&mut rng).max(MIN_COST);
                let c = &mut counters[class];
                c.sent += 1;
                let sent_at = Instant::now();
                let outcome = conn.exchange(class, cost);
                let latency = sent_at.elapsed();
                record(c, &outcome, latency, elapsed, warmup);
                if let Some(died) = settle_connection(&mut conn, addr, &outcome) {
                    return (counters, died);
                }
            }
        }));
    }

    let mut classes = new_counters(n);
    let mut dead_workers = 0usize;
    for h in handles {
        let (counters, died) = h.join().expect("session worker panicked");
        for (agg, c) in classes.iter_mut().zip(&counters) {
            agg.merge(c);
        }
        dead_workers += usize::from(died);
    }
    Ok(GenStats { classes, measured_s: (duration - warmup).as_secs_f64(), dead_workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker panics while holding the queue's lock: pushes and pops
    /// still go through, and a pop parked on the condition variable
    /// still wakes for the next push.
    #[test]
    fn a_panicked_holder_leaves_the_queue_usable() {
        let q = Arc::new(JobQueue::default());
        let held = Arc::clone(&q);
        let panicked = thread::spawn(move || {
            let _g = held.lock();
            panic!("poison the queue");
        })
        .join();
        assert!(panicked.is_err() && q.inner.is_poisoned());
        let job = |class| Job { intended: Duration::ZERO, class, cost: 1.0 };
        q.push(job(0));
        assert_eq!(q.pop().map(|j| j.class), Some(0));
        let pusher = Arc::clone(&q);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            pusher.push(job(1));
        });
        assert_eq!(q.pop().map(|j| j.class), Some(1), "the parked pop wakes");
        t.join().unwrap();
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn early_send_latency_is_measured_from_the_send() {
        let us = Duration::from_micros;
        // Pacing woke 100 µs early and the reply beat the intended
        // instant: 60 µs on the wire, not a clamped zero.
        assert_eq!(open_loop_latency(us(10_000), us(9_900), us(9_960)), us(60));
        // Early send, reply after the intended instant: still from the send.
        assert_eq!(open_loop_latency(us(10_000), us(9_900), us(10_050)), us(150));
        // Late send: the backlog the client itself caused is charged.
        assert_eq!(open_loop_latency(us(10_000), us(12_000), us(12_200)), us(2_200));
    }

    #[test]
    fn pick_class_follows_weights() {
        let mut rng = Xoshiro256pp::seed_from(9);
        let weights = [3.0, 1.0];
        let mut counts = [0u64; 2];
        for _ in 0..40_000 {
            counts[pick_class(&weights, &mut rng)] += 1;
        }
        let frac = counts[0] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "class-0 share {frac}");
    }

    #[test]
    fn pick_class_zero_weight_never_chosen() {
        let mut rng = Xoshiro256pp::seed_from(1);
        for _ in 0..5_000 {
            assert_eq!(pick_class(&[0.0, 1.0], &mut rng), 1);
        }
    }

    #[test]
    fn job_queue_drains_in_fifo_order_then_ends() {
        let q = JobQueue::default();
        for i in 0..5 {
            q.push(Job { intended: Duration::from_millis(i), class: 0, cost: 1.0 });
        }
        q.close();
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().intended, Duration::from_millis(i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn counters_merge_adds_everything() {
        let mut a = ClassCounters { sent: 2, ok: 2, errors: 0, ..Default::default() };
        a.latency_us.record(100);
        a.slowdown.push(1.0);
        let mut b = ClassCounters { sent: 3, ok: 2, errors: 1, ..Default::default() };
        b.latency_us.record(300);
        b.slowdown.push(3.0);
        a.merge(&b);
        assert_eq!(a.sent, 5);
        assert_eq!(a.ok, 4);
        assert_eq!(a.errors, 1);
        assert_eq!(a.latency_us.count(), 2);
        assert_eq!(a.slowdown.count(), 2);
        assert!((a.slowdown.mean() - 2.0).abs() < 1e-12);
    }
}
