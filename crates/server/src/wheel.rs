//! The per-class task servers' execution: what a request's stretched
//! service time costs, and who notices that it is over. The discipline
//! — which request of which class is in service — is [`Lanes`]; this
//! module turns each service start into a finish deadline and each
//! fired deadline into the lane's next start.
//!
//! ```text
//!  submit ─▶ lane[class] ─ idle ─▶ start: file finish deadline ─▶ executor thread
//!              └─ busy: FIFO                                       │ waits for it:
//!                                                                  │  Sleep: parked
//!  fire: record metrics, deliver CompletionNotify, ◀───────────────┘  Spin: polling
//!  start the lane's FIFO head                                         the clock
//! ```
//!
//! The [`Workload`] decides how the wait is spent. Sleep service is
//! pure waiting, so one timer thread serves every class, parked until
//! the earliest deadline: no thread blocks per request. Spin service
//! stands for CPU-bound work, so each class has its own thread, which
//! burns the stretched time polling the clock. Either way a
//! [`Deadlines`] store never holds more than one entry per class (a
//! lane admits one in-service request). The module keeps the name of
//! the hierarchical timer wheel it replaced because
//! `PsdServer::wheel_stats`, `psd_obs::WheelStats` and the
//! `psd_wheel_*` metric families are what `benchmark/` reads.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use psd_obs::WheelStats;

use crate::metrics::{MetricsRecorder, MetricsSink};
use crate::queues::{CompletionNotify, Lanes, QueuedRequest, Submitted};
use crate::server::{Completion, Workload};
use crate::timing;

/// Sleep finish times are rounded **up** to this grid (50 µs), so a
/// completion fires at most one step late. Dropping it is a measured
/// latency win that also moves `peak_rss_mb` and `slowdown_c0`
/// (ROADMAP item 1; numbers in CHANGES.md, PR 16), so it stays until
/// that change is made on its own.
const GRID_NANOS: u64 = 50_000;

/// Pending finish deadlines, earliest first (filing order among
/// equals). Time is whatever unit the caller counts in (the timer
/// thread: nanoseconds since its epoch). A sorted queue, not a heap: a
/// lane admits one in-service request, so it never holds more entries
/// than there are classes, and it keeps its capacity, so steady state
/// allocates nothing.
struct Deadlines<T> {
    queue: VecDeque<(u64, T)>,
}

impl<T> Default for Deadlines<T> {
    fn default() -> Self {
        Self { queue: VecDeque::new() }
    }
}

impl<T> Deadlines<T> {
    fn insert(&mut self, due: u64, payload: T) {
        let at = self.queue.partition_point(|entry| entry.0 <= due);
        self.queue.insert(at, (due, payload));
    }

    fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|entry| entry.0)
    }

    /// The earliest payload whose deadline is at or before `now`.
    fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.next_due()? > now {
            return None;
        }
        self.queue.pop_front().map(|entry| entry.1)
    }
}

/// `finish` (nanoseconds) rounded up to the grid.
fn on_grid(finish_ns: u64) -> u64 {
    finish_ns.next_multiple_of(GRID_NANOS)
}

/// A request in service: what completes when its stretched time is up.
struct InService {
    class: usize,
    enqueued: Instant,
    dispatched: Instant,
    notify: CompletionNotify,
}

/// One executor thread's deadline store (nanoseconds since
/// `Shared::epoch`) and what the thread parks on when it is empty.
#[derive(Default)]
struct Executor {
    state: Mutex<Deadlines<InService>>,
    alarm: Condvar,
    stats: WheelStats,
}

struct Shared {
    epoch: Instant,
    work_unit: Duration,
    workload: Workload,
    lanes: Lanes,
    /// Sleep: one, serving every class. Spin: one per class.
    executors: Vec<Executor>,
}

/// All classes' task servers: the lanes plus the thread(s) that realise
/// their service times.
pub(crate) struct TaskServers {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TaskServers {
    /// Start `n` classes' servers at an even rate split: one timer
    /// thread for Sleep, one spinning thread per class for Spin.
    pub(crate) fn start(
        n: usize,
        work_unit: Duration,
        workload: Workload,
        metrics: &MetricsSink,
    ) -> Self {
        let executors = match workload {
            Workload::Sleep => 1,
            Workload::Spin => n,
        };
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            work_unit,
            workload,
            lanes: Lanes::new(n),
            executors: (0..executors).map(|_| Executor::default()).collect(),
        });
        let threads = (0..executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let recorder = metrics.recorder();
                thread::Builder::new()
                    .name(format!("psd-task-{i}"))
                    .spawn(move || shared.run(i, &recorder))
                    .expect("spawn task-server thread")
            })
            .collect();
        Self { shared, threads: Mutex::new(threads) }
    }

    /// Accept a request: start service at once if its class is idle,
    /// else queue behind the head. `false` after [`TaskServers::close`].
    pub(crate) fn submit(&self, req: QueuedRequest) -> bool {
        match self.shared.lanes.submit(req) {
            Submitted::Rejected => false,
            Submitted::Queued => true,
            Submitted::Start(req) => {
                self.shared.start(req);
                true
            }
        }
    }

    /// Update the per-class rate shares; takes effect at each class's
    /// next service start.
    pub(crate) fn set_weights(&self, weights: &[f64]) {
        self.shared.lanes.set_weights(weights);
    }

    /// Requests queued behind `class`'s in-service head.
    pub(crate) fn backlog(&self, class: usize) -> usize {
        self.shared.lanes.backlog(class)
    }

    /// Stop accepting; queued and in-service requests still complete.
    pub(crate) fn close(&self) {
        self.shared.lanes.close();
        for exec in &self.shared.executors {
            // Pass through the lock before ringing, so a thread that
            // checked the flag just before it flipped is already parked
            // when the notify lands.
            drop(exec.state.lock());
            exec.alarm.notify_all();
        }
    }

    /// Wait for the executor threads to drain and exit (call after
    /// [`TaskServers::close`]).
    pub(crate) fn join(&self) {
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }

    /// The timer thread's activity counters and the current occupancy
    /// (requests accepted and not yet finished); `None` for Spin, which
    /// has no timer.
    pub(crate) fn timer_stats(&self) -> Option<(&WheelStats, usize)> {
        (self.shared.workload == Workload::Sleep)
            .then(|| (&self.shared.executors[0].stats, self.shared.lanes.in_flight()))
    }
}

impl Shared {
    /// Put `req` in service on its class's server and file its finish
    /// with the executor that will notice it. The share is read now, so
    /// the stretch holds for this request's whole execution; the
    /// stretched time is the paper's rate-scaled `X/r_i`, which makes
    /// the recorded slowdown exactly `W/(X/r_i)`.
    fn start(&self, req: QueuedRequest) {
        let target = self.work_unit.mul_f64(req.cost * self.lanes.stretch(req.class));
        let dispatched = Instant::now();
        let since_epoch = |at: Instant| (at - self.epoch).as_nanos() as u64;
        let (exec, due) = match self.workload {
            // The timer thread's wait overshoots by the calibrated
            // amount, so aim early and let the overshoot land the fire
            // on the true finish time.
            Workload::Sleep => {
                (&self.executors[0], on_grid(since_epoch(dispatched + timing::compensated(target))))
            }
            Workload::Spin => (&self.executors[req.class], since_epoch(dispatched + target)),
        };
        let job =
            InService { class: req.class, enqueued: req.enqueued, dispatched, notify: req.notify };
        exec.stats.scheduled.fetch_add(1, Ordering::Relaxed);
        let wake = {
            let mut st = exec.state.lock();
            let earlier = st.next_due().is_none_or(|d| due < d);
            st.insert(due, job);
            earlier
        };
        if wake {
            exec.alarm.notify_one();
        }
    }

    /// Record and deliver a finished execution, then start the class's
    /// next request if one was waiting.
    fn complete(&self, job: InService, recorder: &MetricsRecorder) {
        let service_s = job.dispatched.elapsed().as_secs_f64();
        let delay_s = job.dispatched.saturating_duration_since(job.enqueued).as_secs_f64();
        recorder.record(job.class, delay_s, service_s);
        job.notify.deliver(Completion { delay_s, service_s });
        if let Some(next) = self.lanes.finish(job.class) {
            self.start(next);
        }
    }

    /// Executor `i`'s thread: fire what is due, then wait for the next
    /// deadline — asleep on the alarm (Sleep) or burning the CPU the
    /// request stands for (Spin) — until closed and drained.
    fn run(&self, i: usize, recorder: &MetricsRecorder) {
        let exec = &self.executors[i];
        let mut fired: Vec<InService> = Vec::new();
        let mut st = exec.state.lock();
        loop {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            while let Some(job) = st.pop_due(now_ns) {
                fired.push(job);
            }
            if !fired.is_empty() {
                exec.stats.fires.fetch_add(fired.len() as u64, Ordering::Relaxed);
                drop(st);
                // Fire outside the lock: completions take lane locks,
                // run callbacks and file the next deadline.
                for job in fired.drain(..) {
                    self.complete(job, recorder);
                }
                st = exec.state.lock();
                continue;
            }
            match (st.next_due(), self.workload) {
                (Some(due_ns), Workload::Sleep) => {
                    exec.alarm.wait_for(&mut st, Duration::from_nanos(due_ns - now_ns));
                    exec.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                // Poll the clock with the lock held: the class is in
                // service, so no start can want it, and `close` waits
                // for the drain anyway.
                (Some(_), Workload::Spin) => std::hint::spin_loop(),
                (None, workload) => {
                    let drained = match workload {
                        Workload::Sleep => self.lanes.all_drained(),
                        Workload::Spin => self.lanes.drained(i),
                    };
                    if drained {
                        return;
                    }
                    // Idle: sleep until a start or close rings the
                    // alarm. Both do so while ordering against this
                    // lock, so the wakeup cannot be lost.
                    exec.alarm.wait(&mut st);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_dist::rng::Xoshiro256pp;

    fn drain(d: &mut Deadlines<u32>, now: u64) -> Vec<u32> {
        std::iter::from_fn(|| d.pop_due(now)).collect()
    }

    #[test]
    fn fires_at_exact_tick_not_before() {
        let mut d = Deadlines::default();
        d.insert(5, 1u32);
        assert!(drain(&mut d, 4).is_empty(), "not due yet");
        assert_eq!(d.next_due(), Some(5));
        assert_eq!(drain(&mut d, 5), vec![1], "due exactly at 5");
        assert_eq!(d.next_due(), None);
    }

    #[test]
    fn past_deadlines_round_up_to_the_next_tick() {
        assert_eq!(on_grid(1), GRID_NANOS);
        assert_eq!(on_grid(GRID_NANOS), GRID_NANOS, "already on the grid");
        assert_eq!(on_grid(GRID_NANOS + 1), 2 * GRID_NANOS);
        // A deadline already in the past when filed fires at the next pop.
        let mut d = Deadlines::default();
        d.insert(7, 9u32);
        assert_eq!(drain(&mut d, 100), vec![9]);
    }

    #[test]
    fn same_tick_timers_fire_together() {
        let mut d = Deadlines::default();
        d.insert(50, 99u32);
        for v in 0..10u32 {
            d.insert(42, v);
        }
        assert_eq!(drain(&mut d, 42), (0..10).collect::<Vec<_>>(), "in filing order");
        assert_eq!(drain(&mut d, 1000), vec![99]);
    }

    #[test]
    fn idle_gaps_are_skipped_cheaply() {
        // Nothing walks the time between deadlines, however long.
        let mut d = Deadlines::default();
        let t = Instant::now();
        assert!(drain(&mut d, u64::MAX - 1).is_empty());
        d.insert(u64::MAX, 1u32);
        assert_eq!(drain(&mut d, u64::MAX), vec![1]);
        assert!(t.elapsed() < Duration::from_millis(100), "an empty stretch must cost nothing");
    }

    /// Submitters racing `close`, on real threads: whatever `submit`
    /// accepted completes before `join` returns — no executor exits
    /// over a request that was accepted but not yet handed to it.
    #[test]
    fn submits_racing_close_are_served_or_refused_never_lost() {
        for workload in [Workload::Sleep, Workload::Spin] {
            for round in 0..20 {
                let sink = MetricsSink::new(2);
                let servers =
                    Arc::new(TaskServers::start(2, Duration::from_micros(5), workload, &sink));
                let pushers: Vec<_> = (0..2usize)
                    .map(|p| {
                        let servers = Arc::clone(&servers);
                        thread::spawn(move || {
                            let req = |i| QueuedRequest {
                                class: (p + i) % 2,
                                cost: 1.0,
                                enqueued: Instant::now(),
                                notify: CompletionNotify::None,
                            };
                            (0..200usize).filter(|&i| servers.submit(req(i))).count() as u64
                        })
                    })
                    .collect();
                thread::sleep(Duration::from_micros(50 * round));
                servers.close();
                let accepted: u64 = pushers.into_iter().map(|h| h.join().unwrap()).sum();
                servers.join();
                let completed: u64 = sink.snapshot().classes.iter().map(|c| c.completed).sum();
                assert_eq!(completed, accepted, "{workload:?} round {round}");
            }
        }
    }

    /// The Sleep executor with the clock and the thread taken out: the
    /// same [`Lanes`] and [`Deadlines`], virtual nanoseconds for time,
    /// the invariants checked at every step.
    struct Model {
        lanes: Lanes,
        /// `(class, due as computed at the start, notify)`.
        deadlines: Deadlines<(usize, u64, CompletionNotify)>,
        now: u64,
        /// Finish deadlines pending per class (the invariant: ≤ 1).
        pending: Vec<u32>,
        /// The weights last set, to predict the stretch independently.
        weights: Vec<f64>,
        accepted: u32,
        last_fired: u64,
        /// `(class, id)` in completion order, written by the callbacks.
        log: Arc<Mutex<Vec<(usize, u32)>>>,
    }

    impl Model {
        fn submit(&mut self, raw_class: usize, cost: f64) {
            let (log, id) = (Arc::clone(&self.log), self.accepted);
            let class = raw_class.min(self.pending.len() - 1);
            let done = move |_| log.lock().push((class, id));
            let req = QueuedRequest {
                class: raw_class, // clamped by the lanes
                cost,
                enqueued: Instant::now(),
                notify: CompletionNotify::Callback(Box::new(done)),
            };
            match self.lanes.submit(req) {
                Submitted::Rejected => panic!("open lanes accept"),
                Submitted::Queued => assert_eq!(self.pending[class], 1, "queued behind a head"),
                Submitted::Start(req) => self.start(req),
            }
            self.accepted += 1;
        }

        fn start(&mut self, req: QueuedRequest) {
            // 1/share, share floored at MIN_SHARE, capped at MAX_STRETCH
            // — from the weights in force now, whatever they were when
            // the request was queued.
            let floor = |w: f64| w.max(1e-6);
            let total: f64 = self.weights.iter().map(|&w| floor(w)).sum();
            let want = (total / floor(self.weights[req.class])).min(100.0);
            let stretch = self.lanes.stretch(req.class);
            assert!((stretch - want).abs() <= 1e-9 * want, "stretch {stretch} vs {want}");
            let due = on_grid(self.now + (req.cost * stretch * 20_000.0) as u64);
            self.pending[req.class] += 1;
            assert_eq!(self.pending[req.class], 1, "one pending finish per class");
            self.deadlines.insert(due, (req.class, due, req.notify));
        }

        fn advance(&mut self, to: u64) {
            self.now = to;
            while let Some((class, due, notify)) = self.deadlines.pop_due(self.now) {
                assert!(due <= self.now, "fired before due");
                assert!(due >= self.last_fired, "fired out of deadline order");
                self.last_fired = due;
                self.pending[class] -= 1;
                notify.deliver(Completion { delay_s: 0.0, service_s: 1.0 });
                if let Some(next) = self.lanes.finish(class) {
                    self.start(next);
                }
            }
            assert!(self.deadlines.next_due().is_none_or(|d| d > self.now));
        }
    }

    #[test]
    fn seeded_schedules_keep_the_task_server_invariants() {
        const CLASSES: usize = 5;
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from(seed);
            let mut draw = |k: usize| (rng.next_f64() * k as f64) as usize;
            let mut m = Model {
                lanes: Lanes::new(CLASSES),
                deadlines: Deadlines::default(),
                now: 0,
                pending: vec![0; CLASSES],
                weights: vec![1.0; CLASSES],
                accepted: 0,
                last_fired: 0,
                log: Arc::default(),
            };
            for _ in 0..3_000 {
                match draw(10) {
                    0..=4 => m.submit(draw(CLASSES + 1), 0.5 + draw(4) as f64), // incl. out of range
                    5..=7 => m.advance(m.now + draw(300_000) as u64),
                    8 => {
                        // Zero, starved and ordinary weights alike; what
                        // is already filed does not move.
                        m.weights =
                            (0..CLASSES).map(|_| [0.0, 1e-5, 0.3, 1.0, 4.0][draw(5)]).collect();
                        m.lanes.set_weights(&m.weights);
                    }
                    _ => assert!(m.lanes.in_flight() >= m.pending.iter().sum::<u32>() as usize),
                }
            }
            m.lanes.close();
            let late = QueuedRequest {
                class: 0,
                cost: 1.0,
                enqueued: Instant::now(),
                notify: CompletionNotify::None,
            };
            assert!(matches!(m.lanes.submit(late), Submitted::Rejected), "closed lanes refuse");
            while let Some(due) = m.deadlines.next_due() {
                assert!(!m.lanes.all_drained());
                m.advance(due);
            }
            assert!(m.lanes.all_drained(), "seed {seed}");
            assert_eq!(m.lanes.in_flight(), 0, "seed {seed}");
            let log = m.log.lock();
            assert_eq!(log.len(), m.accepted as usize, "seed {seed}: each completes exactly once");
            for class in 0..CLASSES {
                let ids: Vec<u32> = log.iter().filter(|e| e.0 == class).map(|e| e.1).collect();
                assert!(ids.is_sorted(), "seed {seed}: class {class} is FIFO");
            }
        }
    }
}
