//! The [`PsdServer`] facade: the per-class task servers
//! ([`crate::queues`] lanes executed by [`crate::wheel`]) + the online
//! PSD rate monitor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use psd_core::control::{
    build_controller, ClassTable, ControllerKind, RateController, SharedControl, WindowObservation,
};
use psd_obs::{ControlTrace, ObsBundle, ObsConfig};

use crate::metrics::{MetricsSink, ServerStats};
use crate::queues::{CompletionNotify, QueuedRequest};
use crate::wheel::TaskServers;

/// The dispatch discipline. One value: the server has no other. The
/// type and [`ServerConfig::scheduler`] remain because `benchmark/`
/// names both when it builds its configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Paper-faithful rate partitioning (Fig. 1): one *serial* virtual
    /// task server per class, executing at its allocated fraction `r_i`
    /// of the machine rate (execution stretched by `1/r_i`), so each
    /// class is an independent M/G/1 at rate `r_i` — the regime Eq. 17
    /// assumes. Non-work-conserving.
    RatePartition,
}

/// How a class's task server spends a request's stretched service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Busy-spin (CPU-bound, like dynamic content generation) on the
    /// class's own thread — so the machine needs a core for every class
    /// that is busy at once.
    Spin,
    /// Pure waiting (I/O-bound; cheap for tests): a finish deadline on
    /// the one timer thread, so no thread blocks per request.
    Sleep,
}

/// The default monitor window. This is the **single source of truth**
/// for the control-window default — tests, the `psd_httpd` binary and
/// the in-process drivers all inherit it through
/// [`ServerConfig::default`] (they used to scatter 20/25/50/200 ms
/// copies). 50 ms refreshes the Eq. 17 weights ~20×/s: fast enough
/// that sub-second tests see at least one reallocation, slow enough
/// that the estimator sees tens of arrivals per window at the request
/// rates the front-ends sustain. Scenario profiles that model the
/// paper's 1000-time-unit window override it explicitly.
pub const DEFAULT_CONTROL_WINDOW: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Differentiation parameters, one per class (class 0 highest).
    pub deltas: Vec<f64>,
    /// Mean request cost in work units (the allocator's `E[X]`, in the
    /// same units clients use for `submit`).
    pub mean_cost: f64,
    /// Dispatch discipline (see [`SchedulerKind`]: there is one).
    pub scheduler: SchedulerKind,
    /// Wall-clock duration of one work unit.
    pub work_unit: Duration,
    /// Spin or sleep execution.
    pub workload: Workload,
    /// Monitor window (the paper's 1000-time-unit estimator window).
    pub control_window: Duration,
    /// Estimator history in windows (paper: 5).
    pub estimator_history: usize,
    /// How the one PSD controller drives the monitor (`--controller`):
    /// as the open-loop Eq. 17 allocator or with its slowdown feedback
    /// engaged. It is the same object the simulator runs.
    pub controller: ControllerKind,
    /// Integral gain of the slowdown feedback (`--gain`); it reaches
    /// the controller only under [`ControllerKind::Feedback`], and
    /// `gain = 0` there *is* the open loop (one controller, one clamped
    /// Eq. 17 path: a class below `min_rate` is pinned at it, the rest
    /// share the remainder). At gain 0 `/trace/control` lists no
    /// `integral_terms`.
    pub gain: f64,
    /// Target admitted utilization (`--admission-cap`): when set, the
    /// control plane sheds the lowest classes first once the
    /// estimator-smoothed offered load exceeds the cap — requests
    /// rejected by [`PsdServer::admit`] are answered `503` upstream.
    /// `None` disables admission control.
    pub admission_cap: Option<f64>,
    /// Request-trace sampling probability in `[0, 1]` (`--trace-sample`).
    /// Every sampled request writes one span into the observability
    /// ring; `0` disables span tracing entirely (counters, histograms
    /// and the flight recorder stay on — they are not per-request
    /// allocations either way).
    pub trace_sample: f64,
    /// Total span slots retained across the trace ring's shards.
    pub trace_capacity: usize,
    /// Control windows retained by the control-decision flight
    /// recorder (`GET /trace/control`).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    /// Two classes at δ = 1:2, rate-partitioned, sleep workload, a
    /// 200 µs work unit, [`DEFAULT_CONTROL_WINDOW`] and the
    /// paper's 5-window estimator history. Callers override what they
    /// need with struct-update syntax; nothing else in the tree
    /// hard-codes these values anymore.
    fn default() -> Self {
        Self {
            deltas: vec![1.0, 2.0],
            mean_cost: 1.0,
            scheduler: SchedulerKind::RatePartition,
            work_unit: Duration::from_micros(200),
            workload: Workload::Sleep,
            control_window: DEFAULT_CONTROL_WINDOW,
            estimator_history: 5,
            controller: ControllerKind::Open,
            gain: 0.3,
            admission_cap: None,
            trace_sample: 1.0,
            trace_capacity: 4096,
            flight_capacity: 256,
        }
    }
}

/// Completion receipt for synchronous submitters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Queueing delay in seconds.
    pub delay_s: f64,
    /// Service duration in seconds.
    pub service_s: f64,
}

impl Completion {
    /// Measured slowdown of this request.
    pub fn slowdown(&self) -> f64 {
        self.delay_s / self.service_s.max(1e-9)
    }
}

/// An interruptible stop signal: the monitor parks on it between
/// control windows instead of in a bare `thread::sleep`, so a shutdown
/// never waits out a long window (scenario profiles use multi-second
/// windows; the old sleep pinned every drain to one).
struct StopFlag {
    state: Mutex<bool>,
    cv: Condvar,
}

impl StopFlag {
    fn new() -> Self {
        Self { state: Mutex::new(false), cv: Condvar::new() }
    }

    fn set(&self) {
        *self.state.lock() = true;
        self.cv.notify_all();
    }

    /// Park for up to `d`; returns `true` once stop has been requested
    /// (immediately, or mid-wait).
    fn wait_for(&self, d: Duration) -> bool {
        let mut g = self.state.lock();
        if *g {
            return true;
        }
        self.cv.wait_for(&mut g, d);
        *g
    }
}

/// A running PSD server.
pub struct PsdServer {
    exec: Arc<TaskServers>,
    metrics: Arc<MetricsSink>,
    window_arrivals: Arc<Vec<AtomicU64>>,
    /// Per-class admitted work inside the current window, in
    /// fixed-point milli-work-units (f64 costs don't add atomically;
    /// 1/1000 of a work unit is far below every other measurement
    /// error here).
    window_work_mu: Arc<Vec<AtomicU64>>,
    /// Per-class work turned away at the door inside the current
    /// window (same fixed point). The admission controller must see
    /// **offered** load — admitted plus shed — or it would equilibrate
    /// above its cap: post-shed load looks compliant the moment the
    /// shedding works.
    window_shed_mu: Arc<Vec<AtomicU64>>,
    control: Arc<SharedControl>,
    shed: Arc<Vec<AtomicU64>>,
    stop: Arc<StopFlag>,
    monitor: Option<JoinHandle<()>>,
    n_classes: usize,
    obs: Arc<ObsBundle>,
    work_unit: Duration,
    started: Instant,
}

impl PsdServer {
    /// Start the task servers and the rate monitor.
    pub fn start(cfg: ServerConfig) -> Self {
        assert!(!cfg.deltas.is_empty(), "at least one class");
        assert!(cfg.mean_cost > 0.0, "mean cost must be positive");
        let n = cfg.deltas.len();
        let metrics = Arc::new(MetricsSink::new(n));
        let window_arrivals: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let window_work_mu: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let window_shed_mu: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let control = Arc::new(SharedControl::new(ClassTable {
            deltas: cfg.deltas.clone(),
            gain: cfg.gain,
            admission_cap: cfg.admission_cap,
            controller: cfg.controller,
            epoch: 0,
        }));
        let shed: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let stop = Arc::new(StopFlag::new());
        let obs = Arc::new(ObsBundle::new(
            n,
            ObsConfig {
                span_capacity: cfg.trace_capacity,
                sample: cfg.trace_sample,
                flight_capacity: cfg.flight_capacity,
                ..ObsConfig::default()
            },
        ));

        let exec = Arc::new(TaskServers::start(n, cfg.work_unit, cfg.workload, &metrics));

        // Build the controller stack and publish its initial directive
        // *before* the monitor thread exists: `start` returns with the
        // rates and admission tables already in force, so nothing ever
        // observes a half-initialized control plane.
        let table = control.table();
        let mut controller = build_monitor_controller(&cfg, &table);
        let initial = controller.initial_rates(n);
        exec.set_weights(&initial);
        control.publish(table.epoch, &initial, None);

        let monitor = {
            let exec = Arc::clone(&exec);
            let arrivals = Arc::clone(&window_arrivals);
            let work = Arc::clone(&window_work_mu);
            let shed_work = Arc::clone(&window_shed_mu);
            let metrics = Arc::clone(&metrics);
            let control = Arc::clone(&control);
            let stop = Arc::clone(&stop);
            let telemetry = Arc::clone(&obs);
            let cfg = cfg.clone();
            Some(thread::spawn(move || {
                monitor_loop(
                    &cfg, &exec, &arrivals, &work, &shed_work, &metrics, &control, &stop,
                    &telemetry, controller, table, initial,
                )
            }))
        };

        Self {
            exec,
            metrics,
            window_arrivals,
            window_work_mu,
            window_shed_mu,
            control,
            shed,
            stop,
            monitor,
            n_classes: n,
            obs,
            work_unit: cfg.work_unit,
            started: Instant::now(),
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.n_classes
    }

    /// Fire-and-forget submission. Returns `false` after shutdown began.
    pub fn submit(&self, class: usize, cost: f64) -> bool {
        self.submit_inner(class, cost, CompletionNotify::None)
    }

    /// Submit and receive a [`Completion`] receipt when the request has
    /// executed (used by the threaded HTTP front-end, which parks the
    /// connection's thread until then).
    pub fn submit_sync(&self, class: usize, cost: f64) -> Option<Completion> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if !self.submit_inner(class, cost, CompletionNotify::Channel(tx)) {
            return None;
        }
        rx.recv().ok()
    }

    /// Submit and have the executing thread invoke `notify` with the
    /// [`Completion`] — no thread blocks in between. The reactor engine
    /// replies through this: the callback posts into the reactor's
    /// mailbox and rings its poller. Returns `false` (without invoking
    /// `notify`) after shutdown began.
    pub fn submit_async(
        &self,
        class: usize,
        cost: f64,
        notify: impl FnOnce(Completion) + Send + 'static,
    ) -> bool {
        self.submit_inner(class, cost, CompletionNotify::Callback(Box::new(notify)))
    }

    fn submit_inner(&self, class: usize, cost: f64, notify: CompletionNotify) -> bool {
        assert!(cost.is_finite() && cost > 0.0, "request cost must be positive");
        let class = class.min(self.n_classes - 1);
        self.window_arrivals[class].fetch_add(1, Ordering::Relaxed);
        self.window_work_mu[class].fetch_add((cost * 1000.0).round() as u64, Ordering::Relaxed);
        self.exec.submit(QueuedRequest { class, cost, enqueued: Instant::now(), notify })
    }

    /// One admission decision for a class-`class` request of `cost`
    /// work units, against the probabilities most recently published by
    /// the control plane: `true` to serve, `false` to shed (the shed
    /// counter and the window's shed-work account are bumped here;
    /// callers answer `503` + `Connection: close`). The cost matters
    /// even for rejected requests — the monitor's controller must see
    /// the **offered** load, not just what survived the door. With no
    /// `admission_cap` configured this is always `true` at the cost of
    /// one relaxed atomic load.
    pub fn admit(&self, class: usize, cost: f64) -> bool {
        let class = class.min(self.n_classes - 1);
        self.obs.admission.draws.fetch_add(1, Ordering::Relaxed);
        if self.control.admit(class) {
            true
        } else {
            self.obs.admission.sheds.fetch_add(1, Ordering::Relaxed);
            self.shed[class].fetch_add(1, Ordering::Relaxed);
            self.window_shed_mu[class]
                .fetch_add((cost.max(0.0) * 1000.0).round() as u64, Ordering::Relaxed);
            false
        }
    }

    /// The control plane's runtime surface: published rates and
    /// admission probabilities, the epoch-stamped class table, and the
    /// hot-reconfiguration entry point the admin endpoints use.
    pub fn control(&self) -> &SharedControl {
        &self.control
    }

    /// The observability bundle the frontends and admin routes write
    /// into and scrape from: the request-span ring, per-class latency
    /// histograms, admission counters and the control-decision flight
    /// recorder.
    pub fn obs(&self) -> &Arc<ObsBundle> {
        &self.obs
    }

    /// The configured wall-clock duration of one work unit — what the
    /// span decomposition uses to compute a request's nominal
    /// (full-rate) service time.
    pub fn work_unit(&self) -> Duration {
        self.work_unit
    }

    /// When this server started (for `/healthz` uptime).
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// The timer thread's activity counters and the current occupancy
    /// (requests accepted and not yet finished): `Some` under
    /// [`Workload::Sleep`], `None` under [`Workload::Spin`], which has
    /// no timer. Named for the timer wheel this used to be; `benchmark/`
    /// calls it by this name.
    pub fn wheel_stats(&self) -> Option<(&psd_obs::WheelStats, usize)> {
        self.exec.timer_stats()
    }

    /// Requests shed at admission for one class.
    pub fn shed_count(&self, class: usize) -> u64 {
        self.shed[class.min(self.n_classes - 1)].load(Ordering::Relaxed)
    }

    /// Live statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.fill_shed(self.metrics.snapshot())
    }

    fn fill_shed(&self, mut stats: ServerStats) -> ServerStats {
        for (c, shed) in stats.classes.iter_mut().zip(self.shed.iter()) {
            c.shed = shed.load(Ordering::Relaxed);
        }
        stats
    }

    /// Backlog of one class.
    pub fn backlog(&self, class: usize) -> usize {
        self.exec.backlog(class.min(self.n_classes - 1))
    }

    /// Drain pending work, stop all threads, return final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop.set();
        self.exec.close();
        self.exec.join();
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        self.fill_shed(self.metrics.snapshot())
    }
}

/// Build the controller stack for the monitor from a class table — the
/// shared `psd_core::control` factory with this server's mean service
/// time at the full machine rate (rate partition splits one full-rate
/// processor into per-class shares).
fn build_monitor_controller(
    cfg: &ServerConfig,
    table: &ClassTable,
) -> Box<dyn RateController + Send> {
    let mean_service_s = cfg.mean_cost * cfg.work_unit.as_secs_f64();
    build_controller(
        table.controller,
        &table.deltas,
        mean_service_s,
        table.gain,
        cfg.estimator_history,
        table.admission_cap,
    )
}

/// The rate monitor: every control window it closes a
/// [`WindowObservation`] — swept arrivals/work counters, **measured
/// per-class slowdowns** from the sharded metrics recorders
/// ([`MetricsSink::sweep_window`], snapshot-and-reset so nothing
/// double-counts), and live backlogs — and hands it to an arbitrary
/// [`RateController`] built by the shared `psd_core::control` factory.
/// The directive's rates become the task servers' shares; its admission
/// probabilities are published to [`SharedControl`] for the submit
/// paths. The old inlined `LoadEstimator` + `psd_rates_clamped` loop is
/// gone: the controller stack is the single source of truth for rates,
/// and the exact same controller objects run in the desim engine.
///
/// Hot reconfiguration: when the admin surface bumps the class-table
/// epoch, the monitor rebuilds its controller from the new table at the
/// next window boundary and publishes under the new epoch (see the
/// epoch-ordering notes on [`SharedControl`]).
#[allow(clippy::too_many_arguments)]
fn monitor_loop(
    cfg: &ServerConfig,
    exec: &TaskServers,
    arrivals: &[AtomicU64],
    work_mu: &[AtomicU64],
    shed_mu: &[AtomicU64],
    metrics: &MetricsSink,
    control: &SharedControl,
    stop: &StopFlag,
    telemetry: &ObsBundle,
    mut controller: Box<dyn RateController + Send>,
    mut table: ClassTable,
    mut current_rates: Vec<f64>,
) {
    let n = cfg.deltas.len();
    let work_unit_s = cfg.work_unit.as_secs_f64();
    let started = Instant::now();
    let mut window_start = 0.0f64;
    let mut index = 0u64;
    loop {
        if stop.wait_for(cfg.control_window) {
            return;
        }
        // Hot reconfig: a bumped epoch swaps in a rebuilt controller at
        // this window boundary (its estimator restarts cold; the
        // current rates stay in force until its first directive).
        if control.epoch() != table.epoch {
            table = control.table();
            controller = build_monitor_controller(cfg, &table);
        }
        let now_s = started.elapsed().as_secs_f64();
        let sweep = metrics.sweep_window();
        let obs = WindowObservation {
            index,
            start: window_start,
            end: now_s,
            arrivals: arrivals.iter().map(|a| a.swap(0, Ordering::Relaxed)).collect(),
            arrived_work: work_mu
                .iter()
                .map(|w| w.swap(0, Ordering::Relaxed) as f64 * 1e-3 * work_unit_s)
                .collect(),
            shed_work: shed_mu
                .iter()
                .map(|w| w.swap(0, Ordering::Relaxed) as f64 * 1e-3 * work_unit_s)
                .collect(),
            completions: sweep.completions,
            backlog: (0..n).map(|c| exec.backlog(c) as u64).collect(),
            slowdown_sums: sweep.slowdown_sums,
        };
        index += 1;
        window_start = now_s;

        let directive = controller.control(now_s, &obs);
        if let Some(rates) = &directive.rates {
            exec.set_weights(rates);
            current_rates = rates.clone();
        }
        control.publish(table.epoch, &current_rates, directive.admit_probability.as_deref());
        // Flight-record the full decision — what the controller saw,
        // what it answered, what went into force, and its internals —
        // after publishing so telemetry never delays the control path.
        telemetry.flight.record(ControlTrace {
            at_s: now_s,
            epoch: table.epoch,
            observation: obs,
            directive,
            applied_rates: current_rates.clone(),
            internals: controller.internals(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(deltas: Vec<f64>) -> ServerConfig {
        ServerConfig { deltas, ..ServerConfig::default() }
    }

    #[test]
    fn starts_executes_and_shuts_down() {
        let s = PsdServer::start(quick_cfg(vec![1.0, 2.0]));
        for i in 0..50 {
            assert!(s.submit(i % 2, 1.0));
        }
        let stats = s.shutdown();
        let total: u64 = stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(total, 50, "all submitted requests execute before shutdown");
    }

    #[test]
    fn submit_sync_returns_receipt() {
        let s = PsdServer::start(quick_cfg(vec![1.0]));
        let c = s.submit_sync(0, 2.0).unwrap();
        assert!(c.service_s >= 0.0003, "2 work units ≈ 400µs, got {}", c.service_s);
        assert!(c.delay_s >= 0.0);
        s.shutdown();
    }

    #[test]
    fn out_of_range_class_clamped() {
        let s = PsdServer::start(quick_cfg(vec![1.0, 2.0]));
        assert!(s.submit(99, 1.0));
        assert!(s.admit(99, 1.0));
        assert_eq!(s.shed_count(99), 0);
        assert_eq!(s.backlog(99), 0, "backlog clamps like submit, admit and shed_count");
        let stats = s.shutdown();
        assert_eq!(stats.classes[1].completed, 1, "clamped to the last class");
    }

    #[test]
    fn submit_after_shutdown_fails_gracefully() {
        for workload in [Workload::Sleep, Workload::Spin] {
            let s = PsdServer::start(ServerConfig { workload, ..quick_cfg(vec![1.0]) });
            let exec = Arc::clone(&s.exec);
            s.shutdown();
            assert!(
                !exec.submit(QueuedRequest {
                    class: 0,
                    cost: 1.0,
                    enqueued: Instant::now(),
                    notify: CompletionNotify::None
                }),
                "{workload:?}: closed task servers must reject"
            );
        }
    }

    #[test]
    fn rate_partition_sleep_uses_the_wheel() {
        let s = PsdServer::start(quick_cfg(vec![1.0, 2.0]));
        let c = s.submit_sync(0, 1.0).expect("executes");
        // Even split over 2 classes: stretch 2 → ≈ 400 µs of service.
        assert!(c.service_s >= 0.0002, "stretched service, got {}", c.service_s);
        let (timer, _) = s.wheel_stats().expect("Sleep runs on the timer thread");
        assert_eq!(timer.fires.load(Ordering::Relaxed), 1);
        assert_eq!(timer.cascades.load(Ordering::Relaxed), 0, "nothing cascades any more");
        let stats = s.shutdown();
        assert_eq!(stats.classes[0].completed, 1);
    }

    #[test]
    fn spin_serves_each_class_on_its_own_thread() {
        let s = PsdServer::start(ServerConfig {
            workload: Workload::Spin,
            work_unit: Duration::from_micros(50),
            ..quick_cfg(vec![1.0, 2.0])
        });
        assert!(s.wheel_stats().is_none(), "spinning needs real CPU, not a timer");
        let c = s.submit_sync(1, 1.0).expect("executes");
        assert!(c.service_s >= 0.0001, "even split: stretch 2, got {}", c.service_s);
        for i in 0..20 {
            assert!(s.submit(i % 2, 1.0));
        }
        let stats = s.shutdown();
        assert_eq!(stats.classes.iter().map(|c| c.completed).sum::<u64>(), 21);
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn bad_cost_rejected() {
        let s = PsdServer::start(quick_cfg(vec![1.0]));
        s.submit(0, 0.0);
    }
}
