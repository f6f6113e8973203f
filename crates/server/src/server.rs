//! The [`PsdServer`] facade: the per-class task servers
//! ([`crate::queues`] lanes executed by [`crate::wheel`]) + the online
//! PSD rate monitor.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use psd_core::control::{
    build_controller, ClassTable, ControllerKind, RateController, SharedControl,
};
use psd_obs::{ControlTrace, ObsBundle};

use crate::locks::{lock, wait_timeout};
use crate::metrics::ServerStats;
use crate::queues::CompletionNotify;
use crate::wheel::{DeadlineClaim, Ring, TaskServers};

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

/// How a class's task server spends a request's stretched service
/// time. One value: the server has no other. The type and
/// [`ServerConfig::workload`] remain because `benchmark/` names both
/// when it builds its configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pure waiting: a finish deadline in one shared store, fired in
    /// reactor shard 0's own loop where its waits are exact and
    /// otherwise by one timer thread; no thread blocks per request.
    Sleep,
}

/// The default monitor window. This is the **single source of truth**
/// for the control-window default — tests and the `psd_httpd` binary
/// inherit it through [`ServerConfig::default`] (they used to scatter
/// 20/25/50/200 ms copies). 50 ms refreshes the Eq. 17 weights ~20×/s:
/// fast enough that sub-second tests see at least one reallocation,
/// slow enough that the estimator sees tens of arrivals per window at
/// the request rates the front-ends sustain. The load generator's
/// scenarios, like the paper's 1000-time-unit window, override it
/// explicitly.
pub const DEFAULT_CONTROL_WINDOW: Duration = Duration::from_millis(50);

/// The monitor's estimator history in control windows (the paper's 5).
const ESTIMATOR_HISTORY: usize = 5;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Differentiation parameters, one per class (class 0 highest).
    pub deltas: Vec<f64>,
    /// Mean request cost in work units (the allocator's `E[X]`, in the
    /// same units clients use for `submit`) — also what an HTTP request
    /// without `?cost=` costs (`--default-cost`).
    pub mean_cost: f64,
    /// Dispatch discipline (see [`SchedulerKind`]: there is one).
    pub scheduler: SchedulerKind,
    /// Wall-clock duration of one work unit.
    pub work_unit: Duration,
    /// Execution (see [`Workload`]: there is one).
    pub workload: Workload,
    /// Monitor window (the paper's 1000-time-unit estimator window).
    pub control_window: Duration,
    /// How the one PSD controller drives the monitor (`--controller`):
    /// as the open-loop Eq. 17 allocator or with its slowdown feedback
    /// engaged. It is the same object the simulator runs.
    pub controller: ControllerKind,
    /// Integral gain of the slowdown feedback (`--gain`); it reaches
    /// the controller only under [`ControllerKind::Feedback`], and
    /// `gain = 0` there *is* the open loop (one controller, one clamped
    /// Eq. 17 path: a class below `MIN_RATE` is pinned at it, the rest
    /// share the remainder). At gain 0 `/trace/control` lists no
    /// `integral_terms`.
    pub gain: f64,
    /// Target admitted utilization (`--admission-cap`): when set, the
    /// control plane sheds the lowest classes first once the
    /// estimator-smoothed offered load exceeds the cap — requests
    /// rejected by [`PsdServer::admit`] are answered `503` upstream.
    /// `None` disables admission control.
    pub admission_cap: Option<f64>,
    /// Control windows retained by the control-decision flight
    /// recorder (`GET /trace/control`).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    /// Two classes at δ = 1:2, rate-partitioned, sleep workload, a
    /// 200 µs work unit and [`DEFAULT_CONTROL_WINDOW`]. Callers
    /// override what they need with struct-update syntax; nothing else
    /// in the tree hard-codes these values anymore.
    fn default() -> Self {
        Self {
            deltas: vec![1.0, 2.0],
            mean_cost: 1.0,
            scheduler: SchedulerKind::RatePartition,
            work_unit: Duration::from_micros(200),
            workload: Workload::Sleep,
            control_window: DEFAULT_CONTROL_WINDOW,
            controller: ControllerKind::Open,
            gain: 0.3,
            admission_cap: None,
            flight_capacity: psd_obs::FLIGHT_CAPACITY,
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
        *lock(&self.state) = true;
        self.cv.notify_all();
    }

    /// Park for up to `d`; returns `true` once stop has been requested
    /// (immediately, or mid-wait).
    fn wait_for(&self, d: Duration) -> bool {
        let g = lock(&self.state);
        if *g {
            return true;
        }
        *wait_timeout(&self.cv, g, d)
    }
}

/// A running PSD server.
pub struct PsdServer {
    /// The task servers; their lanes hold every per-class count.
    exec: Arc<TaskServers>,
    control: Arc<SharedControl>,
    stop: Arc<StopFlag>,
    monitor: Option<JoinHandle<()>>,
    obs: Arc<ObsBundle>,
    cfg: ServerConfig,
    started: Instant,
}

impl PsdServer {
    /// Start the task servers and the rate monitor.
    pub fn start(cfg: ServerConfig) -> Self {
        assert!(!cfg.deltas.is_empty(), "at least one class");
        assert!(cfg.mean_cost > 0.0, "mean cost must be positive");
        let n = cfg.deltas.len();
        let control = Arc::new(SharedControl::new(ClassTable {
            deltas: cfg.deltas.clone(),
            gain: cfg.gain,
            admission_cap: cfg.admission_cap,
            controller: cfg.controller,
            epoch: 0,
        }));
        let stop = Arc::new(StopFlag::new());
        let obs = Arc::new(ObsBundle::new(n, cfg.flight_capacity));

        let exec = Arc::new(TaskServers::start(n, cfg.work_unit));

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
            let control = Arc::clone(&control);
            let stop = Arc::clone(&stop);
            let telemetry = Arc::clone(&obs);
            let cfg = cfg.clone();
            Some(thread::spawn(move || {
                monitor_loop(&cfg, &exec, &control, &stop, &telemetry, controller, table, initial)
            }))
        };

        Self { exec, control, stop, monitor, obs, cfg, started: Instant::now() }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.cfg.deltas.len()
    }

    /// Fire-and-forget submission. Returns `false` after shutdown began.
    pub fn submit(&self, class: usize, cost: f64) -> bool {
        // A zero-sized closure boxes without allocating.
        self.submit_inner(class, cost, Box::new(|_| {}))
    }

    /// Submit and receive a [`Completion`] receipt when the request has
    /// executed (used by the threaded HTTP front-end, which parks the
    /// connection's thread until then).
    pub fn submit_sync(&self, class: usize, cost: f64) -> Option<Completion> {
        let (tx, rx) = mpsc::sync_channel(1);
        if !self.submit_inner(class, cost, Box::new(move |done| _ = tx.send(done))) {
            return None;
        }
        rx.recv().ok()
    }

    /// Submit and have the executing thread invoke `notify` with the
    /// [`Completion`] — no thread blocks in between. The reactor engine
    /// replies through this: the callback posts into the reactor's
    /// mailbox, and rings its poller unless it runs on that shard's own
    /// loop (the shard that fires the deadlines). Returns `false`
    /// (without invoking `notify`) after shutdown began.
    pub fn submit_async(
        &self,
        class: usize,
        cost: f64,
        notify: impl FnOnce(Completion) + Send + 'static,
    ) -> bool {
        self.submit_inner(class, cost, Box::new(notify))
    }

    fn submit_inner(&self, class: usize, cost: f64, notify: CompletionNotify) -> bool {
        assert!(cost.is_finite() && cost > 0.0, "request cost must be positive");
        self.exec.submit(class, cost, notify)
    }

    /// One admission decision for a class-`class` request of `cost`
    /// work units, against the probabilities most recently published by
    /// the control plane: `true` to serve, `false` to shed (the class's
    /// lane counts the shed and its work; callers answer `503` +
    /// `Connection: close`). The cost matters even for rejected
    /// requests — the monitor's controller must see the **offered**
    /// load, not just what survived the door. With no `admission_cap`
    /// configured this is always `true` at the cost of one relaxed
    /// atomic load.
    pub fn admit(&self, class: usize, cost: f64) -> bool {
        let class = class.min(self.num_classes() - 1);
        self.obs.admission.draws.fetch_add(1, Ordering::Relaxed);
        let admitted = self.control.admit(class);
        if !admitted {
            self.exec.lanes().shed(class, cost.max(0.0));
        }
        admitted
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
        self.cfg.work_unit
    }

    /// The configured mean request cost in work units (the allocator's
    /// `E[X]`) — also the cost of a request that names none.
    pub fn mean_cost(&self) -> f64 {
        self.cfg.mean_cost
    }

    /// When this server started (for `/healthz` uptime).
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// The deadline store's activity counters — the timer thread's,
    /// and a claiming reactor shard's — and the current occupancy
    /// (requests accepted and not yet finished). Always `Some`: the
    /// name (the timer wheel this used to be) and the `Option` remain
    /// because `benchmark/` calls it so.
    pub fn wheel_stats(&self) -> Option<(&psd_obs::WheelStats, usize)> {
        Some(self.exec.timer_stats())
    }

    /// Claim the deadline store for the calling thread's event loop
    /// (see `TaskServers::claim`): `None` while another loop holds it.
    pub(crate) fn claim_deadlines(&self, ring: Ring) -> Option<DeadlineClaim> {
        self.exec.claim(ring)
    }

    /// Requests shed at admission for one class.
    pub fn shed_count(&self, class: usize) -> u64 {
        self.stats().classes[class.min(self.num_classes() - 1)].shed
    }

    /// Live statistics snapshot. A request is counted as completed
    /// before its submitter is notified.
    pub fn stats(&self) -> ServerStats {
        self.exec.lanes().stats()
    }

    /// One class's requests queued or in service.
    pub fn backlog(&self, class: usize) -> usize {
        self.exec.lanes().backlog(class.min(self.num_classes() - 1))
    }

    /// Drain pending work, stop all threads, return final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop.set();
        self.exec.close();
        self.exec.join();
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        self.stats()
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
        ESTIMATOR_HISTORY,
        table.admission_cap,
    )
}

/// The rate monitor: every control window it closes a
/// [`WindowObservation`](psd_core::control::WindowObservation) — per class, the arrivals, admitted and shed
/// work, departures with their **measured slowdowns**, and the backlog
/// (queued + in service), all read and reset at one instant under the
/// class's lane lock, so nothing double-counts and a class's backlog
/// changes by exactly its arrivals less its departures from one window
/// to the next — and hands it to an arbitrary [`RateController`] built
/// by the shared `psd_core::control` factory.
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
    control: &SharedControl,
    stop: &StopFlag,
    telemetry: &ObsBundle,
    mut controller: Box<dyn RateController + Send>,
    mut table: ClassTable,
    mut current_rates: Vec<f64>,
) {
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
        let obs = exec.lanes().close_window(index, window_start, now_s);
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
        // Long enough (≥ 50 ms) to be still in service when read below.
        assert!(s.submit(99, 250.0));
        assert!(s.admit(99, 1.0));
        assert_eq!(s.shed_count(99), 0);
        assert_eq!(s.backlog(99), 1, "backlog clamps like submit, admit and shed_count");
        let stats = s.shutdown();
        assert_eq!(stats.classes[1].completed, 1, "clamped to the last class");
    }

    #[test]
    fn submit_after_shutdown_fails_gracefully() {
        let s = PsdServer::start(quick_cfg(vec![1.0]));
        let exec = Arc::clone(&s.exec);
        s.shutdown();
        assert!(!exec.submit(0, 1.0, Box::new(|_| {})), "closed task servers must reject");
    }

    #[test]
    fn rate_partition_sleep_uses_the_wheel() {
        let s = PsdServer::start(quick_cfg(vec![1.0, 2.0]));
        let c = s.submit_sync(0, 1.0).expect("executes");
        // Even split over 2 classes: stretch 2 → ≈ 400 µs of service.
        assert!(c.service_s >= 0.0002, "stretched service, got {}", c.service_s);
        let (timer, _) = s.wheel_stats().expect("always Some");
        assert_eq!(timer.fires.load(Ordering::Relaxed), 1);
        assert_eq!(timer.cascades.load(Ordering::Relaxed), 0, "nothing cascades any more");
        let stats = s.shutdown();
        assert_eq!(stats.classes[0].completed, 1);
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn bad_cost_rejected() {
        let s = PsdServer::start(quick_cfg(vec![1.0]));
        s.submit(0, 0.0);
    }
}
