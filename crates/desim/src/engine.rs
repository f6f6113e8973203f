//! The simulation engine: wires generators, FCFS waiting queues, fluid
//! task servers, the rate controller and the metrics collector into the
//! structure of the paper's Figure 1.
//!
//! The loop is **window-synchronous**. The task servers are
//! rate-partitioned: between two control instants class `i` is one FCFS
//! queue served at a fixed rate `r_i`, and nothing one class does can
//! reach another — they meet only when the controller re-solves Eq. 17
//! at the window boundary. So there is no future-event set. Per control
//! window the engine advances class 0 up to the tick, then class 1, …
//! each on its own — a two-way choice between that class's next arrival
//! and the completion of its request in service — then runs the control
//! tick, and repeats to the horizon.
//!
//! Events still fire in `(time, seq)` order wherever that order can be
//! observed, which is among one class's two events and the tick. `seq`
//! comes from ONE counter, drawn every time an event is armed: the
//! first arrivals in class order, then the first tick; an arrival's
//! successor; a completion, whenever `start_service` or `set_rate`
//! hands one out; the tick's successor. Everything that arms an event
//! of class `i` is an event of class `i` or a tick, and those fire in
//! the same relative order here as they would from a global queue, so
//! the counter ranks them the same way — it is only the order *between*
//! classes inside a window that differs, and no output depends on it
//! ([`MetricsCollector`] keeps its windows per class, [`Tracer`] sorts).
//!
//! Whether a completion that fires is still the live one is decided in
//! one place, `TaskServer::complete`'s epoch check — a fluid rate of
//! zero leaves a stale completion pending, and `PinnedRate` leaves the
//! original one live, and both are sorted out there.

use std::collections::VecDeque;

use psd_dist::rng::SplitMix64;
use psd_dist::ServiceDist;
use psd_obs::{ControlTrace, FlightRecorder};

use crate::controller::{RateController, WindowAccount};
use crate::generator::{ArrivalSpec, Generator};
use crate::metrics::{MetricsCollector, SimOutput};
use crate::request::{CompletedRequest, Request};
use crate::server::{ServiceMode, TaskServer};
use crate::trace::Tracer;

/// Per-class workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Arrival process of the class.
    pub arrival: ArrivalSpec,
    /// Service-size distribution (full-rate work amounts).
    pub service: ServiceDist,
}

impl ClassSpec {
    /// Poisson arrivals at `rate` with the given service distribution —
    /// the paper's traffic model.
    pub fn poisson(rate: f64, service: ServiceDist) -> Self {
        Self { arrival: ArrivalSpec::Poisson { rate }, service }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// One spec per class; class 0 is the highest class.
    pub classes: Vec<ClassSpec>,
    /// Absolute end of the simulation.
    pub end_time: f64,
    /// Departures before this instant are not measured (paper: 10 000).
    pub warmup: f64,
    /// Controller / estimator window (paper: 1000 time units).
    pub control_period: f64,
    /// Metrics window length; `None` uses `control_period` (the paper
    /// measures on the same 1000-unit grid it controls on).
    pub metrics_window: Option<f64>,
    /// Experiment seed; all class streams derive from it.
    pub seed: u64,
    /// Fluid (default) or pinned-rate task servers.
    pub service_mode: ServiceMode,
    /// If set, record every departure in `[from, to)` (paper Figs 7/8).
    pub trace_range: Option<(f64, f64)>,
    /// Control-decision flight-recorder depth: the last this many
    /// control windows (observation + directive + controller internals)
    /// are kept in [`SimOutput::control_trace`]. 0 disables recording.
    pub flight_capacity: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            classes: Vec::new(),
            end_time: 61_000.0,
            warmup: 10_000.0,
            control_period: 1_000.0,
            metrics_window: None,
            seed: 0,
            service_mode: ServiceMode::Fluid,
            trace_range: None,
            flight_capacity: 256,
        }
    }
}

impl SimConfig {
    fn validate(&self) {
        assert!(!self.classes.is_empty(), "at least one class required");
        assert!(self.end_time > 0.0 && self.end_time.is_finite(), "bad end_time");
        assert!(self.warmup >= 0.0 && self.warmup < self.end_time, "warmup must precede end_time");
        assert!(
            self.control_period > 0.0 && self.control_period.is_finite(),
            "control_period must be positive and finite, got {}",
            self.control_period
        );
        if let Some(w) = self.metrics_window {
            assert!(
                w > 0.0 && w.is_finite(),
                "metrics_window must be positive and finite, got {w}"
            );
        }
        if let Some((from, to)) = self.trace_range {
            assert!(
                from.is_finite() && to.is_finite() && to > from,
                "trace_range must be finite with to > from, got ({from}, {to})"
            );
        }
        for c in &self.classes {
            assert!(c.arrival.mean_rate() > 0.0, "class arrival rate must be positive");
        }
    }
}

/// When an armed event fires: events fire in `(time, seq)` order.
type Rank = (f64, u64);

fn precedes(a: Rank, b: Rank) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// What the events of every class write to.
struct Ledger {
    /// The one sequence counter; see the module doc for where it is
    /// drawn.
    next_seq: u64,
    next_id: u64,
    metrics: MetricsCollector,
    window: WindowAccount,
    tracer: Option<Tracer>,
}

impl Ledger {
    fn draw_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }
}

struct ClassState {
    generator: Generator,
    queue: VecDeque<Request>,
    server: TaskServer,
    /// `seq` of the pending arrival; its time is the generator's.
    arrival_seq: u64,
    /// The pending completion of the request in service, time `+∞` when
    /// there is none, and the task-server epoch it was handed out
    /// under. Arming it overwrites the one that epoch made stale.
    completion: Rank,
    completion_epoch: u64,
}

impl ClassState {
    fn arm_completion(&mut self, scheduled: Option<(f64, u64)>, ledger: &mut Ledger) {
        if let Some((at, epoch)) = scheduled {
            self.completion = (at, ledger.draw_seq());
            self.completion_epoch = epoch;
        }
    }

    /// Fire this class's events in `(time, seq)` order for as long as
    /// they precede `bound`.
    fn advance(&mut self, class: usize, bound: Rank, ledger: &mut Ledger) {
        loop {
            let arrival = (self.generator.next_arrival_time(), self.arrival_seq);
            let arrival_first = precedes(arrival, self.completion);
            let next = if arrival_first { arrival } else { self.completion };
            if !precedes(next, bound) {
                return;
            }
            let now = next.0;
            if arrival_first {
                let req = self.generator.emit(ledger.next_id);
                ledger.next_id += 1;
                ledger.metrics.on_arrival(class);
                ledger.window.on_arrival(class, req.size);
                if self.server.is_busy() {
                    self.queue.push_back(req);
                } else {
                    debug_assert!(self.queue.is_empty(), "idle server with backlog");
                    let scheduled = self.server.start_service(req, now);
                    self.arm_completion(scheduled, ledger);
                }
                self.arrival_seq = ledger.draw_seq();
            } else {
                self.completion.0 = f64::INFINITY;
                if let Some(in_service) = self.server.complete(now, self.completion_epoch) {
                    let done = CompletedRequest {
                        request: in_service.request,
                        service_start: in_service.service_start,
                        departure: now,
                    };
                    ledger.metrics.on_departure(&done);
                    if let Some(t) = ledger.tracer.as_mut() {
                        t.offer(&done);
                    }
                    ledger.window.on_departure(class, done.slowdown());
                    if let Some(next) = self.queue.pop_front() {
                        let scheduled = self.server.start_service(next, now);
                        self.arm_completion(scheduled, ledger);
                    }
                }
            }
        }
    }
}

/// One simulation run.
pub struct Simulation {
    config: SimConfig,
    controller: Box<dyn RateController>,
}

impl Simulation {
    /// Build a simulation from a config and a rate controller.
    pub fn new(config: SimConfig, controller: Box<dyn RateController>) -> Self {
        config.validate();
        Self { config, controller }
    }

    /// Execute the run to completion and return the report.
    pub fn run(mut self) -> SimOutput {
        let cfg = &self.config;
        let n = cfg.classes.len();
        let metrics_window = cfg.metrics_window.unwrap_or(cfg.control_period);

        let initial_rates = self.controller.initial_rates(n);
        validate_rates(&initial_rates, n);

        let mut ledger = Ledger {
            next_seq: 0,
            next_id: 0,
            metrics: MetricsCollector::new(n, cfg.warmup, metrics_window),
            window: WindowAccount::new(n),
            tracer: cfg.trace_range.map(|(a, b)| Tracer::new(a, b)),
        };
        // The first draws of the sequence counter: the class arrivals
        // in class order, then the control tick.
        let mut classes: Vec<ClassState> = cfg
            .classes
            .iter()
            .enumerate()
            .map(|(i, spec)| ClassState {
                generator: Generator::new(
                    i,
                    &spec.arrival,
                    spec.service.clone(),
                    SplitMix64::derive(cfg.seed, i as u64 + 1),
                ),
                queue: VecDeque::new(),
                server: TaskServer::new(initial_rates[i], cfg.service_mode),
                arrival_seq: ledger.draw_seq(),
                completion: (f64::INFINITY, 0),
                completion_epoch: 0,
            })
            .collect();
        let mut tick: Rank = (cfg.control_period, ledger.draw_seq());

        let mut rate_history = vec![(0.0, initial_rates)];
        let flight = (cfg.flight_capacity > 0).then(|| FlightRecorder::new(cfg.flight_capacity));
        let end = cfg.end_time;

        loop {
            // Every class on its own up to the tick, or to the horizon
            // once the tick lies past it (no `seq` reaches `u64::MAX`,
            // so that bound admits exactly the events with time ≤ end).
            let tick_fires = tick.0 <= end;
            let bound = if tick_fires { tick } else { (end, u64::MAX) };
            for (i, state) in classes.iter_mut().enumerate() {
                state.advance(i, bound, &mut ledger);
            }
            if !tick_fires {
                break;
            }

            let now = tick.0;
            let backlog = classes
                .iter()
                .map(|c| c.queue.len() as u64 + u64::from(c.server.is_busy()))
                .collect();
            let obs = ledger.window.close(now, backlog);

            // The unified control entry point — the same call the live
            // server's monitor makes. The simulator has no admission
            // path, so a directive's `admit_probability` is ignored
            // here (shedding is exercised end-to-end by
            // `psd-server`/`psd-loadgen`).
            let directive = self.controller.control(now, &obs);
            if let Some(rates) = &directive.rates {
                validate_rates(rates, n);
                for (state, &rate) in classes.iter_mut().zip(rates) {
                    let scheduled = state.server.set_rate(rate, now);
                    state.arm_completion(scheduled, &mut ledger);
                }
                rate_history.push((now, rates.clone()));
            }
            // Flight-record the decision exactly as the live server's
            // monitor does, so a simulated run and a live trace are
            // diffable window by window.
            if let Some(f) = &flight {
                f.record(ControlTrace {
                    at_s: now,
                    epoch: obs.index,
                    applied_rates: rate_history.last().map(|(_, r)| r.clone()).unwrap_or_default(),
                    internals: self.controller.internals(),
                    observation: obs,
                    directive,
                });
            }
            tick = (now + cfg.control_period, ledger.draw_seq());
        }

        let mut out = ledger.metrics.finish(end, rate_history);
        if let Some(t) = ledger.tracer {
            out.trace = t.into_records();
        }
        if let Some(f) = flight {
            out.control_trace = f.snapshot();
        }
        out.busy_time = classes.iter().map(|c| c.server.busy_time_as_of(end)).collect();
        out
    }
}

pub(crate) fn validate_rates(rates: &[f64], n: usize) {
    assert_eq!(rates.len(), n, "controller returned {} rates for {} classes", rates.len(), n);
    let mut sum = 0.0;
    for &r in rates {
        assert!(r.is_finite() && r >= 0.0, "controller produced invalid rate {r}");
        sum += r;
    }
    assert!(sum <= 1.0 + 1e-6, "controller oversubscribed the server: Σr = {sum}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{StaticRates, WindowObservation};
    use psd_dist::{Deterministic, ServiceDist};

    fn det_service(v: f64) -> ServiceDist {
        ServiceDist::Deterministic(Deterministic::new(v).unwrap())
    }

    /// D/D/1 below saturation: every request finds an empty system, so
    /// every slowdown is exactly zero.
    #[test]
    fn dd1_below_saturation_zero_slowdown() {
        let cfg = SimConfig {
            classes: vec![ClassSpec {
                arrival: ArrivalSpec::Deterministic { interval: 2.0 },
                service: det_service(0.5),
            }],
            end_time: 1000.0,
            warmup: 0.0,
            control_period: 100.0,
            seed: 1,
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::new(vec![1.0]))).run();
        let m = &out.per_class[0];
        assert!(m.completed > 400);
        assert_eq!(m.mean_slowdown(), Some(0.0));
        assert_eq!(m.mean_delay(), Some(0.0));
    }

    /// Deterministic arrivals faster than the service rate: the backlog
    /// grows and delays rise linearly.
    #[test]
    fn overloaded_queue_builds_backlog() {
        let cfg = SimConfig {
            classes: vec![ClassSpec {
                arrival: ArrivalSpec::Deterministic { interval: 1.0 },
                service: det_service(2.0), // ρ = 2
            }],
            end_time: 500.0,
            warmup: 0.0,
            control_period: 100.0,
            seed: 1,
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::new(vec![1.0]))).run();
        let m = &out.per_class[0];
        // Served one per 2 time units: ~250 completions of ~500 arrivals.
        assert!(m.completed <= 250);
        assert!(m.total_arrivals >= 499);
        // Later windows have longer delays than earlier ones.
        let w = &m.windows;
        let first = w.iter().find_map(|x| x.mean_delay).unwrap();
        let last = w.iter().rev().find_map(|x| x.mean_delay).unwrap();
        assert!(last > first * 2.0, "delay should grow under overload: {first} -> {last}");
    }

    /// Two identical classes under a 50/50 static split behave like two
    /// independent half-rate queues.
    #[test]
    fn even_split_symmetric_classes() {
        let cfg = SimConfig {
            classes: vec![
                ClassSpec {
                    arrival: ArrivalSpec::Deterministic { interval: 4.0 },
                    service: det_service(1.0),
                },
                ClassSpec {
                    arrival: ArrivalSpec::Deterministic { interval: 4.0 },
                    service: det_service(1.0),
                },
            ],
            end_time: 4000.0,
            warmup: 100.0,
            control_period: 100.0,
            seed: 3,
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::even(2))).run();
        // Each class: service takes 1/0.5 = 2 < interarrival 4 ⇒ no queueing.
        for m in &out.per_class {
            assert_eq!(m.mean_slowdown(), Some(0.0));
            // Service duration = size/rate = 2.
            assert!((m.service.mean() - 2.0).abs() < 1e-9);
        }
    }

    /// The same seed reproduces the identical output.
    #[test]
    fn determinism() {
        let mk = || SimConfig {
            classes: vec![
                ClassSpec::poisson(0.8, ServiceDist::paper_default()),
                ClassSpec::poisson(0.8, ServiceDist::paper_default()),
            ],
            end_time: 3000.0,
            warmup: 500.0,
            control_period: 250.0,
            seed: 99,
            ..SimConfig::default()
        };
        let a = Simulation::new(mk(), Box::new(StaticRates::even(2))).run();
        let b = Simulation::new(mk(), Box::new(StaticRates::even(2))).run();
        assert_eq!(a.per_class[0].completed, b.per_class[0].completed);
        assert_eq!(a.mean_slowdown(0), b.mean_slowdown(0));
        assert_eq!(a.mean_slowdown(1), b.mean_slowdown(1));
    }

    /// Traced departures land inside the requested range.
    #[test]
    fn trace_range_respected() {
        let cfg = SimConfig {
            classes: vec![ClassSpec::poisson(1.0, det_service(0.3))],
            end_time: 2000.0,
            warmup: 0.0,
            control_period: 100.0,
            seed: 5,
            trace_range: Some((500.0, 600.0)),
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::new(vec![1.0]))).run();
        assert!(!out.trace.is_empty());
        assert!(out.trace.iter().all(|t| (500.0..600.0).contains(&t.departure)));
    }

    /// A controller that changes rates mid-run: halving the rate of a
    /// saturating class must slow its departures.
    #[test]
    fn rate_changes_take_effect() {
        struct Throttle;
        impl RateController for Throttle {
            fn initial_rates(&mut self, _n: usize) -> Vec<f64> {
                vec![1.0]
            }
            fn reallocate(&mut self, now: f64, _w: &WindowObservation) -> Option<Vec<f64>> {
                (now >= 500.0).then(|| vec![0.25])
            }
        }
        let cfg = SimConfig {
            classes: vec![ClassSpec {
                arrival: ArrivalSpec::Deterministic { interval: 2.0 },
                service: det_service(1.0),
            }],
            end_time: 1000.0,
            warmup: 0.0,
            control_period: 100.0,
            seed: 1,
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(Throttle)).run();
        // After t=500 service takes 4 > interarrival 2 ⇒ overload, rising delay.
        let m = &out.per_class[0];
        let early = m.windows[1].mean_delay.unwrap();
        let late = m.windows.last().unwrap().mean_delay.unwrap_or(f64::INFINITY);
        assert_eq!(early, 0.0);
        assert!(late > 1.0, "late mean delay {late}");
        assert!(out.rate_history.len() >= 2);
    }

    /// Evenly spaced arrivals land on the control instants. The tick
    /// was armed a whole period earlier than the arrival due with it
    /// (which was armed one gap earlier), so `(time, seq)` order fires
    /// the tick first: the arrival at t = 100 belongs to window 1.
    #[test]
    fn control_tick_precedes_the_arrival_it_ties_with() {
        let cfg = SimConfig {
            classes: vec![ClassSpec {
                arrival: ArrivalSpec::Deterministic { interval: 2.0 },
                service: det_service(0.5),
            }],
            end_time: 1000.0,
            warmup: 0.0,
            control_period: 100.0,
            seed: 1,
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::new(vec![1.0]))).run();
        let per_window: Vec<u64> =
            out.control_trace.iter().map(|t| t.observation.arrivals[0]).collect();
        // Window 0 holds t = 2..=98, every later one t = 100k..=100k + 98.
        assert_eq!(per_window, [vec![49], vec![50; 9]].concat());
    }

    /// A controller that takes a busy class's rate to zero and later
    /// back. Fluid: the completion armed at service start goes stale
    /// (it still fires, and the epoch check drops it), the request
    /// starves and completes once, after its rate returns. Pinned: the
    /// request keeps the rate it started under, so that first
    /// completion is the live one.
    #[test]
    fn zero_rate_starves_fluid_and_spares_pinned() {
        struct Blackout;
        impl RateController for Blackout {
            fn initial_rates(&mut self, _n: usize) -> Vec<f64> {
                vec![1.0]
            }
            fn reallocate(&mut self, now: f64, _w: &WindowObservation) -> Option<Vec<f64>> {
                if now == 16.0 {
                    Some(vec![0.0])
                } else {
                    (now == 24.0).then(|| vec![1.0])
                }
            }
        }
        // Arrivals at 15 and 30, 4.5 units of work each; ticks every 8.
        let departures = |service_mode| {
            let cfg = SimConfig {
                classes: vec![ClassSpec {
                    arrival: ArrivalSpec::Deterministic { interval: 15.0 },
                    service: det_service(4.5),
                }],
                end_time: 40.0,
                warmup: 0.0,
                control_period: 8.0,
                seed: 1,
                service_mode,
                trace_range: Some((0.0, 40.0)),
                ..SimConfig::default()
            };
            let out = Simulation::new(cfg, Box::new(Blackout)).run();
            assert_eq!(out.per_class[0].completed as usize, out.trace.len());
            out.trace.iter().map(|t| (t.id, t.departure)).collect::<Vec<_>>()
        };
        // One unit done by t = 16, the other 3.5 from t = 24.
        assert_eq!(departures(ServiceMode::Fluid), [(0, 27.5), (1, 34.5)]);
        assert_eq!(departures(ServiceMode::PinnedRate), [(0, 19.5), (1, 34.5)]);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn oversubscribing_controller_caught() {
        struct Bad;
        impl RateController for Bad {
            fn initial_rates(&mut self, n: usize) -> Vec<f64> {
                vec![0.9; n]
            }
            fn reallocate(&mut self, _: f64, _: &WindowObservation) -> Option<Vec<f64>> {
                None
            }
        }
        let cfg = SimConfig {
            classes: vec![
                ClassSpec::poisson(0.1, det_service(1.0)),
                ClassSpec::poisson(0.1, det_service(1.0)),
            ],
            end_time: 100.0,
            warmup: 0.0,
            control_period: 10.0,
            seed: 1,
            ..SimConfig::default()
        };
        Simulation::new(cfg, Box::new(Bad)).run();
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_config_rejected() {
        Simulation::new(SimConfig::default(), Box::new(StaticRates::even(1)));
    }

    fn one_class(tweak: impl FnOnce(&mut SimConfig)) {
        let mut cfg = SimConfig {
            classes: vec![ClassSpec::poisson(0.1, det_service(1.0))],
            end_time: 100.0,
            warmup: 0.0,
            control_period: 10.0,
            ..SimConfig::default()
        };
        tweak(&mut cfg);
        Simulation::new(cfg, Box::new(StaticRates::even(1)));
    }

    /// An infinite period passed `validate` before and simply never
    /// ticked; the loop is never to see a tick it cannot reach.
    #[test]
    #[should_panic(expected = "control_period must be positive and finite")]
    fn infinite_control_period_rejected() {
        one_class(|cfg| cfg.control_period = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "metrics_window must be positive and finite")]
    fn non_positive_metrics_window_rejected() {
        one_class(|cfg| cfg.metrics_window = Some(0.0));
    }

    #[test]
    #[should_panic(expected = "trace_range must be finite with to > from")]
    fn backwards_trace_range_rejected() {
        one_class(|cfg| cfg.trace_range = Some((50.0, 50.0)));
    }
}
