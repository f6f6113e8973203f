//! The simulation engine: wires generators, FCFS waiting queues, fluid
//! task servers, the rate controller and the metrics collector into the
//! structure of the paper's Figure 1.
//!
//! The loop pops the earliest of `2n + 1` slots (`events::SlotSet`):
//! slot `i < n` is class `i`'s next arrival, slot `n + i` the
//! completion of its request in service, slot `2n` the control tick.
//! An arrival re-arms its own slot, a start of service or a fluid rate
//! change arms the class's completion slot, tagged with the epoch the
//! task server handed out (which is what made the previous one stale,
//! so whatever the slot held could no longer fire), and the control
//! tick re-arms itself.
//! Whether a completion that fires is still the live one is decided in
//! one place, `TaskServer::complete`'s epoch check — a fluid rate of
//! zero leaves a stale completion armed, and `PinnedRate` leaves the
//! original one live, and both are sorted out there.

use std::collections::VecDeque;

use psd_dist::rng::SplitMix64;
use psd_dist::ServiceDist;
use psd_obs::{ControlTrace, FlightRecorder};

use crate::controller::{RateController, WindowAccount};
use crate::events::SlotSet;
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
        assert!(self.control_period > 0.0, "control period must be positive");
        for c in &self.classes {
            assert!(c.arrival.mean_rate() > 0.0, "class arrival rate must be positive");
        }
    }
}

struct ClassState {
    generator: Generator,
    queue: VecDeque<Request>,
    server: TaskServer,
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
            })
            .collect();

        let mut metrics = MetricsCollector::new(n, cfg.warmup, metrics_window);
        let mut tracer = cfg.trace_range.map(|(a, b)| Tracer::new(a, b));
        let mut events = SlotSet::new(2 * n + 1);
        let mut rate_history = vec![(0.0, initial_rates)];
        let flight = (cfg.flight_capacity > 0).then(|| FlightRecorder::new(cfg.flight_capacity));

        // Sequence numbers are drawn in this order — class arrivals,
        // then the control tick — and, below, at every point an event
        // is armed: that order is what breaks ties between events due
        // at the same instant.
        for (i, c) in classes.iter().enumerate() {
            events.arm(i, c.generator.next_arrival_time(), 0);
        }
        events.arm(2 * n, cfg.control_period, 0);

        let mut window = WindowAccount::new(n);
        let mut next_id: u64 = 0;
        let end = cfg.end_time;

        while let Some((now, slot, epoch)) = events.pop(end) {
            match slot {
                // Slot i < n: class i's next arrival.
                class if class < n => {
                    let state = &mut classes[class];
                    let req = state.generator.emit(next_id);
                    next_id += 1;
                    metrics.on_arrival(class);
                    window.on_arrival(class, req.size);
                    if state.server.is_busy() {
                        state.queue.push_back(req);
                    } else {
                        debug_assert!(state.queue.is_empty(), "idle server with backlog");
                        if let Some((t, epoch)) = state.server.start_service(req, now) {
                            events.arm(n + class, t, epoch);
                        }
                    }
                    events.arm(slot, state.generator.next_arrival_time(), 0);
                }
                // Slot n + i: the completion of class i's request in service.
                _ if slot < 2 * n => {
                    let class = slot - n;
                    let state = &mut classes[class];
                    if let Some(in_service) = state.server.complete(now, epoch) {
                        let done = CompletedRequest {
                            request: in_service.request,
                            service_start: in_service.service_start,
                            departure: now,
                        };
                        metrics.on_departure(&done);
                        if let Some(t) = tracer.as_mut() {
                            t.offer(&done);
                        }
                        window.on_departure(class, done.slowdown());
                        if let Some(next) = state.queue.pop_front() {
                            if let Some((t, epoch)) = state.server.start_service(next, now) {
                                events.arm(slot, t, epoch);
                            }
                        }
                    }
                }
                // Slot 2n: the control tick.
                _ => {
                    let backlog = classes
                        .iter()
                        .map(|c| c.queue.len() as u64 + u64::from(c.server.is_busy()))
                        .collect();
                    let obs = window.close(now, backlog);

                    // The unified control entry point — the same call
                    // the live server's monitor makes. The simulator
                    // has no admission path, so a directive's
                    // `admit_probability` is ignored here (shedding is
                    // exercised end-to-end by `psd-server`/`psd-loadgen`).
                    let directive = self.controller.control(now, &obs);
                    if let Some(rates) = &directive.rates {
                        validate_rates(rates, n);
                        for (i, state) in classes.iter_mut().enumerate() {
                            if let Some((t, epoch)) = state.server.set_rate(rates[i], now) {
                                events.arm(n + i, t, epoch);
                            }
                        }
                        rate_history.push((now, rates.clone()));
                    }
                    // Flight-record the decision exactly as the live
                    // server's monitor does, so a simulated run and a
                    // live trace are diffable window by window.
                    if let Some(f) = &flight {
                        f.record(ControlTrace {
                            at_s: now,
                            epoch: obs.index,
                            applied_rates: rate_history
                                .last()
                                .map(|(_, r)| r.clone())
                                .unwrap_or_default(),
                            internals: self.controller.internals(),
                            observation: obs,
                            directive,
                        });
                    }
                    events.arm(slot, now + cfg.control_period, 0);
                }
            }
        }

        let mut out = metrics.finish(end, rate_history);
        if let Some(t) = tracer {
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
}
