//! The simulation engine: wires generators, FCFS waiting queues, fluid
//! task servers, the rate controller and the metrics collector into the
//! structure of the paper's Figure 1.
//!
//! [`Plant`] is that figure from the queues rightwards: one [`Station`]
//! per class, the controller that re-rates them at every window
//! boundary, and what their events write to. What feeds it is the
//! caller's: [`Simulation::run`] drives it from one arrival process per
//! class, [`run_sessions`](crate::run_sessions) from a closed
//! population of users.
//!
//! The open loop is **window-synchronous**. The task servers are
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
//! successor; a completion, whenever a station starts a request or a
//! fluid one is re-rated, at a positive rate; the tick's successor.
//! Everything that arms an event of class `i` is an event of class `i`
//! or a tick, and those fire in the same relative order here as they
//! would from a global queue, so the counter ranks them the same way —
//! it is only the order *between* classes inside a window that differs,
//! and no output depends on it ([`MetricsCollector`] keeps its windows
//! per class, [`Tracer`] sorts).
//!
//! A station holds the one completion it can have pending and arming
//! overwrites it, so a completion that fires is the live one: a fluid
//! rate of zero withdraws it, and `PinnedRate` leaves the original
//! standing.

use psd_dist::rng::SplitMix64;
use psd_dist::ServiceDist;
use psd_obs::{ControlTrace, FlightRecorder};

use crate::controller::{RateController, WindowAccount};
use crate::generator::{ArrivalSpec, Generator};
use crate::metrics::{MetricsCollector, SimOutput};
use crate::request::{CompletedRequest, Request};
use crate::server::{precedes, Rank, Seq, ServiceMode, Station};
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
        validate_horizon(self.end_time, self.warmup, self.control_period);
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

/// A run must be able to reach its end, and its ticks to fire.
pub(crate) fn validate_horizon(end_time: f64, warmup: f64, control_period: f64) {
    assert!(end_time > 0.0 && end_time.is_finite(), "bad end_time");
    assert!(warmup >= 0.0 && warmup < end_time, "warmup must precede end_time");
    assert!(
        control_period > 0.0 && control_period.is_finite(),
        "control_period must be positive and finite, got {control_period}"
    );
}

fn validate_rates(rates: &[f64], n: usize) {
    assert_eq!(rates.len(), n, "controller returned {} rates for {} classes", rates.len(), n);
    let mut sum = 0.0;
    for &r in rates {
        assert!(r.is_finite() && r >= 0.0, "controller produced invalid rate {r}");
        sum += r;
    }
    assert!(sum <= 1.0 + 1e-6, "controller oversubscribed the server: Σr = {sum}");
}

/// The stations, their controller, and what the events of every class
/// write to.
pub(crate) struct Plant {
    pub stations: Vec<Station>,
    /// The one sequence counter; see the module doc for where it is
    /// drawn.
    pub seq: Seq,
    next_id: u64,
    metrics: MetricsCollector,
    window: WindowAccount,
    tracer: Option<Tracer>,
    flight: Option<FlightRecorder>,
    rate_history: Vec<(f64, Vec<f64>)>,
    controller: Box<dyn RateController>,
}

impl Plant {
    /// `n` empty stations at the controller's initial rates.
    pub fn new(
        n: usize,
        mode: ServiceMode,
        warmup: f64,
        metrics_window: f64,
        trace_range: Option<(f64, f64)>,
        flight_capacity: usize,
        mut controller: Box<dyn RateController>,
    ) -> Self {
        let initial_rates = controller.initial_rates(n);
        validate_rates(&initial_rates, n);
        Self {
            stations: initial_rates.iter().map(|&r| Station::new(r, mode)).collect(),
            seq: Seq::default(),
            next_id: 0,
            metrics: MetricsCollector::new(n, warmup, metrics_window),
            window: WindowAccount::new(n),
            tracer: trace_range.map(|(a, b)| Tracer::new(a, b)),
            flight: (flight_capacity > 0).then(|| FlightRecorder::new(flight_capacity)),
            rate_history: vec![(0.0, initial_rates)],
            controller,
        }
    }

    /// The id of the next request to arrive.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// `request` reaches the station of its class. (This and the two
    /// below are the body of `Source::advance`'s loop, hence the hints:
    /// without them a replication measured 1–2 % slower.)
    #[inline]
    pub fn arrive(&mut self, request: Request) {
        self.metrics.on_arrival(request.class);
        self.window.on_arrival(request.class, request.size);
        self.stations[request.class].arrive(request, &mut self.seq);
    }

    /// The completion of `class` fires at `now`. The server stays idle
    /// until [`Self::start_next`], so the caller can arm what the
    /// departure sets off before the next completion is armed.
    #[inline]
    pub fn depart(&mut self, class: usize, now: f64) -> CompletedRequest {
        let done = self.stations[class].depart(now);
        self.metrics.on_departure(&done);
        if let Some(t) = self.tracer.as_mut() {
            t.offer(&done);
        }
        self.window.on_departure(class, done.slowdown());
        done
    }

    /// The idle server of `class` takes the head of its queue.
    #[inline]
    pub fn start_next(&mut self, class: usize, now: f64) {
        self.stations[class].start_next(now, &mut self.seq);
    }

    /// The control tick at `now`: close the window, show it to the
    /// controller, re-rate the stations.
    pub fn tick(&mut self, now: f64) {
        let backlog = self.stations.iter().map(Station::backlog).collect();
        let obs = self.window.close(now, backlog);

        // The unified control entry point — the same call the live
        // server's monitor makes. The simulator has no admission
        // path, so a directive's `admit_probability` is ignored
        // here (shedding is exercised end-to-end by
        // `psd-server`/`psd-loadgen`).
        let directive = self.controller.control(now, &obs);
        if let Some(rates) = &directive.rates {
            validate_rates(rates, self.stations.len());
            for (station, &rate) in self.stations.iter_mut().zip(rates) {
                station.set_rate(rate, now, &mut self.seq);
            }
            self.rate_history.push((now, rates.clone()));
        }
        // Flight-record the decision exactly as the live server's
        // monitor does, so a simulated run and a live trace are
        // diffable window by window.
        if let Some(f) = &self.flight {
            f.record(ControlTrace {
                at_s: now,
                epoch: obs.index,
                applied_rates: self.rate_history.last().map(|(_, r)| r.clone()).unwrap_or_default(),
                internals: self.controller.internals(),
                observation: obs,
                directive,
            });
        }
    }

    /// The report of a run that ended at `end`.
    pub fn finish(self, end: f64) -> SimOutput {
        let mut out = self.metrics.finish(end, self.rate_history);
        if let Some(t) = self.tracer {
            out.trace = t.into_records();
        }
        if let Some(f) = self.flight {
            out.control_trace = f.snapshot();
        }
        out.busy_time = self.stations.iter().map(|s| s.busy_time_as_of(end)).collect();
        out
    }
}

/// A class's arrival process and the event it keeps armed.
struct Source {
    generator: Generator,
    /// `seq` of the pending arrival; its time is the generator's.
    arrival_seq: u64,
}

impl Source {
    /// Fire this class's events in `(time, seq)` order for as long as
    /// they precede `bound`.
    fn advance(&mut self, class: usize, bound: Rank, plant: &mut Plant) {
        loop {
            let arrival = (self.generator.next_arrival_time(), self.arrival_seq);
            let completion = plant.stations[class].completion();
            let arrival_first = precedes(arrival, completion);
            let next = if arrival_first { arrival } else { completion };
            if !precedes(next, bound) {
                return;
            }
            if arrival_first {
                let id = plant.next_id();
                plant.arrive(self.generator.emit(id));
                self.arrival_seq = plant.seq.draw();
            } else {
                plant.depart(class, next.0);
                plant.start_next(class, next.0);
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
    pub fn run(self) -> SimOutput {
        let cfg = &self.config;
        let mut plant = Plant::new(
            cfg.classes.len(),
            cfg.service_mode,
            cfg.warmup,
            cfg.metrics_window.unwrap_or(cfg.control_period),
            cfg.trace_range,
            cfg.flight_capacity,
            self.controller,
        );
        // The first draws of the sequence counter: the class arrivals
        // in class order, then the control tick.
        let mut sources: Vec<Source> = cfg
            .classes
            .iter()
            .enumerate()
            .map(|(i, spec)| Source {
                generator: Generator::new(
                    i,
                    &spec.arrival,
                    spec.service.clone(),
                    SplitMix64::derive(cfg.seed, i as u64 + 1),
                ),
                arrival_seq: plant.seq.draw(),
            })
            .collect();
        let mut tick: Rank = (cfg.control_period, plant.seq.draw());
        let end = cfg.end_time;

        // Every class on its own up to the tick, or to the horizon
        // once the tick lies past it (no `seq` reaches `u64::MAX`,
        // so that bound admits exactly the events with time ≤ end).
        while tick.0 <= end {
            for (i, source) in sources.iter_mut().enumerate() {
                source.advance(i, tick, &mut plant);
            }
            plant.tick(tick.0);
            tick = (tick.0 + cfg.control_period, plant.seq.draw());
        }
        for (i, source) in sources.iter_mut().enumerate() {
            source.advance(i, (end, u64::MAX), &mut plant);
        }
        plant.finish(end)
    }
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
    /// back. Fluid: the completion armed at service start is withdrawn,
    /// the request starves and completes once, after its rate returns.
    /// Pinned: the request keeps the rate it started under, so that
    /// first completion stands.
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
