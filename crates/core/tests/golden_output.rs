//! Golden output: `golden_reports.rs` pins what `PsdReport` carries;
//! this pins the rest of `SimOutput` — whole-run accumulators, every
//! measurement window, busy time, the rate history, the control flight
//! record and the per-request trace — over configurations chosen to
//! reach what a `run_once` report cannot: a metrics grid that is not
//! the control grid, non-Poisson arrivals, pinned rates, and evenly
//! spaced arrivals that tie with control ticks, with their own class's
//! completions and with the other class's events. The constant was
//! computed with the engine that popped every event of every class
//! from one `(time, seq)`-ordered set; an engine that orders events any
//! other way must still produce it. `run_sessions` has a constant of
//! its own, computed while its completions and ticks still sat in one
//! heap with the think timers.

mod common;

use common::Fold;
use psd_core::config::PsdConfig;
use psd_core::control::{ControllerParams, PsdController};
use psd_desim::{
    run_sessions, ArrivalSpec, ClassSpec, RateController, ServiceMode, SessionConfig, SessionState,
    SimConfig, SimOutput, Simulation, WindowObservation,
};
use psd_dist::{Deterministic, Exponential, ServiceDist, ServiceDistribution};

const DELTAS: [f64; 3] = [1.0, 2.0, 4.0];

impl Fold {
    /// Every number the output carries, lengths included.
    fn output(&mut self, out: &SimOutput) {
        self.word(out.per_class.len() as u64);
        for m in &out.per_class {
            self.word(m.completed);
            self.word(m.total_arrivals);
            for acc in [&m.slowdown, &m.delay, &m.service] {
                self.word(acc.count());
                self.f64(acc.mean());
                self.f64(acc.variance());
            }
            self.word(m.windows.len() as u64);
            for w in &m.windows {
                self.word(w.index);
                self.word(w.count);
                self.opt(w.mean_slowdown);
                self.opt(w.mean_delay);
            }
        }
        self.f64(out.end_time);
        self.word(out.busy_time.len() as u64);
        out.busy_time.iter().for_each(|&b| self.f64(b));
        self.word(out.rate_history.len() as u64);
        for (at, rates) in &out.rate_history {
            self.f64(*at);
            self.word(rates.len() as u64);
            rates.iter().for_each(|&r| self.f64(r));
        }
        let json = out.control_trace_json();
        self.word(json.len() as u64);
        json.bytes().for_each(|b| self.word(u64::from(b)));
        self.word(out.trace.len() as u64);
        for t in &out.trace {
            self.word(t.class as u64);
            self.f64(t.arrival);
            self.f64(t.departure);
            self.f64(t.slowdown);
        }
    }
}

/// Cycles through three splits, one per tick, so a fluid server
/// re-times the request it holds at each control instant while every
/// instant stays on a grid of halves. At 0.25 a class serves a request
/// in exactly its interarrival gap, so its completions tie with its own
/// arrivals; at 0.125 it builds a backlog that the next tick finds
/// mid-service; at 0.5 it drains that backlog with completions that tie
/// with arrivals of both classes.
struct Swing(usize);

impl RateController for Swing {
    fn initial_rates(&mut self, _n: usize) -> Vec<f64> {
        vec![0.5, 0.5]
    }

    fn reallocate(&mut self, _now: f64, _w: &WindowObservation) -> Option<Vec<f64>> {
        self.0 += 1;
        Some([[0.5, 0.5], [0.25, 0.125], [0.125, 0.25]][self.0 % 3].to_vec())
    }
}

#[test]
fn sim_outputs_match_the_golden_hash() {
    let mut h = Fold::fnv1a();

    // The paper's three Poisson / Bounded-Pareto classes under Eq. 17,
    // with the last two thousand time units traced — once on the
    // control grid, once on a metrics grid that shares no boundary
    // with it.
    for fraction in [None, Some(0.37)] {
        for load in [0.1, 0.5, 0.9] {
            let cfg = PsdConfig::equal_load(&DELTAS, load).with_trace(59_000.0, 61_000.0);
            let mut sim = cfg.sim_config(2000);
            sim.metrics_window = fraction.map(|f| f * sim.control_period);
            h.output(&Simulation::new(sim, Box::new(cfg.controller())).run());
        }
    }

    // Arrival processes that carry state of their own: a bursty MMPP
    // with exponential sizes and a load step with the paper's sizes.
    let exp = ServiceDist::Exponential(Exponential::new(2.0).unwrap());
    let bp = ServiceDist::paper_default();
    let mean_service = (exp.mean() + bp.mean()) / 2.0;
    let sim = SimConfig {
        classes: vec![
            ClassSpec {
                arrival: ArrivalSpec::Bursty { mean_rate: 0.6, burstiness: 4.0, sojourn: 40.0 },
                service: exp,
            },
            ClassSpec {
                arrival: ArrivalSpec::Step {
                    rate_before: 0.5,
                    rate_after: 1.5,
                    switch_at: 4_000.0,
                },
                service: bp,
            },
        ],
        end_time: 9_000.0,
        warmup: 500.0,
        control_period: 300.0,
        metrics_window: Some(125.0),
        seed: 2001,
        trace_range: Some((3_900.0, 4_200.0)),
        ..SimConfig::default()
    };
    let controller = PsdController::new(vec![1.0, 3.0], mean_service, ControllerParams::default());
    h.output(&Simulation::new(sim, Box::new(controller)).run());

    // Pinned rates keep the completion scheduled at service start alive
    // across a rate change.
    let mut pinned = PsdConfig::equal_load(&DELTAS, 0.7).with_trace(60_000.0, 61_000.0);
    pinned.service_mode = ServiceMode::PinnedRate;
    h.output(&Simulation::new(pinned.sim_config(2002), Box::new(pinned.controller())).run());

    // Two lock-step classes: arrivals at 2k and 4k, ticks at 100k,
    // completions on the same grid of halves. No trace — departures of
    // different classes at one instant have no order the model defines.
    let det = |v| ServiceDist::Deterministic(Deterministic::new(v).unwrap());
    for service_mode in [ServiceMode::Fluid, ServiceMode::PinnedRate] {
        let sim = SimConfig {
            classes: vec![
                ClassSpec {
                    arrival: ArrivalSpec::Deterministic { interval: 2.0 },
                    service: det(0.5),
                },
                ClassSpec {
                    arrival: ArrivalSpec::Deterministic { interval: 4.0 },
                    service: det(1.0),
                },
            ],
            end_time: 2_000.0,
            warmup: 150.0,
            control_period: 100.0,
            metrics_window: Some(70.0),
            seed: 2003,
            service_mode,
            ..SimConfig::default()
        };
        h.output(&Simulation::new(sim, Box::new(Swing(0))).run());
    }

    assert_eq!(h.0, 0x19b0_bd82_e2f1_88b5, "simulator output moved: {:#018x}", h.0);
}

/// The closed loop: think timers, completions and ticks of both classes
/// in one `(time, seq)` order. With zero think time a two-state store
/// of deterministic sizes keeps all three on one grid of halves, so
/// every kind of tie is exercised; the 60-user run is the shape of the
/// session studies.
#[test]
fn session_outputs_match_the_golden_hash() {
    let mut h = Fold::fnv1a();
    let det = |v| ServiceDist::Deterministic(Deterministic::new(v).unwrap());
    let bp = ServiceDist::paper_default();
    let psd = |mean_service| {
        Box::new(PsdController::new(vec![1.0, 2.0], mean_service, ControllerParams::default()))
    };

    for (think0, think1) in [(0.0, 0.0), (2.0, 1.0), (0.0, 1.5)] {
        let store = || SessionConfig {
            states: vec![
                SessionState {
                    class: 1,
                    service: det(0.5),
                    mean_think: think0,
                    next: vec![0.3, 0.7],
                },
                SessionState {
                    class: 0,
                    service: det(1.0),
                    mean_think: think1,
                    next: vec![1.0, 0.0],
                },
            ],
            initial_state: 0,
            n_classes: 2,
            n_users: 7,
            end_time: 3_000.0,
            warmup: 150.0,
            control_period: 100.0,
            seed: 2100,
        };
        h.output(&run_sessions(store(), Box::new(Swing(0))));
        h.output(&run_sessions(store(), psd(0.75)));
    }

    let cfg = SessionConfig {
        states: vec![
            SessionState { class: 1, service: bp.clone(), mean_think: 3.0, next: vec![0.4, 0.6] },
            SessionState { class: 0, service: bp.clone(), mean_think: 1.0, next: vec![0.9, 0.1] },
        ],
        initial_state: 0,
        n_classes: 2,
        n_users: 60,
        end_time: 8_000.0,
        warmup: 500.0,
        control_period: 250.0,
        seed: 2101,
    };
    h.output(&run_sessions(cfg, psd(bp.mean())));

    assert_eq!(h.0, 0xb185_f485_c97e_7480, "session output moved: {:#018x}", h.0);
}
