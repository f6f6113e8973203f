//! Closed-loop, session-based workload simulation (paper §2.2).
//!
//! "A session is a sequence of requests of different types made by a
//! single customer during a single visit to a site." The paper
//! motivates the M/D/1 reduction with session states (home entry,
//! register, …) whose requests take near-constant time. This module
//! simulates that structure *closed-loop*: a fixed population of users
//! cycles through a Markov chain of session states, thinks between
//! requests, and each state's requests are dispatched to the state's
//! service class — the PSD task servers and rate controller are the
//! same ones the open-loop engine uses.
//!
//! The closed loop matters: arrival rates now *respond* to the
//! allocation (slow service ⇒ users stuck waiting ⇒ fewer arrivals), a
//! regime the paper's open-loop analysis does not cover — this module
//! is how we probe it.

use std::collections::VecDeque;

use psd_dist::rng::{open01, SplitMix64, Xoshiro256pp};
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::controller::{RateController, WindowAccount};
use crate::engine::validate_rates;
use crate::events::EventQueue;
use crate::metrics::{MetricsCollector, SimOutput};
use crate::request::{CompletedRequest, Request};
use crate::server::{ServiceMode, TaskServer};

/// One session state (e.g. "browse", "checkout").
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Service class whose task server handles this state's requests.
    pub class: usize,
    /// Request size distribution in this state.
    pub service: ServiceDist,
    /// Mean think time before the user issues this state's request
    /// (exponentially distributed).
    pub mean_think: f64,
    /// Transition probabilities to each state after this request
    /// completes (row of the session Markov chain; must sum to 1).
    pub next: Vec<f64>,
}

/// Session-model simulation configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Session states (their `next` rows must index into this vec).
    pub states: Vec<SessionState>,
    /// Index of the state every (re-)started session begins in.
    pub initial_state: usize,
    /// Number of service classes (task servers).
    pub n_classes: usize,
    /// Concurrent user population (sessions restart on completion, so
    /// the population is constant — a TPC-W-style closed system).
    pub n_users: usize,
    /// Simulation horizon.
    pub end_time: f64,
    /// Warm-up cutoff for metrics.
    pub warmup: f64,
    /// Controller window.
    pub control_period: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl SessionConfig {
    fn validate(&self) {
        assert!(!self.states.is_empty(), "need at least one session state");
        assert!(self.n_users > 0, "need at least one user");
        assert!(self.n_classes > 0, "need at least one class");
        assert!(self.initial_state < self.states.len(), "initial state out of range");
        assert!(self.end_time > self.warmup && self.warmup >= 0.0, "bad horizon");
        assert!(self.control_period > 0.0, "bad control period");
        for (i, s) in self.states.iter().enumerate() {
            assert!(
                s.class < self.n_classes,
                "state {i} routes to class {} >= {}",
                s.class,
                self.n_classes
            );
            assert!(s.mean_think >= 0.0 && s.mean_think.is_finite(), "state {i} bad think time");
            assert_eq!(s.next.len(), self.states.len(), "state {i} transition row length");
            let sum: f64 = s.next.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "state {i} transition row sums to {sum}");
            assert!(s.next.iter().all(|&p| p >= 0.0), "state {i} negative transition");
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SessionEvent {
    /// User's think time ended; they issue their current state's request.
    Wake { user: usize },
    /// Task-server completion (same epoch protocol as the open engine).
    Completion { class: usize, epoch: u64 },
    /// Controller tick.
    Control,
}

struct UserState {
    state: usize,
}

/// Run a closed-loop session simulation under the given controller.
pub fn run_sessions(cfg: SessionConfig, mut controller: Box<dyn RateController>) -> SimOutput {
    cfg.validate();
    let n = cfg.n_classes;
    let initial_rates = controller.initial_rates(n);
    validate_rates(&initial_rates, n);

    let mut rng = Xoshiro256pp::seed_from(SplitMix64::derive(cfg.seed, 0xC105ED));
    let mut servers: Vec<TaskServer> =
        initial_rates.iter().map(|&r| TaskServer::new(r, ServiceMode::Fluid)).collect();
    let mut queues: Vec<VecDeque<Request>> = (0..n).map(|_| VecDeque::new()).collect();
    // Which user each queued/in-service request belongs to.
    let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut users: Vec<UserState> =
        (0..cfg.n_users).map(|_| UserState { state: cfg.initial_state }).collect();

    let mut metrics = MetricsCollector::new(n, cfg.warmup, cfg.control_period);
    let mut rate_history = vec![(0.0, initial_rates)];

    let mut events: EventQueue<SessionEvent> = EventQueue::new();

    // Initial think times stagger the users.
    for user in 0..cfg.n_users {
        let think = cfg.states[cfg.initial_state].mean_think;
        let t = if think > 0.0 { -open01(&mut rng).ln() * think } else { 0.0 };
        events.schedule(t, SessionEvent::Wake { user });
    }
    events.schedule(cfg.control_period, SessionEvent::Control);

    let mut window = WindowAccount::new(n);
    let mut next_id = 0u64;

    while let Some((now, event)) = events.pop() {
        if now > cfg.end_time {
            break;
        }
        match event {
            SessionEvent::Wake { user } => {
                // A user wakes and issues the request of their state.
                let state = users[user].state;
                let class = cfg.states[state].class;
                let size = cfg.states[state].service.sample(&mut rng);
                let req = Request { id: next_id, class, size, arrival: now };
                owner.insert(next_id, user);
                next_id += 1;
                metrics.on_arrival(class);
                window.on_arrival(class, size);
                if servers[class].is_busy() {
                    queues[class].push_back(req);
                } else if let Some((t, epoch)) = servers[class].start_service(req, now) {
                    events.schedule(t, SessionEvent::Completion { class, epoch });
                }
            }
            SessionEvent::Completion { class, epoch } => {
                if let Some(in_service) = servers[class].complete(now, epoch) {
                    let req_id = in_service.request.id;
                    let done = CompletedRequest {
                        request: in_service.request,
                        service_start: in_service.service_start,
                        departure: now,
                    };
                    metrics.on_departure(&done);
                    window.on_departure(class, done.slowdown());
                    // The owning user transitions and schedules their
                    // next request after a think time.
                    let user = owner.remove(&req_id).expect("owner tracked");
                    let state = users[user].state;
                    let u = open01(&mut rng);
                    let mut acc = 0.0;
                    let mut next_state = cfg.states.len() - 1;
                    for (j, &p) in cfg.states[state].next.iter().enumerate() {
                        acc += p;
                        if u < acc {
                            next_state = j;
                            break;
                        }
                    }
                    users[user].state = next_state;
                    let think = cfg.states[next_state].mean_think;
                    let gap = if think > 0.0 { -open01(&mut rng).ln() * think } else { 0.0 };
                    events.schedule(now + gap, SessionEvent::Wake { user });
                    // Start the next queued request of this class.
                    if let Some(next_req) = queues[class].pop_front() {
                        if let Some((t, epoch)) = servers[class].start_service(next_req, now) {
                            events.schedule(t, SessionEvent::Completion { class, epoch });
                        }
                    }
                }
            }
            SessionEvent::Control => {
                let backlog = (0..n)
                    .map(|c| queues[c].len() as u64 + u64::from(servers[c].is_busy()))
                    .collect();
                let obs = window.close(now, backlog);
                // The unified control entry point, as in the open-loop
                // engine: a wrapper that overrides `control` sees every
                // window. There is no admission path here either, so
                // `admit_probability` is ignored.
                if let Some(rates) = controller.control(now, &obs).rates {
                    validate_rates(&rates, n);
                    for (c, server) in servers.iter_mut().enumerate() {
                        if let Some((t, epoch)) = server.set_rate(rates[c], now) {
                            events.schedule(t, SessionEvent::Completion { class: c, epoch });
                        }
                    }
                    rate_history.push((now, rates));
                }
                events.schedule(now + cfg.control_period, SessionEvent::Control);
            }
        }
    }

    let mut out = metrics.finish(cfg.end_time, rate_history);
    out.busy_time = servers.iter().map(|s| s.busy_time_as_of(cfg.end_time)).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StaticRates;
    use psd_dist::Deterministic;

    fn det(v: f64) -> ServiceDist {
        ServiceDist::Deterministic(Deterministic::new(v).unwrap())
    }

    /// Two-state store: browse (class 1) -> checkout (class 0) -> browse.
    fn two_state_cfg(n_users: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            states: vec![
                SessionState {
                    class: 1,
                    service: det(0.5),
                    mean_think: 2.0,
                    next: vec![0.3, 0.7], // mostly keep browsing
                },
                SessionState {
                    class: 0,
                    service: det(1.0),
                    mean_think: 1.0,
                    next: vec![1.0, 0.0], // back to browsing
                },
            ],
            initial_state: 0,
            n_classes: 2,
            n_users,
            end_time: 5_000.0,
            warmup: 500.0,
            control_period: 100.0,
            seed,
        }
    }

    #[test]
    fn sessions_run_and_complete() {
        let out = run_sessions(two_state_cfg(20, 1), Box::new(StaticRates::even(2)));
        let total: u64 = out.per_class.iter().map(|m| m.completed).sum();
        assert!(total > 500, "closed loop must keep producing work, got {total}");
        assert!(out.per_class[0].completed > 0 && out.per_class[1].completed > 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run_sessions(two_state_cfg(10, 7), Box::new(StaticRates::even(2)));
        let b = run_sessions(two_state_cfg(10, 7), Box::new(StaticRates::even(2)));
        assert_eq!(a.per_class[0].completed, b.per_class[0].completed);
        assert_eq!(a.mean_slowdown(1), b.mean_slowdown(1));
    }

    #[test]
    fn closed_loop_self_limits() {
        // Growing the population 100x grows throughput far less than
        // 100x once the server saturates (the defining closed-loop
        // property: arrivals throttle themselves).
        let small = run_sessions(two_state_cfg(2, 3), Box::new(StaticRates::even(2)));
        let big = run_sessions(two_state_cfg(200, 3), Box::new(StaticRates::even(2)));
        let tp = |o: &SimOutput| o.per_class.iter().map(|m| m.completed).sum::<u64>() as f64;
        assert!(tp(&big) > tp(&small), "more users, more throughput");
        assert!(
            tp(&big) < 50.0 * tp(&small),
            "but sub-linear at saturation: {} vs {}",
            tp(&big),
            tp(&small)
        );
    }

    #[test]
    fn user_population_conserved() {
        // Every user has at most one request in flight, so (with no
        // warm-up exclusion) arrivals can exceed completions only by
        // the population size.
        let mut cfg = two_state_cfg(8, 11);
        cfg.warmup = 0.0;
        let out = run_sessions(cfg, Box::new(StaticRates::even(2)));
        let arr: u64 = out.per_class.iter().map(|m| m.total_arrivals).sum();
        let done: u64 = out.per_class.iter().map(|m| m.completed).sum();
        assert!(arr >= done, "cannot finish what never arrived");
        assert!(arr <= done + 8, "at most population-many in flight: arr {arr} done {done}");
    }

    #[test]
    #[should_panic(expected = "transition row sums")]
    fn bad_transition_row_rejected() {
        let mut cfg = two_state_cfg(1, 1);
        cfg.states[0].next = vec![0.5, 0.2];
        run_sessions(cfg, Box::new(StaticRates::even(2)));
    }
}
