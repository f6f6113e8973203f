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
//! same plant (`engine.rs`) the open-loop engine drives.
//!
//! The closed loop matters: arrival rates now *respond* to the
//! allocation (slow service ⇒ users stuck waiting ⇒ fewer arrivals), a
//! regime the paper's open-loop analysis does not cover — this module
//! is how we probe it. It is also why this loop, unlike the open one,
//! cannot take the classes one at a time: a departure from one class
//! is what schedules an arrival at another, at any instant. So each
//! step fires the earliest, in `(time, seq)` order, of the stations'
//! completions, the control tick and the users' think timers — one per
//! user, hundreds in the closed-loop studies, which is a heap's job.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use psd_dist::rng::{open01, SplitMix64, Xoshiro256pp};
use psd_dist::{ServiceDist, ServiceDistribution};

use psd_control::{precedes, Rank, RateController, ServiceMode, NEVER};

use crate::engine::{validate_horizon, Plant};
use crate::metrics::SimOutput;
use crate::request::Request;

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
        validate_horizon(self.end_time, self.warmup, self.control_period);
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

/// A user's think time ends at `at`; they issue their state's request.
#[derive(Debug, PartialEq)]
struct Wake {
    at: Rank,
    user: usize,
}

impl Eq for Wake {}

impl Ord for Wake {
    /// Reversed, so that a max-heap pops the earliest `(time, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.0.total_cmp(&self.at.0).then_with(|| other.at.1.cmp(&self.at.1))
    }
}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An exponential think time of the given mean; none at mean 0.
fn think_time(mean: f64, rng: &mut Xoshiro256pp) -> f64 {
    if mean > 0.0 {
        -open01(rng).ln() * mean
    } else {
        0.0
    }
}

/// Run a closed-loop session simulation under the given controller.
pub fn run_sessions(cfg: SessionConfig, controller: Box<dyn RateController>) -> SimOutput {
    cfg.validate();
    let period = cfg.control_period;
    let mut plant =
        Plant::new(cfg.n_classes, ServiceMode::Fluid, cfg.warmup, period, None, 0, controller);
    let mut rng = Xoshiro256pp::seed_from(SplitMix64::derive(cfg.seed, 0xC105ED));
    // Which user each queued/in-service request belongs to.
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut users = vec![cfg.initial_state; cfg.n_users];

    // The first draws of the sequence counter: the users' initial think
    // times, which stagger them, in user order, then the control tick.
    let first_think = cfg.states[cfg.initial_state].mean_think;
    let mut wakes: BinaryHeap<Wake> = (0..cfg.n_users)
        .map(|user| Wake { at: (think_time(first_think, &mut rng), plant.seq.draw()), user })
        .collect();
    let mut tick: Rank = (period, plant.seq.draw());

    loop {
        let wake = wakes.peek().map_or(NEVER, |w| w.at);
        let (mut class, mut completion) = (0, NEVER);
        for (c, station) in plant.stations.iter().enumerate() {
            if precedes(station.completion(), completion) {
                (class, completion) = (c, station.completion());
            }
        }
        let now = wake.0.min(completion.0).min(tick.0);
        if now > cfg.end_time {
            break;
        }
        if precedes(tick, wake) && precedes(tick, completion) {
            plant.tick(now);
            tick = (now + period, plant.seq.draw());
        } else if precedes(wake, completion) {
            // The user issues the request of their state.
            let user = wakes.pop().expect("peeked").user;
            let state = &cfg.states[users[user]];
            let id = plant.next_id();
            owner.insert(id, user);
            let size = state.service.sample(&mut rng);
            plant.arrive(Request { id, class: state.class, size, arrival: now });
        } else {
            // The owning user moves to their next state and thinks; the
            // wake is armed before the completion of the request the
            // server takes next.
            let done = plant.depart(class, now);
            let user = owner.remove(&done.request.id).expect("owner tracked");
            let row = &cfg.states[users[user]].next;
            let u = open01(&mut rng);
            let mut acc = 0.0;
            let next_state = row
                .iter()
                .position(|&p| {
                    acc += p;
                    u < acc
                })
                .unwrap_or(row.len() - 1);
            users[user] = next_state;
            let at = now + think_time(cfg.states[next_state].mean_think, &mut rng);
            wakes.push(Wake { at: (at, plant.seq.draw()), user });
            plant.start_next(class, now);
        }
    }
    plant.finish(cfg.end_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticRates;
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

    /// The closed loop never runs out of events, so a horizon it cannot
    /// reach is one it never returns from.
    #[test]
    #[should_panic(expected = "bad end_time")]
    fn infinite_end_time_rejected() {
        let mut cfg = two_state_cfg(1, 1);
        cfg.end_time = f64::INFINITY;
        run_sessions(cfg, Box::new(StaticRates::even(2)));
    }

    #[test]
    #[should_panic(expected = "control_period must be positive and finite")]
    fn infinite_control_period_rejected() {
        let mut cfg = two_state_cfg(1, 1);
        cfg.control_period = f64::INFINITY;
        run_sessions(cfg, Box::new(StaticRates::even(2)));
    }

    /// Think timers due at the same instant fire in the order they were
    /// armed.
    #[test]
    fn ties_break_by_insertion_order() {
        let mut wakes = BinaryHeap::new();
        for (user, at) in [(7, (5.0, 1)), (3, (2.0, 4)), (8, (5.0, 2)), (9, (5.0, 0))] {
            wakes.push(Wake { at, user });
        }
        let order: Vec<usize> = std::iter::from_fn(|| wakes.pop()).map(|w| w.user).collect();
        assert_eq!(order, [3, 9, 7, 8]);
    }
}
