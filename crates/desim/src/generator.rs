//! Open-loop request generators: one per class, pairing an arrival
//! process with a service-size distribution.

use psd_dist::arrival::{
    ArrivalProcess, DeterministicArrivals, Mmpp2, PoissonProcess, StepPoisson,
};
use psd_dist::rng::Xoshiro256pp;
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::request::Request;

/// Declarative arrival-process choice for a class (kept as a spec so
/// simulation configs are clonable and serializable upstream).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals at the given rate — the paper's traffic model.
    Poisson {
        /// Arrival rate (requests per time unit).
        rate: f64,
    },
    /// Evenly spaced arrivals (for exact-answer tests).
    Deterministic {
        /// Gap between consecutive arrivals.
        interval: f64,
    },
    /// Bursty 2-state MMPP (estimator stress tests).
    Bursty {
        /// Long-run mean arrival rate.
        mean_rate: f64,
        /// Peak-to-mean rate ratio, ≥ 1.
        burstiness: f64,
        /// Mean sojourn time per modulating state.
        sojourn: f64,
    },
    /// A load step: Poisson at `rate_before` until `switch_at`, then at
    /// `rate_after` (controller-adaptivity experiments).
    Step {
        /// Arrival rate before the step.
        rate_before: f64,
        /// Arrival rate after the step.
        rate_after: f64,
        /// Absolute simulation time of the step.
        switch_at: f64,
    },
}

impl ArrivalSpec {
    /// Long-run mean arrival rate of the spec.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalSpec::Poisson { rate } => *rate,
            ArrivalSpec::Deterministic { interval } => 1.0 / interval,
            ArrivalSpec::Bursty { mean_rate, .. } => *mean_rate,
            ArrivalSpec::Step { rate_after, .. } => *rate_after,
        }
    }
}

/// The arrival process a spec describes. An enum, not a boxed trait
/// object: the per-arrival gap draw is a direct call the compiler
/// inlines beside the size draw.
#[derive(Debug)]
enum Arrivals {
    Poisson(PoissonProcess),
    Deterministic(DeterministicArrivals),
    Bursty(Mmpp2),
    Step(StepPoisson),
}

impl Arrivals {
    fn new(spec: &ArrivalSpec) -> Self {
        let why = "validated by SimConfig";
        match *spec {
            ArrivalSpec::Poisson { rate } => Self::Poisson(PoissonProcess::new(rate).expect(why)),
            ArrivalSpec::Deterministic { interval } => {
                Self::Deterministic(DeterministicArrivals::new(interval).expect(why))
            }
            ArrivalSpec::Bursty { mean_rate, burstiness, sojourn } => {
                Self::Bursty(Mmpp2::bursty(mean_rate, burstiness, sojourn).expect(why))
            }
            ArrivalSpec::Step { rate_before, rate_after, switch_at } => {
                Self::Step(StepPoisson::new(rate_before, rate_after, switch_at).expect(why))
            }
        }
    }
}

impl ArrivalProcess for Arrivals {
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        match self {
            Self::Poisson(p) => p.next_interarrival(rng),
            Self::Deterministic(p) => p.next_interarrival(rng),
            Self::Bursty(p) => p.next_interarrival(rng),
            Self::Step(p) => p.next_interarrival(rng),
        }
    }
}

/// Arrivals drawn per refill: 1 KiB of look-ahead per class.
const BATCH: usize = 64;

/// Draw the next `BATCH` arrivals' `(size, gap)` pairs, size first —
/// the order [`Generator::emit`] would draw them in one at a time, so
/// the stream is the same. Drawn back to back with nothing between
/// them to wait for, the `pow` and `log` calls of consecutive arrivals
/// overlap instead of each queueing behind the simulator's branches.
fn fill<S: ServiceDistribution, A: ArrivalProcess>(
    ahead: &mut [(f64, f64); BATCH],
    service: &S,
    arrivals: &mut A,
    rng: &mut Xoshiro256pp,
) {
    for pair in ahead {
        *pair = (service.sample(rng), arrivals.next_interarrival(rng));
    }
}

/// Stateful per-class generator: produces the class's request stream.
#[derive(Debug)]
pub struct Generator {
    class: usize,
    arrivals: Arrivals,
    service: ServiceDist,
    rng: Xoshiro256pp,
    next_time: f64,
    /// `(size, gap)` of the arrivals still to emit, drawn ahead of
    /// time: `ahead[emitted..]`. Every process keeps its own clock, so
    /// drawing early draws the same numbers.
    ahead: [(f64, f64); BATCH],
    emitted: usize,
}

impl Generator {
    /// Build a generator for `class` seeded with `seed`.
    pub fn new(class: usize, spec: &ArrivalSpec, service: ServiceDist, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let mut arrivals = Arrivals::new(spec);
        let next_time = arrivals.next_interarrival(&mut rng);
        Self {
            class,
            arrivals,
            service,
            rng,
            next_time,
            ahead: [(0.0, 0.0); BATCH],
            emitted: BATCH,
        }
    }

    /// Time of the next arrival.
    pub fn next_arrival_time(&self) -> f64 {
        self.next_time
    }

    /// Emit the arrival due now (caller guarantees the clock equals
    /// [`Self::next_arrival_time`]) and advance the stream. `id` is the
    /// request id to assign.
    pub fn emit(&mut self, id: u64) -> Request {
        if self.emitted == BATCH {
            self.refill();
        }
        let (size, gap) = self.ahead[self.emitted];
        self.emitted += 1;
        let arrival = self.next_time;
        self.next_time += gap;
        Request { id, class: self.class, size, arrival }
    }

    /// One loop for the paper's traffic, compiled for exactly that pair
    /// so both draws inline, and the enum-dispatched loop for the rest.
    #[cold]
    fn refill(&mut self) {
        let (ahead, rng) = (&mut self.ahead, &mut self.rng);
        match (&self.service, &mut self.arrivals) {
            (ServiceDist::BoundedPareto(sizes), Arrivals::Poisson(gaps)) => {
                fill(ahead, sizes, gaps, rng)
            }
            (sizes, gaps) => fill(ahead, sizes, gaps, rng),
        }
        self.emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let spec = ArrivalSpec::Deterministic { interval: 2.0 };
        let service = ServiceDist::paper_default();
        let mut g = Generator::new(0, &spec, service, 42);
        assert_eq!(g.next_arrival_time(), 2.0);
        let r = g.emit(0);
        assert_eq!(r.arrival, 2.0);
        assert_eq!(g.next_arrival_time(), 4.0);
        let r = g.emit(1);
        assert_eq!(r.arrival, 4.0);
        assert_eq!(r.id, 1);
    }

    #[test]
    fn poisson_rate_empirical() {
        let spec = ArrivalSpec::Poisson { rate: 5.0 };
        let mut g = Generator::new(0, &spec, ServiceDist::paper_default(), 7);
        let mut last = 0.0;
        let n = 100_000;
        for i in 0..n {
            let r = g.emit(i);
            assert!(r.arrival > last);
            last = r.arrival;
        }
        let rate = n as f64 / last;
        assert!((rate - 5.0).abs() / 5.0 < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn same_seed_same_stream() {
        let spec = ArrivalSpec::Poisson { rate: 1.0 };
        let mut a = Generator::new(0, &spec, ServiceDist::paper_default(), 13);
        let mut b = Generator::new(0, &spec, ServiceDist::paper_default(), 13);
        for i in 0..100 {
            let (ra, rb) = (a.emit(i), b.emit(i));
            assert_eq!(ra.arrival, rb.arrival);
            assert_eq!(ra.size, rb.size);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ArrivalSpec::Poisson { rate: 1.0 };
        let mut a = Generator::new(0, &spec, ServiceDist::paper_default(), 13);
        let mut b = Generator::new(0, &spec, ServiceDist::paper_default(), 14);
        assert_ne!(a.emit(0).arrival, b.emit(0).arrival);
    }

    /// Each spec variant paired with each of three size distributions,
    /// through the generator's look-ahead, is the `psd_dist` process and
    /// distribution it names driven directly, one draw at a time: same
    /// sizes and same arrival times from the same seed, the size drawn
    /// between consecutive gaps. 1 000 arrivals is fifteen refills, and
    /// `(BoundedPareto, Poisson)` is the pair with a loop of its own.
    #[test]
    fn every_spec_matches_its_process_driven_directly() {
        const N: usize = 1_000;
        fn direct(mut p: impl ArrivalProcess, service: &ServiceDist) -> Vec<(f64, f64)> {
            let mut rng = Xoshiro256pp::seed_from(5);
            let mut t = p.next_interarrival(&mut rng);
            (0..N)
                .map(|_| {
                    let arrival = t;
                    let size = service.sample(&mut rng);
                    t += p.next_interarrival(&mut rng);
                    (size, arrival)
                })
                .collect()
        }
        let services = [
            ServiceDist::paper_default(),
            ServiceDist::Deterministic(psd_dist::Deterministic::new(0.5).unwrap()),
            ServiceDist::Exponential(psd_dist::Exponential::new(2.0).unwrap()),
        ];
        for service in &services {
            let cases = [
                (
                    ArrivalSpec::Poisson { rate: 3.0 },
                    direct(PoissonProcess::new(3.0).unwrap(), service),
                ),
                (
                    ArrivalSpec::Deterministic { interval: 0.25 },
                    direct(DeterministicArrivals::new(0.25).unwrap(), service),
                ),
                (
                    ArrivalSpec::Bursty { mean_rate: 2.0, burstiness: 3.0, sojourn: 5.0 },
                    direct(Mmpp2::bursty(2.0, 3.0, 5.0).unwrap(), service),
                ),
                (
                    ArrivalSpec::Step { rate_before: 1.0, rate_after: 4.0, switch_at: 100.0 },
                    direct(StepPoisson::new(1.0, 4.0, 100.0).unwrap(), service),
                ),
            ];
            for (spec, expected) in cases {
                let mut g = Generator::new(0, &spec, service.clone(), 5);
                let got: Vec<(f64, f64)> = (0..N as u64)
                    .map(|i| {
                        // Known before the arrival is emitted, also
                        // when emitting it is what refills.
                        let due = g.next_arrival_time();
                        let r = g.emit(i);
                        assert_eq!(r.arrival, due, "{spec:?} at arrival {i}");
                        (r.size, r.arrival)
                    })
                    .collect();
                assert_eq!(got, expected, "{spec:?} with {service:?}");
            }
        }
    }

    #[test]
    fn spec_mean_rates() {
        assert_eq!(ArrivalSpec::Poisson { rate: 2.0 }.mean_rate(), 2.0);
        assert_eq!(ArrivalSpec::Deterministic { interval: 0.5 }.mean_rate(), 2.0);
        assert_eq!(
            ArrivalSpec::Bursty { mean_rate: 3.0, burstiness: 2.0, sojourn: 10.0 }.mean_rate(),
            3.0
        );
    }
}
