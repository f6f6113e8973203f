//! Stochastic arrival processes feeding the simulators.
//!
//! The paper's traffic model is Poisson ([`PoissonProcess`]); the rest
//! exist to stress the load estimator beyond it: evenly spaced arrivals
//! for exact-answer tests ([`DeterministicArrivals`]), a bursty 2-state
//! Markov-modulated Poisson process ([`Mmpp2`]) and piecewise-constant
//! rates ([`PiecewisePoisson`]: a load step for controller-adaptivity
//! experiments, or a flash crowd).

use crate::rng::Xoshiro256pp;
use crate::DistError;

/// A stream of interarrival gaps. Implementations may carry state (the
/// MMPP's modulating chain, the piecewise process's clock), so the method
/// takes `&mut self`; all randomness comes from the caller's RNG so
/// streams stay deterministic per seed.
pub trait ArrivalProcess {
    /// Time until the next arrival, strictly positive.
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64;
}

#[inline]
fn exp_gap(rate: f64, rng: &mut Xoshiro256pp) -> f64 {
    -rng.next_open_f64().ln() / rate
}

/// Poisson arrivals at a constant rate — i.i.d. exponential gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Poisson process with `rate > 0` arrivals per time unit.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DistError::invalid(format!(
                "Poisson rate must be finite and > 0, got {rate}"
            )));
        }
        Ok(Self { rate })
    }

    /// The arrival rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ArrivalProcess for PoissonProcess {
    #[inline]
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        exp_gap(self.rate, rng)
    }
}

/// Evenly spaced arrivals (the `D` in D/D/1 sanity tests).
#[derive(Debug, Clone, PartialEq)]
pub struct DeterministicArrivals {
    interval: f64,
}

impl DeterministicArrivals {
    /// Arrivals every `interval > 0` time units.
    pub fn new(interval: f64) -> Result<Self, DistError> {
        if !(interval.is_finite() && interval > 0.0) {
            return Err(DistError::invalid(format!(
                "deterministic interarrival must be finite and > 0, got {interval}"
            )));
        }
        Ok(Self { interval })
    }
}

impl ArrivalProcess for DeterministicArrivals {
    fn next_interarrival(&mut self, _rng: &mut Xoshiro256pp) -> f64 {
        self.interval
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MmppState {
    /// Burst state: Poisson at the peak rate.
    On,
    /// Silent state: no arrivals.
    Off,
}

/// Two-state Markov-modulated Poisson process in on/off form.
///
/// [`Mmpp2::bursty`] pins the parameterization used by the estimator
/// stress tests: the *on* state fires at `burstiness × mean_rate`, the
/// *off* state is silent, and the exponential sojourn times (`sojourn`
/// on, `(burstiness − 1) × sojourn` off) put the chain in the on state
/// a fraction `1/burstiness` of the time — so the long-run rate is
/// exactly `mean_rate` while arrivals cluster into bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct Mmpp2 {
    peak_rate: f64,
    sojourn_on: f64,
    sojourn_off: f64,
    state: MmppState,
    /// Time left before the modulating chain switches state.
    remaining: f64,
}

impl Mmpp2 {
    /// Bursty MMPP with long-run `mean_rate > 0`, peak-to-mean ratio
    /// `burstiness ≥ 1` and mean on-state sojourn `sojourn > 0`.
    pub fn bursty(mean_rate: f64, burstiness: f64, sojourn: f64) -> Result<Self, DistError> {
        if !(mean_rate.is_finite() && mean_rate > 0.0) {
            return Err(DistError::invalid(format!(
                "MMPP mean rate must be finite and > 0, got {mean_rate}"
            )));
        }
        if !(burstiness.is_finite() && burstiness >= 1.0) {
            return Err(DistError::invalid(format!(
                "MMPP burstiness (peak/mean) must be >= 1, got {burstiness}"
            )));
        }
        if !(sojourn.is_finite() && sojourn > 0.0) {
            return Err(DistError::invalid(format!(
                "MMPP sojourn must be finite and > 0, got {sojourn}"
            )));
        }
        Ok(Self {
            peak_rate: mean_rate * burstiness,
            sojourn_on: sojourn,
            sojourn_off: sojourn * (burstiness - 1.0),
            state: MmppState::On,
            remaining: 0.0,
        })
    }

    /// The on-state (peak) arrival rate.
    pub fn peak_rate(&self) -> f64 {
        self.peak_rate
    }
}

impl ArrivalProcess for Mmpp2 {
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        // Degenerate burstiness = 1: the off state has zero sojourn, so
        // the process is plain Poisson at the peak (= mean) rate.
        if self.sojourn_off == 0.0 {
            return exp_gap(self.peak_rate, rng);
        }
        let mut elapsed = 0.0;
        loop {
            if self.remaining <= 0.0 {
                // (Re-)enter the current state with a fresh sojourn; on
                // first use this initializes the on state.
                self.remaining = match self.state {
                    MmppState::On => exp_gap(1.0 / self.sojourn_on, rng),
                    MmppState::Off => exp_gap(1.0 / self.sojourn_off, rng),
                };
            }
            match self.state {
                MmppState::On => {
                    let gap = exp_gap(self.peak_rate, rng);
                    if gap <= self.remaining {
                        self.remaining -= gap;
                        return elapsed + gap;
                    }
                    // Burst ends before the next arrival: spend the rest
                    // of the on-sojourn, switch off.
                    elapsed += self.remaining;
                    self.remaining = 0.0;
                    self.state = MmppState::Off;
                }
                MmppState::Off => {
                    // Silent: skip the whole off-sojourn.
                    elapsed += self.remaining;
                    self.remaining = 0.0;
                    self.state = MmppState::On;
                }
            }
        }
    }
}

/// Piecewise-constant-rate Poisson arrivals: segment `i` holds
/// `rates[i]` until absolute process time `ends[i]`; the last rate
/// holds forever. One end is a load step; two make a flash crowd
/// (surge up, then back down).
///
/// The process tracks its own clock (the cumulative sum of the gaps it
/// has produced), so callers just chain `next_interarrival` like any
/// other process.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewisePoisson {
    /// Segment end times (finite, non-negative, strictly increasing).
    ends: Vec<f64>,
    /// One rate per segment, plus the rate after the last end.
    rates: Vec<f64>,
    now: f64,
}

impl PiecewisePoisson {
    /// `rates.len()` must be `ends.len() + 1`, every rate positive and
    /// finite, and the ends finite, non-negative and increasing.
    pub fn new(ends: Vec<f64>, rates: Vec<f64>) -> Result<Self, DistError> {
        if rates.len() != ends.len() + 1 {
            return Err(DistError::invalid(format!(
                "need one rate per segment plus the tail: {} ends, {} rates",
                ends.len(),
                rates.len()
            )));
        }
        if let Some(r) = rates.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
            return Err(DistError::invalid(format!("rates must be finite and > 0, got {r}")));
        }
        let ordered = ends.windows(2).all(|w| w[0] < w[1]);
        if !(ordered && ends.iter().all(|e| e.is_finite() && *e >= 0.0)) {
            return Err(DistError::invalid(format!(
                "segment ends must be finite, >= 0 and increasing, got {ends:?}"
            )));
        }
        Ok(Self { ends, rates, now: 0.0 })
    }

    fn rate_at(&self, t: f64) -> f64 {
        let segment = self.ends.iter().take_while(|&&end| t >= end).count();
        self.rates[segment]
    }
}

impl ArrivalProcess for PiecewisePoisson {
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        // Draw at the current rate; if the gap crosses a boundary,
        // restart there at the next rate (memorylessness).
        let mut gap = 0.0;
        loop {
            let g = exp_gap(self.rate_at(self.now), rng);
            match self.ends.iter().copied().find(|&end| end > self.now) {
                Some(end) if self.now + g > end => {
                    gap += end - self.now;
                    self.now = end;
                }
                _ => {
                    gap += g;
                    self.now += g;
                    return gap;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate<P: ArrivalProcess>(p: &mut P, seed: u64, n: u64) -> f64 {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let total: f64 = (0..n).map(|_| p.next_interarrival(&mut rng)).sum();
        n as f64 / total
    }

    #[test]
    fn poisson_rate_within_two_percent() {
        let mut p = PoissonProcess::new(3.0).unwrap();
        assert_eq!(p.rate(), 3.0);
        let rate = empirical_rate(&mut p, 42, 200_000);
        assert!((rate - 3.0).abs() / 3.0 < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn deterministic_gaps_exact() {
        let mut d = DeterministicArrivals::new(0.25).unwrap();
        let mut rng = Xoshiro256pp::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.next_interarrival(&mut rng), 0.25);
        }
    }

    #[test]
    fn mmpp_long_run_rate_matches_spec() {
        // The acceptance bar: empirical rate within 2% of mean_rate.
        let mut m = Mmpp2::bursty(2.0, 3.0, 50.0).unwrap();
        assert_eq!(m.peak_rate(), 6.0);
        let rate = empirical_rate(&mut m, 7, 400_000);
        assert!((rate - 2.0).abs() / 2.0 < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn mmpp_burstiness_one_is_poisson() {
        let mut m = Mmpp2::bursty(5.0, 1.0, 10.0).unwrap();
        let rate = empirical_rate(&mut m, 11, 200_000);
        assert!((rate - 5.0).abs() / 5.0 < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn mmpp_actually_bursts() {
        // Count arrivals per unit-time window; a 5x-bursty stream must
        // show both silent windows and windows far above the mean rate.
        let mut m = Mmpp2::bursty(1.0, 5.0, 20.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from(23);
        let mut t = 0.0;
        let window = 10.0;
        let mut counts = vec![0u64; 4000];
        while t < 40_000.0 {
            t += m.next_interarrival(&mut rng);
            let w = (t / window) as usize;
            if w < counts.len() {
                counts[w] += 1;
            }
        }
        let silent = counts.iter().filter(|&&c| c == 0).count();
        let hot = counts.iter().filter(|&&c| c as f64 > 3.0 * window).count();
        assert!(silent > 100, "off periods must show up ({silent} silent windows)");
        assert!(hot > 100, "bursts must show up ({hot} hot windows)");
    }

    #[test]
    fn step_poisson_rates_before_and_after() {
        let mut s = PiecewisePoisson::new(vec![5_000.0], vec![1.0, 4.0]).unwrap();
        let mut rng = Xoshiro256pp::seed_from(17);
        let (mut n_before, mut n_after) = (0u64, 0u64);
        let mut t = 0.0;
        let horizon = 25_000.0;
        while t < horizon {
            t += s.next_interarrival(&mut rng);
            if t < 5_000.0 {
                n_before += 1;
            } else if t < horizon {
                n_after += 1;
            }
        }
        let rate_before = n_before as f64 / 5_000.0;
        let rate_after = n_after as f64 / (horizon - 5_000.0);
        assert!((rate_before - 1.0).abs() < 0.02 * 1.0 + 0.03, "before {rate_before}");
        assert!((rate_after - 4.0).abs() / 4.0 < 0.02, "after {rate_after}");
    }

    #[test]
    fn step_switch_at_zero_is_after_rate_only() {
        let mut s = PiecewisePoisson::new(vec![0.0], vec![100.0, 2.0]).unwrap();
        let rate = empirical_rate(&mut s, 3, 100_000);
        assert!((rate - 2.0).abs() / 2.0 < 0.02, "rate {rate}");
    }

    #[test]
    fn gaps_always_positive() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let mut procs: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonProcess::new(10.0).unwrap()),
            Box::new(DeterministicArrivals::new(1.0).unwrap()),
            Box::new(Mmpp2::bursty(1.0, 4.0, 5.0).unwrap()),
            Box::new(PiecewisePoisson::new(vec![10.0], vec![2.0, 3.0]).unwrap()),
            Box::new(PiecewisePoisson::new(vec![1.0, 2.0], vec![2.0, 9.0, 2.0]).unwrap()),
        ];
        for p in procs.iter_mut() {
            for _ in 0..10_000 {
                assert!(p.next_interarrival(&mut rng) > 0.0);
            }
        }
    }

    #[test]
    fn validation_errors() {
        assert!(PoissonProcess::new(0.0).is_err());
        assert!(DeterministicArrivals::new(-1.0).is_err());
        assert!(Mmpp2::bursty(1.0, 0.5, 1.0).is_err());
        assert!(Mmpp2::bursty(0.0, 2.0, 1.0).is_err());
        assert!(Mmpp2::bursty(1.0, 2.0, 0.0).is_err());
        assert!(PiecewisePoisson::new(vec![1.0], vec![0.0, 1.0]).is_err());
        assert!(PiecewisePoisson::new(vec![-1.0], vec![1.0, 1.0]).is_err());
        assert!(PiecewisePoisson::new(vec![1.0], vec![1.0, f64::NAN]).is_err());
        assert!(PiecewisePoisson::new(vec![f64::INFINITY], vec![1.0, 1.0]).is_err());
        assert!(PiecewisePoisson::new(vec![2.0, 1.0], vec![1.0; 3]).is_err());
        assert!(PiecewisePoisson::new(vec![1.0], vec![1.0]).is_err());
    }
}
