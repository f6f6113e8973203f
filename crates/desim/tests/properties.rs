//! Property tests of the discrete-event engine: conservation, FCFS
//! ordering, causality and work accounting over randomized
//! configurations.
//!
//! Each property runs 48 seeded cases whose inputs are drawn from
//! `Xoshiro256pp::seed_from(seed)`, and the seed also seeds the
//! simulation. A failure names its seed, which replays the case
//! exactly.

use psd_desim::{ArrivalSpec, ClassSpec, SimConfig, Simulation, StaticRates};
use psd_dist::rng::Xoshiro256pp;
use psd_dist::{BoundedPareto, Deterministic, ServiceDist, UniformService};

/// Run `case` once per seed, each with its own generator.
fn each_seed(mut case: impl FnMut(u64, &mut Xoshiro256pp)) {
    for seed in 0..48 {
        case(seed, &mut Xoshiro256pp::seed_from(seed));
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Deterministic, bounded Pareto or uniform service, one in three each.
fn service_dist(rng: &mut Xoshiro256pp) -> ServiceDist {
    match (rng.next_f64() * 3.0) as usize {
        0 => ServiceDist::Deterministic(Deterministic::new(uniform(rng, 0.05, 2.0)).unwrap()),
        1 => {
            let (a, k) = (uniform(rng, 1.0, 2.2), uniform(rng, 0.01, 0.5));
            ServiceDist::BoundedPareto(BoundedPareto::new(a, k, k * 500.0).unwrap())
        }
        _ => {
            let (a, f) = (uniform(rng, 0.05, 1.0), uniform(rng, 2.0, 5.0));
            ServiceDist::Uniform(UniformService::new(a, a * f).unwrap())
        }
    }
}

/// Two Poisson classes with random service and arrival rates in
/// (0.05, 2), simulated under `seed`.
fn two_class_config(seed: u64, rng: &mut Xoshiro256pp) -> SimConfig {
    let (s0, s1) = (service_dist(rng), service_dist(rng));
    let (l0, l1) = (uniform(rng, 0.05, 2.0), uniform(rng, 0.05, 2.0));
    SimConfig {
        classes: vec![
            ClassSpec { arrival: ArrivalSpec::Poisson { rate: l0 }, service: s0 },
            ClassSpec { arrival: ArrivalSpec::Poisson { rate: l1 }, service: s1 },
        ],
        end_time: 500.0,
        warmup: 0.0,
        control_period: 50.0,
        seed,
        ..SimConfig::default()
    }
}

fn rates(rng: &mut Xoshiro256pp) -> Vec<f64> {
    let r = uniform(rng, 0.05, 0.95);
    vec![r, 1.0 - r]
}

/// Conservation: completions never exceed arrivals; delays and
/// slowdowns are non-negative; busy time is within the horizon.
#[test]
fn conservation_and_causality() {
    each_seed(|seed, rng| {
        let cfg = two_class_config(seed, rng);
        let end = cfg.end_time;
        let out = Simulation::new(cfg, Box::new(StaticRates::new(rates(rng)))).run();
        for (c, m) in out.per_class.iter().enumerate() {
            assert!(m.completed <= m.total_arrivals, "seed {seed}: class {c} completed > arrived");
            if m.completed > 0 {
                assert!(m.mean_delay().unwrap() >= 0.0, "seed {seed}: class {c} delay");
                assert!(m.mean_slowdown().unwrap() >= 0.0, "seed {seed}: class {c} slowdown");
            }
            let busy = out.busy_time[c];
            assert!(busy >= -1e-9 && busy <= end + 1e-6, "seed {seed}: class {c} busy {busy}");
        }
    });
}

/// The trace (when requested) is sorted by departure, within range,
/// and FCFS within each class: departures of a class happen in
/// arrival (id) order.
#[test]
fn trace_is_causal_and_fcfs() {
    each_seed(|seed, rng| {
        let mut cfg = two_class_config(seed, rng);
        cfg.trace_range = Some((0.0, cfg.end_time));
        let out = Simulation::new(cfg, Box::new(StaticRates::new(rates(rng)))).run();
        let mut prev_depart = 0.0;
        let mut prev_id = [None::<u64>; 2];
        for t in &out.trace {
            assert!(t.departure >= prev_depart - 1e-12, "seed {seed}: departures out of order");
            prev_depart = t.departure;
            assert!(t.departure >= t.arrival, "seed {seed}: departed before arriving");
            assert!(t.slowdown >= 0.0, "seed {seed}: slowdown {}", t.slowdown);
            if let Some(p) = prev_id[t.class] {
                assert!(t.id > p, "seed {seed}: class {} id {} after {p}", t.class, t.id);
            }
            prev_id[t.class] = Some(t.id);
        }
    });
}

/// Determinism: identical configs and controllers give bit-identical
/// outputs.
#[test]
fn engine_determinism() {
    each_seed(|seed, rng| {
        let cfg = two_class_config(seed, rng);
        let r = rates(rng);
        let a = Simulation::new(cfg.clone(), Box::new(StaticRates::new(r.clone()))).run();
        let b = Simulation::new(cfg, Box::new(StaticRates::new(r))).run();
        for c in 0..2 {
            assert_eq!(a.per_class[c].completed, b.per_class[c].completed, "seed {seed}");
            assert_eq!(a.mean_slowdown(c), b.mean_slowdown(c), "seed {seed}");
        }
        assert_eq!(a.busy_time, b.busy_time, "seed {seed}");
    });
}

/// Giving a class a larger static rate can only improve (or tie) its
/// own completions.
#[test]
fn more_rate_no_fewer_completions() {
    each_seed(|seed, rng| {
        let cfg = two_class_config(seed, rng);
        let r1 = uniform(rng, 0.1, 0.45);
        let small =
            Simulation::new(cfg.clone(), Box::new(StaticRates::new(vec![r1, 1.0 - r1]))).run();
        let big_rate = r1 + 0.5;
        let big =
            Simulation::new(cfg, Box::new(StaticRates::new(vec![big_rate, 1.0 - big_rate]))).run();
        // Same arrival stream (same seed): the faster server finishes at
        // least as many class-0 requests.
        let (big, small) = (big.per_class[0].completed, small.per_class[0].completed);
        assert!(big + 1 >= small, "seed {seed}: {big} vs {small}");
    });
}

/// Windows partition the measurement period: window counts sum to
/// the total completions.
#[test]
fn windows_partition_completions() {
    each_seed(|seed, rng| {
        let cfg = two_class_config(seed, rng);
        let out = Simulation::new(cfg, Box::new(StaticRates::new(rates(rng)))).run();
        for m in &out.per_class {
            let window_sum: u64 = m.windows.iter().map(|w| w.count).sum();
            assert_eq!(window_sum, m.completed, "seed {seed}");
        }
    });
}
