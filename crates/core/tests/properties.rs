//! Property tests of the PSD allocation, model and controller: Eq. 17's
//! invariants over randomized class counts, loads and differentiation
//! parameters, and the controller's, the admission rule's and the
//! control surface's over randomized window and update sequences.
//!
//! Each property runs 48 seeded cases whose inputs are drawn from
//! `Xoshiro256pp::seed_from(seed)`. A failure names its seed, which
//! replays the case exactly.

use psd_core::allocation::{psd_rates, psd_rates_clamped, AllocationError};
use psd_core::control::open::{INTEGRAL_CLAMP, MIN_RATE, OVERLOAD_MARGIN};
use psd_core::control::{
    admission_probabilities, ClassTable, ControllerKind, ControllerParams, PsdController,
    RateController, SharedControl, WindowObservation,
};
use psd_core::estimator::LoadEstimator;
use psd_core::model::PsdModel;
use psd_dist::rng::Xoshiro256pp;
use psd_dist::{BoundedPareto, Deterministic, ServiceDistribution};

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

/// Uniform integer in `[lo, hi)`.
fn between(rng: &mut Xoshiro256pp, lo: usize, hi: usize) -> usize {
    lo + (rng.next_f64() * (hi - lo) as f64) as usize
}

/// A random class system: (deltas, per-class loads) for 2–5 classes
/// with total load in (0.05, 0.95).
fn class_system(rng: &mut Xoshiro256pp) -> (Vec<f64>, Vec<f64>) {
    let n = between(rng, 2, 6);
    let deltas: Vec<f64> = (0..n).map(|_| uniform(rng, 0.2, 16.0)).collect();
    let raw: Vec<f64> = (0..n).map(|_| uniform(rng, 0.01, 1.0)).collect();
    let total: f64 = raw.iter().sum();
    // Normalize to a random total load in (0.05, 0.95).
    let target = 0.05 + 0.9 * (total - total.floor()).abs().min(0.9);
    let loads = raw.iter().map(|r| r / total * target).collect();
    (deltas, loads)
}

fn moments() -> psd_dist::Moments {
    BoundedPareto::paper_default().moments()
}

/// What one class did in one window: `(u, s)`, both uniform draws.
/// `u < 0.25` is an idle class, the rest offers up to `2.4 / n` of the
/// machine (so windows burst past ρ = 1); `s < 10` is a class without a
/// departure, the rest completed 10 requests at mean slowdown `s − 9`.
type ClassDraw = (f64, f64);

/// A random class system with a sequence of 1–13 observation windows.
fn window_sequence(rng: &mut Xoshiro256pp) -> (Vec<f64>, Vec<Vec<ClassDraw>>) {
    let n = between(rng, 2, 6);
    let deltas = (0..n).map(|_| uniform(rng, 0.2, 16.0)).collect();
    let windows = between(rng, 1, 14);
    let sequence = (0..windows)
        .map(|_| (0..n).map(|_| (uniform(rng, 0.0, 1.0), uniform(rng, 0.0, 40.0))).collect())
        .collect();
    (deltas, sequence)
}

fn observation(index: usize, draws: &[ClassDraw], mean_service: f64) -> WindowObservation {
    let n = draws.len();
    let load = |u: f64| (u - 0.25).max(0.0) / 0.75 * 2.4 / n as f64;
    let departed = |s: f64| s >= 10.0;
    WindowObservation {
        index: index as u64,
        start: index as f64 * 1000.0,
        end: (index + 1) as f64 * 1000.0,
        arrivals: draws.iter().map(|&(u, _)| (load(u) / mean_service * 1000.0) as u64).collect(),
        arrived_work: draws.iter().map(|&(u, _)| load(u) * 1000.0).collect(),
        shed_work: vec![0.0; n],
        completions: draws.iter().map(|&(_, s)| if departed(s) { 10 } else { 0 }).collect(),
        backlog: vec![0; n],
        slowdown_sums: draws
            .iter()
            .map(|&(_, s)| if departed(s) { (s - 9.0) * 10.0 } else { 0.0 })
            .collect(),
    }
}

/// Eq. 17 rates always sum to exactly 1 and exceed each class's raw
/// requirement (local stability).
#[test]
fn rates_partition_capacity() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let rates = psd_rates(&lambdas, &deltas, m.mean).unwrap();
        let sum: f64 = rates.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: sum {sum}");
        for ((&r, &l), &load) in rates.iter().zip(&lambdas).zip(&loads) {
            assert!(r > l * m.mean - 1e-12, "seed {seed}: rate {r} below requirement {load}");
        }
    });
}

/// The achieved model ratios are exactly the delta ratios, for any
/// loads (the defining Eq. 16 property — *load independence*).
#[test]
fn ratios_are_load_independent() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let model = PsdModel::new(&deltas, m).unwrap();
        let s = model.expected_slowdowns(&lambdas).unwrap();
        for i in 1..deltas.len() {
            let want = deltas[i] / deltas[0];
            let got = s[i] / s[0];
            assert!((got - want).abs() < 1e-9 * want.max(1.0), "seed {seed}: {got} vs {want}");
        }
    });
}

/// Scaling every delta by a constant changes nothing (only ratios
/// matter — the paper's controllability knob is relative).
#[test]
fn delta_scale_invariance() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let scale = uniform(rng, 0.1, 10.0);
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let r1 = psd_rates(&lambdas, &deltas, m.mean).unwrap();
        let scaled: Vec<f64> = deltas.iter().map(|d| d * scale).collect();
        let r2 = psd_rates(&lambdas, &scaled, m.mean).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            assert!((a - b).abs() < 1e-9, "seed {seed}: {r1:?} vs {r2:?}");
        }
    });
}

/// Clamped allocation is total (never errors) for any non-negative
/// load level, sums to 1, and respects the floor.
#[test]
fn clamped_allocation_is_total() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let overload_factor = uniform(rng, 0.1, 3.0);
        let min_rate = uniform(rng, 0.0, 0.01);
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l * overload_factor / m.mean).collect();
        let rates = psd_rates_clamped(&lambdas, &deltas, m.mean, min_rate, 0.02).unwrap();
        let sum: f64 = rates.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "seed {seed}: sum {sum}");
        for &r in &rates {
            assert!(r >= min_rate - 1e-12, "seed {seed}: floor violated: {r} < {min_rate}");
        }
    });
}

/// Infeasible loads are rejected by the strict allocator with the
/// correct total in the error.
#[test]
fn infeasible_detected() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let excess = uniform(rng, 1.0, 3.0);
        let m = moments();
        let total: f64 = loads.iter().sum();
        let factor = excess / total; // pushes ρ to exactly `excess` ≥ 1
        let lambdas: Vec<f64> = loads.iter().map(|l| l * factor / m.mean).collect();
        match psd_rates(&lambdas, &deltas, m.mean) {
            Err(AllocationError::Infeasible { total_load }) => {
                assert!((total_load - excess).abs() < 1e-6, "seed {seed}: {total_load}");
            }
            other => panic!("seed {seed}: expected Infeasible, got {other:?}"),
        }
    });
}

/// Property 2 (controllability), model-wide: raising one δ lowers
/// every *other* class's expected slowdown.
#[test]
fn raising_delta_helps_others() {
    each_seed(|seed, rng| {
        let (deltas, loads) = class_system(rng);
        let victim = between(rng, 0, deltas.len());
        let bump = uniform(rng, 1.1, 4.0);
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let before = PsdModel::new(&deltas, m).unwrap().expected_slowdowns(&lambdas).unwrap();
        let mut bumped = deltas.clone();
        bumped[victim] *= bump;
        let after = PsdModel::new(&bumped, m).unwrap().expected_slowdowns(&lambdas).unwrap();
        for i in 0..deltas.len() {
            if i == victim {
                assert!(after[i] > before[i] - 1e-12, "seed {seed}: victim's slowdown rises");
            } else {
                assert!(after[i] < before[i] + 1e-12, "seed {seed}: {before:?} -> {after:?}");
            }
        }
    });
}

/// The estimator output is always inside the min/max envelope of its
/// history window (it is a mean).
#[test]
fn estimator_within_envelope() {
    each_seed(|seed, rng| {
        let count = between(rng, 1, 12);
        let windows: Vec<Vec<f64>> =
            (0..count).map(|_| (0..3).map(|_| uniform(rng, 0.0, 100.0)).collect()).collect();
        let history = between(rng, 1, 8);
        let mut e = LoadEstimator::new(3, history);
        for w in &windows {
            e.observe(w);
        }
        let est = e.estimate().unwrap();
        let held = &windows[windows.len().saturating_sub(history)..];
        for c in 0..3 {
            let min = held.iter().map(|w| w[c]).fold(f64::INFINITY, f64::min);
            let max = held.iter().map(|w| w[c]).fold(0.0f64, f64::max);
            assert!(est[c] >= min - 1e-9 && est[c] <= max + 1e-9, "seed {seed}: {est:?}");
        }
    });
}

/// The controller's invariants hold window after window — idle
/// classes, overload bursts and windows without departures included
/// — for the open loop and the feedback, for one shared distribution
/// and per-class ones: rates finite, summing to 1, never below
/// `MIN_RATE`; integral terms inside `INTEGRAL_CLAMP`. At gain 0 the
/// controller *is* `psd_rates_clamped` on the estimator's mean, and
/// per-class moments that are all equal change nothing.
#[test]
fn controller_invariants_over_window_sequences() {
    each_seed(|seed, rng| {
        let (deltas, sequence) = window_sequence(rng);
        let m = moments();
        let n = deltas.len();
        let mixed: Vec<psd_dist::Moments> = (0..n)
            .map(|i| match i % 2 {
                0 => m,
                _ => Deterministic::new(0.1 * (i + 1) as f64).unwrap().moments(),
            })
            .collect();
        for gain in [0.0, 0.3] {
            let params = ControllerParams { gain, ..Default::default() };
            let mut controllers = [
                PsdController::new(deltas.clone(), m.mean, params.clone()),
                PsdController::per_class(deltas.clone(), &vec![m; n], params.clone()),
                PsdController::per_class(deltas.clone(), &mixed, params.clone()),
            ];
            let mut estimator = LoadEstimator::new(n, params.estimator_history);
            for (index, draws) in sequence.iter().enumerate() {
                let w = observation(index, draws, m.mean);
                let rates: Vec<Vec<f64>> =
                    controllers.iter_mut().map(|c| c.reallocate(w.end, &w).unwrap()).collect();
                for (c, r) in controllers.iter().zip(&rates) {
                    assert!(r.iter().all(|x| x.is_finite()), "seed {seed}: {r:?}");
                    let sum: f64 = r.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-12, "seed {seed}: window {index}: sum {sum}");
                    assert!(r.iter().all(|&x| x >= MIN_RATE), "seed {seed}: floor: {r:?}");
                    let traced = c.internals();
                    assert_eq!(traced.len(), usize::from(gain > 0.0), "seed {seed}");
                    let clamped =
                        traced.iter().all(|(_, i)| i.iter().all(|i| i.abs() <= INTEGRAL_CLAMP));
                    assert!(clamped, "seed {seed}: {traced:?}");
                }
                let equal = rates[0].iter().zip(&rates[1]).all(|(a, b)| (a - b).abs() < 1e-12);
                assert!(equal, "seed {seed}: {:?} vs {:?}", rates[0], rates[1]);
                if gain == 0.0 {
                    estimator.observe(&w.arrival_rates());
                    let est = estimator.estimate().unwrap();
                    let want = psd_rates_clamped(&est, &deltas, m.mean, MIN_RATE, OVERLOAD_MARGIN);
                    assert_eq!(rates[0], want.unwrap(), "seed {seed}: window {index}");
                }
            }
        }
    });
}

/// Admission never sheds a higher class while a lower one is still
/// admitted — idle classes included — and admits exactly what fits
/// under the cap.
#[test]
fn admission_is_monotone_in_class_order() {
    each_seed(|seed, rng| {
        let n = between(rng, 2, 6);
        let loads: Vec<f64> = (0..n)
            .map(|_| if rng.next_f64() < 0.3 { 0.0 } else { uniform(rng, 0.01, 0.6) })
            .collect();
        let cap = uniform(rng, 0.05, 0.95);
        let d = admission_probabilities(&loads, cap);
        let p = &d.admit_probability;
        for i in 0..n {
            assert!((0.0..=1.0).contains(&p[i]), "seed {seed}: {p:?}");
            for j in i + 1..n {
                assert!(
                    p[i] == 1.0 || p[j] == 0.0,
                    "seed {seed}: class {i} shed while class {j} is admitted: {p:?} for {loads:?}"
                );
            }
        }
        let offered: f64 = loads.iter().sum();
        assert!(
            (d.admitted_load - offered.min(cap)).abs() < 1e-9,
            "seed {seed}: admitted {} of {offered} under cap {cap}",
            d.admitted_load
        );
    });
}

/// `SharedControl`'s epochs stay ordered through any mix of accepted
/// and rejected updates and monitor publishes: the epoch counts the
/// accepted updates, a rejected one changes nothing, the applied epoch
/// never runs backwards or ahead, and every published admission
/// probability is a probability.
#[test]
fn shared_control_epochs_are_ordered() {
    each_seed(|seed, rng| {
        let n = between(rng, 1, 5);
        let c = SharedControl::new(ClassTable {
            deltas: (1..=n).map(|d| d as f64).collect(),
            gain: 0.3,
            admission_cap: None,
            controller: ControllerKind::Open,
            epoch: 0,
        });
        let mut accepted = 0;
        let mut monitor = c.table();
        let mut applied = 0;
        for step in 0..60 {
            if rng.next_f64() < 0.6 {
                let before = c.table();
                let mut next = before.clone();
                let valid = match between(rng, 0, 7) {
                    0 => {
                        next.deltas = (0..n).map(|_| uniform(rng, 0.1, 8.0)).collect();
                        true
                    }
                    1 => {
                        next.gain = uniform(rng, 0.0, 1.0);
                        true
                    }
                    2 => {
                        next.admission_cap =
                            (rng.next_f64() < 0.7).then(|| uniform(rng, 0.05, 0.95));
                        true
                    }
                    3 => {
                        next.deltas = vec![1.0; [n - 1, n + 1][between(rng, 0, 2)]];
                        false
                    }
                    4 => {
                        next.deltas[between(rng, 0, n)] = [0.0, -1.0, f64::NAN][between(rng, 0, 3)];
                        false
                    }
                    5 => {
                        next.gain = -uniform(rng, 0.01, 2.0);
                        false
                    }
                    _ => {
                        next.admission_cap = Some([0.0, 1.0, 1.5, -0.2][between(rng, 0, 4)]);
                        false
                    }
                };
                let result = c.update(|t| *t = next.clone());
                if valid {
                    accepted += 1;
                    assert_eq!(result, Ok(accepted), "seed {seed}: step {step}");
                    next.epoch = accepted;
                    assert_eq!(c.table(), next, "seed {seed}: step {step}");
                } else {
                    assert!(result.is_err(), "seed {seed}: step {step}: {next:?} accepted");
                    assert_eq!(c.table(), before, "seed {seed}: step {step}");
                }
            } else {
                if c.epoch() != monitor.epoch {
                    monitor = c.table();
                }
                let rates = vec![1.0 / n as f64; n];
                let admit: Option<Vec<f64>> = (rng.next_f64() < 0.7)
                    .then(|| (0..n).map(|_| uniform(rng, -1.0, 2.0)).collect());
                c.publish(monitor.epoch, &rates, admit.as_deref());
            }
            assert_eq!(c.epoch(), accepted, "seed {seed}: step {step}");
            assert_eq!(c.table().epoch, accepted, "seed {seed}: step {step}");
            let now = c.applied_epoch();
            assert!(
                applied <= now && now <= c.epoch(),
                "seed {seed}: step {step}: applied {applied} -> {now}, epoch {}",
                c.epoch()
            );
            applied = now;
            let p = c.admit_probabilities();
            assert!(p.iter().all(|p| (0.0..=1.0).contains(p)), "seed {seed}: step {step}: {p:?}");
        }
    });
}
