//! Property-based tests of the PSD allocation, model and controller:
//! Eq. 17's invariants over randomized class counts, loads and
//! differentiation parameters, and the controller's over randomized
//! window sequences.

use proptest::prelude::*;
use psd_core::allocation::{psd_rates, psd_rates_clamped, AllocationError};
use psd_core::control::{ControllerParams, PsdController, RateController, WindowObservation};
use psd_core::estimator::LoadEstimator;
use psd_core::model::PsdModel;
use psd_dist::{BoundedPareto, Deterministic, ServiceDistribution};

/// Random class systems: (deltas, per-class loads) with total load < 1.
fn class_system() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..6).prop_flat_map(|n| {
        (proptest::collection::vec(0.2f64..16.0, n), proptest::collection::vec(0.01f64..1.0, n))
            .prop_map(|(deltas, raw)| {
                let total: f64 = raw.iter().sum();
                // Normalize to a random total load in (0.05, 0.95).
                let target = 0.05 + 0.9 * (total - total.floor()).abs().min(0.9);
                let loads: Vec<f64> = raw.iter().map(|r| r / total * target).collect();
                (deltas, loads)
            })
    })
}

fn moments() -> psd_dist::Moments {
    BoundedPareto::paper_default().moments()
}

/// What one class did in one window: `(u, s)`, both uniform draws.
/// `u < 0.25` is an idle class, the rest offers up to `2.4 / n` of the
/// machine (so windows burst past ρ = 1); `s < 10` is a class without a
/// departure, the rest completed 10 requests at mean slowdown `s − 9`.
type ClassDraw = (f64, f64);

/// Random class systems with a sequence of observation windows.
fn window_sequences() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<ClassDraw>>)> {
    (2usize..6).prop_flat_map(|n| {
        let window = proptest::collection::vec((0.0f64..1.0, 0.0f64..40.0), n);
        (proptest::collection::vec(0.2f64..16.0, n), proptest::collection::vec(window, 1..14))
    })
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

proptest! {
    /// Eq. 17 rates always sum to exactly 1 and exceed each class's raw
    /// requirement (local stability).
    #[test]
    fn rates_partition_capacity((deltas, loads) in class_system()) {
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let rates = psd_rates(&lambdas, &deltas, m.mean).unwrap();
        let sum: f64 = rates.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        for ((&r, &l), &load) in rates.iter().zip(&lambdas).zip(&loads) {
            prop_assert!(r > l * m.mean - 1e-12, "rate {r} below requirement {load}");
        }
    }

    /// The achieved model ratios are exactly the delta ratios, for any
    /// loads (the defining Eq. 16 property — *load independence*).
    #[test]
    fn ratios_are_load_independent((deltas, loads) in class_system()) {
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let model = PsdModel::new(&deltas, m).unwrap();
        let s = model.expected_slowdowns(&lambdas).unwrap();
        for i in 1..deltas.len() {
            let want = deltas[i] / deltas[0];
            let got = s[i] / s[0];
            prop_assert!((got - want).abs() < 1e-9 * want.max(1.0), "class {i}: {got} vs {want}");
        }
    }

    /// Scaling every delta by a constant changes nothing (only ratios
    /// matter — the paper's controllability knob is relative).
    #[test]
    fn delta_scale_invariance((deltas, loads) in class_system(), scale in 0.1f64..10.0) {
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let r1 = psd_rates(&lambdas, &deltas, m.mean).unwrap();
        let scaled: Vec<f64> = deltas.iter().map(|d| d * scale).collect();
        let r2 = psd_rates(&lambdas, &scaled, m.mean).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Clamped allocation is total (never errors) for any non-negative
    /// load level, sums to 1, and respects the floor.
    #[test]
    fn clamped_allocation_is_total(
        (deltas, loads) in class_system(),
        overload_factor in 0.1f64..3.0,
        min_rate in 0.0f64..0.01,
    ) {
        let m = moments();
        let lambdas: Vec<f64> = loads.iter().map(|l| l * overload_factor / m.mean).collect();
        let rates = psd_rates_clamped(&lambdas, &deltas, m.mean, min_rate, 0.02).unwrap();
        let sum: f64 = rates.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        for &r in &rates {
            prop_assert!(r >= min_rate - 1e-12, "floor violated: {r} < {min_rate}");
        }
    }

    /// Infeasible loads are rejected by the strict allocator with the
    /// correct total in the error.
    #[test]
    fn infeasible_detected((deltas, loads) in class_system(), excess in 1.0f64..3.0) {
        let m = moments();
        let total: f64 = loads.iter().sum();
        let factor = excess / total; // pushes ρ to exactly `excess` ≥ 1
        let lambdas: Vec<f64> = loads.iter().map(|l| l * factor / m.mean).collect();
        match psd_rates(&lambdas, &deltas, m.mean) {
            Err(AllocationError::Infeasible { total_load }) => {
                prop_assert!((total_load - excess).abs() < 1e-6);
            }
            other => prop_assert!(false, "expected Infeasible, got {other:?}"),
        }
    }

    /// Property 2 (controllability), model-wide: raising one δ lowers
    /// every *other* class's expected slowdown.
    #[test]
    fn raising_delta_helps_others((deltas, loads) in class_system(), victim in 0usize..6, bump in 1.1f64..4.0) {
        let m = moments();
        let victim = victim % deltas.len();
        let lambdas: Vec<f64> = loads.iter().map(|l| l / m.mean).collect();
        let before = PsdModel::new(&deltas, m).unwrap().expected_slowdowns(&lambdas).unwrap();
        let mut bumped = deltas.clone();
        bumped[victim] *= bump;
        let after = PsdModel::new(&bumped, m).unwrap().expected_slowdowns(&lambdas).unwrap();
        for i in 0..deltas.len() {
            if i == victim {
                prop_assert!(after[i] > before[i] - 1e-12, "victim's slowdown rises");
            } else {
                prop_assert!(after[i] < before[i] + 1e-12, "others improve: {} -> {}", before[i], after[i]);
            }
        }
    }

    /// The estimator output is always inside the min/max envelope of its
    /// history window (it is a mean).
    #[test]
    fn estimator_within_envelope(
        windows in proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, 3), 1..12),
        history in 1usize..8,
    ) {
        let mut e = LoadEstimator::new(3, history);
        for w in &windows {
            e.observe(w);
        }
        let est = e.estimate().unwrap();
        let held = &windows[windows.len().saturating_sub(history)..];
        for c in 0..3 {
            let min = held.iter().map(|w| w[c]).fold(f64::INFINITY, f64::min);
            let max = held.iter().map(|w| w[c]).fold(0.0f64, f64::max);
            prop_assert!(est[c] >= min - 1e-9 && est[c] <= max + 1e-9);
        }
    }

    /// The controller's invariants hold window after window — idle
    /// classes, overload bursts and windows without departures included
    /// — for the open loop and the feedback, for one shared distribution
    /// and per-class ones: rates finite, summing to 1, never below
    /// `min_rate`; integral terms inside their clamp. At gain 0 the
    /// controller *is* `psd_rates_clamped` on the estimator's mean, and
    /// per-class moments that are all equal change nothing.
    #[test]
    fn controller_invariants_over_window_sequences((deltas, sequence) in window_sequences()) {
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
                    prop_assert!(r.iter().all(|x| x.is_finite()), "{r:?}");
                    let sum: f64 = r.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-12, "window {index}: sum {sum}");
                    prop_assert!(r.iter().all(|&x| x >= params.min_rate), "floor: {r:?}");
                    let clamp = params.integral_clamp;
                    let traced = c.internals();
                    prop_assert_eq!(traced.len(), usize::from(gain > 0.0));
                    prop_assert!(traced.iter().all(|(_, i)| i.iter().all(|i| i.abs() <= clamp)));
                }
                for (shared, equal) in rates[0].iter().zip(&rates[1]) {
                    prop_assert!((shared - equal).abs() < 1e-12, "{:?} vs {:?}", rates[0], rates[1]);
                }
                if gain == 0.0 {
                    estimator.observe(&w.arrival_rates());
                    let est = estimator.estimate().unwrap();
                    let want = psd_rates_clamped(
                        &est,
                        &deltas,
                        m.mean,
                        params.min_rate,
                        params.overload_margin,
                    );
                    prop_assert_eq!(&rates[0], &want.unwrap());
                }
            }
        }
    }
}
