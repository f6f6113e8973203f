//! [`PsdController`] — the one PSD rate controller: a [`LoadEstimator`]
//! feeding the clamped Eq. 17 path of [`crate::allocation`], re-run at
//! every control tick of whichever host drives it (the desim engine or
//! the live server monitor).
//!
//! The paper's open loop and both extensions differ only in the weight
//! `w_i` of `r_i = ρ_i + (1 − ρ)·w_i/Σw_j`:
//!
//! * `w_i = λ̂_i/δ_i` — the paper: one shared service distribution
//!   ([`PsdController::new`]) and `gain = 0`;
//! * `× E[X_i²]·E[1/X_i]`, with `ρ_i = λ̂_i·E[X_i]` — per-class service
//!   moments ([`PsdController::per_class`]), for session-style workloads
//!   where "checkout" and "search" requests differ;
//! * `× exp(I_i)` — the paper's §6 future work: `I_i` integrates, with
//!   gain `g` and an anti-windup clamp, each window's normalized-slowdown
//!   error `e_i = (S_i/δ_i) / mean_j(S_j/δ_j) − 1` over the classes with
//!   departures, tilting the residual split toward classes running above
//!   target. At `g = 0` the integral is never touched and the controller
//!   *is* the open loop, bit for bit.

use crate::allocation::{clamped_rates, mean_and_tilt, validate_clamp};
use crate::estimator::LoadEstimator;
use psd_control::{RateController, WindowObservation};
use psd_dist::Moments;

/// Tuning knobs for the online controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerParams {
    /// Windows averaged by the load estimator (paper: 5).
    pub estimator_history: usize,
    /// Minimum rate guaranteed to every class (guards against transient
    /// zero-load estimates starving a class).
    pub min_rate: f64,
    /// Treat estimated total load above `1 − overload_margin` as
    /// overload and fall back to load-proportional shares.
    pub overload_margin: f64,
    /// Integral gain `g ≥ 0` of the slowdown feedback; 0 (the default)
    /// is the paper's open loop.
    pub gain: f64,
    /// Clamp on the integral terms (anti-windup), in natural-log units
    /// of residual-share tilt.
    pub integral_clamp: f64,
}

impl Default for ControllerParams {
    fn default() -> Self {
        Self {
            estimator_history: 5,
            min_rate: 1e-4,
            overload_margin: 0.02,
            gain: 0.0,
            integral_clamp: 1.5,
        }
    }
}

/// The PSD rate allocator as a plug-in controller for the simulator and
/// the live server.
#[derive(Debug, Clone)]
pub struct PsdController {
    deltas: Vec<f64>,
    /// Per class, `E[X_i]` at full machine rate and the weight tilt
    /// `E[X_i²]·E[1/X_i]` (1 under one shared distribution: it cancels).
    service: Vec<(f64, f64)>,
    /// Nominal arrival rates used for the initial allocation, before any
    /// window has been observed (`None` ⇒ even initial split).
    nominal_lambdas: Option<Vec<f64>>,
    params: ControllerParams,
    estimator: LoadEstimator,
    /// Integral of the normalized slowdown error per class.
    integral: Vec<f64>,
}

impl PsdController {
    /// Build a controller for classes with parameters `deltas`, serving
    /// a workload with full-rate mean service time `mean_service`.
    pub fn new(deltas: Vec<f64>, mean_service: f64, params: ControllerParams) -> Self {
        assert!(mean_service.is_finite() && mean_service > 0.0, "bad mean service time");
        let service = vec![(mean_service, 1.0); deltas.len()];
        Self::build(deltas, service, params)
    }

    /// Build a controller for classes with **per-class service
    /// distributions** (each must have finite `E[X²]` and `E[1/X]`).
    pub fn per_class(deltas: Vec<f64>, moments: &[Moments], params: ControllerParams) -> Self {
        assert_eq!(deltas.len(), moments.len(), "class count mismatch");
        let service: Result<_, _> =
            moments.iter().enumerate().map(|(i, m)| mean_and_tilt(i, m)).collect();
        Self::build(deltas, service.unwrap_or_else(|e| panic!("{e}")), params)
    }

    fn build(deltas: Vec<f64>, service: Vec<(f64, f64)>, params: ControllerParams) -> Self {
        let n = deltas.len();
        assert!(n > 0, "at least one class");
        assert!(deltas.iter().all(|&d| d.is_finite() && d > 0.0), "deltas must be positive");
        assert!(params.gain >= 0.0 && params.gain.is_finite(), "gain must be >= 0");
        assert!(params.integral_clamp > 0.0, "clamp must be positive");
        validate_clamp(n, params.min_rate, params.overload_margin)
            .unwrap_or_else(|e| panic!("{e}"));
        let estimator = LoadEstimator::new(n, params.estimator_history);
        let integral = vec![0.0; n];
        Self { deltas, service, nominal_lambdas: None, params, estimator, integral }
    }

    /// Provide nominal arrival rates for a warm start (the paper's
    /// simulations know the offered load a priori; the estimator takes
    /// over as soon as the first window closes).
    pub fn with_nominal_lambdas(mut self, lambdas: Vec<f64>) -> Self {
        assert_eq!(lambdas.len(), self.deltas.len(), "class count mismatch");
        self.nominal_lambdas = Some(lambdas);
        self
    }

    fn update_integral(&mut self, window: &WindowObservation) {
        // Normalized slowdowns x_i = S_i/δ_i of the classes with data.
        let means = window.mean_slowdowns();
        let xs: Vec<Option<f64>> =
            means.iter().zip(&self.deltas).map(|(m, d)| m.map(|s| s / d)).collect();
        let present = xs.iter().flatten().count();
        let mean_x = xs.iter().flatten().sum::<f64>() / present as f64;
        if present < 2 || mean_x <= 0.0 {
            return; // no cross-class information in this window
        }
        let (gain, clamp) = (self.params.gain, self.params.integral_clamp);
        for (term, x) in self.integral.iter_mut().zip(xs) {
            if let Some(x) = x {
                // Slower than its entitlement (x > mean) ⇒ positive term
                // ⇒ more residual share.
                *term = (*term + gain * (x / mean_x - 1.0)).clamp(-clamp, clamp);
            }
        }
    }

    fn allocate(&self, lambdas: &[f64]) -> Vec<f64> {
        let loads: Vec<f64> = lambdas.iter().zip(&self.service).map(|(l, s)| l * s.0).collect();
        // A tilt of 1 and an integral of 0 multiply by exactly 1, so the
        // paper's configuration keeps `psd_rates_clamped`'s bits.
        let weights: Vec<f64> = (0..lambdas.len())
            .map(|i| lambdas[i] / self.deltas[i] * self.service[i].1 * self.integral[i].exp())
            .collect();
        clamped_rates(&loads, &weights, self.params.min_rate, self.params.overload_margin)
    }
}

impl RateController for PsdController {
    fn initial_rates(&mut self, n_classes: usize) -> Vec<f64> {
        assert_eq!(n_classes, self.deltas.len(), "class count mismatch");
        match &self.nominal_lambdas {
            Some(l) => self.allocate(l),
            None => vec![1.0 / n_classes as f64; n_classes],
        }
    }

    fn reallocate(&mut self, _now: f64, window: &WindowObservation) -> Option<Vec<f64>> {
        if self.params.gain > 0.0 {
            self.update_integral(window);
        }
        self.estimator.observe(&window.arrival_rates());
        let est = self.estimator.estimate().expect("just observed a window");
        Some(self.allocate(&est))
    }

    fn internals(&self) -> Vec<(String, Vec<f64>)> {
        if self.params.gain == 0.0 {
            return Vec::new(); // the open loop has no state beyond its estimator
        }
        vec![("integral_terms".to_string(), self.integral.clone())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{psd_rates_clamped, psd_rates_heterogeneous};
    use psd_dist::{BoundedPareto, ServiceDistribution};

    /// A 1000-unit window; a class with a mean slowdown completed 10
    /// requests, one without completed none.
    fn window_with_slowdowns(arrivals: Vec<u64>, slowdowns: Vec<Option<f64>>) -> WindowObservation {
        let n = arrivals.len();
        WindowObservation {
            index: 0,
            start: 0.0,
            end: 1000.0,
            arrivals,
            arrived_work: vec![0.0; n],
            shed_work: vec![0.0; n],
            completions: slowdowns.iter().map(|s| if s.is_some() { 10 } else { 0 }).collect(),
            backlog: vec![0; n],
            slowdown_sums: slowdowns.iter().map(|s| s.map_or(0.0, |x| x * 10.0)).collect(),
        }
    }

    fn window(arrivals: Vec<u64>) -> WindowObservation {
        let n = arrivals.len();
        window_with_slowdowns(arrivals, vec![None; n])
    }

    fn feedback(gain: f64) -> ControllerParams {
        ControllerParams { gain, ..Default::default() }
    }

    #[test]
    fn initial_even_split_without_nominal() {
        let mut c = PsdController::new(vec![1.0, 2.0], 0.29, ControllerParams::default());
        assert_eq!(c.initial_rates(2), vec![0.5, 0.5]);
    }

    #[test]
    fn initial_warm_start_with_nominal() {
        let ex = BoundedPareto::paper_default().mean();
        let lambdas = vec![0.3 / ex, 0.3 / ex];
        let mut c = PsdController::new(vec![1.0, 2.0], ex, ControllerParams::default())
            .with_nominal_lambdas(lambdas.clone());
        let r = c.initial_rates(2);
        // Must match the clamped Eq.17 allocation.
        let want = psd_rates_clamped(&lambdas, &[1.0, 2.0], ex, 1e-4, 0.02).unwrap();
        assert_eq!(r, want);
        assert!(r[0] > r[1]);
    }

    #[test]
    fn reallocation_tracks_observed_rates() {
        let ex = 0.5;
        let mut c = PsdController::new(vec![1.0, 2.0], ex, ControllerParams::default());
        c.initial_rates(2);
        // 1000 time units, 600 arrivals class 0, 300 class 1.
        let r = c.reallocate(1000.0, &window(vec![600, 300])).unwrap();
        let want = psd_rates_clamped(&[0.6, 0.3], &[1.0, 2.0], ex, 1e-4, 0.02).unwrap();
        assert_eq!(r, want);
    }

    #[test]
    fn estimator_smooths_across_windows() {
        let ex = 0.5;
        let mut c = PsdController::new(
            vec![1.0, 1.0],
            ex,
            ControllerParams { estimator_history: 2, ..Default::default() },
        );
        c.initial_rates(2);
        let r1 = c.reallocate(1.0, &window(vec![100, 100])).unwrap();
        // A burst in class 0; with history 2 the estimate is the mean of
        // (0.1, 0.5) = 0.3 vs class 1's 0.1.
        let r2 = c.reallocate(2.0, &window(vec![500, 100])).unwrap();
        assert!(r2[0] > r1[0], "rates shift toward the bursting class");
        let want = psd_rates_clamped(&[0.3, 0.1], &[1.0, 1.0], ex, 1e-4, 0.02).unwrap();
        assert!((r2[0] - want[0]).abs() < 1e-12);
    }

    /// Estimated ρ = (3+3)·0.5 = 3 ⇒ the fallback, with or without the
    /// feedback engaged.
    #[test]
    fn overload_does_not_panic() {
        for gain in [0.0, 0.3] {
            let mut c = PsdController::new(vec![1.0, 2.0], 0.5, feedback(gain));
            c.initial_rates(2);
            let w = window_with_slowdowns(vec![3000, 3000], vec![Some(5.0), Some(10.0)]);
            let r = c.reallocate(1.0, &w).unwrap();
            assert_eq!(r, vec![0.5, 0.5], "load-proportional fallback");
        }
    }

    #[test]
    fn min_rate_floor_respected() {
        let mut c = PsdController::new(
            vec![1.0, 2.0],
            0.5,
            ControllerParams { min_rate: 0.05, ..Default::default() },
        );
        c.initial_rates(2);
        let r = c.reallocate(1.0, &window(vec![1000, 0])).unwrap();
        assert_eq!(r, vec![0.95, 0.05], "idle class pinned at the floor: {r:?}");
    }

    /// One window in which class 0 offers load ≈ 0.6 and class 1 is
    /// idle: the idle class gets exactly `min_rate` (a clamp-and-
    /// renormalise floor would give `min_rate / (1 + min_rate)`) and the
    /// rates are the same bits however the controller is configured.
    #[test]
    fn idle_class_is_pinned_at_min_rate_in_every_configuration() {
        let m = BoundedPareto::paper_default().moments();
        let deltas = vec![1.0, 2.0];
        let w = window(vec![2065, 0]);
        let mut open = PsdController::new(deltas.clone(), m.mean, ControllerParams::default());
        let mut fb0 = PsdController::new(deltas.clone(), m.mean, feedback(0.0));
        let mut per_class = PsdController::per_class(deltas, &[m, m], ControllerParams::default());
        let want = open.reallocate(1000.0, &w).unwrap();
        assert_eq!(want[1], 1e-4);
        assert_eq!(want[0] + want[1], 1.0);
        assert_eq!(fb0.reallocate(1000.0, &w).unwrap(), want);
        assert_eq!(per_class.reallocate(1000.0, &w).unwrap(), want);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn nominal_length_checked() {
        PsdController::new(vec![1.0, 2.0], 0.5, ControllerParams::default())
            .with_nominal_lambdas(vec![1.0]);
    }

    #[test]
    fn heterogeneous_controller_allocates_per_class_moments() {
        use psd_dist::Deterministic;
        let m_fast = Deterministic::new(0.2).unwrap().moments();
        let m_slow = Deterministic::new(2.0).unwrap().moments();
        let mut c = PsdController::per_class(
            vec![1.0, 1.0],
            &[m_fast, m_slow],
            ControllerParams::default(),
        );
        assert_eq!(c.initial_rates(2), vec![0.5, 0.5]);
        // Equal arrival *rates*, but class 1's jobs are 10x larger: its
        // raw requirement (and thus its rate) must dominate.
        let r = c.reallocate(1000.0, &window(vec![200, 200])).unwrap();
        assert!(r[1] > r[0], "bigger jobs need more capacity: {r:?}");
        // No class is floored here, so this is the pure allocation.
        let want = psd_rates_heterogeneous(&[0.2, 0.2], &[1.0, 1.0], &[m_fast, m_slow]).unwrap();
        assert_eq!(r, want);
    }

    #[test]
    #[should_panic(expected = "divergent E[1/X]")]
    fn heterogeneous_rejects_exponential_class() {
        let good = BoundedPareto::paper_default().moments();
        let bad = psd_dist::Exponential::new(1.0).unwrap().moments();
        PsdController::per_class(vec![1.0, 2.0], &[good, bad], ControllerParams::default());
    }

    #[test]
    fn zero_gain_reduces_to_open_loop() {
        let ex = 0.29;
        let mut fb = PsdController::new(vec![1.0, 2.0], ex, feedback(0.0));
        fb.initial_rates(2);
        // Window where class 1 is far above its entitlement — must be
        // ignored at gain 0.
        let w = window_with_slowdowns(vec![500, 500], vec![Some(1.0), Some(9.0)]);
        let got = fb.reallocate(1000.0, &w).unwrap();
        let want = psd_rates_clamped(&[0.5, 0.5], &[1.0, 2.0], ex, 1e-4, 0.02).unwrap();
        assert_eq!(got, want, "gain 0 must be Eq.17, bit for bit");
        assert!(fb.integral.iter().all(|&i| i == 0.0));
        assert!(fb.internals().is_empty(), "an open loop has no internals to trace");
    }

    #[test]
    fn lagging_class_gains_share() {
        let ex = 0.29;
        let mut fb = PsdController::new(vec![1.0, 2.0], ex, feedback(0.3));
        fb.initial_rates(2);
        // Class 1's normalized slowdown (9/2 = 4.5) far exceeds class
        // 0's (1.0): the controller should raise class 1's share
        // relative to the open-loop split.
        let w = window_with_slowdowns(vec![500, 500], vec![Some(1.0), Some(9.0)]);
        let got = fb.reallocate(1000.0, &w).unwrap();
        let open = psd_rates_clamped(&[0.5, 0.5], &[1.0, 2.0], ex, 1e-4, 0.02).unwrap();
        assert!(got[1] > open[1], "feedback must boost the lagging class: {got:?} vs {open:?}");
        assert!(fb.integral[1] > 0.0);
        assert!(fb.integral[0] < 0.0);
        assert_eq!(fb.internals(), vec![("integral_terms".to_string(), fb.integral.clone())]);
    }

    #[test]
    fn integral_clamped() {
        let ex = 0.29;
        let params = ControllerParams { gain: 10.0, integral_clamp: 0.5, ..Default::default() };
        let mut fb = PsdController::new(vec![1.0, 2.0], ex, params);
        fb.initial_rates(2);
        for _ in 0..50 {
            let w = window_with_slowdowns(vec![500, 500], vec![Some(1.0), Some(99.0)]);
            fb.reallocate(1000.0, &w);
        }
        assert_eq!(fb.integral, [-0.5, 0.5], "anti-windup clamp");
    }

    #[test]
    fn empty_window_leaves_integral_untouched() {
        let ex = 0.29;
        let mut fb = PsdController::new(vec![1.0, 2.0], ex, feedback(0.3));
        fb.initial_rates(2);
        let w = window_with_slowdowns(vec![0, 500], vec![None, Some(3.0)]);
        fb.reallocate(1000.0, &w);
        assert_eq!(fb.integral, [0.0, 0.0], "needs two classes with data");
    }
}
