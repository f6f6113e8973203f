//! The processing-rate allocation strategy — paper Eq. 17.
//!
//! Solving the PSD constraint `E[S_i]/E[S_j] = δ_i/δ_j` (Eq. 16)
//! together with `Σ r_i = 1` under the Theorem 1 slowdown form yields
//!
//! ```text
//! r_i = ρ_i + (1 − ρ) · (λ_i/δ_i) / Λ,
//!       ρ_i = λ_i·E[X],   ρ = Σ ρ_j,   Λ = Σ_j λ_j/δ_j
//! ```
//!
//! — "the remaining capacity of the server is fairly allocated to
//! different classes according to their scaled arrival rates with
//! respect to their differentiation parameters."

use std::fmt;

use psd_dist::Moments;

/// Why rate allocation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationError {
    /// Offered load `ρ = Σ λ_i·E[X] ≥ 1`: no feasible allocation exists.
    Infeasible {
        /// The total offered load.
        total_load: f64,
    },
    /// Malformed inputs (mismatched lengths, non-positive δ, …).
    InvalidInput {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::Infeasible { total_load } => {
                write!(f, "no feasible allocation: total offered load {total_load} >= 1")
            }
            AllocationError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for AllocationError {}

fn invalid(reason: String) -> AllocationError {
    AllocationError::InvalidInput { reason }
}

fn validate(lambdas: &[f64], deltas: &[f64]) -> Result<(), AllocationError> {
    let (n, m) = (lambdas.len(), deltas.len());
    if n == 0 || n != m {
        return Err(invalid(format!("need equal non-zero class counts ({n} lambdas, {m} deltas)")));
    }
    if let Some(i) = lambdas.iter().position(|l| !(l.is_finite() && *l >= 0.0)) {
        let l = lambdas[i];
        return Err(invalid(format!("arrival rate of class {i} must be finite and >= 0, got {l}")));
    }
    if let Some(i) = deltas.iter().position(|d| !(d.is_finite() && *d > 0.0)) {
        let d = deltas[i];
        return Err(invalid(format!("delta of class {i} must be finite and > 0, got {d}")));
    }
    Ok(())
}

/// The floor and the overload margin [`clamped_rates`] can honour for
/// `n` classes: `n·min_rate ≤ 1` and a margin in `[0, 1)`.
pub(crate) fn validate_clamp(n: usize, min_rate: f64, margin: f64) -> Result<(), AllocationError> {
    if !(0.0..1.0).contains(&margin) {
        return Err(invalid(format!("overload margin must be in [0,1), got {margin}")));
    }
    if !(min_rate >= 0.0 && min_rate * n as f64 <= 1.0) {
        return Err(invalid(format!("min_rate {min_rate} x {n} classes exceeds capacity")));
    }
    Ok(())
}

/// What Eq. 17 needs of class `i`'s service distribution: `E[X_i]` and
/// the weight tilt `E[X_i²]·E[1/X_i]` (Theorem 1's numerator).
pub(crate) fn mean_and_tilt(i: usize, m: &Moments) -> Result<(f64, f64), AllocationError> {
    if !(m.mean.is_finite() && m.mean > 0.0) {
        return Err(invalid(format!("class {i} mean service time must be finite and > 0")));
    }
    let mean_inverse = m.mean_inverse.ok_or_else(|| {
        invalid(format!("class {i} has divergent E[1/X]; slowdown model does not apply"))
    })?;
    if !m.second_moment.is_finite() {
        return Err(invalid(format!("class {i} has infinite E[X^2]")));
    }
    Ok((m.mean, m.second_moment * mean_inverse))
}

/// **The one clamped Eq. 17 path**: every PSD rate vector comes out of
/// this function. `loads[i]` is class `i`'s raw requirement
/// `ρ_i = λ_i·E[X_i]`, `weights[i]` its claim `w_i` on the residual.
///
/// 1. *Overload fallback*: at `ρ ≥ 1 − overload_margin` the shares are
///    proportional to the offered loads (every task server is then
///    equally over-driven — the least-bad work-conserving choice).
/// 2. *Residual split*: otherwise `r_i = ρ_i + (1 − ρ)·w_i/Σw_j`, or an
///    even split when no class has traffic (`Σw = 0`).
/// 3. *Floor*, by waterfilling: classes below `min_rate` are pinned at
///    exactly `min_rate` and the rest share the remaining capacity in
///    proportion to their unclamped rates, so a class whose *estimated*
///    load transiently hits zero is not starved and `Σ r_i` stays 1.
///
/// Callers validate ([`validate_clamp`]); this cannot fail.
pub(crate) fn clamped_rates(
    loads: &[f64],
    weights: &[f64],
    min_rate: f64,
    overload_margin: f64,
) -> Vec<f64> {
    let n = loads.len();
    let rho: f64 = loads.iter().sum();
    let wsum: f64 = weights.iter().sum();
    let mut rates: Vec<f64> = if rho >= 1.0 - overload_margin {
        // `overload_margin < 1`, so ρ > 0 here.
        loads.iter().map(|load| load / rho).collect()
    } else if wsum == 0.0 {
        vec![1.0 / n as f64; n]
    } else {
        let residual = 1.0 - rho;
        loads.iter().zip(weights).map(|(load, w)| load + residual * w / wsum).collect()
    };
    // Repeat: the rescale can push further classes below the floor.
    let mut floored = vec![false; n];
    while rates.iter().any(|&r| r < min_rate) {
        for (f, &r) in floored.iter_mut().zip(&rates) {
            *f |= r < min_rate;
        }
        let n_floored = floored.iter().filter(|&&f| f).count();
        let remaining = 1.0 - n_floored as f64 * min_rate;
        let free_sum: f64 = rates.iter().zip(&floored).filter(|(_, &f)| !f).map(|(r, _)| *r).sum();
        // (An unfloored class has `r ≥ min_rate > 0`, so `free_sum > 0`.)
        for (r, &f) in rates.iter_mut().zip(&floored) {
            *r = if f { min_rate } else { *r * remaining / free_sum };
        }
    }
    rates
}

/// The strict entries: no margin, no floor, and `ρ ≥ 1` is an error.
fn strict_rates(loads: &[f64], weights: &[f64]) -> Result<Vec<f64>, AllocationError> {
    let rho: f64 = loads.iter().sum();
    if rho >= 1.0 {
        return Err(AllocationError::Infeasible { total_load: rho });
    }
    Ok(clamped_rates(loads, weights, 0.0, 0.0))
}

/// `(ρ_i, w_i) = (λ_i·E[X], λ_i/δ_i)` under one shared distribution.
fn shared_terms(
    lambdas: &[f64],
    deltas: &[f64],
    mean_service: f64,
) -> Result<(Vec<f64>, Vec<f64>), AllocationError> {
    validate(lambdas, deltas)?;
    if !(mean_service.is_finite() && mean_service > 0.0) {
        return Err(invalid(format!(
            "mean service time must be finite and > 0, got {mean_service}"
        )));
    }
    Ok((
        lambdas.iter().map(|l| l * mean_service).collect(),
        lambdas.iter().zip(deltas).map(|(l, d)| l / d).collect(),
    ))
}

/// Compute the PSD rate vector (paper Eq. 17).
///
/// * `lambdas` — per-class arrival rates `λ_i` (may be estimates).
/// * `deltas` — differentiation parameters `δ_i` (class 0 is the
///   highest class by convention: `δ_1 ≤ δ_2 ≤ …`, but the formula does
///   not require an ordering).
/// * `mean_service` — `E[X]` at full machine rate.
///
/// Returns rates summing to exactly 1 when at least one class has
/// traffic; all-idle classes yield an even split of the capacity.
pub fn psd_rates(
    lambdas: &[f64],
    deltas: &[f64],
    mean_service: f64,
) -> Result<Vec<f64>, AllocationError> {
    let (loads, weights) = shared_terms(lambdas, deltas, mean_service)?;
    strict_rates(&loads, &weights)
}

/// Like [`psd_rates`], but degrades gracefully instead of erroring:
/// load-proportional shares under overload (`ρ ≥ 1 − overload_margin`)
/// and at least `min_rate` for every class (floored classes get exactly
/// `min_rate`, the rest share the remainder). This is what
/// [`crate::PsdController`] computes in the paper's configuration.
pub fn psd_rates_clamped(
    lambdas: &[f64],
    deltas: &[f64],
    mean_service: f64,
    min_rate: f64,
    overload_margin: f64,
) -> Result<Vec<f64>, AllocationError> {
    let (loads, weights) = shared_terms(lambdas, deltas, mean_service)?;
    validate_clamp(lambdas.len(), min_rate, overload_margin)?;
    Ok(clamped_rates(&loads, &weights, min_rate, overload_margin))
}

/// Heterogeneous-distribution PSD allocation — an extension beyond the
/// paper, which assumes every class draws from the *same* Bounded
/// Pareto. When class `i` has its own service moments, Theorem 1 gives
/// `E[S_i] = λ_i·E[X_i²]·E[1/X_i] / (2(r_i − λ_i·E[X_i]))`, and solving
/// `E[S_i]/δ_i = const` with `Σr_i = 1` yields
///
/// ```text
/// r_i = ρ_i + (1 − ρ) · w_i / Σ_j w_j,
///       w_i = (λ_i/δ_i)·E[X_i²]·E[1/X_i],   ρ_i = λ_i·E[X_i]
/// ```
///
/// which reduces to [`psd_rates`] when all classes share one
/// distribution. Classes with divergent `E[1/X]` are rejected.
pub fn psd_rates_heterogeneous(
    lambdas: &[f64],
    deltas: &[f64],
    moments: &[Moments],
) -> Result<Vec<f64>, AllocationError> {
    validate(lambdas, deltas)?;
    if moments.len() != lambdas.len() {
        let (m, n) = (moments.len(), lambdas.len());
        return Err(invalid(format!("need one moment set per class (got {m} for {n} classes)")));
    }
    let (mut loads, mut weights) = (Vec::new(), Vec::new());
    for (i, ((l, d), m)) in lambdas.iter().zip(deltas).zip(moments).enumerate() {
        let (mean, tilt) = mean_and_tilt(i, m)?;
        loads.push(l * mean);
        weights.push(l / d * tilt);
    }
    strict_rates(&loads, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_dist::{BoundedPareto, Deterministic, ServiceDistribution};

    const EX: f64 = 0.5; // a convenient mean service time for hand math

    #[test]
    fn rates_sum_to_one() {
        let lambdas = [0.4, 0.8, 0.2];
        let deltas = [1.0, 2.0, 3.0];
        let r = psd_rates(&lambdas, &deltas, EX).unwrap();
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn hand_computed_two_classes() {
        // λ = (1, 1), δ = (1, 2), E[X] = 0.25 ⇒ ρ_i = 0.25, ρ = 0.5,
        // Λ = 1 + 0.5 = 1.5; r_1 = 0.25 + 0.5·(1/1.5) = 0.5833…,
        // r_2 = 0.25 + 0.5·(0.5/1.5) = 0.4166…
        let r = psd_rates(&[1.0, 1.0], &[1.0, 2.0], 0.25).unwrap();
        assert!((r[0] - (0.25 + 0.5 / 1.5)).abs() < 1e-12);
        assert!((r[1] - (0.25 + 0.25 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn higher_class_gets_more_rate_at_equal_load() {
        let r = psd_rates(&[1.0, 1.0], &[1.0, 4.0], 0.3).unwrap();
        assert!(r[0] > r[1], "smaller δ ⇒ more capacity: {r:?}");
    }

    #[test]
    fn equal_deltas_equal_loads_even_split() {
        let r = psd_rates(&[0.5, 0.5], &[2.0, 2.0], 0.4).unwrap();
        assert!((r[0] - r[1]).abs() < 1e-12);
        assert!((r[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn infeasible_load_rejected() {
        let err = psd_rates(&[2.0, 2.0], &[1.0, 2.0], 0.3).unwrap_err();
        assert!(
            matches!(err, AllocationError::Infeasible { total_load } if (total_load - 1.2).abs() < 1e-12)
        );
    }

    #[test]
    fn zero_traffic_even_split() {
        let r = psd_rates(&[0.0, 0.0, 0.0], &[1.0, 2.0, 3.0], 0.5).unwrap();
        assert_eq!(r, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn idle_class_gets_zero_rate_unclamped() {
        let r = psd_rates(&[1.0, 0.0], &[1.0, 2.0], 0.3).unwrap();
        assert_eq!(r[1], 0.0);
        assert!((r[0] - 1.0).abs() < 1e-12, "all capacity to the only active class");
    }

    #[test]
    fn clamped_protects_idle_class() {
        let r = psd_rates_clamped(&[1.0, 0.0], &[1.0, 2.0], 0.3, 0.01, 0.02).unwrap();
        assert_eq!(r, vec![0.99, 0.01], "the idle class gets the floor, not a share of it");
    }

    /// Pinning one class rescales the others, which can push the next
    /// one under the floor: shares (0.97, 0.02, 0.01) against a floor of
    /// 0.02 pin class 2, then class 1 (0.02·0.98/0.99 < 0.02).
    #[test]
    fn floor_cascades_and_keeps_the_sum() {
        let r = psd_rates_clamped(&[97.0, 2.0, 1.0], &[1.0; 3], 0.1, 0.02, 0.02).unwrap();
        assert_eq!(&r[1..], &[0.02, 0.02]);
        assert!((r[0] - 0.96).abs() < 1e-15, "{r:?}");
    }

    #[test]
    fn clamped_overload_fallback_is_load_proportional() {
        // ρ = 1.2 ⇒ fallback shares λ_i·E[X]/ρ.
        let r = psd_rates_clamped(&[2.0, 2.0], &[1.0, 8.0], 0.3, 0.0, 0.02).unwrap();
        assert!((r[0] - 0.5).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(psd_rates(&[], &[], 1.0).is_err());
        assert!(psd_rates(&[1.0], &[1.0, 2.0], 1.0).is_err());
        assert!(psd_rates(&[1.0], &[0.0], 1.0).is_err());
        assert!(psd_rates(&[-1.0], &[1.0], 1.0).is_err());
        assert!(psd_rates(&[1.0], &[1.0], 0.0).is_err());
        assert!(
            psd_rates_clamped(&[1.0, 1.0], &[1.0, 2.0], 0.1, 0.6, 0.02).is_err(),
            "min_rate too big"
        );
        assert!(psd_rates_clamped(&[1.0], &[1.0], 0.1, 0.0, 1.0).is_err(), "bad margin");
    }

    /// Paper property 1 precursor: each r_i exceeds the class's raw
    /// requirement ρ_i, so every task server is locally stable.
    #[test]
    fn local_stability_guaranteed() {
        let bp = BoundedPareto::paper_default();
        let ex = bp.mean();
        let lambdas = [0.3 / ex, 0.2 / ex, 0.4 / ex]; // ρ = 0.9
        let deltas = [1.0, 2.0, 3.0];
        let r = psd_rates(&lambdas, &deltas, ex).unwrap();
        for (i, (&rate, &l)) in r.iter().zip(&lambdas).enumerate() {
            assert!(rate > l * ex, "class {i}: rate {rate} <= requirement {}", l * ex);
        }
    }

    /// The heterogeneous allocator reduces to Eq. 17 when every class
    /// shares the same distribution.
    #[test]
    fn heterogeneous_reduces_to_eq17() {
        let m = BoundedPareto::paper_default().moments();
        let lambdas = [0.4, 0.8, 0.2];
        let deltas = [1.0, 2.0, 3.0];
        let homo = psd_rates(&lambdas, &deltas, m.mean).unwrap();
        let hetero = psd_rates_heterogeneous(&lambdas, &deltas, &[m, m, m]).unwrap();
        for (a, b) in homo.iter().zip(&hetero) {
            assert!((a - b).abs() < 1e-12, "{homo:?} vs {hetero:?}");
        }
    }

    /// With per-class distributions, the heterogeneous rates equalize
    /// the normalized slowdowns exactly (verified through Theorem 1).
    #[test]
    fn heterogeneous_achieves_exact_ratios() {
        use psd_queueing::TaskServerQueue;
        let m0 = Deterministic::new(0.8).unwrap().moments(); // checkout
        let m1 = BoundedPareto::paper_default().moments(); // browse
        let m2 = BoundedPareto::new(1.2, 0.5, 50.0).unwrap().moments(); // search
        let lambdas = [0.2, 0.6, 0.1];
        let deltas = [1.0, 2.0, 3.0];
        let moments = [m0, m1, m2];
        let rates = psd_rates_heterogeneous(&lambdas, &deltas, &moments).unwrap();
        assert!((rates.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let slowdowns: Vec<f64> = (0..3)
            .map(|i| {
                TaskServerQueue::new(lambdas[i], rates[i], moments[i])
                    .unwrap()
                    .expected_slowdown()
                    .unwrap()
            })
            .collect();
        assert!((slowdowns[1] / slowdowns[0] - 2.0).abs() < 1e-9, "{slowdowns:?}");
        assert!((slowdowns[2] / slowdowns[0] - 3.0).abs() < 1e-9, "{slowdowns:?}");
    }

    #[test]
    fn heterogeneous_rejects_divergent_class() {
        let good = BoundedPareto::paper_default().moments();
        let bad = psd_dist::Exponential::new(1.0).unwrap().moments();
        let err = psd_rates_heterogeneous(&[0.1, 0.1], &[1.0, 2.0], &[good, bad]).unwrap_err();
        assert!(matches!(err, AllocationError::InvalidInput { .. }));
    }

    /// Residual capacity splits ∝ λ_i/δ_i (the paper's reading of Eq. 17).
    #[test]
    fn residual_split_is_scaled_proportional() {
        let lambdas = [0.6, 0.9, 0.3];
        let deltas = [1.0, 3.0, 2.0];
        let ex = 0.4;
        let r = psd_rates(&lambdas, &deltas, ex).unwrap();
        let resid: Vec<f64> = r.iter().zip(&lambdas).map(|(rate, l)| rate - l * ex).collect();
        // resid_i / resid_j == (λ_i/δ_i)/(λ_j/δ_j)
        let want01 = (lambdas[0] / deltas[0]) / (lambdas[1] / deltas[1]);
        assert!((resid[0] / resid[1] - want01).abs() < 1e-12);
        let want02 = (lambdas[0] / deltas[0]) / (lambdas[2] / deltas[2]);
        assert!((resid[0] / resid[2] - want02).abs() < 1e-12);
    }
}
