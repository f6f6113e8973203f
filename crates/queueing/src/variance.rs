//! Second-moment analysis: the Takács formula for `E[W²]` and the
//! resulting slowdown variance — the analytical backdrop for the
//! paper's §4.3 observation that per-window slowdown ratios are wildly
//! skewed ("caused by the heavy-tail property of the Bounded Pareto").
//!
//! For M/G/1 FCFS (Takács recurrence, second moment):
//!
//! ```text
//! E[W²] = 2·E[W]² + λ·E[X³] / (3(1 − ρ))
//! ```
//!
//! and since a request's delay is independent of its own service time,
//!
//! ```text
//! E[S²]  = E[W²]·E[1/X²]
//! Var[S] = E[S²] − E[S]²
//! ```

use crate::{pk, AnalysisError};
use psd_dist::{HigherMoments, Moments};

/// Second moment of the FCFS queueing delay, `E[W²]` (Takács).
///
/// Needs `E[X³]`; heavy-tailed distributions with `α ≤ 3` (unbounded)
/// have no finite third moment — Bounded Pareto always does.
pub fn delay_second_moment(
    lambda: f64,
    m: &Moments,
    third_moment: f64,
) -> Result<f64, AnalysisError> {
    if !(third_moment.is_finite() && third_moment >= 0.0) {
        return Err(AnalysisError::InfiniteMoment { which: "E[X^3]" });
    }
    let w = pk::expected_delay(lambda, m)?;
    let rho = pk::utilization(lambda, m);
    Ok(2.0 * w * w + lambda * third_moment / (3.0 * (1.0 - rho)))
}

/// Variance of the slowdown `S = W/X` in M/G/1 FCFS.
///
/// Requires both `E[X³]` (for `E[W²]`) and `E[1/X²]`.
pub fn slowdown_variance(
    lambda: f64,
    m: &Moments,
    third_moment: f64,
    mean_inverse_square: f64,
) -> Result<f64, AnalysisError> {
    let mi = m.mean_inverse.ok_or(AnalysisError::SlowdownUndefined)?;
    if !(mean_inverse_square.is_finite() && mean_inverse_square >= 0.0) {
        return Err(AnalysisError::InfiniteMoment { which: "E[1/X^2]" });
    }
    let w = pk::expected_delay(lambda, m)?;
    let w2 = delay_second_moment(lambda, m, third_moment)?;
    let s = w * mi;
    Ok((w2 * mean_inverse_square - s * s).max(0.0))
}

/// Convenience wrapper extracting the higher moments from a
/// distribution that provides them (e.g. [`psd_dist::BoundedPareto`]).
pub fn slowdown_variance_of<D>(lambda: f64, dist: &D) -> Result<f64, AnalysisError>
where
    D: psd_dist::ServiceDistribution + HigherMoments,
{
    let m = dist.moments();
    let third = dist.third_moment().ok_or(AnalysisError::InfiniteMoment { which: "E[X^3]" })?;
    let mis =
        dist.mean_inverse_square().ok_or(AnalysisError::InfiniteMoment { which: "E[1/X^2]" })?;
    slowdown_variance(lambda, &m, third, mis)
}

/// One-sided Chebyshev (Cantelli) upper bound: the smallest `v` such
/// that `P(S ≥ v) ≤ prob` given only mean and variance.
pub fn cantelli_upper_bound(mean: f64, variance: f64, prob: f64) -> f64 {
    assert!(prob > 0.0 && prob < 1.0, "probability must be in (0,1)");
    assert!(variance >= 0.0);
    mean + (variance * (1.0 - prob) / prob).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_dist::{BoundedPareto, Deterministic, ServiceDistribution};

    #[test]
    fn md1_delay_second_moment_exact() {
        // M/D/1, d = 1, ρ = 0.5: E[W] = 0.5, E[W²] = 2·0.25 + 0.5·1/(3·0.5)
        // = 0.5 + 1/3.
        let d = Deterministic::new(1.0).unwrap();
        let w2 = delay_second_moment(0.5, &d.moments(), 1.0).unwrap();
        assert!((w2 - (0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn variance_nonnegative_across_loads() {
        let bp = BoundedPareto::paper_default();
        for &load in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let v = slowdown_variance_of(load / bp.mean(), &bp).unwrap();
            assert!(v >= 0.0, "variance at load {load}: {v}");
        }
    }

    #[test]
    fn variance_grows_with_load() {
        let bp = BoundedPareto::paper_default();
        let v1 = slowdown_variance_of(0.3 / bp.mean(), &bp).unwrap();
        let v2 = slowdown_variance_of(0.8 / bp.mean(), &bp).unwrap();
        assert!(v2 > v1);
    }

    #[test]
    fn heavier_tail_more_variance() {
        // Larger upper bound ⇒ bigger E[X³] ⇒ bigger slowdown variance.
        let small = BoundedPareto::new(1.5, 0.1, 100.0).unwrap();
        let big = BoundedPareto::new(1.5, 0.1, 10_000.0).unwrap();
        let load = 0.5;
        let vs = slowdown_variance_of(load / small.mean(), &small).unwrap();
        let vb = slowdown_variance_of(load / big.mean(), &big).unwrap();
        assert!(vb > 10.0 * vs, "p=1e4 should dwarf p=100: {vb} vs {vs}");
    }

    #[test]
    fn cantelli_sane() {
        // Zero variance: the bound collapses to the mean.
        assert_eq!(cantelli_upper_bound(5.0, 0.0, 0.05), 5.0);
        // Tighter probability ⇒ larger bound.
        let loose = cantelli_upper_bound(1.0, 4.0, 0.5);
        let tight = cantelli_upper_bound(1.0, 4.0, 0.05);
        assert!(tight > loose);
    }

    #[test]
    fn divergent_moments_rejected() {
        let d = Deterministic::new(1.0).unwrap();
        assert!(matches!(
            delay_second_moment(0.5, &d.moments(), f64::INFINITY),
            Err(AnalysisError::InfiniteMoment { which: "E[X^3]" })
        ));
        let e = psd_dist::Exponential::new(1.0).unwrap();
        assert!(matches!(
            slowdown_variance_of(0.5, &e),
            Err(AnalysisError::InfiniteMoment { which: "E[1/X^2]" })
        ));
    }

    #[test]
    fn unstable_propagates() {
        let d = Deterministic::new(1.0).unwrap();
        assert!(matches!(
            delay_second_moment(1.5, &d.moments(), 1.0),
            Err(AnalysisError::Unstable { .. })
        ));
    }
}
