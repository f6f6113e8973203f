//! The Bounded Pareto family — the paper's workload model — plus the
//! unbounded Pareto kept as the cautionary counter-example (its second
//! moment diverges for `α ≤ 2`, so P–K delay has no closed form).

use crate::rng::Xoshiro256pp;
use crate::{DistError, HigherMoments, Moments, ServiceDistribution};

/// Bounded Pareto `BP(α, k, p)`: density `∝ x^{−α−1}` on `[k, p]`.
///
/// The heavy-tailed-but-truncated distribution the paper uses for Web
/// request sizes (§4.1: `BP(1.5, 0.1, 100)`). Every moment is finite —
/// including the negative ones, so `E[1/X]` exists and the slowdown
/// closed forms of Lemma 1 / Theorem 1 apply.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    k: f64,
    p: f64,
    /// Cached `1 − (k/p)^α`, the truncation normalizer.
    norm: f64,
}

impl BoundedPareto {
    /// New `BP(alpha, k, p)` with shape `alpha > 0` and support
    /// `0 < k < p < ∞`.
    pub fn new(alpha: f64, k: f64, p: f64) -> Result<Self, DistError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(DistError::invalid(format!(
                "Bounded Pareto shape must be finite and > 0, got {alpha}"
            )));
        }
        if !(k.is_finite() && p.is_finite() && 0.0 < k && k < p) {
            return Err(DistError::invalid(format!(
                "Bounded Pareto support needs 0 < k < p < inf, got k={k}, p={p}"
            )));
        }
        let norm = 1.0 - (k / p).powf(alpha);
        Ok(Self { alpha, k, p, norm })
    }

    /// The paper's default workload: `BP(1.5, 0.1, 100)`.
    pub fn paper_default() -> Self {
        Self::new(1.5, 0.1, 100.0).expect("paper parameters are valid")
    }

    /// Shape parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Lower bound `k`.
    pub fn lower(&self) -> f64 {
        self.k
    }

    /// Upper bound `p`.
    pub fn upper(&self) -> f64 {
        self.p
    }

    /// Exact `E[X^j]` for any real order `j` (positive or negative),
    /// from `E[X^j] = C·∫_k^p x^{j−α−1} dx` with
    /// `C = α k^α / (1 − (k/p)^α)`:
    ///
    /// ```text
    /// E[X^j] = α k^α (p^{j−α} − k^{j−α}) / ((j−α)(1 − (k/p)^α)),  j ≠ α
    /// E[X^α] = α k^α ln(p/k) / (1 − (k/p)^α)
    /// ```
    pub fn raw_moment(&self, j: f64) -> f64 {
        let (alpha, k, p) = (self.alpha, self.k, self.p);
        let c = alpha * k.powf(alpha) / self.norm;
        if j == alpha {
            c * (p / k).ln()
        } else {
            c * (p.powf(j - alpha) - k.powf(j - alpha)) / (j - alpha)
        }
    }
}

impl ServiceDistribution for BoundedPareto {
    /// Inverse-CDF sampling: `F(x) = (1 − (k/x)^α)/(1 − (k/p)^α)`, so
    /// `x = k·(1 − u·(1 − (k/p)^α))^{−1/α}`.
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        let u = rng.next_f64();
        let x = self.k * (1.0 - u * self.norm).powf(-1.0 / self.alpha);
        // Guard the exact upper edge against round-off overshoot.
        x.min(self.p)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn moments(&self) -> Moments {
        Moments {
            mean: self.raw_moment(1.0),
            second_moment: self.raw_moment(2.0),
            mean_inverse: Some(self.raw_moment(-1.0)),
        }
    }
}

impl HigherMoments for BoundedPareto {
    fn third_moment(&self) -> Option<f64> {
        Some(self.raw_moment(3.0))
    }

    fn mean_inverse_square(&self) -> Option<f64> {
        Some(self.raw_moment(-2.0))
    }
}

/// Unbounded Pareto `Par(α, k)`: density `∝ x^{−α−1}` on `[k, ∞)`.
///
/// Kept as the analytical foil: for `α ≤ 2` its second moment is
/// infinite and the queueing layer must surface `InfiniteMoment`
/// instead of silently returning garbage.
#[derive(Debug, Clone, PartialEq)]
pub struct Pareto {
    alpha: f64,
    k: f64,
}

impl Pareto {
    /// New `Par(alpha, k)` with `alpha > 0` and `k > 0`.
    pub fn new(alpha: f64, k: f64) -> Result<Self, DistError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(DistError::invalid(format!(
                "Pareto shape must be finite and > 0, got {alpha}"
            )));
        }
        if !(k.is_finite() && k > 0.0) {
            return Err(DistError::invalid(format!(
                "Pareto scale must be finite and > 0, got {k}"
            )));
        }
        Ok(Self { alpha, k })
    }

    /// `E[X^j]`, which is `+∞` when `j ≥ α` (and finite otherwise).
    fn raw_moment(&self, j: f64) -> f64 {
        if j >= self.alpha {
            f64::INFINITY
        } else {
            self.alpha * self.k.powf(j) / (self.alpha - j)
        }
    }
}

impl ServiceDistribution for Pareto {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.k * rng.next_open_f64().powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn moments(&self) -> Moments {
        Moments {
            mean: self.raw_moment(1.0),
            second_moment: self.raw_moment(2.0),
            mean_inverse: Some(self.raw_moment(-1.0)),
        }
    }
}

impl HigherMoments for Pareto {
    fn third_moment(&self) -> Option<f64> {
        (self.alpha > 3.0).then(|| self.raw_moment(3.0))
    }

    fn mean_inverse_square(&self) -> Option<f64> {
        Some(self.raw_moment(-2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_hand_formulas() {
        // Independent re-derivation of the closed forms for
        // BP(1.5, 0.1, 100): E[X^j] = C (p^{j-a} - k^{j-a})/(j-a),
        // C = a k^a / (1 - (k/p)^a).
        let (a, k, p) = (1.5f64, 0.1f64, 100.0f64);
        let c = a * k.powf(a) / (1.0 - (k / p).powf(a));
        let ex = c * (p.powf(1.0 - a) - k.powf(1.0 - a)) / (1.0 - a);
        let ex2 = c * (p.powf(2.0 - a) - k.powf(2.0 - a)) / (2.0 - a);
        let einv = c * (p.powf(-1.0 - a) - k.powf(-1.0 - a)) / (-1.0 - a);

        let bp = BoundedPareto::paper_default();
        let m = bp.moments();
        assert!((m.mean - ex).abs() / ex < 1e-12);
        assert!((m.second_moment - ex2).abs() / ex2 < 1e-12);
        assert!((m.mean_inverse.unwrap() - einv).abs() / einv < 1e-12);
        // Ballpark anchors (DESIGN/README quote E[X] ~ 0.29).
        assert!((m.mean - 0.2905).abs() < 1e-3, "E[X] = {}", m.mean);
        assert!((m.second_moment - 0.9187).abs() < 1e-3, "E[X^2] = {}", m.second_moment);
        // E[X^2] >> E[X]^2: SCV ~ 9.9, the paper's heavy-tail regime.
        let scv = m.second_moment / (m.mean * m.mean) - 1.0;
        assert!(scv > 9.0, "SCV = {scv}");
    }

    #[test]
    fn alpha_equal_moment_order_uses_log_branch() {
        // alpha == 2 makes E[X^2] hit the logarithmic case.
        let bp = BoundedPareto::new(2.0, 0.5, 50.0).unwrap();
        let (a, k, p) = (2.0f64, 0.5f64, 50.0f64);
        let c = a * k.powf(a) / (1.0 - (k / p).powf(a));
        let want = c * (p / k).ln();
        assert!((bp.raw_moment(2.0) - want).abs() / want < 1e-12);
        assert!(bp.raw_moment(2.0).is_finite());
    }

    #[test]
    fn monte_carlo_agrees_with_closed_forms() {
        let bp = BoundedPareto::paper_default();
        let m = bp.moments();
        let mut rng = Xoshiro256pp::seed_from(2024);
        let n = 400_000;
        let (mut s1, mut sinv) = (0.0, 0.0);
        for _ in 0..n {
            let x = bp.sample(&mut rng);
            assert!((0.1..=100.0).contains(&x), "sample {x} escaped the support");
            s1 += x;
            sinv += 1.0 / x;
        }
        let nf = n as f64;
        // E[X] has modest variance; E[1/X] is bounded by 1/k = 10.
        assert!((s1 / nf - m.mean).abs() / m.mean < 0.02);
        assert!((sinv / nf - m.mean_inverse.unwrap()).abs() / m.mean_inverse.unwrap() < 0.01);
    }

    #[test]
    fn bounded_pareto_validation() {
        assert!(BoundedPareto::new(0.0, 0.1, 100.0).is_err());
        assert!(BoundedPareto::new(1.5, 0.0, 100.0).is_err());
        assert!(BoundedPareto::new(1.5, 1.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.5, 2.0, 1.0).is_err());
        assert!(BoundedPareto::new(f64::NAN, 0.1, 1.0).is_err());
        assert!(BoundedPareto::new(1.5, 0.1, f64::INFINITY).is_err());
    }

    #[test]
    fn accessors() {
        let bp = BoundedPareto::paper_default();
        assert_eq!(bp.alpha(), 1.5);
        assert_eq!(bp.lower(), 0.1);
        assert_eq!(bp.upper(), 100.0);
    }

    #[test]
    fn unbounded_pareto_divergent_moments() {
        let p = Pareto::new(1.5, 0.1).unwrap();
        let m = p.moments();
        assert!(m.mean.is_finite());
        assert!(m.second_moment.is_infinite());
        assert!(m.mean_inverse.unwrap().is_finite());
        assert_eq!(p.third_moment(), None);
        // E[1/X] = a / ((a+1) k).
        assert!((m.mean_inverse.unwrap() - 1.5 / (2.5 * 0.1)).abs() < 1e-12);
        // Mean: a k / (a - 1) = 1.5*0.1/0.5 = 0.3.
        assert!((m.mean - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unbounded_pareto_sampling_above_scale() {
        let p = Pareto::new(2.5, 1.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from(5);
        let n = 50_000;
        let mean = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - p.mean()).abs() / p.mean() < 0.05, "mean {mean} vs {}", p.mean());
    }

    #[test]
    fn truncation_tightens_the_tail() {
        // Larger p => larger E[X^2]; the fig12 monotonicity at dist level.
        let small = BoundedPareto::new(1.5, 0.1, 100.0).unwrap().moments();
        let big = BoundedPareto::new(1.5, 0.1, 10_000.0).unwrap().moments();
        assert!(big.second_moment > small.second_moment * 5.0);
    }
}
