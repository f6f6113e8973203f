//! Utilization-capped admission control — the complementary mechanism
//! the related work (§5: Abdelzaher et al., Lee et al.) combines with
//! scheduling. Eq. 17 has no feasible solution when `ρ ≥ 1`; an
//! admission controller restores feasibility by shedding load,
//! preferring to drop from the *lowest* classes first so the premium
//! classes keep their PSD guarantees under overload.

/// Per-class admission probabilities that bring total utilization under
/// a cap.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDecision {
    /// Probability of admitting a class-`i` request, in `[0, 1]`.
    pub admit_probability: Vec<f64>,
    /// Utilization after shedding.
    pub admitted_load: f64,
    /// Utilization before shedding.
    pub offered_load: f64,
}

impl AdmissionDecision {
    /// True if any class is being shed.
    pub fn is_shedding(&self) -> bool {
        self.admit_probability.iter().any(|&p| p < 1.0)
    }
}

/// Compute admission probabilities.
///
/// * `loads` — per-class offered loads `ρ_i = λ_i·E[X]`, class 0 first
///   (highest class; shed last).
/// * `cap` — target maximum total utilization, `0 < cap < 1`.
///
/// Strategy: walk classes from the lowest (end of the slice) upward,
/// shedding each class as much as needed (possibly fully) until the
/// admitted load fits under the cap. Higher classes are only touched
/// once every lower class is fully shed — an idle one included, so a
/// request arriving in a class estimated idle cannot overtake a class
/// above it that is being shed.
pub fn admission_probabilities(loads: &[f64], cap: f64) -> AdmissionDecision {
    assert!(!loads.is_empty(), "at least one class");
    assert!(cap > 0.0 && cap < 1.0, "cap must be in (0,1), got {cap}");
    assert!(
        loads.iter().all(|&l| l.is_finite() && l >= 0.0),
        "loads must be finite and non-negative"
    );
    let offered: f64 = loads.iter().sum();
    let mut admit = vec![1.0; loads.len()];
    let mut excess = offered - cap;
    if excess > 0.0 {
        for (i, &load) in loads.iter().enumerate().rev() {
            if excess <= 0.0 {
                break;
            }
            if load <= 0.0 {
                admit[i] = 0.0;
                continue;
            }
            let shed = excess.min(load);
            admit[i] = 1.0 - shed / load;
            excess -= shed;
        }
        // If even full shedding cannot fit (cap < highest class's load),
        // the highest class keeps whatever fraction fits.
    }
    let admitted: f64 = loads.iter().zip(&admit).map(|(l, p)| l * p).sum();
    AdmissionDecision { admit_probability: admit, admitted_load: admitted, offered_load: offered }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_cap_admits_everything() {
        let d = admission_probabilities(&[0.3, 0.3], 0.9);
        assert_eq!(d.admit_probability, vec![1.0, 1.0]);
        assert!(!d.is_shedding());
        assert!((d.admitted_load - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sheds_lowest_class_first() {
        // Offered 1.2, cap 0.9: shed 0.3, all from class 2.
        let d = admission_probabilities(&[0.4, 0.4, 0.4], 0.9);
        assert_eq!(d.admit_probability[0], 1.0);
        assert_eq!(d.admit_probability[1], 1.0);
        assert!((d.admit_probability[2] - 0.25).abs() < 1e-12);
        assert!((d.admitted_load - 0.9).abs() < 1e-12);
        assert!(d.is_shedding());
    }

    #[test]
    fn cascades_to_middle_class() {
        // Offered 1.5, cap 0.7: shed 0.8 = all of class 2 (0.5) + 0.3 of
        // class 1.
        let d = admission_probabilities(&[0.5, 0.5, 0.5], 0.7);
        assert_eq!(d.admit_probability[0], 1.0);
        assert!((d.admit_probability[1] - 0.4).abs() < 1e-12);
        assert!((d.admit_probability[2] - 0.0).abs() < 1e-12);
        assert!((d.admitted_load - 0.7).abs() < 1e-12);
    }

    #[test]
    fn extreme_overload_trims_top_class_too() {
        let d = admission_probabilities(&[0.8, 0.8], 0.6);
        assert_eq!(d.admit_probability[1], 0.0);
        assert!((d.admit_probability[0] - 0.75).abs() < 1e-12);
        assert!((d.admitted_load - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_load_classes_skipped() {
        let d = admission_probabilities(&[0.5, 0.0, 0.6], 0.8);
        assert_eq!(d.admit_probability[1], 1.0, "nothing to shed");
        assert!((d.admitted_load - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cap must be in (0,1)")]
    fn cap_validated() {
        admission_probabilities(&[0.5], 1.0);
    }
}
