//! Result types for single runs and experiments.

/// Per-class outcome of a single simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Differentiation parameter δ.
    pub delta: f64,
    /// Nominal offered load of the class.
    pub load: f64,
    /// Measured mean slowdown (None if no departures were measured).
    pub mean_slowdown: Option<f64>,
    /// Model prediction (paper Eq. 18) for the nominal load.
    pub expected_slowdown: Option<f64>,
    /// Measured mean queueing delay.
    pub mean_delay: Option<f64>,
    /// Departures counted in the measurement period.
    pub completed: u64,
}

/// Outcome of a single simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PsdReport {
    /// Seed used for this run.
    pub seed: u64,
    /// Per-class results.
    pub classes: Vec<ClassReport>,
    /// Departure-weighted system slowdown.
    pub system_slowdown: Option<f64>,
    /// Per-window slowdown ratios of each class vs class 0
    /// (`window_ratios[i]` is empty for `i = 0`).
    pub window_ratios_vs_class0: Vec<Vec<f64>>,
    /// Trace records, when the run was configured to collect them:
    /// `(class, departure_time, slowdown)` triples.
    pub trace: Vec<(usize, f64, f64)>,
}

impl PsdReport {
    /// Measured mean-slowdown ratio of class `i` to class 0.
    pub fn mean_ratio_vs_class0(&self, i: usize) -> Option<f64> {
        let s0 = self.classes[0].mean_slowdown?;
        let si = self.classes[i].mean_slowdown?;
        (s0 > 0.0).then(|| si / s0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PsdReport {
        PsdReport {
            seed: 1,
            classes: vec![
                ClassReport {
                    delta: 1.0,
                    load: 0.3,
                    mean_slowdown: Some(2.0),
                    expected_slowdown: Some(2.1),
                    mean_delay: Some(0.5),
                    completed: 100,
                },
                ClassReport {
                    delta: 2.0,
                    load: 0.3,
                    mean_slowdown: Some(4.0),
                    expected_slowdown: Some(4.2),
                    mean_delay: Some(1.0),
                    completed: 90,
                },
            ],
            system_slowdown: Some(2.9),
            window_ratios_vs_class0: vec![vec![], vec![2.0, 1.9]],
            trace: vec![],
        }
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(report().mean_ratio_vs_class0(1), Some(2.0));
        assert_eq!(report().mean_ratio_vs_class0(0), Some(1.0));
    }
}
