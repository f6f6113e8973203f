//! # psd-bench — figure-reproduction harness
//!
//! One function per figure of the paper's evaluation section (§4,
//! Figures 2–12), plus the ablations in [`ablations`]. Each returns a
//! [`table::Table`] whose rows are the series the paper plots, so the
//! `figures` binary can print them or write them as JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod table;

/// Shared harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct HarnessParams {
    /// Replications per data point (paper: 100; default here: 20 to keep
    /// the full regeneration under a few minutes).
    pub runs: u64,
    /// Root seed.
    pub seed: u64,
    /// Shrink horizons ~10× and the load sweep to three points, for
    /// smoke tests and `figures --quick`.
    pub quick: bool,
}

impl Default for HarnessParams {
    fn default() -> Self {
        Self { runs: 20, seed: 20040426, quick: false }
    }
}

impl HarnessParams {
    /// Simulation horizon in time units: the paper's 61 000 (10 000
    /// warm-up + measurement to 60 000 + one traced window), or a short
    /// horizon in quick mode.
    pub fn horizon(&self) -> (f64, f64) {
        if self.quick {
            (8_000.0, 1_000.0)
        } else {
            (61_000.0, 10_000.0)
        }
    }

    /// The load sweep on the x-axis of Figs 2–6 and 9–10.
    pub fn load_sweep(&self) -> Vec<f64> {
        if self.quick {
            vec![0.3, 0.6, 0.9]
        } else {
            vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_and_ablation_runs_at_quick_scale() {
        let p = HarnessParams { runs: 2, seed: 11, quick: true };
        let tables: Vec<_> = figures::all(&p).into_iter().chain(ablations::all(&p)).collect();
        assert_eq!(tables.len(), 16, "11 figures and 5 ablations");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has no rows", t.id);
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{}: row width", t.id);
            }
        }
    }
}
