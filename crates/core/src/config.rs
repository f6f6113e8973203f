//! Experiment configuration façade: declare classes by `(δ, load)` and
//! get simulator configs, controllers and model predictions that are
//! guaranteed to be mutually consistent.

use psd_desim::{ClassSpec, ServiceMode, SimConfig};
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::control::{ControllerParams, PsdController};
use crate::model::{ModelError, PsdModel};

/// One service class: differentiation parameter and offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassConfig {
    /// Differentiation parameter `δ_i` (smaller = higher class).
    pub delta: f64,
    /// Offered load `ρ_i = λ_i·E[X]` as a fraction of machine capacity.
    pub load: f64,
}

/// Declarative PSD experiment configuration with the paper's defaults:
/// `BP(1.5, 0.1, 100)` service, warm-up 10 000 time units, measurement
/// from there to the end of the run at 61 000 (the last 1000 units are
/// the window Figs 7/8 trace), 1000-unit control/measurement windows,
/// estimator history of 5 windows. A *time unit* is the mean full-rate
/// service time `E[X]` (≈ 0.29 for the default BP): [`PsdConfig::new`]
/// and the `with_*` setters take durations in time units and store
/// them multiplied by `E[X]`, as simulator time.
#[derive(Debug, Clone, PartialEq)]
pub struct PsdConfig {
    /// The classes, ordered highest (smallest δ) first by convention.
    pub classes: Vec<ClassConfig>,
    /// Service-size distribution at full machine rate.
    pub service: ServiceDist,
    /// Simulation end (in simulator time).
    pub end_time: f64,
    /// Warm-up cutoff.
    pub warmup: f64,
    /// Control (and measurement) window length.
    pub control_period: f64,
    /// Online-controller tuning.
    pub controller_params: ControllerParams,
    /// Start the controller from the nominal loads instead of an even
    /// split (the paper's simulator knows the offered loads).
    pub warm_start: bool,
    /// Fluid or pinned-rate task servers.
    pub service_mode: ServiceMode,
    /// Optional per-request trace window (paper Figs 7/8).
    pub trace_range: Option<(f64, f64)>,
}

impl PsdConfig {
    /// Construct with explicit classes and the paper-default horizon.
    ///
    /// The time axis follows the paper: a *time unit* is the processing
    /// time of an average-size request, i.e. every duration below is in
    /// units of `E[X]` and converted to simulator time internally.
    pub fn new(classes: Vec<ClassConfig>, service: ServiceDist) -> Self {
        assert!(!classes.is_empty(), "at least one class");
        let ex = service.mean();
        Self {
            classes,
            service,
            end_time: 61_000.0 * ex,
            warmup: 10_000.0 * ex,
            control_period: 1_000.0 * ex,
            controller_params: ControllerParams::default(),
            warm_start: true,
            service_mode: ServiceMode::Fluid,
            trace_range: None,
        }
    }

    /// The paper's standard setup: `n = deltas.len()` classes with equal
    /// shares of `total_load`, Bounded-Pareto `BP(1.5, 0.1, 100)` sizes.
    pub fn equal_load(deltas: &[f64], total_load: f64) -> Self {
        assert!(!deltas.is_empty());
        assert!((0.0..1.0).contains(&total_load), "total load must be in [0,1)");
        let per = total_load / deltas.len() as f64;
        let classes = deltas.iter().map(|&delta| ClassConfig { delta, load: per }).collect();
        Self::new(classes, ServiceDist::paper_default())
    }

    /// Override the horizon: `end` and `warmup` in *time units* (they
    /// are converted with `E[X]` like the defaults).
    pub fn with_horizon(mut self, end_tu: f64, warmup_tu: f64) -> Self {
        let ex = self.service.mean();
        assert!(end_tu > warmup_tu && warmup_tu >= 0.0);
        self.end_time = end_tu * ex;
        self.warmup = warmup_tu * ex;
        self
    }

    /// Override the control window (in time units).
    pub fn with_control_period(mut self, period_tu: f64) -> Self {
        assert!(period_tu > 0.0);
        self.control_period = period_tu * self.service.mean();
        self
    }

    /// Request a per-request departure trace over `[from, to)` time
    /// units (paper Figs 7/8 use 60 000–61 000).
    pub fn with_trace(mut self, from_tu: f64, to_tu: f64) -> Self {
        let ex = self.service.mean();
        self.trace_range = Some((from_tu * ex, to_tu * ex));
        self
    }

    /// Differentiation parameters in class order.
    pub fn deltas(&self) -> Vec<f64> {
        self.classes.iter().map(|c| c.delta).collect()
    }

    /// Per-class arrival rates `λ_i = load_i / E[X]`.
    pub fn lambdas(&self) -> Vec<f64> {
        let ex = self.service.mean();
        self.classes.iter().map(|c| c.load / ex).collect()
    }

    /// Total offered load `ρ`.
    pub fn total_load(&self) -> f64 {
        self.classes.iter().map(|c| c.load).sum()
    }

    /// The analytical PSD model for this configuration.
    pub fn model(&self) -> Result<PsdModel, ModelError> {
        PsdModel::new(&self.deltas(), self.service.moments())
    }

    /// Eq. 18 predictions for the nominal loads.
    pub fn expected_slowdowns(&self) -> Result<Vec<f64>, ModelError> {
        self.model()?.expected_slowdowns(&self.lambdas())
    }

    /// Materialize the simulator configuration for one run.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let lambdas = self.lambdas();
        SimConfig {
            classes: self
                .classes
                .iter()
                .zip(&lambdas)
                .map(|(_, &l)| ClassSpec::poisson(l, self.service.clone()))
                .collect(),
            end_time: self.end_time,
            warmup: self.warmup,
            control_period: self.control_period,
            metrics_window: None,
            seed,
            service_mode: self.service_mode,
            trace_range: self.trace_range,
            ..SimConfig::default()
        }
    }

    /// Build the online PSD controller for this configuration.
    pub fn controller(&self) -> PsdController {
        let c =
            PsdController::new(self.deltas(), self.service.mean(), self.controller_params.clone());
        if self.warm_start {
            c.with_nominal_lambdas(self.lambdas())
        } else {
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_load_splits_evenly() {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0, 3.0], 0.6);
        assert_eq!(cfg.classes.len(), 3);
        for c in &cfg.classes {
            assert!((c.load - 0.2).abs() < 1e-12);
        }
        assert!((cfg.total_load() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lambdas_scale_with_mean_service() {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.5);
        let ex = cfg.service.mean();
        let l = cfg.lambdas();
        assert!((l[0] - 0.25 / ex).abs() < 1e-12);
    }

    #[test]
    fn horizon_in_time_units() {
        let cfg = PsdConfig::equal_load(&[1.0], 0.3).with_horizon(5_000.0, 500.0);
        let ex = cfg.service.mean();
        assert!((cfg.end_time - 5_000.0 * ex).abs() < 1e-9);
        assert!((cfg.warmup - 500.0 * ex).abs() < 1e-9);
    }

    #[test]
    fn expected_slowdowns_proportional() {
        let cfg = PsdConfig::equal_load(&[1.0, 4.0], 0.5);
        let s = cfg.expected_slowdowns().unwrap();
        assert!((s[1] / s[0] - 4.0).abs() < 1e-10);
    }

    #[test]
    fn sim_config_consistent() {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.4);
        let sc = cfg.sim_config(9);
        assert_eq!(sc.classes.len(), 2);
        assert_eq!(sc.seed, 9);
        assert_eq!(sc.end_time, cfg.end_time);
    }

    #[test]
    #[should_panic(expected = "total load")]
    fn overload_config_rejected() {
        PsdConfig::equal_load(&[1.0, 2.0], 1.2);
    }
}
