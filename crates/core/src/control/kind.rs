//! [`ControllerKind`] and [`build_controller`] — the one factory the
//! server monitor, `psd_httpd`, `psd_loadtest` and the tests all use to
//! construct a controller stack, so "which controller runs" is a value
//! (`--controller {open,feedback}`) instead of hard-wired code. Both
//! kinds are the one [`PsdController`]: `open` simply means gain 0.

use psd_control::RateController;

use crate::control::admit::Admitting;
use crate::control::open::{ControllerParams, PsdController};

/// Whether the slowdown feedback of [`PsdController`] is engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The paper's open-loop Eq. 17 allocator (load estimator only):
    /// gain 0, whatever `--gain` says.
    Open,
    /// The slowdown-feedback extension; with `gain = 0` it is
    /// [`ControllerKind::Open`] — one controller, bit-identical.
    Feedback,
}

impl ControllerKind {
    /// Parse a CLI token (`open` | `feedback`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "open" => Some(ControllerKind::Open),
            "feedback" => Some(ControllerKind::Feedback),
            _ => None,
        }
    }

    /// The CLI token for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ControllerKind::Open => "open",
            ControllerKind::Feedback => "feedback",
        }
    }
}

/// Build the controller stack for `kind`: a [`PsdController`], wrapped
/// in [`Admitting`] when `admission_cap` is set. `gain` only reaches
/// [`ControllerKind::Feedback`]; `estimator_history` is the paper's
/// 5-window moving average by default.
pub fn build_controller(
    kind: ControllerKind,
    deltas: &[f64],
    mean_service: f64,
    gain: f64,
    estimator_history: usize,
    admission_cap: Option<f64>,
) -> Box<dyn RateController + Send> {
    let gain = match kind {
        ControllerKind::Open => 0.0,
        ControllerKind::Feedback => gain,
    };
    let params = ControllerParams { estimator_history, gain };
    let base = PsdController::new(deltas.to_vec(), mean_service, params);
    match admission_cap {
        None => Box::new(base),
        Some(cap) => Box::new(Admitting::new(base, cap, estimator_history)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_control::WindowObservation;

    #[test]
    fn parse_roundtrips() {
        for kind in [ControllerKind::Open, ControllerKind::Feedback] {
            assert_eq!(ControllerKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ControllerKind::parse("closed"), None);
    }

    #[test]
    fn factory_builds_every_combination() {
        let w = WindowObservation {
            index: 0,
            start: 0.0,
            end: 1.0,
            arrivals: vec![100, 100],
            arrived_work: vec![0.3, 0.3],
            shed_work: vec![0.0; 2],
            completions: vec![90, 90],
            backlog: vec![1, 1],
            slowdown_sums: vec![90.0, 180.0],
        };
        for kind in [ControllerKind::Open, ControllerKind::Feedback] {
            for cap in [None, Some(0.9)] {
                let mut c = build_controller(kind, &[1.0, 2.0], 0.002, 0.3, 5, cap);
                let init = c.initial_rates(2);
                assert!((init.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                let d = c.control(1.0, &w);
                let rates = d.rates.expect("both families re-allocate every window");
                assert!((rates.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert_eq!(d.admit_probability, None, "load 0.6 is under every cap here");
            }
        }
        // "Gain 0 ≡ open", on a window that exercises the floor: class 0
        // at load ≈ 0.6, class 1 idle.
        let idle = WindowObservation { end: 1000.0, arrivals: vec![2065, 0], ..w };
        let ex = 0.29053;
        let mut open = build_controller(ControllerKind::Open, &[1.0, 2.0], ex, 0.3, 5, None);
        let mut fb0 = build_controller(ControllerKind::Feedback, &[1.0, 2.0], ex, 0.0, 5, None);
        let rates = open.control(1000.0, &idle).rates.unwrap();
        assert_eq!(rates, vec![1.0 - 1e-4, 1e-4], "the idle class sits exactly at MIN_RATE");
        assert_eq!(fb0.control(1000.0, &idle).rates.unwrap(), rates);
    }

    #[test]
    fn factory_cap_sheds_under_overload() {
        let w = WindowObservation {
            index: 0,
            start: 0.0,
            end: 1.0,
            arrivals: vec![600, 600],
            arrived_work: vec![0.7, 0.7],
            shed_work: vec![0.0; 2],
            completions: vec![90, 90],
            backlog: vec![50, 80],
            slowdown_sums: vec![900.0, 1800.0],
        };
        let mut c = build_controller(ControllerKind::Open, &[1.0, 2.0], 0.001, 0.0, 5, Some(0.9));
        c.initial_rates(2);
        let d = c.control(1.0, &w);
        let p = d.admit_probability.expect("offered 1.4 > cap 0.9");
        assert_eq!(p[0], 1.0, "highest class protected");
        assert!(p[1] < 1.0, "lowest class sheds: {p:?}");
    }
}
