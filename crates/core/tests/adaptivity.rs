//! Controller adaptivity under non-stationary traffic: load steps and
//! the closed-loop (feedback) extension.

use psd_core::config::PsdConfig;
use psd_core::control::ControllerParams;
use psd_core::simulation::run_with_controller;
use psd_core::PsdController;
use psd_desim::{ArrivalSpec, ClassSpec, SimConfig, Simulation};
use psd_dist::{ServiceDist, ServiceDistribution};

/// After a 4x load step in class 0, the controller must shift capacity
/// toward it within a few estimator windows.
#[test]
fn controller_tracks_load_step() {
    let service = ServiceDist::paper_default();
    let ex = service.mean();
    let window = 1_000.0 * ex;
    let switch_at = 30.0 * window;
    let cfg = SimConfig {
        classes: vec![
            ClassSpec {
                arrival: ArrivalSpec::Step {
                    rate_before: 0.1 / ex,
                    rate_after: 0.4 / ex,
                    switch_at,
                },
                service: service.clone(),
            },
            ClassSpec { arrival: ArrivalSpec::Poisson { rate: 0.2 / ex }, service },
        ],
        end_time: 60.0 * window,
        warmup: 5.0 * window,
        control_period: window,
        seed: 2024,
        ..SimConfig::default()
    };
    let controller = PsdController::new(vec![1.0, 2.0], ex, ControllerParams::default())
        .with_nominal_lambdas(vec![0.1 / ex, 0.2 / ex]);
    let out = Simulation::new(cfg, Box::new(controller)).run();

    // Average class-0 rate in the stationary band before the step vs
    // well after it (allow 6 windows of estimator lag).
    let mean_rate0 = |from: f64, to: f64| {
        let vals: Vec<f64> = out
            .rate_history
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, r)| r[0])
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let before = mean_rate0(10.0 * window, switch_at);
    let after = mean_rate0(switch_at + 6.0 * window, 60.0 * window);
    assert!(
        after > before + 0.15,
        "class-0 share must grow after its load quadruples: {before:.3} -> {after:.3}"
    );
    // Conservation still holds at every reallocation.
    for (_, rates) in &out.rate_history {
        let sum: f64 = rates.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}

/// The closed-loop controller stays stable and achieves a ratio at
/// least as close to the target as the open-loop one on the same seeds.
#[test]
fn feedback_controller_end_to_end() {
    let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.7).with_horizon(30_000.0, 4_000.0);
    let ex = cfg.service.mean();
    let runs = 10u64;

    let ratio_with = |mk: &dyn Fn() -> Box<dyn psd_desim::RateController>| {
        let (mut s0, mut s1) = (0.0, 0.0);
        for seed in 0..runs {
            let r = run_with_controller(&cfg, 5_000 + seed, mk());
            s0 += r.classes[0].mean_slowdown.unwrap();
            s1 += r.classes[1].mean_slowdown.unwrap();
        }
        s1 / s0
    };

    let lambdas = cfg.lambdas();
    let open = ratio_with(&|| {
        Box::new(
            PsdController::new(vec![1.0, 2.0], ex, ControllerParams::default())
                .with_nominal_lambdas(lambdas.clone()),
        )
    });
    let closed = ratio_with(&|| {
        Box::new(
            PsdController::new(
                vec![1.0, 2.0],
                ex,
                ControllerParams { gain: 0.3, ..Default::default() },
            )
            .with_nominal_lambdas(lambdas.clone()),
        )
    });

    // Both must differentiate in the right direction...
    assert!(open > 1.2, "open-loop ratio {open}");
    assert!(closed > 1.2, "closed-loop ratio {closed}");
    // ...and the feedback path must not blow the target out by more
    // than the open loop does (it corrects toward the target).
    let err_open = (open - 2.0).abs();
    let err_closed = (closed - 2.0).abs();
    assert!(
        err_closed < err_open + 0.5,
        "feedback should not be much worse: open err {err_open:.2}, closed err {err_closed:.2}"
    );
}

/// Gain 0 feedback equals the open-loop controller *exactly* on the
/// same simulation (bit-for-bit rate histories).
#[test]
fn zero_gain_feedback_is_open_loop() {
    let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.5).with_horizon(8_000.0, 1_000.0);
    let ex = cfg.service.mean();
    let lambdas = cfg.lambdas();
    let a = run_with_controller(
        &cfg,
        42,
        Box::new(
            PsdController::new(vec![1.0, 2.0], ex, ControllerParams::default())
                .with_nominal_lambdas(lambdas.clone()),
        ),
    );
    let b = run_with_controller(
        &cfg,
        42,
        Box::new(
            PsdController::new(
                vec![1.0, 2.0],
                ex,
                ControllerParams { gain: 0.0, ..Default::default() },
            )
            .with_nominal_lambdas(lambdas),
        ),
    );
    assert_eq!(a, b, "gain-0 feedback must be indistinguishable from Eq.17");
}
