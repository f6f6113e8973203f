//! Ablation studies for the simulator's design choices (listed in
//! `psd_desim`'s crate docs and `PsdConfig`): estimator history length,
//! fluid vs pinned-rate task servers, and the PSD allocator against
//! the baseline allocators.

use psd_core::baselines::{BacklogProportional, EqualShare, LoadProportional, StrictPriority};
use psd_core::config::PsdConfig;
use psd_core::control::ControllerParams;
use psd_core::simulation::{run_once, run_with_controller};
use psd_desim::{ArrivalSpec, ClassSpec, RateController, ServiceMode, SimConfig, Simulation};
use psd_dist::rng::SplitMix64;
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::table::Table;
use crate::HarnessParams;

/// Ablation A: estimator history length under bursty (MMPP-2) traffic.
///
/// The paper attributes ratio error to load-estimation error (§4.4);
/// this quantifies how the history window trades adaptivity against
/// smoothing when arrivals are burstier than Poisson.
pub fn estimator_history(params: &HarnessParams) -> Table {
    let mut t = Table::new(
        "ablation_estimator",
        "Achieved ratio (target 2.0) vs estimator history, bursty arrivals",
        &["history", "achieved_ratio", "abs_error"],
    );
    let service = ServiceDist::paper_default();
    let ex = service.mean();
    let load = 0.6;
    let lambda = load / 2.0 / ex;
    let (end_tu, warm_tu) = params.horizon();
    t.note(format!("MMPP-2 arrivals, burstiness 3, load {:.0}%", load * 100.0));
    for history in [1usize, 5, 20] {
        let mut ratios = Vec::new();
        for run in 0..params.runs {
            let seed = SplitMix64::derive(params.seed ^ 0xab1a, run);
            let cfg = SimConfig {
                classes: (0..2)
                    .map(|_| ClassSpec {
                        arrival: ArrivalSpec::Bursty {
                            mean_rate: lambda,
                            burstiness: 3.0,
                            sojourn: 2_000.0 * ex,
                        },
                        service: service.clone(),
                    })
                    .collect(),
                end_time: end_tu * ex,
                warmup: warm_tu * ex,
                control_period: 1_000.0 * ex,
                seed,
                ..SimConfig::default()
            };
            let controller = psd_core::PsdController::new(
                vec![1.0, 2.0],
                ex,
                ControllerParams { estimator_history: history, ..Default::default() },
            );
            let out = Simulation::new(cfg, Box::new(controller)).run();
            if let Some(r) = out.slowdown_ratio(1, 0) {
                ratios.push(r);
            }
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        t.push_row(vec![history as f64, mean, (mean - 2.0).abs()]);
    }
    t
}

/// Ablation B: fluid task servers (remaining work carried across rate
/// changes) vs rate-pinned-at-service-start.
pub fn fluid_vs_pinned(params: &HarnessParams) -> Table {
    let mut t = Table::new(
        "ablation_fluid",
        "Fluid vs pinned-rate task servers, deltas (1,2), load 70%",
        &["mode", "sim_c1", "sim_c2", "achieved_ratio"],
    );
    t.note("mode 0 = fluid (GPS-style), 1 = pinned at service start");
    let (end, warm) = params.horizon();
    for (code, mode) in [(0.0, ServiceMode::Fluid), (1.0, ServiceMode::PinnedRate)] {
        let mut cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.7).with_horizon(end, warm);
        cfg.service_mode = mode;
        let (mut s0, mut s1, mut n) = (0.0, 0.0, 0u64);
        for run in 0..params.runs {
            let r = run_once(&cfg, SplitMix64::derive(params.seed ^ 0xf1d, run));
            if let (Some(a), Some(b)) = (r.classes[0].mean_slowdown, r.classes[1].mean_slowdown) {
                s0 += a;
                s1 += b;
                n += 1;
            }
        }
        let (s0, s1) = (s0 / n.max(1) as f64, s1 / n.max(1) as f64);
        t.push_row(vec![code, s0, s1, s1 / s0]);
    }
    t
}

/// Ablation C: the Eq. 17 allocator vs every baseline, at one load.
pub fn baselines(params: &HarnessParams) -> Table {
    let mut t = Table::new(
        "ablation_baselines",
        "Achieved slowdown ratio (target 2.0) per allocator, load 70%",
        &["allocator", "sim_c1", "sim_c2", "achieved_ratio"],
    );
    t.note(
        "allocator: 0=PSD(Eq.17) 1=EqualShare 2=LoadProportional 3=BacklogProp 4=StrictPriority",
    );
    let (end, warm) = params.horizon();
    let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.7).with_horizon(end, warm);
    let ex = cfg.service.mean();
    type ControllerFactory = Box<dyn Fn() -> Box<dyn RateController>>;
    let make: Vec<(f64, ControllerFactory)> = vec![
        (
            0.0,
            Box::new({
                let cfg = cfg.clone();
                move || Box::new(cfg.controller()) as Box<dyn RateController>
            }),
        ),
        (1.0, Box::new(|| Box::new(EqualShare))),
        (2.0, Box::new(|| Box::new(LoadProportional::new(5)))),
        (3.0, Box::new(|| Box::new(BacklogProportional::new(vec![1.0, 2.0], 1e-3)))),
        (4.0, Box::new(move || Box::new(StrictPriority::new(ex, 5)))),
    ];
    for (code, factory) in make {
        let (mut s0, mut s1, mut n) = (0.0, 0.0, 0u64);
        for run in 0..params.runs {
            let r =
                run_with_controller(&cfg, SplitMix64::derive(params.seed ^ 0xba5e, run), factory());
            if let (Some(a), Some(b)) = (r.classes[0].mean_slowdown, r.classes[1].mean_slowdown) {
                s0 += a;
                s1 += b;
                n += 1;
            }
        }
        let (s0, s1) = (s0 / n.max(1) as f64, s1 / n.max(1) as f64);
        t.push_row(vec![code, s0, s1, if s0 > 0.0 { s1 / s0 } else { f64::NAN }]);
    }
    t
}

/// Ablation D: the closed-loop (feedback) extension of §6 vs the
/// open-loop Eq. 17 controller — achieved ratio and the spread of
/// per-window ratios (short-timescale predictability).
pub fn feedback_gain(params: &HarnessParams) -> Table {
    let mut t = Table::new(
        "ablation_feedback",
        "Open-loop Eq.17 vs feedback gains, deltas (1,2), load 70%",
        &["gain", "achieved_ratio", "p5_window_ratio", "p50_window_ratio", "p95_window_ratio"],
    );
    let (end, warm) = params.horizon();
    let mut cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.7).with_horizon(end, warm);
    for gain in [0.0, 0.3, 1.0] {
        cfg.controller_params.gain = gain;
        let (mut s0, mut s1, mut n) = (0.0, 0.0, 0u64);
        let mut pooled: Vec<f64> = Vec::new();
        for run in 0..params.runs {
            let r = run_once(&cfg, SplitMix64::derive(params.seed ^ 0xfee, run));
            if let (Some(a), Some(b)) = (r.classes[0].mean_slowdown, r.classes[1].mean_slowdown) {
                s0 += a;
                s1 += b;
                n += 1;
            }
            pooled.extend(&r.window_ratios_vs_class0[1]);
        }
        let (p5, p50, p95) = psd_dist::stats::percentile_triple(&mut pooled).unwrap_or((
            f64::NAN,
            f64::NAN,
            f64::NAN,
        ));
        t.push_row(vec![gain, (s1 / n.max(1) as f64) / (s0 / n.max(1) as f64), p5, p50, p95]);
    }
    t
}

/// Ablation E: load-step adaptivity — windows until the controller's
/// class-0 rate settles near the new Eq. 17 value after a 4x step.
pub fn load_step(params: &HarnessParams) -> Table {
    use psd_core::allocation::psd_rates;
    let mut t = Table::new(
        "ablation_load_step",
        "Estimator-history vs settling windows after a 4x class-0 load step",
        &["history", "rate_before", "rate_after", "settling_windows"],
    );
    let service = ServiceDist::paper_default();
    let ex = service.mean();
    let window = 1_000.0 * ex;
    let switch_at = 25.0 * window;
    for history in [1usize, 5, 20] {
        let (mut rb, mut ra, mut settle, mut n) = (0.0, 0.0, 0.0, 0u64);
        for run in 0..params.runs {
            let seed = SplitMix64::derive(params.seed ^ 0x57e9, run);
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
                    ClassSpec {
                        arrival: ArrivalSpec::Poisson { rate: 0.2 / ex },
                        service: service.clone(),
                    },
                ],
                end_time: 50.0 * window,
                warmup: 0.0,
                control_period: window,
                seed,
                ..SimConfig::default()
            };
            let ctl = psd_core::PsdController::new(
                vec![1.0, 2.0],
                ex,
                ControllerParams { estimator_history: history, ..Default::default() },
            )
            .with_nominal_lambdas(vec![0.1 / ex, 0.2 / ex]);
            let out = Simulation::new(cfg, Box::new(ctl)).run();
            // Target post-step rate from Eq. 17 at the true new loads.
            let target = psd_rates(&[0.4 / ex, 0.2 / ex], &[1.0, 2.0], ex).unwrap()[0];
            let mut settled_at = None;
            let mut pre = Vec::new();
            let mut post = Vec::new();
            for (time, rates) in &out.rate_history {
                if *time < switch_at {
                    if *time >= 10.0 * window {
                        pre.push(rates[0]);
                    }
                } else {
                    post.push(rates[0]);
                    if settled_at.is_none() && (rates[0] - target).abs() < 0.05 {
                        settled_at = Some((*time - switch_at) / window);
                    }
                }
            }
            rb += pre.iter().sum::<f64>() / pre.len().max(1) as f64;
            ra += post.iter().rev().take(5).sum::<f64>() / 5.0;
            settle += settled_at.unwrap_or(25.0);
            n += 1;
        }
        let nf = n.max(1) as f64;
        t.push_row(vec![history as f64, rb / nf, ra / nf, settle / nf]);
    }
    t
}

/// All ablations.
pub fn all(params: &HarnessParams) -> Vec<Table> {
    vec![
        estimator_history(params),
        fluid_vs_pinned(params),
        baselines(params),
        feedback_gain(params),
        load_step(params),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessParams {
        HarnessParams { runs: 2, seed: 3, quick: true }
    }

    #[test]
    fn estimator_ablation_runs() {
        let t = estimator_history(&quick());
        assert_eq!(t.rows.len(), 3);
        assert!(t.rows.iter().all(|r| r[1].is_finite() && r[1] > 0.0));
    }

    #[test]
    fn baseline_ablation_separates_psd_from_equal_share() {
        let p = HarnessParams { runs: 4, seed: 9, quick: true };
        let t = baselines(&p);
        let psd_ratio = t.rows[0][3];
        let equal_ratio = t.rows[1][3];
        // PSD pushes toward 2; equal-share of equal loads stays near 1.
        assert!(psd_ratio > equal_ratio, "PSD {psd_ratio} vs equal {equal_ratio}");
    }
}
