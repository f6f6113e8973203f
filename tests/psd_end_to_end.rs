//! End-to-end integration tests: the full pipeline (config → controller
//! → simulator → report) reproduces the paper's headline claims.
//!
//! Tolerances note: `BP(1.5, 0.1, 100)` has an enormous second-moment
//! variance (`E[X⁴] ≈ 1.9e3`), so per-run mean slowdowns are strongly
//! right-skewed and converge slowly; the paper averages 100 runs of
//! 60 000 time units per point. The tests below use a reduced
//! replication budget and correspondingly generous bands; the
//! full-scale series come from the `figures` binary.

use psd::core::config::PsdConfig;
use psd::core::experiment::Experiment;

const RUNS: u64 = 16;
const END_TU: f64 = 40_000.0;
const WARM_TU: f64 = 6_000.0;

/// Figure 2's headline: simulated slowdowns track the Eq. 18 predictions
/// at moderate-to-high load, for both classes.
#[test]
fn simulated_tracks_expected_two_classes() {
    for &load in &[0.5, 0.7] {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0], load).with_horizon(END_TU, WARM_TU);
        let rep = Experiment::new(cfg).runs(RUNS).base_seed(100).run();
        let sim = rep.mean_slowdowns();
        let exp = rep.expected_slowdowns().expect("BP model");
        for i in 0..2 {
            let rel = (sim[i] - exp[i]).abs() / exp[i];
            assert!(
                rel < 0.40,
                "load {load}, class {i}: sim {} vs exp {} (rel {rel:.2})",
                sim[i],
                exp[i]
            );
        }
    }
}

/// Eq. 16: achieved ratios sit near δ_i/δ_1 for a 3-class system and
/// preserve the ordering.
#[test]
fn three_class_ratios_near_targets() {
    let cfg = PsdConfig::equal_load(&[1.0, 2.0, 3.0], 0.6).with_horizon(END_TU, WARM_TU);
    let rep = Experiment::new(cfg).runs(RUNS).base_seed(200).run();
    let s = rep.mean_slowdowns();
    let r2 = s[1] / s[0];
    let r3 = s[2] / s[0];
    assert!((1.3..3.2).contains(&r2), "ratio c2/c1 = {r2}, target 2");
    assert!((1.9..4.6).contains(&r3), "ratio c3/c1 = {r3}, target 3");
    assert!(r3 > r2, "ordering must hold");
}

/// Predictability: the achieved ratio stays in the same band across
/// loads (the defining property of the proportional model — compare a
/// priority scheduler, where spacing drifts with load).
#[test]
fn ratio_stable_across_loads() {
    for (i, &load) in [0.4, 0.6, 0.8].iter().enumerate() {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0], load).with_horizon(END_TU, WARM_TU);
        let rep = Experiment::new(cfg).runs(RUNS).base_seed(300 + i as u64).run();
        // The median per-window ratio is far more robust than the mean
        // under the heavy tail; the paper's Fig. 5 bars are medians too.
        let (_, p50, _) = rep.ratio_percentiles_vs_class0(1).expect("windows exist");
        assert!((1.2..3.2).contains(&p50), "median window ratio at load {load} = {p50}");
    }
}

/// Unequal class loads: proportionality is load-independent (the model
/// guarantees the ratio even when class loads differ 3:1).
#[test]
fn unequal_loads_still_proportional() {
    use psd::core::config::ClassConfig;
    use psd::dist::ServiceDist;
    let cfg = PsdConfig::new(
        vec![ClassConfig { delta: 1.0, load: 0.45 }, ClassConfig { delta: 2.0, load: 0.15 }],
        ServiceDist::paper_default(),
    )
    .with_horizon(END_TU, WARM_TU);
    let exp = cfg.expected_slowdowns().unwrap();
    assert!((exp[1] / exp[0] - 2.0).abs() < 1e-9, "model ratio is exact");
    // The low-rate class's window means are few-sample and right-skewed,
    // so the pooled median needs more replications than the equal-load
    // tests to concentrate above the differentiation floor.
    let rep = Experiment::new(cfg).runs(3 * RUNS).base_seed(400).run();
    let (_, p50, _) = rep.ratio_percentiles_vs_class0(1).expect("windows exist");
    assert!((1.2..3.4).contains(&p50), "median achieved ratio {p50} (target 2)");
    let s = rep.mean_slowdowns();
    assert!(s[1] > 1.3 * s[0], "mean ratio must differentiate: {s:?}");
}

/// The whole experiment pipeline is deterministic in the base seed.
#[test]
fn pipeline_determinism() {
    let mk = || {
        Experiment::new(PsdConfig::equal_load(&[1.0, 2.0], 0.5).with_horizon(6_000.0, 1_000.0))
            .runs(3)
            .base_seed(77)
            .run()
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.mean_slowdowns(), b.mean_slowdowns());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra, rb);
    }
}
