//! Closed-loop sessions × heterogeneous PSD: the integration path used
//! by `examples/session_store.rs`, pinned down as a test.

use psd::core::control::{ControllerParams, PsdController};
use psd::desim::session::{run_sessions, SessionConfig, SessionState};
use psd::desim::StaticRates;
use psd::dist::{Deterministic, ServiceDist, ServiceDistribution};

/// Two-state store: state 0 = browse (class 1, δ=2), state 1 = checkout
/// (class 0, δ=1), with different deterministic service times.
fn store(n_users: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        states: vec![
            SessionState {
                class: 1,
                service: ServiceDist::Deterministic(Deterministic::new(0.5).unwrap()),
                mean_think: 20.0,
                next: vec![0.7, 0.3],
            },
            SessionState {
                class: 0,
                service: ServiceDist::Deterministic(Deterministic::new(1.5).unwrap()),
                mean_think: 10.0,
                next: vec![1.0, 0.0],
            },
        ],
        initial_state: 0,
        n_classes: 2,
        n_users,
        end_time: 40_000.0,
        warmup: 4_000.0,
        control_period: 500.0,
        seed,
    }
}

fn controller() -> PsdController {
    PsdController::per_class(
        vec![1.0, 2.0],
        &[
            Deterministic::new(1.5).unwrap().moments(), // checkout class
            Deterministic::new(0.5).unwrap().moments(), // browse class
        ],
        ControllerParams::default(),
    )
}

/// The heterogeneous controller holds the δ ordering on closed-loop
/// traffic with per-class service distributions, where the even split
/// fails badly.
#[test]
fn heterogeneous_psd_orders_session_classes() {
    let (mut psd0, mut psd1, mut even0, mut even1) = (0.0, 0.0, 0.0, 0.0);
    let runs = 6;
    for seed in 0..runs {
        let out = run_sessions(store(55, seed), Box::new(controller()));
        psd0 += out.mean_slowdown(0).expect("checkout departures");
        psd1 += out.mean_slowdown(1).expect("browse departures");
        let out = run_sessions(store(55, seed), Box::new(StaticRates::even(2)));
        even0 += out.mean_slowdown(0).unwrap_or(0.0);
        even1 += out.mean_slowdown(1).unwrap_or(0.0);
    }
    let psd_ratio = psd1 / psd0;
    // Premium (checkout, δ=1) must be the faster class under PSD...
    assert!(psd_ratio > 1.0, "PSD must order the classes, ratio {psd_ratio}");
    // ...within a sane band of the target 2 given the closed loop.
    assert!((0.8..6.0).contains(&psd_ratio), "PSD ratio {psd_ratio} wildly off target 2");
    // The even split inverts or distorts the ordering at this mix:
    // checkout's jobs are 3x larger, so with equal rates its slowdown
    // is *not* held below browse's in the proportional sense.
    let even_ratio = even1 / even0.max(1e-12);
    assert!(
        (psd_ratio - 2.0).abs() < (even_ratio - 2.0).abs() + 0.5,
        "PSD ({psd_ratio:.2}) must sit closer to target 2 than even split ({even_ratio:.2})"
    );
}

/// Determinism of the whole closed-loop path.
#[test]
fn session_psd_deterministic() {
    let a = run_sessions(store(30, 9), Box::new(controller()));
    let b = run_sessions(store(30, 9), Box::new(controller()));
    assert_eq!(a.per_class[0].completed, b.per_class[0].completed);
    assert_eq!(a.mean_slowdown(0), b.mean_slowdown(0));
    assert_eq!(a.rate_history, b.rate_history);
}

/// The controller's rate history responds to the session mix: checkout
/// (bigger jobs) must end up with more than the even share despite its
/// lower arrival count.
#[test]
fn rates_reflect_work_not_just_arrivals() {
    let out = run_sessions(store(55, 3), Box::new(controller()));
    // Average class-0 rate over the second half of the run.
    let later: Vec<&(f64, Vec<f64>)> =
        out.rate_history.iter().filter(|(t, _)| *t > 20_000.0).collect();
    assert!(!later.is_empty());
    let mean_r0 = later.iter().map(|(_, r)| r[0]).sum::<f64>() / later.len() as f64;
    assert!(mean_r0 > 0.35, "checkout's 3x-larger jobs need a large share, got {mean_r0:.3}");
}
