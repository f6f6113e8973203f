//! A closed-loop online store (paper §2.2's session model, end to end).
//!
//! A fixed population of shoppers cycles home → browse → search → cart
//! → checkout with think times; each state's requests go to one of
//! three service classes (checkout = premium δ=1, cart/browse = δ=2,
//! search = δ=3). The PSD controller runs unchanged on the closed-loop
//! traffic — arrival rates now *react* to the allocation, a regime
//! outside the paper's open-loop analysis, which is exactly why it is
//! worth watching.
//!
//! Run with: `cargo run --release --example session_store`

use psd::core::control::{ControllerParams, PsdController};
use psd::desim::session::{run_sessions, SessionConfig, SessionState};
use psd::desim::StaticRates;
use psd::dist::{Deterministic, Moments, ServiceDist, ServiceDistribution, UniformService};

fn det(v: f64) -> ServiceDist {
    ServiceDist::Deterministic(Deterministic::new(v).expect("positive"))
}

fn store_config(n_users: usize, seed: u64) -> SessionConfig {
    // States: 0=home 1=browse 2=search 3=cart 4=checkout
    // Classes: 0=checkout(δ1), 1=cart+browse+home(δ2), 2=search(δ3)
    let uni =
        |a: f64, b: f64| ServiceDist::Uniform(UniformService::new(a, b).expect("valid interval"));
    SessionConfig {
        states: vec![
            SessionState {
                class: 1,
                service: det(0.3), // home entry: near-constant (paper §2.2)
                mean_think: 40.0,
                next: vec![0.0, 0.6, 0.3, 0.1, 0.0],
            },
            SessionState {
                class: 1,
                service: uni(0.2, 1.2), // browse
                mean_think: 80.0,
                next: vec![0.05, 0.45, 0.25, 0.2, 0.05],
            },
            SessionState {
                class: 2,
                service: uni(0.5, 3.0), // search: expensive, best-effort
                mean_think: 60.0,
                next: vec![0.05, 0.5, 0.25, 0.15, 0.05],
            },
            SessionState {
                class: 1,
                service: det(0.4), // cart update
                mean_think: 40.0,
                next: vec![0.0, 0.3, 0.1, 0.2, 0.4],
            },
            SessionState {
                class: 0,
                service: det(0.8), // checkout: premium
                mean_think: 20.0,
                next: vec![1.0, 0.0, 0.0, 0.0, 0.0], // session restarts
            },
        ],
        initial_state: 0,
        n_classes: 3,
        n_users,
        end_time: 30_000.0,
        warmup: 3_000.0,
        control_period: 500.0,
        seed,
    }
}

/// Weighted mixture of moment sets (all three statistics are linear in
/// the mixture weights).
fn mix(parts: &[(f64, Moments)]) -> Moments {
    let total: f64 = parts.iter().map(|(w, _)| w).sum();
    let mut out = Moments { mean: 0.0, second_moment: 0.0, mean_inverse: Some(0.0) };
    for (w, m) in parts {
        let w = w / total;
        out.mean += w * m.mean;
        out.second_moment += w * m.second_moment;
        out.mean_inverse =
            Some(out.mean_inverse.unwrap() + w * m.mean_inverse.expect("finite E[1/X]"));
    }
    out
}

fn main() {
    let deltas = vec![1.0, 2.0, 3.0];
    println!("Closed-loop store: 5 session states -> 3 classes, deltas (1, 2, 3)\n");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "users", "controller", "s(checkout)", "s(browse)", "s(search)", "r2/r1", "r3/r1"
    );

    for &n_users in &[30usize, 60, 90] {
        for psd_on in [false, true] {
            let (mut s, mut n) = (vec![0.0; 3], 0u32);
            for seed in 0..6u64 {
                let cfg = store_config(n_users, seed);
                let controller: Box<dyn psd::desim::RateController> = if psd_on {
                    // Per-class service moments (the heterogeneous Eq. 17
                    // extension — classes have *different* distributions
                    // here, unlike the paper's shared Bounded Pareto).
                    // Class 1 mixes home/browse/cart roughly 1 : 3 : 1
                    // by state visit frequency.
                    let checkout = Deterministic::new(0.8).unwrap().moments();
                    let class1 = mix(&[
                        (1.0, Deterministic::new(0.3).unwrap().moments()),
                        (3.0, UniformService::new(0.2, 1.2).unwrap().moments()),
                        (1.0, Deterministic::new(0.4).unwrap().moments()),
                    ]);
                    let search = UniformService::new(0.5, 3.0).unwrap().moments();
                    Box::new(PsdController::per_class(
                        deltas.clone(),
                        &[checkout, class1, search],
                        ControllerParams::default(),
                    ))
                } else {
                    Box::new(StaticRates::even(3))
                };
                let out = run_sessions(cfg, controller);
                let mut ok = true;
                for (c, slot) in s.iter_mut().enumerate() {
                    match out.mean_slowdown(c) {
                        Some(v) => *slot += v,
                        None => ok = false,
                    }
                }
                if ok {
                    n += 1;
                }
            }
            let nf = n.max(1) as f64;
            let (a, b, c) = (s[0] / nf, s[1] / nf, s[2] / nf);
            println!(
                "{:>7} {:>12} {:>12.3} {:>12.3} {:>12.3} {:>8.2} {:>8.2}",
                n_users,
                if psd_on { "PSD" } else { "even" },
                a,
                b,
                c,
                b / a.max(1e-9),
                c / a.max(1e-9),
            );
        }
    }

    println!("\nUnder the even split the spacings drift with population (15x .. 300x).");
    println!("The heterogeneous PSD controller pins them near 1 : 2 : 3 at every");
    println!("population — even though the closed loop violates the open-loop Poisson");
    println!("assumption behind Eq. (17).");
}
