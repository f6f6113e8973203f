//! Tiered Web-content hosting on the live PSD server.
//!
//! The paper's motivating deployment (§5 cites Web content hosting with
//! differentiated service levels): premium / standard / basic tenants
//! share one machine. Each tier is one rate-partitioned task server
//! (paper Fig. 1) whose rate is recomputed online by the Eq. 17
//! allocator from measured arrival rates. The tenants' traffic reaches
//! it over HTTP from the load generator.
//!
//! Run with: `cargo run --release --example web_hosting_tiers`

use std::time::Duration;

use psd::dist::{BoundedPareto, ServiceDist};
use psd::loadgen::scenario::mean_cost;
use psd::loadgen::{harness, ArrivalSpec, ClassMix, LoadMode, Scenario};
use psd::server::{FrontendConfig, ServerConfig};

fn main() {
    // Heavy-tailed request costs in the paper's BP shape (α = 1.5, from
    // 0.1 work units), capped at 10 units instead of the paper's 100,
    // as the load generator's catalog caps its own: one 100-unit draw
    // holds a tier for a quarter second, and decides a few-second run's
    // mean slowdowns on its own. Mean ≈ 0.27 units; one work unit is
    // 1 ms at the full machine rate, long enough that the timer's tens
    // of µs of lateness stay small beside even the shortest request.
    let cost = ServiceDist::BoundedPareto(BoundedPareto::new(1.5, 0.1, 10.0).expect("valid BP"));
    let mix: Vec<ClassMix> = (0..3).map(|_| ClassMix { weight: 1.0, cost: cost.clone() }).collect();
    let mean = mean_cost(&mix);

    // Offered load ≈ 70% of the machine rate: 0.7 / (0.27 · 1 ms)
    // ≈ 2.6k req/s in total, split evenly across tiers.
    let rate = 0.7 / (mean * 1e-3);
    let scenario = Scenario {
        name: "web-hosting-tiers".to_string(),
        mix,
        mix_shift: None,
        reconfig: None,
        mode: LoadMode::Open { arrival: ArrivalSpec::Steady { rate } },
        duration: Duration::from_secs(5),
        warmup: Duration::from_secs(1),
        // Enough connections for the in-flight requests a heavy tail
        // piles up: a blocked pool would throttle the offered load.
        connections: 128,
        seed: 7,
        server: ServerConfig {
            deltas: vec![1.0, 2.0, 4.0], // premium : standard : basic = 1 : 2 : 4
            mean_cost: mean,
            work_unit: Duration::from_millis(1),
            control_window: Duration::from_millis(100),
            ..ServerConfig::default()
        },
        frontend: FrontendConfig::default(),
    };
    println!("Driving 3 tiers at {:.0} req/s each for 5 seconds...\n", rate / 3.0);

    let out = harness::run_scenario(&scenario).expect("load test");
    let stats = out.server_stats;

    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "tier", "submitted", "completed", "delay(ms)", "slowdown", "vs prem"
    );
    let names = ["premium", "standard", "basic"];
    let s0 = stats.classes[0].mean_slowdown.max(1e-9);
    for (i, name) in names.iter().enumerate() {
        let c = &stats.classes[i];
        println!(
            "{:>10} {:>10} {:>10} {:>12.3} {:>12.3} {:>10.2}",
            name,
            out.report.classes[i].sent,
            c.completed,
            c.mean_delay * 1e3,
            c.mean_slowdown,
            c.mean_slowdown / s0,
        );
    }
    println!("\nTarget ratios are 1 : 2 : 4. Timer jitter and the");
    println!("short horizon make this noisier than the simulator, but the");
    println!("ordering premium < standard < basic must hold.");
}
