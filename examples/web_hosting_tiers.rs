//! Tiered Web-content hosting on the live PSD server.
//!
//! The paper's motivating deployment (§5 cites Web content hosting with
//! differentiated service levels): premium / standard / basic tenants
//! share one machine. Each tier is one rate-partitioned task server
//! (paper Fig. 1) whose rate is recomputed online by the Eq. 17
//! allocator from measured arrival rates.
//!
//! Run with: `cargo run --release --example web_hosting_tiers`

use std::sync::Arc;
use std::time::Duration;

use psd::dist::{BoundedPareto, ServiceDist};
use psd::server::driver::{drive, ClassTraffic};
use psd::server::{PsdServer, ServerConfig};

fn main() {
    // Heavy-tailed request costs, mean ≈ 0.29 work units (paper's BP),
    // scaled so one work unit is 1 ms at the full machine rate: long
    // enough that the timer's tens of µs of lateness stay small beside
    // even the shortest request.
    let bp = BoundedPareto::paper_default();
    let mean_cost = psd::dist::ServiceDistribution::mean(&bp);
    let cost_dist = ServiceDist::BoundedPareto(bp);

    let cfg = ServerConfig {
        deltas: vec![1.0, 2.0, 4.0], // premium : standard : basic = 1 : 2 : 4
        mean_cost,
        work_unit: Duration::from_millis(1),
        control_window: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = Arc::new(PsdServer::start(cfg));

    // Offered load ≈ 70% of the machine rate: 0.7 / (0.29 · 1 ms)
    // ≈ 2.4k req/s total, split evenly across tiers.
    let per_tier_rate = 0.7 / (mean_cost * 1e-3) / 3.0;
    println!("Driving 3 tiers at {per_tier_rate:.0} req/s each for 5 seconds...\n");

    let submitted = drive(
        &server,
        &[
            ClassTraffic { rate_per_s: per_tier_rate, cost: cost_dist.clone() },
            ClassTraffic { rate_per_s: per_tier_rate, cost: cost_dist.clone() },
            ClassTraffic { rate_per_s: per_tier_rate, cost: cost_dist },
        ],
        Duration::from_secs(5),
        7,
    );

    let stats = Arc::try_unwrap(server).ok().expect("driver threads joined").shutdown();

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
            submitted[i],
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
