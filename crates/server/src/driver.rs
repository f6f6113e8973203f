//! Open-loop load driver: per-class Poisson client threads submitting
//! requests with configurable cost distributions against a running
//! [`crate::PsdServer`] — the in-process equivalent of the paper's
//! "request generators".

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psd_dist::rng::{SplitMix64, Xoshiro256pp};
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::server::PsdServer;
use crate::timing;

/// Per-class traffic description for the driver.
#[derive(Debug, Clone)]
pub struct ClassTraffic {
    /// Poisson arrival rate in requests per second.
    pub rate_per_s: f64,
    /// Cost distribution (work units per request).
    pub cost: ServiceDist,
}

/// Drive `server` with open-loop Poisson traffic for `duration`.
///
/// One thread per class; each derives its RNG from `seed` and the class
/// index, so a run is reproducible up to OS scheduling jitter in the
/// *service* (arrival instants are deterministic targets).
/// Returns the number of requests submitted per class.
pub fn drive(
    server: &Arc<PsdServer>,
    traffic: &[ClassTraffic],
    duration: Duration,
    seed: u64,
) -> Vec<u64> {
    assert!(!traffic.is_empty(), "no traffic classes");
    assert!(traffic.len() <= server.num_classes(), "more traffic classes than server classes");
    let mut handles = Vec::new();
    for (class, spec) in traffic.iter().enumerate() {
        assert!(spec.rate_per_s > 0.0, "class {class} has non-positive rate");
        let server = Arc::clone(server);
        let spec = spec.clone();
        let class_seed = SplitMix64::derive(seed, class as u64 + 1);
        handles.push(thread::spawn(move || {
            let mut rng = Xoshiro256pp::seed_from(class_seed);
            let start = Instant::now();
            let mut next_at = Duration::ZERO;
            let mut submitted = 0u64;
            loop {
                // Exponential interarrival.
                let gap = -rng.next_open_f64().ln() / spec.rate_per_s;
                next_at += Duration::from_secs_f64(gap);
                if next_at >= duration {
                    break;
                }
                // Compensated pacing (shared `timing` calibration):
                // uncompensated `thread::sleep` overshoots ~50–150 µs
                // per arrival, which at thousands of arrivals per
                // second quietly drops the offered load below target.
                timing::sleep_until(start + next_at);
                let cost = spec.cost.sample(&mut rng).max(1e-3);
                // The same admission gate the HTTP engines apply: a
                // shed arrival never enters the system (visible in
                // `ServerStats::shed`, not in the submitted count).
                if !server.admit(class, cost) {
                    continue;
                }
                if !server.submit(class, cost) {
                    break; // server shutting down
                }
                submitted += 1;
            }
            submitted
        }));
    }
    handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use psd_dist::Deterministic;

    fn server(deltas: Vec<f64>) -> Arc<PsdServer> {
        Arc::new(PsdServer::start(ServerConfig {
            deltas,
            work_unit: Duration::from_micros(100),
            ..ServerConfig::default()
        }))
    }

    #[test]
    fn drives_roughly_the_requested_rate() {
        let s = server(vec![1.0, 2.0]);
        let det = ServiceDist::Deterministic(Deterministic::new(1.0).unwrap());
        let submitted = drive(
            &s,
            &[
                ClassTraffic { rate_per_s: 400.0, cost: det.clone() },
                ClassTraffic { rate_per_s: 400.0, cost: det },
            ],
            Duration::from_millis(400),
            7,
        );
        // Expect ≈ 160 per class; allow wide jitter for CI machines.
        for (i, &n) in submitted.iter().enumerate() {
            assert!((80..280).contains(&(n as usize)), "class {i} submitted {n}");
        }
        let stats = Arc::try_unwrap(s).ok().expect("sole owner").shutdown();
        let done: u64 = stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(done, submitted.iter().sum::<u64>(), "everything drains");
    }

    #[test]
    #[should_panic(expected = "more traffic classes")]
    fn too_many_classes_rejected() {
        let s = server(vec![1.0]);
        let det = ServiceDist::Deterministic(Deterministic::new(1.0).unwrap());
        drive(
            &s,
            &[
                ClassTraffic { rate_per_s: 1.0, cost: det.clone() },
                ClassTraffic { rate_per_s: 1.0, cost: det },
            ],
            Duration::from_millis(10),
            1,
        );
    }
}
