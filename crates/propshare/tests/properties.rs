//! Property tests of WFQ and the GPS fluid reference: no work is ever
//! lost or invented, FIFO order holds within a class, and WFQ's
//! dispatched work stays within its fairness bound of GPS.
//!
//! Each property runs 48 seeded cases whose inputs are drawn from
//! `Xoshiro256pp::seed_from(seed)`. A failure names its seed, which
//! replays the case exactly.

// The class index is used against several parallel arrays at once, so
// indexed loops read better than zipped enumerations here.
#![allow(clippy::needless_range_loop)]

use psd_dist::rng::Xoshiro256pp;
use psd_propshare::{GpsFluid, ProportionalScheduler, Wfq, WorkItem};

/// Run `case` once per seed, each with its own generator.
fn each_seed(mut case: impl FnMut(u64, &mut Xoshiro256pp)) {
    for seed in 0..48 {
        case(seed, &mut Xoshiro256pp::seed_from(seed));
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Uniform integer in `[lo, hi)`.
fn between(rng: &mut Xoshiro256pp, lo: usize, hi: usize) -> usize {
    lo + (rng.next_f64() * (hi - lo) as f64) as usize
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue { class: usize, cost: f64 },
    Dequeue,
}

/// 1–199 ops, three enqueues to every two dequeues.
fn ops(rng: &mut Xoshiro256pp, n_classes: usize) -> Vec<Op> {
    let len = between(rng, 1, 200);
    (0..len)
        .map(|_| match between(rng, 0, 5) {
            0..=2 => {
                Op::Enqueue { class: between(rng, 0, n_classes), cost: uniform(rng, 0.01, 20.0) }
            }
            _ => Op::Dequeue,
        })
        .collect()
}

fn weights(rng: &mut Xoshiro256pp, n: usize) -> Vec<f64> {
    (0..n).map(|_| uniform(rng, 0.1, 10.0)).collect()
}

/// Drive an op sequence and check conservation + class FIFO.
fn check_conservation<S: ProportionalScheduler>(seed: u64, mut s: S, ops: Vec<Op>) {
    let n = s.num_classes();
    let mut next_id = 0u64;
    let mut enqueued = vec![0usize; n];
    let mut dispatched = vec![0usize; n];
    let mut last_dispatched_id = vec![None::<u64>; n];
    for op in ops {
        match op {
            Op::Enqueue { class, cost } => {
                s.enqueue(class, WorkItem { id: next_id, cost });
                // ids increase monotonically per class because they are global
                next_id += 1;
                enqueued[class] += 1;
            }
            Op::Dequeue => {
                if let Some((class, item)) = s.dequeue() {
                    dispatched[class] += 1;
                    // FIFO within a class: ids per class must ascend.
                    if let Some(prev) = last_dispatched_id[class] {
                        assert!(item.id > prev, "seed {seed}: class {class} broke FIFO");
                    }
                    last_dispatched_id[class] = Some(item.id);
                }
            }
        }
    }
    // Conservation: backlog + dispatched == enqueued, per class.
    for c in 0..n {
        assert_eq!(s.backlog(c) + dispatched[c], enqueued[c], "seed {seed}: class {c} leaked work");
    }
    // Draining yields exactly the backlog.
    let mut drained = 0;
    while s.dequeue().is_some() {
        drained += 1;
        assert!(drained <= enqueued.iter().sum::<usize>(), "seed {seed}: infinite drain");
    }
    assert!(s.is_empty(), "seed {seed}: not empty after the drain");
}

#[test]
fn wfq_conserves() {
    each_seed(|seed, rng| {
        let w = weights(rng, 3);
        check_conservation(seed, Wfq::new(w), ops(rng, 3));
    });
}

/// With everything continuously backlogged, WFQ's dispatched work
/// per class stays within a bounded distance of the GPS fluid ideal
/// (one maximal item per class — SFQ's fairness bound).
#[test]
fn wfq_tracks_gps() {
    each_seed(|seed, rng| {
        let w = weights(rng, 2);
        let mut wfq = Wfq::new(w.clone());
        let mut gps = GpsFluid::new(w, 1.0);
        let mut id = 0u64;
        let max_cost = 3.0;
        // Prime both with identical backlogs.
        for class in 0..2 {
            for _ in 0..400 {
                let cost = uniform(rng, 0.1, max_cost);
                wfq.enqueue(class, WorkItem { id, cost });
                gps.add_work(class, cost);
                id += 1;
            }
        }
        // Dispatch a bounded amount of work through WFQ and advance GPS
        // by the same total.
        let mut done = [0.0f64; 2];
        let mut total = 0.0;
        while total < 100.0 {
            let (c, item) = wfq.dequeue().expect("deep backlog");
            done[c] += item.cost;
            total += item.cost;
        }
        gps.advance(total);
        for c in 0..2 {
            let diff = (done[c] - gps.served(c)).abs();
            // SFQ lag bound: one maximal item per *busy* class, plus the
            // in-flight item.
            assert!(diff <= 2.0 * max_cost + 1e-6, "seed {seed}: class {c} lags gps by {diff}");
        }
    });
}

/// GPS fluid never serves more than capacity·dt in total, and never
/// serves an empty class.
#[test]
fn gps_capacity_bound() {
    each_seed(|seed, rng| {
        let mut g = GpsFluid::new(weights(rng, 3), 2.0);
        let mut offered = [0.0f64; 3];
        for _ in 0..between(rng, 1, 30) {
            let (c, work) = (between(rng, 0, 3), uniform(rng, 0.1, 5.0));
            g.add_work(c, work);
            offered[c] += work;
        }
        let dt = uniform(rng, 0.1, 50.0);
        g.advance(dt);
        let mut total_served = 0.0;
        for c in 0..3 {
            assert!(g.served(c) <= offered[c] + 1e-9, "seed {seed}: served more than offered");
            total_served += g.served(c);
        }
        assert!(total_served <= 2.0 * dt + 1e-9, "seed {seed}: capacity exceeded");
        // Work conservation: served + backlog == offered.
        for c in 0..3 {
            assert!(
                (g.served(c) + g.backlog(c) - offered[c]).abs() < 1e-9,
                "seed {seed}: class {c}"
            );
        }
    });
}
