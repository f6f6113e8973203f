//! # psd-propshare — proportional-share scheduling substrate
//!
//! The PSD paper *assumes* "that the processing rate of an Internet
//! server can be proportionally allocated to a number of task servers",
//! citing GPS, PGPS and lottery scheduling as the base (§1, §2.2). The
//! live server implements that split directly as Fig. 1's rate
//! partition, so no request goes through this crate. What is left is the
//! packetized kernel `benchmark/` times (`propshare.wfq_cycle_ns`) and
//! the fluid ideal it is checked against:
//!
//! * [`GpsFluid`] — the idealized Generalized Processor Sharing fluid
//!   reference (continuous, infinitely divisible service). Used as the
//!   ground truth that [`Wfq`] is tested against.
//! * [`Wfq`] — start-time fair queueing, the practical packet-by-packet
//!   approximation of GPS (the PGPS family); serves whole requests in
//!   ascending virtual start-tag order.
//!
//! [`Wfq`] implements [`ProportionalScheduler`]: with all classes
//! continuously backlogged, the long-run fraction of *work* dispatched
//! for class `i` converges to `w_i / Σw_j`.
//!
//! ```
//! use psd_propshare::{ProportionalScheduler, Wfq, WorkItem};
//!
//! let mut s = Wfq::new(vec![2.0, 1.0]); // class 0 gets 2/3 of the work
//! s.enqueue(0, WorkItem { id: 1, cost: 1.0 });
//! s.enqueue(1, WorkItem { id: 2, cost: 1.0 });
//! s.enqueue(0, WorkItem { id: 3, cost: 1.0 });
//! let (class, item) = s.dequeue().unwrap();
//! assert_eq!((class, item.id), (0, 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gps;
mod scheduler;
mod wfq;

pub use gps::GpsFluid;
pub use scheduler::{ProportionalScheduler, WorkItem};
pub use wfq::Wfq;

#[cfg(test)]
mod fairness_tests {
    //! The fairness suite: WFQ must track the GPS fluid shares when all
    //! classes stay backlogged.

    use super::*;
    use psd_dist::rng::Xoshiro256pp;

    /// Keep every class backlogged, dispatch `total` work items with
    /// random costs, and return per-class dispatched work fractions.
    fn dispatch_fractions<S: ProportionalScheduler>(mut s: S, items: usize, seed: u64) -> Vec<f64> {
        let n = s.num_classes();
        let mut rng = Xoshiro256pp::seed_from(seed);
        let mut next_id = 0u64;
        let mut work = vec![0.0f64; n];
        // Prime each class with a few items.
        for class in 0..n {
            for _ in 0..4 {
                let cost = 0.5 + (rng.next_u64() % 100) as f64 / 50.0;
                s.enqueue(class, WorkItem { id: next_id, cost });
                next_id += 1;
            }
        }
        for _ in 0..items {
            let (class, item) = s.dequeue().expect("kept backlogged");
            work[class] += item.cost;
            // Refill the class we just drained to keep it backlogged.
            let cost = 0.5 + (rng.next_u64() % 100) as f64 / 50.0;
            s.enqueue(class, WorkItem { id: next_id, cost });
            next_id += 1;
        }
        let total: f64 = work.iter().sum();
        work.iter().map(|w| w / total).collect()
    }

    fn assert_tracks_weights(fractions: &[f64], weights: &[f64], tol: f64, label: &str) {
        let wsum: f64 = weights.iter().sum();
        for (i, (&f, &w)) in fractions.iter().zip(weights).enumerate() {
            let want = w / wsum;
            assert!(
                (f - want).abs() < tol,
                "{label}: class {i} got fraction {f:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn wfq_tracks_weights() {
        let w = vec![1.0, 2.0, 4.0];
        let f = dispatch_fractions(Wfq::new(w.clone()), 30_000, 1);
        assert_tracks_weights(&f, &w, 0.01, "wfq");
    }

    #[test]
    fn skewed_weights_still_fair() {
        let w = vec![1.0, 10.0, 100.0];
        let f = dispatch_fractions(Wfq::new(w.clone()), 60_000, 5);
        assert_tracks_weights(&f, &w, 0.01, "wfq skewed");
    }
}
