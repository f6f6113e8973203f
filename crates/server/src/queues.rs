//! The rate-partition discipline: one [`Lane`] per class, the paper's
//! *serial* virtual task server (Fig. 1) with everything but the clock.
//!
//! Each class runs at its allocated fraction `r_i` of the machine rate.
//! At most one request per class is in service and its execution is
//! stretched by `1/r_i`, so each class is an independent M/G/1 at rate
//! `r_i` — the regime Eq. 17 was derived for. Non-work-conserving by
//! design: spare capacity of an idle class is *not* donated, which is
//! exactly what keeps the slowdown ratios pinned to the δ's.
//!
//! A lane is the share (read lock-free at service start), the FIFO
//! behind the in-service head, and a `busy` flag. [`Lanes::submit`]
//! either queues a request or tells the caller to start it;
//! [`Lanes::finish`] hands back the next one or idles the lane. That is
//! the whole discipline; [`crate::wheel`] supplies the time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::channel::Sender;
use parking_lot::Mutex;

use crate::server::Completion;

/// Shares below this floor are clamped before the `1/r` stretch.
const MIN_SHARE: f64 = 1e-6;

/// Ceiling on the execution stretch: a class whose estimated load
/// decays to the allocator's rate floor must still run at ≥1% of the
/// machine rate, or its serial server wedges for longer than every
/// drain/client timeout on the first request after the lull.
const MAX_STRETCH: f64 = 100.0;

/// How a completed execution is reported back to the submitter.
pub(crate) enum CompletionNotify {
    /// Fire-and-forget: nobody is waiting.
    None,
    /// A blocked synchronous submitter ([`crate::PsdServer::submit_sync`]).
    Channel(Sender<Completion>),
    /// An event-driven submitter: the executing thread invokes the
    /// callback — the reactor uses this to post the completion into its
    /// mailbox and ring its poller, instead of parking a whole
    /// connection thread per in-flight request.
    Callback(Box<dyn FnOnce(Completion) + Send>),
}

impl CompletionNotify {
    pub(crate) fn deliver(self, done: Completion) {
        match self {
            CompletionNotify::None => {}
            CompletionNotify::Channel(tx) => {
                let _ = tx.send(done);
            }
            CompletionNotify::Callback(f) => f(done),
        }
    }
}

/// A request queued for execution.
pub(crate) struct QueuedRequest {
    /// Class index (clamped to the last class on submit).
    pub(crate) class: usize,
    /// Work units to execute.
    pub(crate) cost: f64,
    /// Enqueue instant (queueing delay is measured from here).
    pub(crate) enqueued: Instant,
    /// Completion notification for the submitter.
    pub(crate) notify: CompletionNotify,
}

/// One class's serial virtual server.
struct Lane {
    /// `r_i` as f64 bits; read without any lock at service start.
    share: AtomicU64,
    queue: Mutex<LaneQueue>,
}

#[derive(Default)]
struct LaneQueue {
    /// Requests waiting behind the in-service head.
    fifo: VecDeque<QueuedRequest>,
    /// Whether a request of this class is in service.
    busy: bool,
}

/// What [`Lanes::submit`] did with a request.
pub(crate) enum Submitted {
    /// The lanes are closed; the request was dropped.
    Rejected,
    /// Its class is busy; it waits in the FIFO.
    Queued,
    /// Its class was idle and is now busy: the caller starts service.
    Start(QueuedRequest),
}

/// Every class's lane plus the drain bookkeeping. No clock, no thread.
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    closed: AtomicBool,
    /// Requests accepted and not yet finished (queued or in service);
    /// an occupancy gauge — draining is decided by [`Lanes::drained`].
    in_flight: AtomicUsize,
}

impl Lanes {
    /// `n` idle lanes at an even rate split.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one class");
        let even = (1.0 / n as f64).to_bits();
        Self {
            lanes: (0..n)
                .map(|_| Lane {
                    share: AtomicU64::new(even),
                    queue: Mutex::new(LaneQueue::default()),
                })
                .collect(),
            closed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Accept `req` into its class's lane (an out-of-range class lands
    /// in the last one).
    pub(crate) fn submit(&self, mut req: QueuedRequest) -> Submitted {
        req.class = req.class.min(self.lanes.len() - 1);
        let mut q = self.lanes[req.class].queue.lock();
        // Checked under the lane lock: an executor that reads the flag
        // set and then finds this lane idle (see `drained`) knows no
        // submit slipped in between.
        if self.closed.load(Ordering::SeqCst) {
            return Submitted::Rejected;
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if q.busy {
            q.fifo.push_back(req);
            Submitted::Queued
        } else {
            q.busy = true;
            Submitted::Start(req)
        }
    }

    /// `class`'s in-service request is done: the FIFO head to start
    /// next, or `None` and the lane goes idle.
    pub(crate) fn finish(&self, class: usize) -> Option<QueuedRequest> {
        let next = {
            let mut q = self.lanes[class].queue.lock();
            let next = q.fifo.pop_front();
            q.busy = next.is_some();
            next
        };
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        next
    }

    /// The execution stretch a service starting now on `class` gets:
    /// `1/r_i`, capped. A request already in service keeps the stretch
    /// it started with.
    pub(crate) fn stretch(&self, class: usize) -> f64 {
        let share = f64::from_bits(self.lanes[class].share.load(Ordering::Relaxed));
        (1.0 / share.max(MIN_SHARE)).min(MAX_STRETCH)
    }

    /// Update the per-class rate shares (normalized here).
    pub(crate) fn set_weights(&self, weights: &[f64]) {
        let total: f64 = weights.iter().map(|&w| w.max(MIN_SHARE)).sum();
        for (lane, &w) in self.lanes.iter().zip(weights) {
            lane.share.store((w.max(MIN_SHARE) / total).to_bits(), Ordering::Relaxed);
        }
    }

    /// Requests queued behind `class`'s in-service head.
    pub(crate) fn backlog(&self, class: usize) -> usize {
        self.lanes[class].queue.lock().fifo.len()
    }

    /// Stop accepting; what was accepted still drains.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Closed and nothing of `class` queued, in service or about to be
    /// started. The flag is read first: once it is set, a lane seen
    /// idle stays idle.
    pub(crate) fn drained(&self, class: usize) -> bool {
        self.closed.load(Ordering::SeqCst) && !self.lanes[class].queue.lock().busy
    }

    /// [`Lanes::drained`] for every class.
    pub(crate) fn all_drained(&self) -> bool {
        (0..self.lanes.len()).all(|class| self.drained(class))
    }

    /// Requests accepted and not yet finished.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn req(class: usize, cost: f64) -> QueuedRequest {
        QueuedRequest { class, cost, enqueued: Instant::now(), notify: CompletionNotify::None }
    }

    /// Submit to a lane that must be idle; the request comes back to be
    /// started.
    fn start(lanes: &Lanes, class: usize, cost: f64) -> QueuedRequest {
        match lanes.submit(req(class, cost)) {
            Submitted::Start(r) => r,
            _ => panic!("lane {class} should have been idle"),
        }
    }

    #[test]
    fn push_pop_roundtrip() {
        let lanes = Lanes::new(2);
        assert_eq!(start(&lanes, 0, 1.0).cost, 1.0);
        assert!(matches!(lanes.submit(req(0, 2.0)), Submitted::Queued));
        assert!(matches!(lanes.submit(req(0, 3.0)), Submitted::Queued));
        assert_eq!((lanes.backlog(0), lanes.backlog(1), lanes.in_flight()), (2, 0, 3));
        // FIFO behind the head, then the lane idles.
        assert_eq!(lanes.finish(0).map(|r| r.cost), Some(2.0));
        assert_eq!(lanes.finish(0).map(|r| r.cost), Some(3.0));
        assert!(lanes.finish(0).is_none());
        assert_eq!(lanes.in_flight(), 0);
        assert_eq!(start(&lanes, 0, 4.0).cost, 4.0, "idle again: the next submit starts");
    }

    #[test]
    fn close_rejects_pushes_but_drains() {
        let lanes = Lanes::new(2);
        start(&lanes, 0, 1.0);
        lanes.submit(req(0, 2.0));
        lanes.close();
        assert!(matches!(lanes.submit(req(1, 1.0)), Submitted::Rejected));
        assert!(lanes.drained(1) && !lanes.drained(0), "class 0 still has work");
        assert!(lanes.finish(0).is_some(), "queued work drains");
        assert!(!lanes.all_drained(), "its last request is in service");
        assert!(lanes.finish(0).is_none());
        assert!(lanes.all_drained());
        assert_eq!(lanes.in_flight(), 0);
    }

    #[test]
    fn paced_serializes_each_class() {
        let lanes = Lanes::new(2);
        start(&lanes, 0, 1.0);
        assert!(matches!(lanes.submit(req(0, 2.0)), Submitted::Queued), "class 0 is serial");
        start(&lanes, 1, 1.0); // class 1 is not held up by class 0
        assert_eq!(lanes.finish(0).map(|r| r.cost), Some(2.0), "starts only now");
        assert!(matches!(lanes.submit(req(0, 3.0)), Submitted::Queued), "still one at a time");
    }

    #[test]
    fn paced_stretch_is_inverse_share() {
        let lanes = Lanes::new(2);
        lanes.set_weights(&[0.8, 0.2]);
        let (s0, s1) = (lanes.stretch(0), lanes.stretch(1));
        assert!((s0 - 1.25).abs() < 1e-9, "class 0 runs at 0.8× machine rate, stretch {s0}");
        assert!((s1 - 5.0).abs() < 1e-9, "class 1 runs at 0.2× machine rate, stretch {s1}");
    }

    #[test]
    fn paced_stretch_is_capped_for_starved_shares() {
        let lanes = Lanes::new(2);
        // The allocator's rate floor (1e-4) must not wedge the class.
        lanes.set_weights(&[1.0, 1e-4]);
        let s = lanes.stretch(1);
        assert!((s - MAX_STRETCH).abs() < 1e-9, "stretch capped, got {s}");
    }

    #[test]
    fn paced_even_split_by_default() {
        let lanes = Lanes::new(4);
        assert!((lanes.stretch(2) - 4.0).abs() < 1e-9, "even split over 4 classes");
    }

    #[test]
    fn weights_update_applies() {
        let lanes = Lanes::new(2);
        lanes.set_weights(&[3.0, 1.0]); // normalized here
        assert!((lanes.stretch(0) - 4.0 / 3.0).abs() < 1e-9);
        assert!((lanes.stretch(1) - 4.0).abs() < 1e-9);
        lanes.set_weights(&[0.5, 0.5]);
        assert!((lanes.stretch(0) - 2.0).abs() < 1e-9, "the latest weights win");
    }

    #[test]
    fn zero_weight_is_floored_not_fatal() {
        let lanes = Lanes::new(2);
        lanes.set_weights(&[0.0, 1.0]);
        // Share MIN_SHARE/(1 + MIN_SHARE): 1/share is finite, then capped.
        assert_eq!(lanes.stretch(0), MAX_STRETCH);
        assert!((lanes.stretch(1) - 1.0).abs() < 1e-5);
        start(&lanes, 0, 1.0);
    }

    #[test]
    fn out_of_range_class_lands_in_last_lane() {
        let lanes = Lanes::new(2);
        assert_eq!(start(&lanes, 99, 1.0).class, 1, "clamped on submit");
        assert!(matches!(lanes.submit(req(99, 1.0)), Submitted::Queued));
        assert_eq!((lanes.backlog(0), lanes.backlog(1)), (0, 1));
    }

    #[test]
    fn callback_notify_fires_on_deliver() {
        let hit = Arc::new(AtomicBool::new(false));
        let hit2 = Arc::clone(&hit);
        let notify = CompletionNotify::Callback(Box::new(move |done: Completion| {
            assert!(done.delay_s >= 0.0);
            hit2.store(true, Ordering::SeqCst);
        }));
        notify.deliver(Completion { delay_s: 0.5, service_s: 1.0 });
        assert!(hit.load(Ordering::SeqCst));
    }
}
