//! The rate-partition discipline: one lane per class, the paper's
//! *serial* virtual task server (Fig. 1) with everything but the clock.
//!
//! Each class runs at its allocated fraction `r_i` of the machine rate.
//! At most one request per class is in service and its execution is
//! stretched by `1/r_i`, so each class is an independent M/G/1 at rate
//! `r_i` — the regime Eq. 17 was derived for. Non-work-conserving by
//! design: spare capacity of an idle class is *not* donated, which is
//! exactly what keeps the slowdown ratios pinned to the δ's.
//!
//! A lane is a `psd_control::Station` — the FCFS queue and task server
//! the simulator runs, in `PinnedRate` mode — with its `Seq` and the
//! class's [`Ledger`], under one mutex. Its time axis is seconds since
//! the executor's epoch, and every instant comes from the caller:
//! [`Lanes::submit`] hands a request to its station at its arrival and
//! says whether it went straight into service; [`Lanes::finish`]
//! departs the one in service at the station's own armed completion and
//! starts the next there (or at its arrival, if that is later). That is
//! the whole discipline; [`crate::wheel`] turns each armed completion
//! into a deadline and fires it.
//!
//! The lane is also the only place that counts anything about its
//! class: `submit` tallies an accepted arrival, [`Lanes::shed`] a door
//! rejection and `finish` a departure, each under the lock the
//! discipline takes anyway. [`Lanes::close_window`] reads and resets
//! every class's window under that lock, so the monitor's observation
//! of a class — arrivals, work, completions, slowdowns, backlog — is
//! one consistent snapshot, and its backlog at one close is the last
//! close's plus the arrivals less the completions in between.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use psd_core::control::{Job, Seq, ServiceMode, Station, WindowObservation};

use crate::locks::lock;
use crate::metrics::{Ledger, ServerStats};
use crate::server::Completion;

/// The lowest rate a lane's station serves at, whatever its share: a
/// class whose estimated load decays to the allocator's rate floor
/// (1e-4) must still run at ≥ 1 % of the machine rate — its service
/// stretched at most 100× — or its serial server wedges for longer than
/// every drain/client timeout on the first request after the lull.
const RATE_FLOOR: f64 = 0.01;

/// How a completed execution is reported back to the submitter: the
/// executing thread calls it with the receipt. A fire-and-forget
/// submitter passes a no-op, a blocked synchronous one
/// ([`crate::PsdServer::submit_sync`]) a channel send, and the reactor
/// a post into its mailbox.
pub(crate) type CompletionNotify = Box<dyn FnOnce(Completion) + Send>;

/// A request on its lane's station: when it arrived and its full-rate
/// service time, in seconds on the executor's time axis, and whom to
/// tell when it departs.
struct Request {
    arrival: f64,
    size: f64,
    notify: CompletionNotify,
}

impl Job for Request {
    fn arrival(&self) -> f64 {
        self.arrival
    }

    fn size(&self) -> f64 {
        self.size
    }
}

/// One class's serial virtual server and its ledger.
struct Lane {
    station: Station<Request>,
    seq: Seq,
    ledger: Ledger,
}

/// What [`Lanes::submit`] did with a request.
#[derive(Debug, PartialEq)]
pub(crate) enum Submitted {
    /// The lanes are closed; the request was dropped.
    Rejected,
    /// Its class is busy; it waits in the station's queue.
    Queued,
    /// Its class was idle: it is in service on lane `class` and
    /// completes at `at`.
    Start { class: usize, at: f64 },
}

/// Every class's lane plus the drain flag. No clock, no thread.
pub(crate) struct Lanes {
    lanes: Vec<Mutex<Lane>>,
    /// Seconds per work unit: a request's size is its cost times this.
    work_unit_s: f64,
    closed: AtomicBool,
}

impl Lanes {
    /// `n` idle lanes at an even rate split.
    pub(crate) fn new(n: usize, work_unit_s: f64) -> Self {
        assert!(n >= 1, "at least one class");
        let even = (1.0 / n as f64).max(RATE_FLOOR);
        let lane = || Lane {
            station: Station::new(even, ServiceMode::PinnedRate),
            seq: Seq::default(),
            ledger: Ledger::default(),
        };
        let lanes = (0..n).map(|_| Mutex::new(lane())).collect();
        Self { lanes, work_unit_s, closed: AtomicBool::default() }
    }

    /// Accept a class-`class` request of `cost` work units that arrived
    /// at `arrival` (an out-of-range class lands in the last lane).
    pub(crate) fn submit(
        &self,
        class: usize,
        cost: f64,
        notify: CompletionNotify,
        arrival: f64,
    ) -> Submitted {
        let class = class.min(self.lanes.len() - 1);
        let Lane { station, seq, ledger } = &mut *lock(&self.lanes[class]);
        // Checked under the lane lock: an executor that reads the flag
        // set and then finds this lane idle (see `drained`) knows no
        // submit slipped in between.
        if self.closed.load(Ordering::SeqCst) {
            return Submitted::Rejected;
        }
        ledger.arrive(cost);
        let idle = station.backlog() == 0;
        station.arrive(Request { arrival, size: cost * self.work_unit_s, notify }, seq);
        if idle {
            Submitted::Start { class, at: station.completion().0 }
        } else {
            Submitted::Queued
        }
    }

    /// A class-`class` request of `cost` work units was turned away at
    /// the door.
    pub(crate) fn shed(&self, class: usize, cost: f64) {
        lock(&self.lanes[class]).ledger.shed(cost);
    }

    /// `class`'s request in service departs at its station's armed
    /// completion, its receipt's service time running to `now` (when the
    /// executor fired it), and the station starts its next request
    /// there. The receipt's service time — and with it the slowdown the
    /// ledger, the exposition and the controller read — is therefore the
    /// station's stretched service `X/r_i` plus the executor's wakeup
    /// lateness, and nothing more. The departure is tallied, then its
    /// submitter is told, outside the lock — in that order, so the
    /// departure is counted before anyone can act on its reply. Returns
    /// when the next request completes, if one started.
    pub(crate) fn finish(&self, class: usize, now: f64) -> Option<f64> {
        let (notify, done, next) = {
            let Lane { station, seq, ledger } = &mut *lock(&self.lanes[class]);
            let departure = station.completion().0;
            let (request, start) = station.depart(departure);
            let done = Completion { delay_s: start - request.arrival, service_s: now - start };
            ledger.depart(&done);
            station.start_next(departure, seq);
            (request.notify, done, (station.backlog() > 0).then(|| station.completion().0))
        };
        notify(done);
        next
    }

    /// Hand each class's station its share of `weights` (normalized
    /// here) at `now`, floored at `RATE_FLOOR`. A request already in
    /// service keeps the rate it started with.
    pub(crate) fn set_weights(&self, weights: &[f64], now: f64) {
        let total: f64 = weights.iter().sum();
        for (lane, &w) in self.lanes.iter().zip(weights) {
            // Every weight zero gives 0/0, NaN, which the floor replaces.
            let rate = (w / total).max(RATE_FLOOR);
            let Lane { station, seq, .. } = &mut *lock(lane);
            station.set_rate(rate, now, seq);
        }
    }

    /// `class`'s requests queued or in service.
    pub(crate) fn backlog(&self, class: usize) -> usize {
        lock(&self.lanes[class]).station.backlog() as usize
    }

    /// Close control window `index` over `[start, end]`: every class's
    /// window tally and backlog, each read and reset under its lane's
    /// lock, with work scaled from units to seconds.
    pub(crate) fn close_window(&self, index: u64, start: f64, end: f64) -> WindowObservation {
        let classes = self.lanes.iter().map(|lane| {
            let mut lane = lock(lane);
            (lane.ledger.take_window(), lane.station.backlog())
        });
        WindowObservation::from_tallies(index, start, end, self.work_unit_s, classes)
    }

    /// Every class's lifetime counts and means.
    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats { classes: self.lanes.iter().map(|l| lock(l).ledger.stats()).collect() }
    }

    /// Stop accepting; what was accepted still drains.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Closed and nothing of `class` queued or in service. The flag is
    /// read first: once it is set, a lane seen idle stays idle.
    pub(crate) fn drained(&self, class: usize) -> bool {
        self.closed.load(Ordering::SeqCst) && self.backlog(class) == 0
    }

    /// [`Lanes::drained`] for every class.
    pub(crate) fn all_drained(&self) -> bool {
        (0..self.lanes.len()).all(|class| self.drained(class))
    }

    /// Requests accepted and not yet finished, all classes.
    pub(crate) fn in_flight(&self) -> usize {
        (0..self.lanes.len()).map(|class| self.backlog(class)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A request of `class` and `cost` arriving at `at` (one work unit
    /// is one second here).
    fn submit(lanes: &Lanes, class: usize, cost: f64, at: f64) -> Submitted {
        lanes.submit(class, cost, Box::new(|_| {}), at)
    }

    /// The rate a request of `class` starting now is served at: its
    /// execution is stretched by the inverse.
    fn rate(lanes: &Lanes, class: usize) -> f64 {
        lock(&lanes.lanes[class]).station.rate()
    }

    #[test]
    fn push_pop_roundtrip() {
        let lanes = Lanes::new(2, 1.0); // rate 1/2 each: stretch 2
        assert_eq!(submit(&lanes, 0, 1.0, 0.0), Submitted::Start { class: 0, at: 2.0 });
        assert_eq!(submit(&lanes, 0, 2.0, 0.5), Submitted::Queued);
        assert_eq!(submit(&lanes, 0, 3.0, 1.0), Submitted::Queued);
        assert_eq!((lanes.backlog(0), lanes.backlog(1), lanes.in_flight()), (3, 0, 3));
        // FIFO behind the head, each starting at its predecessor's
        // completion however late that was noticed, then the lane idles.
        assert_eq!(lanes.finish(0, 2.5), Some(2.0 + 4.0));
        assert_eq!(lanes.finish(0, 6.0), Some(6.0 + 6.0));
        assert_eq!(lanes.finish(0, 12.0), None);
        assert_eq!(lanes.in_flight(), 0);
        let again = submit(&lanes, 0, 4.0, 20.0);
        assert_eq!(again, Submitted::Start { class: 0, at: 28.0 }, "idle again: the next starts");
    }

    #[test]
    fn close_rejects_pushes_but_drains() {
        let lanes = Lanes::new(2, 1.0);
        submit(&lanes, 0, 1.0, 0.0);
        submit(&lanes, 0, 2.0, 0.0);
        lanes.close();
        assert_eq!(submit(&lanes, 1, 1.0, 0.0), Submitted::Rejected);
        assert!(lanes.drained(1) && !lanes.drained(0), "class 0 still has work");
        assert!(lanes.finish(0, 2.0).is_some(), "queued work drains");
        assert!(!lanes.all_drained(), "its last request is in service");
        assert!(lanes.finish(0, 6.0).is_none());
        assert!(lanes.all_drained());
        assert_eq!(lanes.in_flight(), 0);
    }

    #[test]
    fn paced_serializes_each_class() {
        let lanes = Lanes::new(2, 1.0);
        submit(&lanes, 0, 1.0, 0.0);
        assert_eq!(submit(&lanes, 0, 2.0, 0.0), Submitted::Queued, "class 0 is serial");
        let other = submit(&lanes, 1, 1.0, 0.0);
        assert_eq!(other, Submitted::Start { class: 1, at: 2.0 }, "class 1 is not held up");
        assert_eq!(lanes.finish(0, 2.0), Some(6.0), "starts only now");
        assert_eq!(submit(&lanes, 0, 3.0, 3.0), Submitted::Queued, "still one at a time");
    }

    /// The live case `Station::start_next` waits for: a request that
    /// arrived after its predecessor's completion but before the
    /// executor noticed it starts at its own arrival, and its receipt
    /// shows no queueing.
    #[test]
    fn a_request_arriving_after_an_unnoticed_completion_starts_on_arrival() {
        let lanes = Lanes::new(1, 1.0);
        let receipts = Arc::new(Mutex::new(Vec::new()));
        for at in [0.0, 1.25] {
            let receipts = Arc::clone(&receipts);
            lanes.submit(0, 1.0, Box::new(move |c| lock(&receipts).push(c)), at);
        }
        assert_eq!(lanes.finish(0, 1.5), Some(2.25), "fired late; the next arrived at 1.25");
        assert_eq!(lanes.finish(0, 2.25), None);
        let receipts: Vec<_> = lock(&receipts).iter().map(|c| (c.delay_s, c.service_s)).collect();
        assert_eq!(receipts, [(0.0, 1.5), (0.0, 1.0)], "neither queued behind the other");
    }

    #[test]
    fn paced_stretch_is_inverse_share() {
        let lanes = Lanes::new(2, 1.0);
        lanes.set_weights(&[0.8, 0.2], 0.0);
        let (s0, s1) = (1.0 / rate(&lanes, 0), 1.0 / rate(&lanes, 1));
        assert!((s0 - 1.25).abs() < 1e-9, "class 0 runs at 0.8× machine rate, stretch {s0}");
        assert!((s1 - 5.0).abs() < 1e-9, "class 1 runs at 0.2× machine rate, stretch {s1}");
    }

    #[test]
    fn paced_stretch_is_capped_for_starved_shares() {
        let lanes = Lanes::new(2, 1.0);
        // The allocator's rate floor (1e-4) must not wedge the class.
        lanes.set_weights(&[1.0, 1e-4], 0.0);
        let s = 1.0 / rate(&lanes, 1);
        assert!((s - 1.0 / RATE_FLOOR).abs() < 1e-9, "stretch capped, got {s}");
    }

    #[test]
    fn paced_even_split_by_default() {
        let lanes = Lanes::new(4, 1.0);
        assert!((1.0 / rate(&lanes, 2) - 4.0).abs() < 1e-9, "even split over 4 classes");
    }

    #[test]
    fn weights_update_applies() {
        let lanes = Lanes::new(2, 1.0);
        lanes.set_weights(&[3.0, 1.0], 0.0); // normalized here
        assert!((1.0 / rate(&lanes, 0) - 4.0 / 3.0).abs() < 1e-9);
        assert!((1.0 / rate(&lanes, 1) - 4.0).abs() < 1e-9);
        lanes.set_weights(&[0.5, 0.5], 0.0);
        assert!((1.0 / rate(&lanes, 0) - 2.0).abs() < 1e-9, "the latest weights win");
    }

    #[test]
    fn zero_weight_is_floored_not_fatal() {
        let lanes = Lanes::new(2, 1.0);
        lanes.set_weights(&[0.0, 1.0], 0.0);
        assert_eq!((rate(&lanes, 0), rate(&lanes, 1)), (RATE_FLOOR, 1.0));
        assert_eq!(submit(&lanes, 0, 1.0, 0.0), Submitted::Start { class: 0, at: 100.0 });
        lanes.set_weights(&[0.0, 0.0], 0.0);
        assert_eq!((rate(&lanes, 0), rate(&lanes, 1)), (RATE_FLOOR, RATE_FLOOR), "all zero");
    }

    #[test]
    fn out_of_range_class_lands_in_last_lane() {
        let lanes = Lanes::new(2, 1.0);
        assert!(matches!(submit(&lanes, 99, 1.0, 0.0), Submitted::Start { class: 1, .. }));
        assert_eq!(submit(&lanes, 99, 1.0, 0.0), Submitted::Queued);
        assert_eq!((lanes.backlog(0), lanes.backlog(1)), (0, 2), "in service + queued");
    }
}
