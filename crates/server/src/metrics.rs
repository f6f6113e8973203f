//! The per-class ledger: everything the server counts about a class.
//! A [`Ledger`] lives inside its class's lane (`crate::queues`) and is
//! written under the lane's lock by the critical sections that already
//! queue, start and finish the class's requests — an arrival, a shed
//! and a departure each cost a few additions there and nothing else.
//! Closing a control window reads and resets the window tally and reads
//! the backlog under that same lock, so a class's arrivals, work,
//! completions, slowdown sum and backlog all describe one instant.

use psd_core::control::WindowTally;

use crate::server::Completion;

/// Snapshot of one class's measured behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission (503, never executed).
    pub shed: u64,
    /// Mean queueing delay in seconds (enqueue → dispatch).
    pub mean_delay: f64,
    /// Mean service duration in seconds (dispatch → done).
    pub mean_service: f64,
    /// Mean slowdown (delay / service, per request).
    pub mean_slowdown: f64,
}

/// Snapshot over all classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Per-class stats, indexed by class.
    pub classes: Vec<ClassStats>,
}

impl ServerStats {
    /// Achieved slowdown ratio of class `i` vs class `j`, if both have
    /// completions and the denominator is positive.
    pub fn slowdown_ratio(&self, i: usize, j: usize) -> Option<f64> {
        let a = &self.classes[i];
        let b = &self.classes[j];
        (a.completed > 0 && b.completed > 0 && b.mean_slowdown > 0.0)
            .then(|| a.mean_slowdown / b.mean_slowdown)
    }
}

/// A class's counts since the server started.
#[derive(Debug, Default, Clone)]
struct Lifetime {
    completed: u64,
    shed: u64,
    delay_sum: f64,
    service_sum: f64,
    slowdown_sum: f64,
}

/// One class's window tally and lifetime tally. The window's work is in
/// work units; its close scales it to seconds.
#[derive(Debug, Default, Clone)]
pub(crate) struct Ledger {
    window: WindowTally,
    life: Lifetime,
}

impl Ledger {
    /// An accepted request of `cost` work units.
    pub(crate) fn arrive(&mut self, cost: f64) {
        self.window.arrive(cost);
    }

    /// A request of `cost` work units rejected at the door. The
    /// admission controller must see **offered** load — admitted plus
    /// shed — or it would equilibrate above its cap: post-shed load
    /// looks compliant the moment the shedding works.
    pub(crate) fn shed(&mut self, cost: f64) {
        self.window.shed(cost);
        self.life.shed += 1;
    }

    /// A departure.
    pub(crate) fn depart(&mut self, done: &Completion) {
        let slowdown = done.slowdown();
        self.window.depart(slowdown);
        self.life.completed += 1;
        self.life.delay_sum += done.delay_s;
        self.life.service_sum += done.service_s;
        self.life.slowdown_sum += slowdown;
    }

    /// The window now open; the next one opens empty.
    pub(crate) fn take_window(&mut self) -> WindowTally {
        std::mem::take(&mut self.window)
    }

    /// Lifetime means; zeros before the first departure.
    pub(crate) fn stats(&self) -> ClassStats {
        let l = &self.life;
        let mean = |sum: f64| if l.completed > 0 { sum / l.completed as f64 } else { 0.0 };
        ClassStats {
            completed: l.completed,
            shed: l.shed,
            mean_delay: mean(l.delay_sum),
            mean_service: mean(l.service_sum),
            mean_slowdown: mean(l.slowdown_sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use psd_core::control::WindowObservation;

    use super::{ClassStats, Ledger, ServerStats};
    use crate::server::Completion;

    /// A one-work-unit request of `class` is accepted and departs after
    /// waiting `delay_s` and taking `service_s`.
    fn serve(ledgers: &mut [Ledger], class: usize, delay_s: f64, service_s: f64) {
        ledgers[class].arrive(1.0);
        ledgers[class].depart(&Completion { delay_s, service_s });
    }

    fn stats(ledgers: &[Ledger]) -> ServerStats {
        ServerStats { classes: ledgers.iter().map(Ledger::stats).collect() }
    }

    /// Close the window with `work_unit_s` seconds per work unit, as
    /// the lanes do (backlogs zero).
    fn close_window(ledgers: &mut [Ledger], work_unit_s: f64) -> WindowObservation {
        let classes = ledgers.iter_mut().map(|l| (l.take_window(), 0));
        WindowObservation::from_tallies(0, 0.0, 1.0, work_unit_s, classes)
    }

    #[test]
    fn record_and_snapshot() {
        let mut l = vec![Ledger::default(); 2];
        serve(&mut l, 0, 1.0, 0.5); // slowdown 2
        serve(&mut l, 0, 3.0, 0.5); // slowdown 6
        serve(&mut l, 1, 1.0, 1.0); // slowdown 1
        let snap = stats(&l);
        let (c0, c1) = (&snap.classes[0], &snap.classes[1]);
        assert_eq!((c0.completed, c0.mean_delay, c0.mean_service), (2, 2.0, 0.5));
        assert_eq!((c0.mean_slowdown, c1.completed), (4.0, 1));
        assert_eq!(snap.slowdown_ratio(0, 1), Some(4.0));
    }

    #[test]
    fn empty_ratio_is_none() {
        let mut l = vec![Ledger::default(); 2];
        serve(&mut l, 0, 1.0, 1.0);
        assert!(stats(&l).slowdown_ratio(0, 1).is_none(), "class 1 never departed");
        assert!(stats(&l).slowdown_ratio(1, 0).is_none());
    }

    #[test]
    fn zero_service_guarded() {
        let mut l = vec![Ledger::default(); 1];
        serve(&mut l, 0, 1.0, 0.0);
        assert!(stats(&l).classes[0].mean_slowdown.is_finite());
        assert!(close_window(&mut l, 1.0).slowdown_sums[0].is_finite());
    }

    #[test]
    fn empty_lanes_snapshot_zeroes() {
        let snap = stats(&vec![Ledger::default(); 3]);
        assert_eq!(snap.classes.len(), 3);
        // Counts and means are never negative: all zero iff they sum to 0.
        let sum = |c: &ClassStats| {
            (c.completed + c.shed, c.mean_delay + c.mean_service + c.mean_slowdown)
        };
        assert!(snap.classes.iter().all(|c| sum(c) == (0, 0.0)));
    }

    /// Read-and-reset semantics: a departure lands in exactly one
    /// window, and closing one leaves the lifetime snapshot alone.
    #[test]
    fn closed_windows_never_double_count() {
        let mut l = vec![Ledger::default(); 2];
        serve(&mut l, 0, 1.0, 0.5); // slowdown 2
        serve(&mut l, 0, 3.0, 0.5); // slowdown 6
        serve(&mut l, 1, 1.0, 1.0); // slowdown 1
        l[1].shed(2.0);
        let w = close_window(&mut l, 0.5); // work units scaled to seconds
        assert_eq!((w.arrivals, w.completions), (vec![2, 1], vec![2, 1]));
        assert_eq!((w.arrived_work, w.shed_work), (vec![1.0, 0.5], vec![0.0, 1.0]));
        assert_eq!(w.slowdown_sums, vec![8.0, 1.0]);
        serve(&mut l, 1, 2.0, 1.0);
        let w = close_window(&mut l, 0.5);
        assert_eq!((w.arrivals, w.shed_work), (vec![0, 1], vec![0.0, 0.0]), "only new events");
        assert_eq!((w.completions, w.slowdown_sums), (vec![0, 1], vec![0.0, 2.0]));
        let lifetime: Vec<_> = stats(&l).classes.iter().map(|c| (c.completed, c.shed)).collect();
        assert_eq!(lifetime, vec![(2, 0), (2, 1)]);
    }

    /// An empty window must surface to the controller as `None` mean
    /// slowdowns — never NaN.
    #[test]
    fn empty_window_yields_none_not_nan() {
        let obs = close_window(&mut vec![Ledger::default(); 2], 1.0);
        assert_eq!(
            (obs.completions.clone(), obs.slowdown_sums.clone()),
            (vec![0, 0], vec![0.0, 0.0])
        );
        assert_eq!(obs.mean_slowdowns(), vec![None, None], "no departures ⇒ None, not NaN");
    }
}
