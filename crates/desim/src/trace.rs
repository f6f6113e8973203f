//! Optional per-request tracing inside a time range — the data behind
//! the paper's short-timescale plots (Figs 7 and 8: slowdowns of
//! individual requests between t = 60 000 and t = 61 000).

use crate::request::CompletedRequest;

/// A traced departure.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Class index.
    pub class: usize,
    /// Request id: unique, and increasing in arrival order within the
    /// class (ids of different classes are not comparable).
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Departure time.
    pub departure: f64,
    /// Measured slowdown.
    pub slowdown: f64,
}

/// Records departures whose departure time falls in `[from, to)`.
///
/// Departures may be offered class by class rather than in time order
/// (the engine advances each class through a control window on its
/// own); [`Tracer::into_records`] puts them in departure order.
#[derive(Debug)]
pub struct Tracer {
    from: f64,
    to: f64,
    records: Vec<TraceRecord>,
}

impl Tracer {
    /// Trace departures in `[from, to)`.
    pub fn new(from: f64, to: f64) -> Self {
        assert!(to > from, "empty trace range");
        Self { from, to, records: Vec::new() }
    }

    /// Offer a departure to the tracer.
    pub fn offer(&mut self, done: &CompletedRequest) {
        if done.departure >= self.from && done.departure < self.to {
            self.records.push(TraceRecord {
                class: done.request.class,
                id: done.request.id,
                arrival: done.request.arrival,
                departure: done.departure,
                slowdown: done.slowdown(),
            });
        }
    }

    /// Consume the tracer, returning records in departure order. The
    /// sort is stable, so records that depart at exactly the same
    /// instant stay in the order they were offered: one class's in FCFS
    /// order, and those of different classes — a tie the model does not
    /// define, and the one a global event counter used to decide — in
    /// class order within a control window.
    pub fn into_records(mut self) -> Vec<TraceRecord> {
        self.records.sort_by(|a, b| a.departure.total_cmp(&b.departure));
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn done(depart: f64) -> CompletedRequest {
        CompletedRequest {
            request: Request { id: 9, class: 1, size: 1.0, arrival: depart - 3.0 },
            service_start: depart - 1.0,
            departure: depart,
        }
    }

    #[test]
    fn range_filtering() {
        let mut t = Tracer::new(10.0, 20.0);
        t.offer(&done(5.0));
        t.offer(&done(10.0));
        t.offer(&done(19.999));
        t.offer(&done(20.0));
        let r = t.into_records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].departure, 10.0);
        assert_eq!(r[0].slowdown, 2.0);
        assert_eq!(r[0].class, 1);
    }

    /// Offered class by class over one stretch of time, returned in
    /// departure order with ties left as offered.
    #[test]
    fn records_come_back_in_departure_order() {
        let offer = |t: &mut Tracer, class: usize, id: u64, depart: f64| {
            t.offer(&CompletedRequest {
                request: Request { id, class, size: 1.0, arrival: 0.0 },
                service_start: depart - 1.0,
                departure: depart,
            })
        };
        let mut t = Tracer::new(0.0, 100.0);
        for (id, depart) in [(0, 2.0), (1, 5.0), (2, 9.0)] {
            offer(&mut t, 0, id, depart);
        }
        for (id, depart) in [(3, 1.0), (4, 5.0), (5, 7.0)] {
            offer(&mut t, 1, id, depart);
        }
        let order: Vec<u64> = t.into_records().iter().map(|r| r.id).collect();
        assert_eq!(order, [3, 0, 1, 4, 5, 2]);
    }

    #[test]
    #[should_panic(expected = "empty trace range")]
    fn rejects_empty_range() {
        Tracer::new(5.0, 5.0);
    }
}
