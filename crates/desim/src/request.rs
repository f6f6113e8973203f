//! Request records flowing through the simulated server.

/// A request waiting in, or being served by, the simulated server.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id, increasing in arrival order within the class. Ids of
    /// different classes are not comparable: `Simulation::run` hands
    /// them out as it advances one class at a time through a window.
    pub id: u64,
    /// Class index, `0 ..` (class 0 is the *highest* priority class —
    /// smallest differentiation parameter — by the paper's convention).
    pub class: usize,
    /// Work amount at full machine rate (drawn from the class service
    /// distribution). Serving at rate `r` takes `size / r` time.
    pub size: f64,
    /// Arrival instant.
    pub arrival: f64,
}

/// A request that has fully departed, with its measured timings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: Request,
    /// Instant service began (head of queue reached the task server).
    pub service_start: f64,
    /// Departure instant.
    pub departure: f64,
}

impl CompletedRequest {
    /// Queueing delay `W = service_start − arrival`.
    pub fn delay(&self) -> f64 {
        self.service_start - self.request.arrival
    }

    /// Actual service duration on the (possibly rate-varying) task
    /// server.
    pub fn service_duration(&self) -> f64 {
        self.departure - self.service_start
    }

    /// Slowdown `S = W / service_duration` — the paper's per-request
    /// metric (queueing delay over service time).
    pub fn slowdown(&self) -> f64 {
        self.delay() / self.service_duration()
    }

    /// Response (sojourn) time.
    pub fn response(&self) -> f64 {
        self.departure - self.request.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(arrival: f64, start: f64, depart: f64) -> CompletedRequest {
        CompletedRequest {
            request: Request { id: 0, class: 0, size: 1.0, arrival },
            service_start: start,
            departure: depart,
        }
    }

    #[test]
    fn timing_identities() {
        let c = done(10.0, 12.0, 16.0);
        assert_eq!(c.delay(), 2.0);
        assert_eq!(c.service_duration(), 4.0);
        assert_eq!(c.slowdown(), 0.5);
        assert_eq!(c.response(), 6.0);
    }

    #[test]
    fn zero_delay_zero_slowdown() {
        let c = done(5.0, 5.0, 7.5);
        assert_eq!(c.slowdown(), 0.0);
    }
}
