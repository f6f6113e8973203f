//! One class of the paper's Figure 1 as a steppable object: the FCFS
//! waiting queue, the fluid-rate task server draining it at the rate
//! the controller allocated, and the one event the pair can have
//! pending — the completion of the request in service.

use std::collections::VecDeque;

use crate::request::{CompletedRequest, Request};

/// How a task server reacts to a rate change while a request is in
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceMode {
    /// Work-conserving fluid model: remaining work is carried over and
    /// the completion time is recomputed at the new rate. This is the
    /// faithful GPS-style abstraction and the default.
    #[default]
    Fluid,
    /// The rate in force when service *started* applies for the whole
    /// request; rate changes only affect subsequent requests. Used by
    /// the `ablation_fluid` bench.
    PinnedRate,
}

/// When an armed event fires: events fire in `(time, seq)` order.
pub(crate) type Rank = (f64, u64);

/// The rank of an event that is not armed: it precedes nothing.
pub(crate) const NEVER: Rank = (f64::INFINITY, u64::MAX);

pub(crate) fn precedes(a: Rank, b: Rank) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The one sequence counter of a run, drawn every time an event is
/// armed, so that events due at the same instant fire in the order
/// they were armed.
#[derive(Debug, Default)]
pub(crate) struct Seq(u64);

impl Seq {
    pub fn draw(&mut self) -> u64 {
        self.0 += 1;
        self.0 - 1
    }
}

/// The request occupying the task server.
#[derive(Debug)]
struct InService {
    request: Request,
    service_start: f64,
    /// Full-rate work still to do as of `last_touch`.
    remaining: f64,
    /// Last instant `remaining` was synchronized to.
    last_touch: f64,
    /// The rate it is served at: the station's, except that
    /// [`ServiceMode::PinnedRate`] keeps the one in force at service
    /// start.
    rate: f64,
}

/// A class's waiting queue and task server.
#[derive(Debug)]
pub(crate) struct Station {
    rate: f64,
    mode: ServiceMode,
    queue: VecDeque<Request>,
    busy: Option<InService>,
    /// When the request in service completes: [`NEVER`] while the
    /// server is idle or starved at rate 0. Re-arming overwrites it, so
    /// whatever it holds is live.
    completion: Rank,
    /// Integral of busy time up to the last synchronization point.
    busy_time: f64,
}

impl Station {
    /// An empty station serving at `rate`.
    pub fn new(rate: f64, mode: ServiceMode) -> Self {
        Self { rate, mode, queue: VecDeque::new(), busy: None, completion: NEVER, busy_time: 0.0 }
    }

    /// When the request in service completes.
    pub fn completion(&self) -> Rank {
        self.completion
    }

    /// Requests queued plus the one in service.
    pub fn backlog(&self) -> u64 {
        self.queue.len() as u64 + u64::from(self.busy.is_some())
    }

    /// Busy time including the currently-running request up to `now`.
    pub fn busy_time_as_of(&self, now: f64) -> f64 {
        self.busy_time + self.busy.as_ref().map_or(0.0, |b| (now - b.last_touch).max(0.0))
    }

    /// `request` arrives (at `request.arrival`): straight into service
    /// if the server is idle, else to the back of the queue.
    pub fn arrive(&mut self, request: Request, seq: &mut Seq) {
        if self.busy.is_some() {
            self.queue.push_back(request);
        } else {
            debug_assert!(self.queue.is_empty(), "idle server with backlog");
            self.start(request.arrival, request, seq);
        }
    }

    /// The request in service departs at `now`, the instant its
    /// completion fired, and leaves the server idle.
    pub fn depart(&mut self, now: f64) -> CompletedRequest {
        let b = self.busy.take().expect("a completion fired on an idle station");
        debug_assert!(
            b.remaining - (now - b.last_touch) * b.rate < 1e-6 * b.request.size.max(1.0),
            "completion fired with work left"
        );
        self.busy_time += now - b.last_touch;
        self.completion = NEVER;
        CompletedRequest { request: b.request, service_start: b.service_start, departure: now }
    }

    /// The idle server takes the head of the queue, if there is one.
    pub fn start_next(&mut self, now: f64, seq: &mut Seq) {
        if let Some(next) = self.queue.pop_front() {
            self.start(now, next, seq);
        }
    }

    /// At rate 0 the request parks in service, no completion armed,
    /// until a positive rate arrives.
    fn start(&mut self, now: f64, request: Request, seq: &mut Seq) {
        debug_assert!(self.busy.is_none(), "start on a busy task server");
        if self.rate > 0.0 {
            self.completion = (now + request.size / self.rate, seq.draw());
        }
        self.busy = Some(InService {
            remaining: request.size,
            request,
            service_start: now,
            last_touch: now,
            rate: self.rate,
        });
    }

    /// Change the allocated rate at `now`. A fluid server syncs the
    /// remaining work of the request it holds at the old rate and
    /// re-arms its completion at the new one; a pinned one lets that
    /// request finish as armed.
    pub fn set_rate(&mut self, rate: f64, now: f64, seq: &mut Seq) {
        self.rate = rate;
        if self.mode == ServiceMode::PinnedRate {
            return;
        }
        if let Some(b) = &mut self.busy {
            let elapsed = now - b.last_touch;
            self.busy_time += elapsed;
            b.remaining = (b.remaining - elapsed * b.rate).max(0.0);
            b.last_touch = now;
            b.rate = rate;
            self.completion =
                if rate > 0.0 { (now + b.remaining / rate, seq.draw()) } else { NEVER };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, size: f64, arrival: f64) -> Request {
        Request { id, class: 0, size, arrival }
    }

    /// A station at `rate` that `req(0, size, at)` has just reached.
    fn serving(rate: f64, mode: ServiceMode, size: f64, at: f64) -> (Station, Seq) {
        let (mut s, mut seq) = (Station::new(rate, mode), Seq::default());
        s.arrive(req(0, size, at), &mut seq);
        (s, seq)
    }

    #[test]
    fn full_rate_service_time_equals_size() {
        let (mut s, _) = serving(1.0, ServiceMode::Fluid, 2.5, 10.0);
        assert_eq!(s.completion(), (12.5, 0));
        let done = s.depart(12.5);
        assert_eq!((done.service_start, done.departure), (10.0, 12.5));
        assert_eq!(s.busy_time, 2.5);
        assert_eq!((s.backlog(), s.completion()), (0, NEVER));
    }

    #[test]
    fn half_rate_doubles_service_time() {
        let (s, _) = serving(0.5, ServiceMode::Fluid, 1.0, 0.0);
        assert_eq!(s.completion().0, 2.0);
    }

    #[test]
    fn fluid_rate_change_rescales_completion() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::Fluid, 4.0, 0.0);
        assert_eq!(s.completion(), (4.0, 0));
        // At t=1, 3 units of work remain; halving the rate pushes
        // completion to 1 + 3/0.5 = 7, and the one armed for t=4 is
        // gone.
        s.set_rate(0.5, 1.0, &mut seq);
        assert_eq!(s.completion(), (7.0, 1));
        assert_eq!(s.depart(7.0).service_start, 0.0);
    }

    #[test]
    fn pinned_mode_ignores_mid_service_change() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::PinnedRate, 4.0, 0.0);
        s.set_rate(0.25, 1.0, &mut seq);
        assert_eq!(s.completion(), (4.0, 0), "the completion armed at service start stays");
        s.depart(4.0);
        // Next request sees the new rate.
        s.arrive(req(1, 1.0, 4.0), &mut seq);
        assert_eq!(s.completion().0, 8.0);
    }

    #[test]
    fn zero_rate_starves_then_resumes() {
        let (mut s, mut seq) = serving(0.0, ServiceMode::Fluid, 1.0, 0.0);
        assert_eq!((s.backlog(), s.completion()), (1, NEVER), "in service, nothing armed");
        s.set_rate(2.0, 5.0, &mut seq);
        assert_eq!(s.completion().0, 5.5);
        // Back to zero mid-service: the armed completion is withdrawn.
        s.set_rate(0.0, 5.25, &mut seq);
        assert_eq!(s.completion(), NEVER);
        s.set_rate(1.0, 6.0, &mut seq);
        assert_eq!(s.completion().0, 6.5);
    }

    #[test]
    fn multiple_rate_changes_accumulate_work_correctly() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::Fluid, 10.0, 0.0);
        s.set_rate(2.0, 2.0, &mut seq); // 8 work left, now at rate 2
        s.set_rate(0.5, 4.0, &mut seq); // 8-4=4 left at 0.5
        assert_eq!(s.completion().0, 4.0 + 8.0);
        s.depart(12.0);
        // Busy integral: whole 12 time units busy.
        assert_eq!(s.busy_time, 12.0);
    }

    #[test]
    fn queue_is_fcfs_and_backlog_counts_the_request_in_service() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::Fluid, 1.0, 0.0);
        s.arrive(req(1, 1.0, 0.25), &mut seq);
        s.arrive(req(2, 1.0, 0.5), &mut seq);
        assert_eq!(s.backlog(), 3);
        for (id, at) in [(0, 1.0), (1, 2.0), (2, 3.0)] {
            assert_eq!(s.completion().0, at);
            assert_eq!(s.depart(at).request.id, id);
            s.start_next(at, &mut seq);
        }
        assert_eq!((s.backlog(), s.completion()), (0, NEVER));
    }

    #[test]
    fn introspection_accessors_track_state() {
        let (mut s, mut seq) = serving(0.75, ServiceMode::Fluid, 1.5, 0.0);
        assert_eq!((s.rate, s.busy_time_as_of(1.0)), (0.75, 1.0));
        s.set_rate(0.5, 1.0, &mut seq);
        assert_eq!((s.rate, s.busy_time), (0.5, 1.0));
        assert_eq!(s.busy_time_as_of(1.5), 1.5, "the synced second plus the half since");
        s.depart(s.completion().0);
        assert_eq!(s.busy_time_as_of(9.0), s.busy_time, "an idle server accrues nothing");
    }
}
