//! One class of the paper's Figure 1 as a steppable object: the FCFS
//! waiting queue, the task server draining it at the rate the
//! controller allocated, and the one event the pair can have pending —
//! the completion of the job in service.
//!
//! A [`Station`] has no clock. Its host owns the time axis and calls it
//! with instants on that axis: the simulator in virtual time units, the
//! live server in seconds since its executor's epoch.

use std::collections::VecDeque;

/// What a [`Station`] carries: a request with an arrival instant and a
/// size, plus whatever its host needs back when it departs.
pub trait Job {
    /// When the job reached its station, on the station's time axis.
    fn arrival(&self) -> f64;
    /// Work at full machine rate: serving it at rate `r` takes
    /// `size / r`.
    fn size(&self) -> f64;
}

/// How a task server reacts to a rate change while a job is in service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceMode {
    /// Work-conserving fluid model: remaining work is carried over and
    /// the completion time is recomputed at the new rate. This is the
    /// faithful GPS-style abstraction and the simulator's default.
    #[default]
    Fluid,
    /// The rate in force when service *started* applies for the whole
    /// job; rate changes only affect subsequent jobs — except that a
    /// job started at rate 0 takes the first positive rate, as `Fluid`
    /// does. The live server's lanes run in this mode, and the
    /// simulator's `ablation_fluid` figure compares the two.
    PinnedRate,
}

/// When an armed event fires: events fire in `(time, seq)` order.
pub type Rank = (f64, u64);

/// The rank of an event that is not armed: it precedes nothing.
pub const NEVER: Rank = (f64::INFINITY, u64::MAX);

/// Whether an event ranked `a` fires before one ranked `b`.
pub fn precedes(a: Rank, b: Rank) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// A run's sequence counter, drawn every time an event is armed, so
/// that events due at the same instant fire in the order they were
/// armed.
#[derive(Debug, Default)]
pub struct Seq(u64);

impl Seq {
    /// The next sequence number.
    pub fn draw(&mut self) -> u64 {
        self.0 += 1;
        self.0 - 1
    }
}

/// The job occupying the task server.
#[derive(Debug)]
struct InService<J> {
    job: J,
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
pub struct Station<J> {
    rate: f64,
    mode: ServiceMode,
    queue: VecDeque<J>,
    busy: Option<InService<J>>,
    /// When the job in service completes: [`NEVER`] while the server is
    /// idle or starved at rate 0. Re-arming overwrites it, so whatever
    /// it holds is live.
    completion: Rank,
    /// Integral of busy time up to the last synchronization point.
    busy_time: f64,
}

impl<J: Job> Station<J> {
    /// An empty station serving at `rate`.
    pub fn new(rate: f64, mode: ServiceMode) -> Self {
        Self { rate, mode, queue: VecDeque::new(), busy: None, completion: NEVER, busy_time: 0.0 }
    }

    /// The rate the next job to start is served at.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// When the job in service completes.
    pub fn completion(&self) -> Rank {
        self.completion
    }

    /// Jobs queued plus the one in service.
    pub fn backlog(&self) -> u64 {
        self.queue.len() as u64 + u64::from(self.busy.is_some())
    }

    /// Busy time including the currently-running job up to `now`.
    pub fn busy_time_as_of(&self, now: f64) -> f64 {
        self.busy_time + self.busy.as_ref().map_or(0.0, |b| (now - b.last_touch).max(0.0))
    }

    /// `job` arrives (at `job.arrival()`): straight into service if the
    /// server is idle, else to the back of the queue.
    pub fn arrive(&mut self, job: J, seq: &mut Seq) {
        if self.busy.is_some() {
            self.queue.push_back(job);
        } else {
            debug_assert!(self.queue.is_empty(), "idle server with backlog");
            self.start(job.arrival(), job, seq);
        }
    }

    /// The job in service departs at `now`, the instant its completion
    /// fired, and leaves the server idle. Returns the job and the
    /// instant its service started.
    pub fn depart(&mut self, now: f64) -> (J, f64) {
        let b = self.busy.take().expect("a completion fired on an idle station");
        debug_assert!(
            b.remaining - (now - b.last_touch) * b.rate < 1e-6 * b.job.size().max(1.0),
            "completion fired with work left"
        );
        self.busy_time += now - b.last_touch;
        self.completion = NEVER;
        (b.job, b.service_start)
    }

    /// The idle server takes the head of the queue, if there is one, at
    /// `now` or when the head arrived, whichever is later. (A host that
    /// steps the station in time order never queues a job that arrives
    /// after `now`; the live server, which departs a job when it
    /// notices the completion, does.)
    pub fn start_next(&mut self, now: f64, seq: &mut Seq) {
        if let Some(next) = self.queue.pop_front() {
            self.start(now.max(next.arrival()), next, seq);
        }
    }

    /// At rate 0 the job parks in service, no completion armed, until a
    /// positive rate arrives.
    fn start(&mut self, now: f64, job: J, seq: &mut Seq) {
        debug_assert!(self.busy.is_none(), "start on a busy task server");
        if self.rate > 0.0 {
            self.completion = (now + job.size() / self.rate, seq.draw());
        }
        self.busy = Some(InService {
            remaining: job.size(),
            job,
            service_start: now,
            last_touch: now,
            rate: self.rate,
        });
    }

    /// Change the allocated rate at `now`. A fluid server syncs the
    /// remaining work of the job it holds at the old rate and re-arms
    /// its completion at the new one; a pinned one lets that job finish
    /// as armed, unless it is parked at rate 0 — then it is served from
    /// `now` like a fluid one, or it would never finish.
    pub fn set_rate(&mut self, rate: f64, now: f64, seq: &mut Seq) {
        self.rate = rate;
        let Some(b) = &mut self.busy else { return };
        if self.mode == ServiceMode::PinnedRate && b.rate > 0.0 {
            return;
        }
        let elapsed = now - b.last_touch;
        self.busy_time += elapsed;
        b.remaining = (b.remaining - elapsed * b.rate).max(0.0);
        b.last_touch = now;
        b.rate = rate;
        self.completion = if rate > 0.0 { (now + b.remaining / rate, seq.draw()) } else { NEVER };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(id, size, arrival)`.
    #[derive(Debug, PartialEq)]
    struct Req(u64, f64, f64);

    impl Job for Req {
        fn arrival(&self) -> f64 {
            self.2
        }
        fn size(&self) -> f64 {
            self.1
        }
    }

    /// A station at `rate` that `Req(0, size, at)` has just reached.
    fn serving(rate: f64, mode: ServiceMode, size: f64, at: f64) -> (Station<Req>, Seq) {
        let (mut s, mut seq) = (Station::new(rate, mode), Seq::default());
        s.arrive(Req(0, size, at), &mut seq);
        (s, seq)
    }

    #[test]
    fn full_rate_service_time_equals_size() {
        let (mut s, _) = serving(1.0, ServiceMode::Fluid, 2.5, 10.0);
        assert_eq!(s.completion(), (12.5, 0));
        assert_eq!(s.depart(12.5), (Req(0, 2.5, 10.0), 10.0));
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
        assert_eq!(s.depart(7.0).1, 0.0);
    }

    #[test]
    fn pinned_mode_ignores_mid_service_change() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::PinnedRate, 4.0, 0.0);
        s.set_rate(0.25, 1.0, &mut seq);
        assert_eq!(s.completion(), (4.0, 0), "the completion armed at service start stays");
        s.depart(4.0);
        // Next job sees the new rate.
        s.arrive(Req(1, 1.0, 4.0), &mut seq);
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

    /// A pinned job that started at rate 0 has no rate to keep: it takes
    /// the first positive one from the instant it arrives, keeping its
    /// service start, as a fluid one does — or it would never complete,
    /// and its class would wedge behind it.
    #[test]
    fn pinned_job_started_at_rate_zero_takes_the_first_positive_rate() {
        for mode in [ServiceMode::Fluid, ServiceMode::PinnedRate] {
            let (mut s, mut seq) = serving(0.0, mode, 1.0, 20.0);
            s.set_rate(0.0, 22.0, &mut seq);
            assert_eq!(s.completion(), NEVER, "{mode:?}: still parked");
            s.set_rate(0.5, 24.0, &mut seq);
            assert_eq!(s.completion().0, 26.0, "{mode:?}");
            // From here on the pinned job keeps its rate.
            s.set_rate(0.25, 25.0, &mut seq);
            let expected = if mode == ServiceMode::PinnedRate { 26.0 } else { 27.0 };
            assert_eq!(s.completion().0, expected, "{mode:?}");
            assert_eq!(s.depart(expected).1, 20.0, "{mode:?}: service started on arrival");
            assert_eq!(s.busy_time, expected - 20.0, "{mode:?}: parked time is busy time");
        }
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
        s.arrive(Req(1, 1.0, 0.25), &mut seq);
        s.arrive(Req(2, 1.0, 0.5), &mut seq);
        assert_eq!(s.backlog(), 3);
        for (id, at) in [(0, 1.0), (1, 2.0), (2, 3.0)] {
            assert_eq!(s.completion().0, at);
            assert_eq!(s.depart(at).0 .0, id);
            s.start_next(at, &mut seq);
        }
        assert_eq!((s.backlog(), s.completion()), (0, NEVER));
    }

    /// A job queued behind one whose completion was noticed late may
    /// have arrived after that completion: it starts at its own arrival,
    /// never before it.
    #[test]
    fn a_head_that_arrived_after_the_departure_starts_at_its_arrival() {
        let (mut s, mut seq) = serving(1.0, ServiceMode::PinnedRate, 1.0, 0.0);
        s.arrive(Req(1, 1.0, 1.5), &mut seq); // after the completion at 1
        s.arrive(Req(2, 1.0, 1.75), &mut seq);
        assert_eq!(s.completion().0, 1.0);
        s.depart(1.0);
        s.start_next(1.0, &mut seq);
        assert_eq!(s.completion().0, 2.5, "starts at its arrival, 1.5");
        assert_eq!(s.depart(2.5), (Req(1, 1.0, 1.5), 1.5));
        s.start_next(2.5, &mut seq);
        assert_eq!(s.depart(3.5).1, 2.5, "an earlier arrival starts at the departure");
    }

    #[test]
    fn introspection_accessors_track_state() {
        let (mut s, mut seq) = serving(0.75, ServiceMode::Fluid, 1.5, 0.0);
        assert_eq!((s.rate(), s.busy_time_as_of(1.0)), (0.75, 1.0));
        s.set_rate(0.5, 1.0, &mut seq);
        assert_eq!((s.rate(), s.busy_time), (0.5, 1.0));
        assert_eq!(s.busy_time_as_of(1.5), 1.5, "the synced second plus the half since");
        s.depart(s.completion().0);
        assert_eq!(s.busy_time_as_of(9.0), s.busy_time, "an idle server accrues nothing");
    }
}
