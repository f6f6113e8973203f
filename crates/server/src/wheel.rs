//! The per-class task servers' execution: who notices that a
//! request's stretched service is over. The discipline — which request
//! of which class is in service, and when its service ends — is
//! [`Lanes`], whose stations keep time in seconds since
//! `Shared::epoch`; this module reads that clock for each arrival, files
//! each armed completion as a deadline and fires it.
//!
//! ```text
//!  submit ─▶ lane[class] station ─ idle: in service ─▶ file its completion ─▶ the one
//!              └─ busy: queued                                                │ Deadlines store;
//!                                                                             │ fired by shard 0's
//!  fire: finish (the station departs the request at its completion ◀──────────┘ loop, or else the
//!  and starts the next there; the ledger tallies the departure),                 timer thread
//!  call its CompletionNotify, file the next completion
//! ```
//!
//! Each armed completion is filed at the first nanosecond at or after
//! it, so a reply leaves when its stretched service ends, late only by
//! the wakeup of whoever fires it. Every fire adds that lateness (due
//! instant to the clock read that popped it) to `WheelStats::late_ns`.
//! The departure is tallied before the submitter hears of it, so every
//! reply a client holds is already counted in `PsdServer::stats`.
//!
//! Service is pure waiting, so one [`Deadlines`] store serves every
//! class and no thread blocks per request. It never holds more than one
//! entry per class (a station has one request in service). Its
//! deadlines are fired by one of two:
//!
//! * a reactor shard that holds the store's [`DeadlineClaim`] (shard 0
//!   claims it when its loop starts and releases it when the loop
//!   exits): the loop ends each kernel wait ε (10 µs) before the next
//!   deadline, spins out the rest on the clock, yielding the core
//!   between reads until its last few microseconds, and fires what is
//!   due in the same turn. A deadline
//!   so fires at its nanosecond, give or take one clock read, and a
//!   completion for one of the shard's own connections is answered on
//!   the thread that parked it, with no cross-thread hop. A filing from
//!   any other thread that becomes the earliest deadline rings the
//!   claimant's poller;
//! * otherwise the timer thread, parked until the earliest deadline and
//!   late by the scheduler's wake latency. It fires the store while
//!   nobody holds the claim (no reactor in front: the in-process
//!   submitters, the threads engine), parks with no timeout while a
//!   claim is held, and takes over whatever is still filed when the
//!   claim is released.
//!
//! The module keeps the name of the hierarchical timer wheel it
//! replaced, as do `WheelStats`, `PsdServer::wheel_stats` and the
//! `psd_wheel_*` metric families, because `benchmark/` reads them by
//! those names.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use psd_obs::WheelStats;

use crate::locks::{lock, wait, wait_timeout};
use crate::queues::{CompletionNotify, Lanes, Submitted};
use crate::timing;

/// Pending finish deadlines, earliest first (filing order among
/// equals): `(due, class)`, due in whatever unit `insert`'s caller
/// counts in (`file`: nanoseconds since the epoch). A sorted queue, not
/// a heap: a station has one request in service, so it never holds more
/// entries than there are classes, and it keeps its capacity, so steady
/// state allocates nothing.
#[derive(Default)]
struct Deadlines {
    queue: VecDeque<(u64, usize)>,
    /// The event loop that fires these deadlines instead of the timer
    /// thread, if one holds the store's [`DeadlineClaim`].
    claimant: Option<Claimant>,
}

/// Who holds a [`DeadlineClaim`]: the loop's thread, and how another
/// thread wakes that loop when it files a new earliest deadline.
struct Claimant {
    thread: ThreadId,
    ring: Ring,
}

/// Wakes a claiming loop from another thread (a reactor shard: its
/// poller's `notify`).
pub(crate) type Ring = Arc<dyn Fn() + Send + Sync>;

impl Deadlines {
    /// File `class`'s completion, due at `at` seconds since the epoch,
    /// at the first nanosecond at or after it. `true` if it is now the
    /// earliest, so a thread parked on the store must re-aim.
    fn file(&mut self, at: f64, class: usize) -> bool {
        let due = nanos(at);
        let earlier = self.next_due().is_none_or(|d| due < d);
        self.insert(due, class);
        earlier
    }

    fn insert(&mut self, due: u64, class: usize) {
        let at = self.queue.partition_point(|entry| entry.0 <= due);
        self.queue.insert(at, (due, class));
    }

    fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|entry| entry.0)
    }

    /// The earliest `(due, class)` whose deadline is at or before
    /// `now`.
    fn pop_due(&mut self, now: u64) -> Option<(u64, usize)> {
        if self.next_due()? > now {
            return None;
        }
        self.queue.pop_front()
    }
}

/// The first nanosecond at or after `at` seconds.
fn nanos(at: f64) -> u64 {
    (at * 1e9).ceil() as u64
}

/// The deadline store (nanoseconds since `Shared::epoch`) and what
/// the timer thread parks on.
#[derive(Default)]
struct Executor {
    state: Mutex<Deadlines>,
    alarm: Condvar,
    stats: WheelStats,
}

impl Executor {
    /// Pop every deadline in `st` (this executor's store, locked) due by
    /// `now`, earliest first, into `fired`, and count them as fired with
    /// their lateness `now − due`. The caller completes them after
    /// unlocking.
    fn take_due(&self, st: &mut Deadlines, now: u64, fired: &mut Vec<usize>) {
        let (mut n, mut late) = (0, 0);
        while let Some((due, class)) = st.pop_due(now) {
            n += 1;
            late += now - due;
            fired.push(class);
        }
        if n > 0 {
            self.stats.fires.fetch_add(n, Ordering::Relaxed);
            self.stats.late_ns.fetch_add(late, Ordering::Relaxed);
        }
    }
}

struct Shared {
    /// Instant 0 of the lanes' time axis.
    epoch: Instant,
    lanes: Lanes,
    /// The one deadline store, serving every class.
    exec: Executor,
}

/// All classes' task servers: the lanes plus the timer thread that
/// realises their service times.
pub(crate) struct TaskServers {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TaskServers {
    /// Start `n` classes' servers at an even rate split, and the one
    /// timer thread, whatever `n` is.
    pub(crate) fn start(n: usize, work_unit: Duration) -> Self {
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            lanes: Lanes::new(n, work_unit.as_secs_f64()),
            exec: Executor::default(),
        });
        let on_thread = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("psd-timer".into())
            .spawn(move || on_thread.run())
            .expect("spawn the timer thread");
        Self { shared, thread: Mutex::new(Some(thread)) }
    }

    /// Accept a class-`class` request of `cost` work units, arriving
    /// now: into service at once if its class is idle, else queued
    /// behind the head. `false` after [`TaskServers::close`].
    pub(crate) fn submit(&self, class: usize, cost: f64, notify: CompletionNotify) -> bool {
        match self.shared.lanes.submit(class, cost, notify, self.shared.now()) {
            Submitted::Rejected => false,
            Submitted::Queued => true,
            Submitted::Start { class, at } => {
                self.shared.file(class, at);
                true
            }
        }
    }

    /// Re-rate the lanes from the controller's `weights`, now.
    pub(crate) fn set_weights(&self, weights: &[f64]) {
        self.shared.lanes.set_weights(weights, self.shared.now());
    }

    /// The lanes: their backlogs and per-class ledgers.
    pub(crate) fn lanes(&self) -> &Lanes {
        &self.shared.lanes
    }

    /// Stop accepting; queued and in-service requests still complete.
    pub(crate) fn close(&self) {
        self.shared.lanes.close();
        let exec = &self.shared.exec;
        // Pass through the lock before ringing, so a timer thread that
        // checked the flag just before it flipped is already parked when
        // the notify lands.
        drop(lock(&exec.state));
        exec.alarm.notify_all();
    }

    /// Wait for the timer thread to drain and exit (call after
    /// [`TaskServers::close`]).
    pub(crate) fn join(&self) {
        if let Some(h) = lock(&self.thread).take() {
            let _ = h.join();
        }
    }

    /// The deadline store's activity counters (the timer thread's and
    /// a claimant's alike) and the current occupancy (requests accepted
    /// and not yet finished).
    pub(crate) fn timer_stats(&self) -> (&WheelStats, usize) {
        (&self.shared.exec.stats, self.shared.lanes.in_flight())
    }

    /// Claim the deadline store for the calling thread's event loop:
    /// from now until the claim drops, that loop fires the deadlines
    /// ([`DeadlineClaim::fire_due`]) and the timer thread parks; a
    /// filing from another thread that becomes the earliest deadline
    /// calls `ring`. `None` while another loop holds the claim (two
    /// front ends on one server: the second keeps the mailbox path).
    pub(crate) fn claim(&self, ring: Ring) -> Option<DeadlineClaim> {
        let mut st = lock(&self.shared.exec.state);
        if st.claimant.is_some() {
            return None;
        }
        st.claimant = Some(Claimant { thread: thread::current().id(), ring });
        Some(DeadlineClaim { shared: Arc::clone(&self.shared), fired: Vec::new() })
    }
}

/// An event loop's hold on the deadline store (see
/// [`TaskServers::claim`]). Dropping it releases the store, and the
/// timer thread takes over whatever is still filed.
pub(crate) struct DeadlineClaim {
    shared: Arc<Shared>,
    /// Scratch: the classes one [`DeadlineClaim::fire_due`] pops.
    fired: Vec<usize>,
}

impl DeadlineClaim {
    /// When the earliest filed deadline is due; `None` if none is
    /// filed. The loop's wait must end by then.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let due = lock(&self.shared.exec.state).next_due()?;
        Some(self.shared.epoch + Duration::from_nanos(due))
    }

    /// Fire every deadline due by now, on the calling thread: each
    /// completes through `Shared::complete`, as on the timer thread, and
    /// a next completion already due fires in the same call. Returns
    /// how many fired; a call that fires any counts as one of the
    /// store's wakeups.
    pub(crate) fn fire_due(&mut self) -> usize {
        let Self { shared, fired } = self;
        let exec = &shared.exec;
        let mut total = 0;
        loop {
            let now_ns = shared.now_ns();
            exec.take_due(&mut lock(&exec.state), now_ns, fired);
            if fired.is_empty() {
                break;
            }
            total += fired.len();
            for class in fired.drain(..) {
                shared.complete(class);
            }
        }
        if total > 0 {
            exec.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        total
    }
}

impl Drop for DeadlineClaim {
    /// Release the store and wake the timer thread to take it over.
    fn drop(&mut self) {
        let exec = &self.shared.exec;
        lock(&exec.state).claimant = None;
        exec.alarm.notify_one();
    }
}

impl Shared {
    /// Seconds since the epoch: where the lanes' time axis stands.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The same instant in the deadline stores' nanoseconds.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// File `class`'s completion, due at `at` seconds, in the deadline
    /// store: at the first nanosecond at or after `at`, no
    /// early aim (neither the timer thread nor a claimant has slack to
    /// cancel, see `timing`). The stretched time behind `at` is the
    /// paper's rate-scaled `X/r_i`. The receipt's service time runs to
    /// the fire (`Lanes::finish`), so the recorded slowdown is
    /// `W/(X/r_i)` up to the executor's wakeup lateness.
    ///
    /// A new earliest deadline wakes whoever fires the store: the timer
    /// thread's alarm, or the claimant's ring — unless this is the
    /// claimant's own thread, whose loop bounds its next wait by the
    /// store before it waits.
    fn file(&self, class: usize, at: f64) {
        let exec = &self.exec;
        exec.stats.scheduled.fetch_add(1, Ordering::Relaxed);
        let ring = {
            let mut st = lock(&exec.state);
            if !st.file(at, class) {
                return;
            }
            match &st.claimant {
                None => None,
                Some(c) if c.thread == thread::current().id() => return,
                Some(c) => Some(Arc::clone(&c.ring)),
            }
        };
        match ring {
            Some(ring) => ring(),
            None => exec.alarm.notify_one(),
        }
    }

    /// `class`'s completion fired: its lane departs the request,
    /// tallies it and tells its submitter, and the completion of the
    /// class's next request, if one started, is filed. That request
    /// starts at this one's completion, not at the later instant the
    /// executor noticed it: the executor's lateness delays a
    /// completion's delivery, never the class's next service. Charged
    /// to the server instead, it would raise each class's utilisation
    /// by λ_i·lateness, and the busier (higher-δ) class's M/G/1 wait
    /// grows the most — S1/S0 above δ1/δ0.
    fn complete(&self, class: usize) {
        if let Some(at) = self.lanes.finish(class, self.now()) {
            self.file(class, at);
        }
    }

    /// The timer thread: fire what is due, then sleep on the alarm
    /// until the next deadline, until closed and drained. While a loop
    /// holds the store's claim, the thread fires nothing and parks
    /// until the claim is released or the servers close.
    fn run(&self) {
        timing::precise_timers();
        let exec = &self.exec;
        let mut fired: Vec<usize> = Vec::new();
        let mut st = lock(&exec.state);
        loop {
            let now_ns = self.now_ns();
            if st.claimant.is_none() {
                exec.take_due(&mut st, now_ns, &mut fired);
            }
            if !fired.is_empty() {
                drop(st);
                // Fire outside the lock: completions take lane locks,
                // run callbacks and file the next deadline.
                for class in fired.drain(..) {
                    self.complete(class);
                }
                st = lock(&exec.state);
                continue;
            }
            match st.next_due() {
                Some(due_ns) if st.claimant.is_none() => {
                    st = wait_timeout(&exec.alarm, st, Duration::from_nanos(due_ns - now_ns));
                    exec.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                // Nothing filed, or a claimant fires what is.
                _ => {
                    if self.lanes.all_drained() {
                        return;
                    }
                    // Idle: sleep until a start, a release or close
                    // rings the alarm. Each does so while ordering
                    // against this lock, so the wakeup cannot be lost.
                    st = wait(&exec.alarm, st);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Completion;
    use psd_core::control::{Job, Seq, ServiceMode, Station, WindowObservation, WindowTally};
    use psd_dist::rng::Xoshiro256pp;
    use std::sync::atomic::AtomicU32;

    fn drain(d: &mut Deadlines, now: u64) -> Vec<usize> {
        std::iter::from_fn(|| d.pop_due(now)).map(|(_, class)| class).collect()
    }

    #[test]
    fn fires_at_exact_tick_not_before() {
        let mut d = Deadlines::default();
        d.insert(5, 1);
        assert!(drain(&mut d, 4).is_empty(), "not due yet");
        assert_eq!(d.next_due(), Some(5));
        assert_eq!(drain(&mut d, 5), vec![1], "due exactly at 5");
        assert_eq!(d.next_due(), None);
    }

    #[test]
    fn past_deadlines_round_up_to_the_next_tick() {
        assert_eq!((nanos(1e-9), nanos(1.5e-9), nanos(2.0)), (1, 2, 2_000_000_000));
        // A deadline already in the past when filed fires at the next pop.
        let mut d = Deadlines::default();
        d.insert(7, 9);
        assert_eq!(drain(&mut d, 100), vec![9]);
    }

    #[test]
    fn same_tick_timers_fire_together() {
        let mut d = Deadlines::default();
        d.insert(50, 99);
        for class in 0..10 {
            d.insert(42, class);
        }
        assert_eq!(drain(&mut d, 42), (0..10).collect::<Vec<_>>(), "in filing order");
        assert_eq!(drain(&mut d, 1000), vec![99]);
    }

    /// Each fire adds `now − due` to the lateness counter, `now` being
    /// the clock read that popped it: nothing before its due instant,
    /// and nothing for a deadline left filed.
    #[test]
    fn a_fire_counts_its_lateness() {
        let exec = Executor::default();
        let mut fired = Vec::new();
        let mut st = lock(&exec.state);
        st.insert(100, 0);
        st.insert(130, 1);
        st.insert(500, 2);
        exec.take_due(&mut st, 99, &mut fired);
        assert_eq!((fired.len(), exec.stats.late_ns.load(Ordering::Relaxed)), (0, 0));
        exec.take_due(&mut st, 160, &mut fired);
        assert_eq!(fired, [0, 1]);
        assert_eq!(exec.stats.fires.load(Ordering::Relaxed), 2);
        assert_eq!(exec.stats.late_ns.load(Ordering::Relaxed), (160 - 100) + (160 - 130));
        exec.take_due(&mut st, 500, &mut fired);
        assert_eq!(exec.stats.late_ns.load(Ordering::Relaxed), 90, "on time adds nothing");
        assert_eq!(fired, [0, 1, 2]);
    }

    #[test]
    fn idle_gaps_are_skipped_cheaply() {
        // Nothing walks the time between deadlines, however long.
        let mut d = Deadlines::default();
        let t = Instant::now();
        assert!(drain(&mut d, u64::MAX - 1).is_empty());
        d.insert(u64::MAX, 1);
        assert_eq!(drain(&mut d, u64::MAX), vec![1]);
        assert!(t.elapsed() < Duration::from_millis(100), "an empty stretch must cost nothing");
    }

    /// Submitters racing `close`, on real threads: whatever `submit`
    /// accepted completes exactly once before `join` returns — no
    /// timer thread exits over a request that was accepted but not yet
    /// handed to it. In the claimed rounds a test thread holds the
    /// store as a reactor shard would, fires what is due while the
    /// submitters file, and releases the claim mid-flight; the timer
    /// thread drains the rest. A second claim is refused meanwhile, and
    /// no ring is lost.
    #[test]
    fn submits_racing_close_are_served_or_refused_never_lost() {
        let (mut by_claimants, mut by_timer) = (0, 0);
        for claimed in [false, true] {
            for round in 0..20 {
                let servers = Arc::new(TaskServers::start(2, Duration::from_micros(5)));
                let claimant = claimed.then(|| FakeShard::spawn(&servers, 10 * round as usize));
                let done: Arc<Vec<AtomicU32>> =
                    Arc::new((0..400).map(|_| AtomicU32::new(0)).collect());
                let pushers: Vec<_> = (0..2usize)
                    .map(|p| {
                        let (servers, done) = (Arc::clone(&servers), Arc::clone(&done));
                        thread::spawn(move || {
                            let submit = |i: usize| {
                                let (done, id) = (Arc::clone(&done), p * 200 + i);
                                let tally = move |_| _ = done[id].fetch_add(1, Ordering::SeqCst);
                                let notify = Box::new(tally);
                                servers.submit((p + i) % 2, 1.0, notify).then_some(p * 200 + i)
                            };
                            (0..200usize).filter_map(submit).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                thread::sleep(Duration::from_micros(50 * round));
                servers.close();
                let accepted: Vec<usize> =
                    pushers.into_iter().flat_map(|h| h.join().unwrap()).collect();
                let fired_by_claimant = claimant.map_or(0, FakeShard::finish);
                servers.join();
                let label = format!("claimed {claimed} round {round}");
                for (id, n) in done.iter().enumerate() {
                    let want = u32::from(accepted.contains(&id));
                    assert_eq!(n.load(Ordering::SeqCst), want, "{label}: request {id}");
                }
                let completed: u64 =
                    servers.lanes().stats().classes.iter().map(|c| c.completed).sum();
                assert_eq!(completed, accepted.len() as u64, "{label}");
                if claimed {
                    let fires = servers.timer_stats().0.fires.load(Ordering::Relaxed);
                    by_claimants += fired_by_claimant;
                    by_timer += fires - fired_by_claimant as u64;
                }
            }
        }
        assert!(by_claimants > 0 && by_timer > 0, "claimants {by_claimants}, timer {by_timer}");
    }

    /// A test thread in a reactor shard's place: it claims the store,
    /// fires what is due, waits for the next deadline or a ring, and
    /// releases the claim after `release_after` fires or once the closed
    /// lanes drain.
    struct FakeShard {
        bell: Arc<Doorbell>,
        thread: JoinHandle<usize>,
    }

    /// What a claimant's wait ends on besides its timeout: a ring from
    /// the store, or the end of the round.
    #[derive(Default)]
    struct Doorbell {
        state: Mutex<Bell>,
        cv: Condvar,
    }

    #[derive(Default)]
    struct Bell {
        rung: bool,
        closed: bool,
    }

    impl Doorbell {
        fn ring(&self) {
            lock(&self.state).rung = true;
            self.cv.notify_one();
        }

        fn close(&self) {
            lock(&self.state).closed = true;
            self.cv.notify_one();
        }

        /// Wait up to `timeout` unless rung or closed: whether it was
        /// rung (it no longer is), and whether the round is closed.
        fn wait(&self, timeout: Duration) -> (bool, bool) {
            let mut st = lock(&self.state);
            if !st.rung && !st.closed {
                st = wait_timeout(&self.cv, st, timeout);
            }
            (std::mem::take(&mut st.rung), st.closed)
        }
    }

    impl FakeShard {
        fn spawn(servers: &Arc<TaskServers>, release_after: usize) -> Self {
            let bell = Arc::new(Doorbell::default());
            let ring = |bell: &Arc<Doorbell>| -> Ring {
                let bell = Arc::clone(bell);
                Arc::new(move || bell.ring())
            };
            // Held between the claim and the start of its loop, while
            // this thread tries a second claim.
            let claimed = Arc::new(std::sync::Barrier::new(2));
            let (on_thread, to_claim, own_bell, own_claimed) =
                (Arc::clone(servers), ring(&bell), Arc::clone(&bell), Arc::clone(&claimed));
            let thread = thread::spawn(move || {
                let claim = on_thread.claim(to_claim).expect("an unclaimed store");
                own_claimed.wait();
                own_claimed.wait();
                Self::serve(&on_thread, claim, &own_bell, release_after)
            });
            claimed.wait();
            assert!(servers.claim(ring(&bell)).is_none(), "the store is already claimed");
            claimed.wait();
            Self { bell, thread }
        }

        /// The claimant's loop; returns how many deadlines it fired.
        fn serve(
            servers: &TaskServers,
            mut claim: DeadlineClaim,
            bell: &Doorbell,
            release_after: usize,
        ) -> usize {
            let mut fired = 0;
            loop {
                fired += claim.fire_due();
                if fired >= release_after || servers.lanes().all_drained() {
                    return fired; // dropping the claim releases the store
                }
                let due = claim.next_due();
                let idle = Duration::from_secs(10);
                let (rung, closed) = bell.wait(due.map_or(idle, |d| d - Instant::now().min(d)));
                // A deadline now earlier than this wait's bound was filed
                // during it by a submitter, which rang; once the round is
                // closed every submitter has returned, so the ring landed.
                let earlier = claim.next_due().is_some_and(|d| due.is_none_or(|due| d < due));
                assert!(rung || !closed || !earlier, "a ring was lost");
            }
        }

        /// After `close` and the submitters' return: end the round, so
        /// an idle claimant sees the drain, and return how many
        /// deadlines it fired.
        fn finish(self) -> usize {
            self.bell.close();
            self.thread.join().unwrap()
        }
    }

    /// On the real timer thread, no service completes before its
    /// stretched target `cost × unit / r` — the lateness a wait may have
    /// is never traded for an early aim. 1 ns covers the rounding of the
    /// clock's seconds.
    #[test]
    fn sleep_service_never_ends_before_its_stretched_target() {
        let unit = Duration::from_micros(20);
        let servers = TaskServers::start(2, unit);
        servers.set_weights(&[1.0, 3.0]); // rates 1/4 and 3/4
        let early = Arc::new(Mutex::new(Vec::new()));
        for i in 0..200u32 {
            let class = i as usize % 2;
            let cost = 0.3 + f64::from(i * 7 % 28) / 10.0;
            let want = cost * unit.as_secs_f64() / [0.25, 0.75][class];
            let early = Arc::clone(&early);
            let done = move |c: Completion| {
                if c.service_s < want - 1e-9 {
                    lock(&early).push((i, c.service_s, want));
                }
            };
            assert!(servers.submit(class, cost, Box::new(done)));
        }
        servers.close();
        servers.join();
        let completed: u64 = servers.lanes().stats().classes.iter().map(|c| c.completed).sum();
        assert_eq!(completed, 200);
        let early = lock(&early);
        assert!(early.is_empty(), "(request, service_s, target) ended early: {:?}", *early);
    }

    /// A request that queued starts service at its predecessor's
    /// completion, not when the timer thread noticed it (its wakeup
    /// latency later): back to back, each start is exactly the previous
    /// start plus the previous stretched target, so the executor's
    /// lateness never eats into the class's rate.
    #[test]
    fn queued_service_starts_at_its_predecessors_finish() {
        let unit = Duration::from_micros(20);
        let servers = TaskServers::start(2, unit);
        servers.set_weights(&[1.0, 3.0]);
        // Class 0 runs at rate 1/4. A 50 ms head holds the lane while 19
        // short requests (20–80 µs) queue behind it, all arrived at once
        // — so the gaps between their queueing delays are the gaps
        // between their starts.
        let costs: Vec<f64> =
            std::iter::once(625.0).chain((0..19).map(|i| 0.25 * f64::from(1 + i % 4))).collect();
        let arrival = servers.shared.now();
        let delays = Arc::new(Mutex::new(Vec::new()));
        for (i, &cost) in costs.iter().enumerate() {
            let delays = Arc::clone(&delays);
            let done = move |c: Completion| lock(&delays).push((i, c.delay_s));
            match servers.lanes().submit(0, cost, Box::new(done), arrival) {
                Submitted::Start { class, at } => servers.shared.file(class, at),
                queued => assert_eq!(queued, Submitted::Queued),
            }
        }
        assert_eq!(servers.lanes().backlog(0), costs.len(), "the head outlived the submissions");
        servers.close();
        servers.join();
        let delays = lock(&delays);
        for k in 1..costs.len() {
            assert_eq!((delays[k - 1].0, delays[k].0), (k - 1, k), "FIFO");
            let gap = delays[k].1 - delays[k - 1].1;
            let target = costs[k - 1] * unit.as_secs_f64() / 0.25;
            assert!(
                (gap - target).abs() < 1e-9,
                "start {k}: {gap} s after the last, target {target} s"
            );
        }
    }

    const CLASSES: usize = 5;

    /// Seconds per work unit in the virtual-time model.
    const UNIT_S: f64 = 20e-6;

    /// A reference job: `(arrival, size)`.
    struct Ref(f64, f64);

    impl Job for Ref {
        fn arrival(&self) -> f64 {
            self.0
        }
        fn size(&self) -> f64 {
            self.1
        }
    }

    /// The executor with the clock and the thread taken out — the
    /// same [`Lanes`] and [`Deadlines`], virtual nanoseconds for time,
    /// each deadline fired at its due instant — beside the plant the
    /// lanes must be: a bare `Station` per class in `PinnedRate` mode,
    /// fed the same arrivals and the floor-clamped share of the same
    /// weights, its completions fired when the lanes' are. The
    /// invariants are checked at every step.
    struct Model {
        lanes: Lanes,
        deadlines: Deadlines,
        now: u64,
        /// The completion filed for each class's request in service
        /// (the invariant: at most one per class).
        filed: Vec<Option<f64>>,
        /// The reference plant and its window tallies.
        stations: Vec<Station<Ref>>,
        seq: Seq,
        tallies: Vec<WindowTally>,
        accepted: u32,
        /// `(class, id, service_s)` in completion order, written by the
        /// callbacks.
        log: Arc<Mutex<Vec<(usize, u32, f64)>>>,
        /// Backlog at the last window close, and arrivals and
        /// completions summed over every closed window.
        backlog: Vec<u64>,
        arrivals: u64,
        completions: u64,
        windows: u64,
    }

    impl Model {
        fn new() -> Self {
            let station = || Station::new(1.0 / CLASSES as f64, ServiceMode::PinnedRate);
            Self {
                lanes: Lanes::new(CLASSES, UNIT_S),
                deadlines: Deadlines::default(),
                now: 0,
                filed: vec![None; CLASSES],
                stations: (0..CLASSES).map(|_| station()).collect(),
                seq: Seq::default(),
                tallies: vec![WindowTally::default(); CLASSES],
                accepted: 0,
                log: Arc::default(),
                backlog: vec![0; CLASSES],
                arrivals: 0,
                completions: 0,
                windows: 0,
            }
        }

        fn now_s(&self) -> f64 {
            self.now as f64 / 1e9
        }

        /// Close a control window and check it against the reference's,
        /// and the per-window conservation law: each class's backlog is
        /// its backlog at the last close plus the window's arrivals less
        /// its completions.
        fn close_window(&mut self) {
            let (index, now) = (self.windows, self.now_s());
            let obs = self.lanes.close_window(index, 0.0, now);
            let reference = self.tallies.iter_mut().zip(&self.stations);
            let reference = reference.map(|(t, s)| (std::mem::take(t), s.backlog()));
            let expected = WindowObservation::from_tallies(index, 0.0, now, UNIT_S, reference);
            assert_eq!(obs, expected, "window {index}");
            for (class, (&now, &last)) in obs.backlog.iter().zip(&self.backlog).enumerate() {
                assert_eq!(now, last + obs.arrivals[class] - obs.completions[class], "{class}");
            }
            self.arrivals += obs.arrivals.iter().sum::<u64>();
            self.completions += obs.completions.iter().sum::<u64>();
            self.backlog = obs.backlog;
            self.windows += 1;
        }

        fn submit(&mut self, raw_class: usize, cost: f64) {
            let (log, id, now) = (Arc::clone(&self.log), self.accepted, self.now_s());
            let class = raw_class.min(CLASSES - 1);
            let done = move |c: Completion| lock(&log).push((class, id, c.service_s));
            // The lanes clamp the class.
            match self.lanes.submit(raw_class, cost, Box::new(done), now) {
                Submitted::Rejected => panic!("open lanes accept"),
                Submitted::Queued => assert!(self.filed[class].is_some(), "queued behind a head"),
                Submitted::Start { class, at } => self.file(class, at),
            }
            self.stations[class].arrive(Ref(now, cost * UNIT_S), &mut self.seq);
            self.tallies[class].arrive(cost);
            self.accepted += 1;
        }

        fn set_weights(&mut self, weights: &[f64]) {
            self.lanes.set_weights(weights, self.now_s());
            let total: f64 = weights.iter().sum();
            for (station, &w) in self.stations.iter_mut().zip(weights) {
                station.set_rate((w / total).max(0.01), self.now as f64 / 1e9, &mut self.seq);
            }
        }

        fn file(&mut self, class: usize, at: f64) {
            assert!(self.filed[class].replace(at).is_none(), "one pending finish per class");
            self.deadlines.file(at, class);
        }

        /// Run to `to`, firing each deadline at its due instant: the
        /// first nanosecond at or after its departure, with the
        /// station's stretched service on its receipt. The reference
        /// departs the same request at the same instant.
        fn advance(&mut self, to: u64) {
            while let Some(due) = self.deadlines.next_due().filter(|&due| due <= to) {
                assert!(due >= self.now, "fired out of deadline order");
                self.now = due;
                while let Some((_, class)) = self.deadlines.pop_due(self.now) {
                    let (departure, now) = (self.filed[class].take().unwrap(), self.now_s());
                    assert_eq!(
                        self.now,
                        nanos(departure),
                        "class {class} departed at {departure} s, delivered at {} ns",
                        self.now
                    );
                    let reference = &mut self.stations[class];
                    assert_eq!(reference.completion().0, departure, "the plant's departure");
                    let (job, start) = reference.depart(departure);
                    let done = Completion { delay_s: start - job.0, service_s: now - start };
                    self.tallies[class].depart(done.slowdown());
                    reference.start_next(departure, &mut self.seq);
                    if let Some(at) = self.lanes.finish(class, now) {
                        self.file(class, at);
                    }
                    let (logged, _, service_s) = *lock(&self.log).last().unwrap();
                    let stretched = departure - start;
                    assert_eq!(logged, class, "the receipt just delivered");
                    assert!(
                        (service_s - stretched).abs() <= 1e-9,
                        "class {class}: receipt service {service_s} s, stretched {stretched} s"
                    );
                }
            }
            self.now = to;
        }
    }

    /// The lanes and deadlines against the bare plant, on 8 seeds of
    /// ≥ 3 000 submitted requests each, weight changes (zero, starved
    /// and ordinary weights alike) and window closes in between: the
    /// same departure instants, each delivered at the first nanosecond
    /// at or after its departure with the stretched service on its
    /// receipt, and the same windows.
    #[test]
    fn seeded_schedules_keep_the_task_server_invariants() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from(seed);
            let mut draw = |k: usize| (rng.next_f64() * k as f64) as usize;
            let mut m = Model::new();
            while m.accepted < 3_000 {
                match draw(10) {
                    0..=4 => m.submit(draw(CLASSES + 1), 0.5 + draw(4) as f64), // incl. out of range
                    5..=7 => m.advance(m.now + draw(300_000) as u64),
                    8 => {
                        let weights: Vec<f64> =
                            (0..CLASSES).map(|_| [0.0, 1e-5, 0.3, 1.0, 4.0][draw(5)]).collect();
                        m.set_weights(&weights);
                    }
                    _ => {
                        let pending = m.filed.iter().flatten().count();
                        assert!(m.lanes.in_flight() >= pending);
                        m.close_window();
                    }
                }
            }
            m.lanes.close();
            let refused = m.lanes.submit(0, 1.0, Box::new(|_| {}), m.now_s());
            assert_eq!(refused, Submitted::Rejected, "closed lanes refuse");
            while let Some(due) = m.deadlines.next_due() {
                assert!(!m.lanes.all_drained());
                m.advance(due);
            }
            assert!(m.lanes.all_drained(), "seed {seed}");
            assert_eq!(m.lanes.in_flight(), 0, "seed {seed}");
            m.close_window();
            let accepted = u64::from(m.accepted);
            assert_eq!((m.arrivals, m.completions), (accepted, accepted));
            let log = lock(&m.log);
            assert_eq!(log.len(), m.accepted as usize, "seed {seed}: each completes exactly once");
            for class in 0..CLASSES {
                let ids: Vec<u32> = log.iter().filter(|e| e.0 == class).map(|e| e.1).collect();
                assert!(ids.is_sorted(), "seed {seed}: class {class} is FIFO");
            }
        }
    }
}
