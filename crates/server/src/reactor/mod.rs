//! The sharded reactor engine: connections multiplexed over N
//! independent event-loop threads ("shards"), so concurrency costs file
//! descriptors instead of OS threads and event handling scales across
//! cores without any shared connection state.
//!
//! One loop, two drivers. `shard::Shard` is the event loop and the
//! per-connection state machine — written once; what differs between
//! [`crate::EngineKind::Reactor`] and [`crate::EngineKind::Uring`] is
//! only the `driver::Driver` underneath, the thing that moves bytes:
//!
//! ```text
//!            ┌─ Shard<D> 0 (its driver owns the listener) ───────────────┐
//!            │ wait ≤ min(TICK, next deadline − ε) ▶ I/O events ▶ spin   │
//!            │   to the deadline ▶ deadlines ▶ handoffs ▶ PSD            │
//!            │   completions ▶ idle sweep                                │
//!  accept ──▶│   round-robin: keep conn, or hand stream to shard k ──────┼──┐
//!            │   Reading ─▶ codec ─▶ route ─▶ submit_async ──────────────┼──┼─▶ class lane
//!            │   Waiting (parked) ◀─ mailbox ◀─ fires its own deadlines  │  │ (the
//!            │   Flushing ─▶ keep-alive (pipelined pickup) or close      │  │ deadline store
//!            ├───────────────────────────────────────────────────────────┤  │ claimed by
//!            │ D: Driver   wait · next_event · accept · open · read ·    │  │ shard 0)
//!            │             defer_read · arm_read · flush · close         │  │ fire → callback:
//!            │   EpollDriver  epoll_pwait2, read(2)/write(2)/accept(2),  │  │ mailbox.push
//!            │                registered once (ET), parked = unread      │  │ + eventfd ring
//!            │   UringDriver  one io_uring_enter per turn, read/write    │  │ (coalesced; none
//!            │                SQEs, multishot accept, in-ring doorbell,  │  │ from shard 0's
//!            │                close = cancel + wait out the CQEs         │  │ own loop)
//!            └───────────────────────────────────────────────────────────┘  │
//!            ┌─ Shard<D> 1..N-1 ─────────────────────────────────────────┐  │
//!            │ same loop, same driver type, own mailbox ◀── doorbell ◀───┼──┘
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! Share-nothing by construction: each shard owns its driver, its
//! connection table, its completion mailbox, its buffer pool and its
//! scratch vectors. The only cross-shard state is the global live
//! connection counter (for the `max_connections` cap) and the one-way
//! stream handoff inboxes filled by the accepting shard.
//!
//! Who fires a deadline: shard 0 claims the task servers' one
//! deadline store when its loop starts (if its driver's waits end on
//! time to the nanosecond) and releases it when the loop exits. Each of
//! its turns waits at most until ε (10 µs) before the next deadline,
//! handles the I/O events, spins out the last ε on the clock (yielding
//! the core between reads, but not in the last few microseconds) and
//! fires what is due, so a deadline fires at
//! its nanosecond instead of a kernel wake latency (7–9 µs) late, and a
//! reply to one of its own connections leaves from the thread that
//! parked it, in the turn its deadline fires, with no eventfd write and
//! no second wait. A submit on another
//! shard that files a new earliest deadline rings shard 0's poller.
//! Completions for other shards' connections, and every completion
//! while the timer thread holds the store, reply through the owning
//! shard's mailbox; the eventfd ring is **coalesced** — a completion
//! only writes the eventfd when it is the first into an empty mailbox,
//! so a burst of completions costs one wakeup, not one syscall each.
//!
//! Each loop turn reads the clock **once** for its I/O (shard 0 reads it
//! again to bound its wait, to spin, and after a fire) and stamps
//! everything it handles with it (the coarse cached clock);
//! per-connection idle bookkeeping never calls `clock_gettime` itself.

mod driver;
mod epoll;
mod shard;
mod uring;

use std::cell::Cell;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use polling::Poller;
use psd_obs::{ReactorShardStats, UringStats};

use crate::locks::{lock, wait_timeout};
use crate::server::{Completion, PsdServer};
use crate::{EngineKind, FrontendConfig};

use driver::Driver;
use epoll::EpollDriver;
use shard::Shard;
use uring::UringDriver;

/// Event-loop tick: upper bound on a turn's wait, so on idle-sweep
/// latency and stop-flag latency (wakeups via the eventfd, and the next
/// deadline on the shard that fires them, end a wait sooner).
pub(crate) const TICK: Duration = Duration::from_millis(100);

/// During a drain, how long a mid-request connection may go without
/// byte progress before it is closed anyway (see the shard's idle
/// sweep; the threaded engine's read loop applies the same bound).
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Accepted streams handed off by the accepting shard, waiting to be
/// registered by the owning shard's loop. `closed` flips (under the
/// same lock) when that loop exits, so a handoff racing the exit is
/// refused instead of stranded — the accepting shard then answers the
/// client itself rather than leaking a live-counter slot.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) streams: Vec<TcpStream>,
    pub(crate) closed: bool,
}

/// Cross-thread state of one shard, shared between its event loop, the
/// PSD completion callbacks targeting its connections, the accepting
/// shard (stream handoffs), the admin exposition and the owning
/// [`Handle`].
pub(crate) struct Shared {
    pub(crate) poller: Poller,
    pub(crate) stop: AtomicBool,
    /// (connection key, completion) pairs posted by PSD executors.
    pub(crate) mailbox: Mutex<Vec<(usize, Completion)>>,
    pub(crate) inbox: Mutex<Inbox>,
    pub(crate) exited: Mutex<bool>,
    pub(crate) exited_cv: Condvar,
    /// Live connections across all shards, backing the
    /// `max_connections` cap.
    pub(crate) live: Arc<AtomicUsize>,
    /// This shard's event-loop counters (`GET /metrics/prometheus`).
    pub(crate) stats: ReactorShardStats,
    /// Ring counters, published only by the uring driver.
    pub(crate) uring_stats: UringStats,
}

impl Shared {
    fn new(live: Arc<AtomicUsize>) -> io::Result<Arc<Self>> {
        Ok(Arc::new(Self {
            poller: Poller::new()?,
            stop: AtomicBool::new(false),
            mailbox: Mutex::new(Vec::new()),
            inbox: Mutex::new(Inbox::default()),
            exited: Mutex::new(false),
            exited_cv: Condvar::new(),
            live,
            stats: ReactorShardStats::default(),
            uring_stats: UringStats::default(),
        }))
    }

    /// Post a completion for `key` and ring the shard's eventfd only if
    /// the mailbox was empty — completions arriving while a wakeup is
    /// already pending coalesce into the same poller wake — and the
    /// caller is not the shard's own loop. That loop posts only while it
    /// fires deadlines, which precedes its mailbox drain in the same
    /// turn: a ring would only cost an eventfd write and a second wait.
    pub(crate) fn post_completion(&self, key: usize, done: Completion) {
        let was_empty = {
            let mut mb = lock(&self.mailbox);
            let was_empty = mb.is_empty();
            mb.push((key, done));
            was_empty
        };
        if was_empty && !std::ptr::eq(LOOP.get(), self) {
            let _ = self.poller.notify();
        }
    }
}

thread_local! {
    /// The shard whose loop runs on this thread, if any (the address of
    /// its [`Shared`]; set by the loop, compared by `post_completion`).
    pub(crate) static LOOP: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// A running reactor front-end. Created through
/// [`crate::HttpFrontend::start_with`] with [`EngineKind::Reactor`] or
/// [`EngineKind::Uring`].
pub struct Handle {
    shards: Vec<(Arc<Shared>, Option<JoinHandle<()>>)>,
    live: Arc<AtomicUsize>,
    engine: EngineKind,
}

impl Handle {
    /// Spawn `cfg.shards` event loops on the driver `cfg.engine` asks
    /// for; shard 0 owns `listener` and assigns accepted connections
    /// round-robin. [`EngineKind::Uring`] falls back to epoll — once,
    /// here, with the reason on stderr — when the kernel refuses
    /// io_uring or is older than 5.19; [`Handle::engine`] reports what
    /// actually runs.
    ///
    /// Every driver (ring, listener registration) is built before any
    /// thread spawns, so a failure fails this call instead of leaving a
    /// half-started reactor.
    pub(crate) fn start(
        listener: TcpListener,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let n = cfg.shards.max(1);
        let live = Arc::new(AtomicUsize::new(0));
        let shareds =
            (0..n).map(|_| Shared::new(Arc::clone(&live))).collect::<io::Result<Vec<_>>>()?;
        // Shard 0's driver keeps the listener itself — the fd moves
        // with it, so no re-registration races.
        let mut listener = Some(listener);
        let rings = if cfg.engine == EngineKind::Uring { uring::engines(n) } else { None };
        let (engine, threads) = match rings {
            Some(rings) => {
                let drivers = rings.into_iter().zip(&shareds).map(|(ring, shared)| {
                    UringDriver::new(ring, listener.take(), Arc::clone(shared))
                });
                spawn_shards(drivers, &shareds, &server, &cfg)?
            }
            None => {
                let drivers =
                    shareds.iter().map(|sh| EpollDriver::new(listener.take(), Arc::clone(sh)));
                spawn_shards(drivers, &shareds, &server, &cfg)?
            }
        };
        Ok(Self { shards: shareds.into_iter().zip(threads).collect(), live, engine })
    }

    /// The engine this reactor's shards actually run.
    pub(crate) fn engine(&self) -> EngineKind {
        self.engine
    }

    fn signal_stop(&self) {
        for (shared, _) in &self.shards {
            shared.stop.store(true, Ordering::SeqCst);
            let _ = shared.poller.notify();
        }
    }

    /// Graceful drain: stop accepting, close idle connections, serve
    /// out in-flight requests, then join every shard. Returns the
    /// number of connections still alive after `timeout` (0 on a clean
    /// drain); non-zero means some loop is still flushing and keeps its
    /// `PsdServer` `Arc`.
    pub(crate) fn shutdown(&mut self, timeout: Duration) -> io::Result<usize> {
        self.signal_stop();
        let deadline = Instant::now() + timeout;
        let mut clean = true;
        for (shared, thread) in &mut self.shards {
            let mut exited = lock(&shared.exited);
            while !*exited {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                exited = wait_timeout(&shared.exited_cv, exited, deadline - now);
            }
            let this_clean = *exited;
            drop(exited);
            clean &= this_clean;
            if this_clean {
                if let Some(h) = thread.take() {
                    h.join().map_err(|_| io::Error::other("reactor shard panicked"))?;
                }
            }
        }
        if clean {
            Ok(0)
        } else {
            Ok(self.live.load(Ordering::SeqCst).max(1))
        }
    }
}

impl Drop for Handle {
    /// Dropping without a shutdown still stops every shard; in-flight
    /// PSD requests complete (the executors are alive until
    /// `PsdServer::shutdown`) so the joins below converge, mirroring
    /// the threaded engine's drop contract.
    fn drop(&mut self) {
        self.signal_stop();
        for (_, thread) in &mut self.shards {
            if let Some(h) = thread.take() {
                let _ = h.join();
            }
        }
    }
}

/// Build every driver, then start one named thread per driver, each
/// running a [`Shard`] to its exit and then reporting it. Returns the
/// engine the drivers realize.
fn spawn_shards<D>(
    drivers: impl Iterator<Item = io::Result<D>>,
    shareds: &[Arc<Shared>],
    server: &Arc<PsdServer>,
    cfg: &FrontendConfig,
) -> io::Result<(EngineKind, Vec<Option<JoinHandle<()>>>)>
where
    D: Driver + Send + 'static,
    D::Io: Send,
{
    let drivers = drivers.collect::<io::Result<Vec<D>>>()?;
    let mut threads = Vec::with_capacity(drivers.len());
    for (i, driver) in drivers.into_iter().enumerate() {
        let mut shard = Shard::new(driver, shareds.to_vec(), i, Arc::clone(server), cfg.clone());
        let shared = Arc::clone(&shareds[i]);
        let name = format!("psd-{}-{i}", D::ENGINE.as_str());
        threads.push(Some(thread::Builder::new().name(name).spawn(move || {
            shard.run();
            // Driver teardown and the `PsdServer` release come before
            // the exit report: a drain that saw it may unwrap the Arc.
            drop(shard);
            *lock(&shared.exited) = true;
            shared.exited_cv.notify_all();
        })?));
    }
    Ok((D::ENGINE, threads))
}
