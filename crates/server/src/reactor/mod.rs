//! The sharded reactor engine: connections multiplexed over N
//! independent event-loop threads ("shards"), so concurrency costs file
//! descriptors instead of OS threads and event handling scales across
//! cores without any shared connection state.
//!
//! One loop, two drivers. [`shard::Shard`] is the event loop and the
//! per-connection state machine — written once; what differs between
//! [`crate::EngineKind::Reactor`] and [`crate::EngineKind::Uring`] is
//! only the [`driver::Driver`] underneath, the thing that moves bytes:
//!
//! ```text
//!            ┌─ Shard<D> 0 (its driver owns the listener) ───────────────┐
//!            │ I/O events ▶ handoffs ▶ PSD completions ▶ idle sweep      │
//!  accept ──▶│   round-robin: keep conn, or hand stream to shard k ──────┼──┐
//!            │   Reading ─▶ codec ─▶ route ─▶ submit_async ──────────────┼──┼─▶ PSD queue
//!            │   Waiting (parked) ◀─ mailbox ◀─ doorbell ◀───────────────┼◀─┼──────┘
//!            │   Flushing ─▶ keep-alive (pipelined pickup) or close      │  │ task server
//!            ├───────────────────────────────────────────────────────────┤  │ callback:
//!            │ D: Driver   wait · next_event · accept · open · read ·    │  │ mailbox.push
//!            │             arm_read · park · flush · close               │  │ + eventfd ring
//!            │   EpollDriver  epoll_wait, read(2)/write(2)/accept(2),    │  │ (coalesced)
//!            │                interest = phase, parked = deregistered    │  │
//!            │   UringDriver  one io_uring_enter per turn, fixed-buffer  │  │
//!            │                SQEs, multishot accept, in-ring doorbell,  │  │
//!            │                close = cancel + wait out the CQEs         │  │
//!            └───────────────────────────────────────────────────────────┘  │
//!            ┌─ Shard<D> 1..N-1 ─────────────────────────────────────────┐  │
//!            │ same loop, same driver type, own mailbox ◀── inbox ◀──────┼──┘
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! Share-nothing by construction: each shard owns its driver, its
//! connection table, its completion mailbox, its buffer pool and its
//! scratch vectors. The only cross-shard state is the global live
//! connection counter (for the `max_connections` cap) and the one-way
//! stream handoff inboxes filled by the accepting shard. Task servers
//! reply through the owning shard's mailbox; the eventfd ring is
//! **coalesced** — a completion only writes the eventfd when it is the
//! first into an empty mailbox, so a burst of completions costs one
//! wakeup, not one syscall each.
//!
//! Each loop turn reads the clock **once** and stamps everything it
//! handles with it (the coarse cached clock); per-connection idle
//! bookkeeping never calls `clock_gettime` itself.

mod driver;
mod epoll;
mod shard;
mod uring;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use polling::Poller;
use psd_obs::{ReactorShardStats, UringStats};

use crate::server::{Completion, PsdServer};
use crate::{EngineKind, FrontendConfig};

use driver::Driver;
use epoll::EpollDriver;
use shard::Shard;
use uring::UringDriver;

/// Event-loop tick: upper bound on idle-sweep latency and stop-flag
/// latency (wakeups via the eventfd make the common paths immediate).
pub(crate) const TICK: Duration = Duration::from_millis(100);

/// During a drain, how long a mid-request connection may go without
/// byte progress before it is closed anyway (see the shard's idle
/// sweep).
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
    /// already pending coalesce into the same poller wake.
    pub(crate) fn post_completion(&self, key: usize, done: Completion) {
        let was_empty = {
            let mut mb = self.mailbox.lock();
            let was_empty = mb.is_empty();
            mb.push((key, done));
            was_empty
        };
        if was_empty {
            let _ = self.poller.notify();
        }
    }
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
    /// io_uring; [`Handle::engine`] reports what actually runs.
    ///
    /// Every driver (ring, registered buffer arena, listener
    /// registration) is built before any thread spawns, so a failure
    /// fails this call instead of leaving a half-started reactor.
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
            let mut exited = shared.exited.lock();
            while !*exited {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                shared.exited_cv.wait_for(&mut exited, deadline - now);
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
            *shared.exited.lock() = true;
            shared.exited_cv.notify_all();
        })?));
    }
    Ok((D::ENGINE, threads))
}
