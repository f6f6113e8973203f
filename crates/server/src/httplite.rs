//! The HTTP-lite front-end: classify (`X-Class` header or URL prefix),
//! execute through the PSD dispatch queue, and answer with timing
//! headers so external clients can observe their slowdown.
//!
//! Three interchangeable engines serve the same protocol (selected by
//! [`FrontendConfig::engine`], surfaced as `--engine` on the binaries):
//!
//! * [`EngineKind::Threads`] — the wire-parity reference: one OS thread
//!   per connection, blocked in `submit_sync` while the PSD queue runs
//!   the request. Simple, and fine up to a few dozen connections.
//! * [`EngineKind::Reactor`] — the sharded event loop of
//!   [`crate::reactor`] on its epoll driver: all connections
//!   multiplexed on a few threads, task servers reply through a
//!   completion mailbox + poller wakeup. Hundreds of keep-alive
//!   connections cost file descriptors, not threads.
//! * [`EngineKind::Uring`] — the same loop on its io_uring driver,
//!   falling back to epoll when the kernel refuses io_uring.
//!
//! All engines share the sans-io parser and serializer in
//! [`crate::codec`] (so the wire behavior cannot drift), one routing
//! function ([`route`]: admin ahead of classification, admission ahead
//! of queueing), the vendored [`polling`] readiness poller for the
//! threaded accept loop (no accept-poll sleep), a
//! [`FrontendConfig::max_connections`] cap answered with `503` +
//! `Connection: close`, and a [`FrontendConfig::idle_timeout`] for
//! keep-alive connections. HTTP/1.1 connections are kept alive
//! (`Connection:` headers honored in both directions); HTTP/1.0
//! defaults to close. Parsing is bounded (see the codec's limits), so a
//! hostile client cannot feed the parser unbounded input.
//!
//! This is not a web server — it exists so the "Internet server" in the
//! paper's title is an actual socket-accepting program in the examples,
//! the load-generation harness (`psd-loadgen`) and integration tests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use polling::{Interest, Poller};

pub use crate::codec::{HttpRequest, MAX_BODY_BYTES, MAX_HEADERS, MAX_HEAD_LINE_BYTES};

use crate::admin::{self, AdminInfo};
use crate::classify::classify;
use crate::codec::{RequestCodec, Response};
use crate::reactor;
use crate::server::{Completion, PsdServer};

/// How long an idle keep-alive connection waits for the next request
/// before re-checking the stop flag (threaded engine's read timeout).
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Consecutive mid-request read timeouts tolerated before the
/// connection is dropped as stalled (with [`IDLE_POLL`] this bounds a
/// half-written request head to a few seconds).
const MAX_MID_REQUEST_STALLS: u32 = 50;

/// How long the accept loop parks in the poller between stop-flag
/// checks when no connection arrives. [`HttpFrontend::shutdown`] cuts
/// the wait short with [`Poller::notify`]; for the bare [`serve`] loop
/// (whose caller only has the stop flag) this bounds stop latency, so
/// it stays small — still 25× fewer idle wakeups than the removed 2 ms
/// accept-poll sleep.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// Which front-end engine serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Thread per connection, blocking I/O (the wire-parity reference).
    Threads,
    /// Sharded epoll event loops multiplexing every connection.
    Reactor,
    /// The same sharded reactor on an io_uring completion plane:
    /// batched SQEs, registered buffers, in-ring doorbell. Requires
    /// kernel support — the reactor probes at startup and falls back
    /// to [`EngineKind::Reactor`] (with a logged warning) when the
    /// kernel refuses io_uring.
    Uring,
}

impl EngineKind {
    /// Parse a CLI token (`threads` | `reactor` | `uring`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "threads" => Some(EngineKind::Threads),
            "reactor" => Some(EngineKind::Reactor),
            "uring" => Some(EngineKind::Uring),
            _ => None,
        }
    }

    /// The CLI token for this engine.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Threads => "threads",
            EngineKind::Reactor => "reactor",
            EngineKind::Uring => "uring",
        }
    }
}

/// True when the running kernel accepts io_uring (one cached probe:
/// ring setup + NOP round-trip). [`EngineKind::Uring`] serves on the
/// ring iff this holds; otherwise it falls back to the epoll reactor.
/// Tests and the bench harness use it to self-skip uring cases on
/// kernels (or seccomp sandboxes) without io_uring.
pub fn uring_available() -> bool {
    polling::uring::available()
}

/// Front-end configuration shared by all three engines.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Which engine serves connections.
    pub engine: EngineKind,
    /// Reactor event-loop shards: connections are assigned round-robin
    /// across this many independent epoll threads, each with its own
    /// poller, connection table and completion mailbox (share-nothing).
    /// Ignored by the threaded engine. Clamped to ≥ 1.
    pub shards: usize,
    /// Most concurrently open connections (across all shards); excess
    /// accepts are answered `503 Service Unavailable` +
    /// `Connection: close` immediately.
    pub max_connections: usize,
    /// Idle keep-alive connections (no request in flight, no bytes
    /// arriving) are closed after this long — slow-loris heads count as
    /// idle too, since only *arriving bytes* refresh the clock.
    pub idle_timeout: Duration,
    /// Cost assigned to requests without a `?cost=` parameter.
    pub default_cost: f64,
}

/// The default reactor shard count: one event loop per core, capped at
/// 4 — beyond that the PSD dispatch core, not the event loops, is the
/// bottleneck.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::Threads,
            shards: default_shards(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(30),
            default_cost: 1.0,
        }
    }
}

/// Whether the connection stays open after answering `req`: the client
/// asked for it, the body was framed, and no drain has begun (so
/// shutdown converges).
pub(crate) fn keeps_alive(req: &HttpRequest, draining: bool) -> bool {
    req.keep_alive() && req.framed() && !draining
}

/// What a front end does with one parsed request.
pub(crate) enum Routed {
    /// Answer now and never queue: an admin route, or an admission
    /// shed. The response's own `keep_alive` says whether to close.
    Respond(Response),
    /// Admitted: queue `cost` work units on `class`.
    Submit {
        /// The PSD class the request was classified into.
        class: usize,
        /// Work units, clamped into the band `submit` accepts.
        cost: f64,
    },
}

/// The routing every engine applies to a parsed request, written once:
/// admin routes are served by the front end itself — never classified,
/// admitted or queued — then the request is classified, and the
/// control plane's per-class admission draw (highest classes
/// protected) comes ahead of queueing. `shard` indexes the trace ring
/// for the shed span.
pub(crate) fn route(
    server: &PsdServer,
    req: &HttpRequest,
    draining: bool,
    default_cost: f64,
    shard: usize,
    info: &AdminInfo<'_>,
) -> Routed {
    if let Some(resp) = admin::handle(server, req, keeps_alive(req, draining), info) {
        return Routed::Respond(resp);
    }
    let (class, cost) = class_and_cost(server, req, default_cost);
    if !server.admit(class, cost) {
        push_span(server, shard, class, cost, None);
        return Routed::Respond(shed_response(req.http11));
    }
    Routed::Submit { class, cost }
}

/// Map a parsed request onto (class, cost) for the PSD queue. The cost
/// is clamped into the finite band `submit` accepts — `?cost=inf`
/// parses as a valid f64 and would otherwise trip the queue's
/// positivity assert, letting one request panic a serving thread (or
/// the whole reactor loop).
fn class_and_cost(server: &PsdServer, req: &HttpRequest, default_cost: f64) -> (usize, f64) {
    let class = classify(&req.path, req.x_class.as_deref(), server.num_classes() - 1).class;
    let mut cost = req.cost.unwrap_or(default_cost);
    if !cost.is_finite() {
        cost = 1.0;
    }
    (class, cost.clamp(1e-3, 1e9))
}

/// Serialize the `200 OK` response every engine sends for an executed
/// request **directly into `out`**, using `scratch` for the body (the
/// head needs the body length first). Both buffers are caller-owned
/// and reused across requests, so the per-request response path
/// allocates nothing — the old `Response`-building version cost a
/// `Vec`, three header `String`s and a body `String` per request,
/// which at reactor rates was the largest allocation source in the
/// server. The wire bytes are identical between engines because all
/// call exactly this function.
pub(crate) fn write_ok_response(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    req: &HttpRequest,
    class: usize,
    cost: f64,
    done: &Completion,
    keep_alive: bool,
) {
    scratch.clear();
    let _ = writeln!(
        scratch,
        "served path={} class={} cost={:.3} delay_s={:.6} service_s={:.6} slowdown={:.3}",
        req.path,
        class,
        cost,
        done.delay_s,
        done.service_s,
        done.slowdown()
    );
    let proto = if req.http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "{proto} 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\nX-Class: {class}\r\n\
         X-Delay-Us: {}\r\nX-Slowdown: {:.4}\r\n\r\n",
        scratch.len(),
        (done.delay_s * 1e6) as u64,
        done.slowdown()
    );
    out.extend_from_slice(scratch);
}

/// Record one completed request into the trace ring and the latency
/// histogram. Assembled exactly once, at respond time, from values the
/// response path already has — the only extra work on the hot path is
/// one sampling draw and (when kept) a slot overwrite; no allocation.
/// `total` is admit-to-respond; write-back is whatever of it the queue
/// and the task server cannot account for.
pub(crate) fn record_span(
    server: &PsdServer,
    shard: usize,
    class: usize,
    cost: f64,
    done: &Completion,
    total: Duration,
) {
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    let queue_ns = (done.delay_s.max(0.0) * 1e9) as u64;
    let service_ns = (done.service_s.max(0.0) * 1e9) as u64;
    let writeback_ns = total_ns.saturating_sub(queue_ns.saturating_add(service_ns));
    push_span(server, shard, class, cost, Some((queue_ns, service_ns, writeback_ns)));
    server.obs().observe_latency_ns(class, total_ns);
}

/// One trace-ring record: `stages` are the (queueing, service,
/// write-back) nanoseconds of an admitted request; `None` records a
/// request turned away by the admission draw (zero timing stages,
/// `admitted: false`) so `/trace` decompositions account shed load per
/// class.
fn push_span(
    server: &PsdServer,
    shard: usize,
    class: usize,
    cost: f64,
    stages: Option<(u64, u64, u64)>,
) {
    let (queue_ns, service_ns, writeback_ns) = stages.unwrap_or_default();
    server.obs().spans.record(
        shard,
        psd_obs::SpanRecord {
            seq: 0,
            class: class as u32,
            shard: shard as u32,
            admitted: stages.is_some(),
            cost,
            queue_ns,
            service_ns,
            nominal_ns: (cost * server.work_unit().as_secs_f64() * 1e9) as u64,
            writeback_ns,
        },
    );
}

/// A stable per-thread index for sharding trace-ring writes from the
/// threaded engine (the reactor uses its shard index instead).
fn span_shard() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// `400 Bad Request`, always closing (malformed head — the framing is
/// unknown, so the HTTP/1.0 status line is the safe common ground).
pub(crate) fn bad_request() -> Response {
    Response::empty(false, 400, "Bad Request", false)
}

/// `503 Service Unavailable`, always closing.
pub(crate) fn service_unavailable(http11: bool) -> Response {
    Response::empty(http11, 503, "Service Unavailable", false)
}

/// The admission-shed response: `503` + `Connection: close` like the
/// saturation answer, but tagged `X-Shed: 1` so load generators can
/// account shed load separately from failures. Closing is deliberate:
/// a shedding server wants the connection's kernel buffers back, and a
/// well-behaved client backs off before reconnecting.
fn shed_response(http11: bool) -> Response {
    let mut resp = Response::empty(http11, 503, "Service Unavailable", false);
    resp.extra_headers.push(("X-Shed", "1".to_string()));
    resp
}

/// Answer one over-cap accept with 503 and drop the connection. Writes
/// with a short timeout so a client that never reads cannot wedge the
/// accept path.
fn reject_saturated(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(&service_unavailable(true).to_bytes());
}

/// Serve requests on one connection until it closes, errors, asks for
/// `Connection: close`, idles past the timeout, or `stop` flips while
/// the connection is idle. (Threaded engine: the codec does the
/// parsing; this loop owns the blocking socket and the stall policy.)
fn handle_connection(
    stream: TcpStream,
    server: &PsdServer,
    default_cost: f64,
    idle_timeout: Duration,
    stop: &AtomicBool,
) {
    // The idle poll lets keep-alive handlers notice a drain request.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut codec = RequestCodec::new();
    let mut chunk = [0u8; 8192];
    // Reused across every request on this connection: the response
    // head+body buffer and the body-formatting scratch (see
    // `write_ok_response`) — zero per-request allocation after warmup.
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut stalls = 0u32;
    let mut idle_since = Instant::now();
    loop {
        // Serve everything already parsed before reading again.
        match codec.poll() {
            Err(_) => {
                let _ = stream.write_all(&bad_request().to_bytes());
                return;
            }
            Ok(Some(req)) => {
                let draining = stop.load(Ordering::SeqCst);
                let since = Instant::now();
                let info = AdminInfo { engine: EngineKind::Threads, shards: &[] };
                let (class, cost) =
                    match route(server, &req, draining, default_cost, span_shard(), &info) {
                        Routed::Respond(resp) => {
                            if stream.write_all(&resp.to_bytes()).is_err() || !resp.keep_alive {
                                return;
                            }
                            idle_since = Instant::now();
                            continue;
                        }
                        Routed::Submit { class, cost } => (class, cost),
                    };
                let Some(done) = server.submit_sync(class, cost) else {
                    // Server already shutting down.
                    let _ = stream.write_all(&service_unavailable(req.http11).to_bytes());
                    return;
                };
                let keep = keeps_alive(&req, draining);
                out.clear();
                write_ok_response(&mut out, &mut scratch, &req, class, cost, &done, keep);
                let written = stream.write_all(&out);
                // Threaded engine spans include the socket write:
                // write-back here is real write-back.
                record_span(server, span_shard(), class, cost, &done, since.elapsed());
                if written.is_err() || !keep {
                    return;
                }
                idle_since = Instant::now();
                continue;
            }
            Ok(None) => {}
        }
        match stream.read(&mut chunk) {
            // EOF: a clean close between requests, or a truncated
            // request — either way there is nothing left to answer.
            Ok(0) => return,
            Ok(n) => {
                codec.feed(&chunk[..n]);
                stalls = 0; // data arrived: the client is making progress
                idle_since = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if codec.is_mid_request() {
                    stalls += 1;
                    if stalls > MAX_MID_REQUEST_STALLS {
                        let _ = stream.write_all(&bad_request().to_bytes());
                        return;
                    }
                } else {
                    if stop.load(Ordering::SeqCst) {
                        return; // graceful drain: close the idle connection
                    }
                    if idle_since.elapsed() >= idle_timeout {
                        return; // idle keep-alive expired
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// Counts in-flight connection handlers so a drain can wait for them
/// and the accept loop can enforce the connection cap.
#[derive(Default)]
struct ConnTracker {
    active: Mutex<usize>,
    idle: Condvar,
}

impl ConnTracker {
    fn started(&self) {
        *self.active.lock() += 1;
    }

    fn finished(&self) {
        let mut g = self.active.lock();
        *g -= 1;
        if *g == 0 {
            self.idle.notify_all();
        }
    }

    /// RAII completion: releases the handler's `PsdServer` `Arc` and
    /// then reports the slot free — **also on unwind**, so a panicking
    /// handler cannot leak a `max_connections` slot or wedge
    /// `wait_idle` forever.
    fn guard(self: &Arc<Self>, server: Arc<PsdServer>) -> HandlerGuard {
        self.started();
        HandlerGuard { server: Some(server), tracker: Arc::clone(self) }
    }

    fn active(&self) -> usize {
        *self.active.lock()
    }

    /// Wait until no handler is running, up to `timeout`. Returns the
    /// number of handlers still alive (0 on success).
    fn wait_idle(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut g = self.active.lock();
        while *g > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.idle.wait_for(&mut g, deadline - now);
        }
        *g
    }
}

/// See [`ConnTracker::guard`].
struct HandlerGuard {
    server: Option<Arc<PsdServer>>,
    tracker: Arc<ConnTracker>,
}

impl HandlerGuard {
    fn server(&self) -> &PsdServer {
        self.server.as_deref().expect("held until drop")
    }
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        // Release the server before reporting done, so a drain that saw
        // zero handlers can unwrap the Arc.
        self.server.take();
        self.tracker.finished();
    }
}

fn accept_loop(
    listener: TcpListener,
    server: Arc<PsdServer>,
    cfg: FrontendConfig,
    stop: Arc<AtomicBool>,
    tracker: Arc<ConnTracker>,
    poller: Arc<Poller>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), 0, Interest::READABLE)?;
    let mut events = Vec::new();
    let result = 'outer: loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        // Readiness-based accept: park in the poller until a connection
        // arrives (or shutdown notifies) instead of the old 2 ms
        // sleep-poll, which burned idle CPU and jittered accept latency.
        if let Err(e) = poller.wait(&mut events, Some(ACCEPT_TICK)) {
            break Err(e);
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if tracker.active() >= cfg.max_connections {
                        reject_saturated(stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(false);
                    let stop = Arc::clone(&stop);
                    let guard = tracker.guard(Arc::clone(&server));
                    let default_cost = cfg.default_cost;
                    let idle_timeout = cfg.idle_timeout;
                    thread::spawn(move || {
                        handle_connection(
                            stream,
                            guard.server(),
                            default_cost,
                            idle_timeout,
                            &stop,
                        );
                        drop(guard);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break 'outer Err(e),
            }
        }
    };
    let _ = poller.delete(listener.as_raw_fd());
    result
}

/// Accept loop: serve connections until `stop` flips, one thread per
/// connection with the default [`FrontendConfig`] limits.
///
/// This is the bare loop; [`HttpFrontend`] wraps it with the graceful
/// drain the `psd_httpd` binary and the load-generation harness use.
pub fn serve(
    listener: TcpListener,
    server: Arc<PsdServer>,
    default_cost: f64,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let cfg = FrontendConfig { default_cost, ..FrontendConfig::default() };
    let poller = Arc::new(Poller::new()?);
    accept_loop(listener, server, cfg, stop, Arc::new(ConnTracker::default()), poller)
}

enum Engine {
    Threads {
        stop: Arc<AtomicBool>,
        tracker: Arc<ConnTracker>,
        poller: Arc<Poller>,
        accept: Option<JoinHandle<io::Result<()>>>,
    },
    Reactor(reactor::Handle),
}

/// A running HTTP front-end with a graceful drain: `shutdown` stops
/// accepting, closes idle keep-alive connections, waits for in-flight
/// requests, and joins the engine's threads. Construct with
/// [`HttpFrontend::start`] (threaded engine, defaults) or
/// [`HttpFrontend::start_with`] (explicit [`FrontendConfig`], any
/// engine).
pub struct HttpFrontend {
    addr: SocketAddr,
    engine: Engine,
}

impl HttpFrontend {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the **threaded** engine with default limits — the legacy
    /// constructor most tests use.
    pub fn start(addr: &str, server: Arc<PsdServer>, default_cost: f64) -> io::Result<Self> {
        Self::start_with(addr, server, FrontendConfig { default_cost, ..FrontendConfig::default() })
    }

    /// Start the threaded engine on an already-bound listener.
    pub fn start_on(
        listener: TcpListener,
        server: Arc<PsdServer>,
        default_cost: f64,
    ) -> io::Result<Self> {
        Self::start_on_with(
            listener,
            server,
            FrontendConfig { default_cost, ..FrontendConfig::default() },
        )
    }

    /// Bind `addr` and start the engine selected by `cfg`.
    pub fn start_with(addr: &str, server: Arc<PsdServer>, cfg: FrontendConfig) -> io::Result<Self> {
        Self::start_on_with(TcpListener::bind(addr)?, server, cfg)
    }

    /// Start the engine selected by `cfg` on an already-bound listener.
    pub fn start_on_with(
        listener: TcpListener,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let engine = match cfg.engine {
            EngineKind::Threads => {
                let stop = Arc::new(AtomicBool::new(false));
                let tracker = Arc::new(ConnTracker::default());
                let poller = Arc::new(Poller::new()?);
                let accept = {
                    let stop = Arc::clone(&stop);
                    let tracker = Arc::clone(&tracker);
                    let poller = Arc::clone(&poller);
                    thread::spawn(move || accept_loop(listener, server, cfg, stop, tracker, poller))
                };
                Engine::Threads { stop, tracker, poller, accept: Some(accept) }
            }
            EngineKind::Reactor | EngineKind::Uring => {
                Engine::Reactor(reactor::Handle::start(listener, server, cfg)?)
            }
        };
        Ok(Self { addr, engine })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which engine is **actually** serving — after an io_uring probe
    /// failure this reports [`EngineKind::Reactor`] even though the
    /// config asked for [`EngineKind::Uring`], so callers (and the
    /// harness) can see which plane they measured.
    pub fn engine(&self) -> EngineKind {
        match &self.engine {
            Engine::Threads { .. } => EngineKind::Threads,
            Engine::Reactor(handle) => handle.engine(),
        }
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// close idle keep-alive connections, join the engine's threads.
    /// Returns the number of connections (reactor) or handler threads
    /// (threaded) that failed to finish within `timeout` — 0 on a clean
    /// drain; non-zero leftovers keep the `PsdServer` `Arc` alive.
    pub fn shutdown(mut self, timeout: Duration) -> io::Result<usize> {
        match &mut self.engine {
            Engine::Threads { stop, tracker, poller, accept } => {
                stop.store(true, Ordering::SeqCst);
                let _ = poller.notify();
                let accept_result = match accept.take() {
                    Some(h) => h
                        .join()
                        .map_err(|_| io::Error::other("accept thread panicked"))
                        .and_then(|r| r),
                    None => Ok(()),
                };
                // Even when the accept loop died early, wait for the
                // handlers it already spawned before reporting —
                // otherwise callers tear the server down under live
                // connections.
                let leftover = tracker.wait_idle(timeout);
                accept_result?;
                Ok(leftover)
            }
            Engine::Reactor(handle) => handle.shutdown(timeout),
        }
    }
}

impl Drop for HttpFrontend {
    /// Dropping without [`HttpFrontend::shutdown`] (e.g. on an error
    /// path) still stops the engine and reclaims its accept/event
    /// thread and port; threaded connection handlers wind down on their
    /// next idle poll.
    fn drop(&mut self) {
        if let Engine::Threads { stop, poller, accept, .. } = &mut self.engine {
            stop.store(true, Ordering::SeqCst);
            let _ = poller.notify();
            if let Some(h) = accept.take() {
                let _ = h.join();
            }
        }
        // The reactor handle has its own Drop with the same contract.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PsdServer, ServerConfig};
    use std::io::Read;

    fn quick_server() -> Arc<PsdServer> {
        Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            work_unit: Duration::from_micros(100),
            ..ServerConfig::default()
        }))
    }

    #[test]
    fn keep_alive_survives_request_bodies() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        // A request with a body, then a second request on the same
        // connection: the body must be drained, not parsed as a head.
        s.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        s.write_all(b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        let oks = all.matches("HTTP/1.1 200 OK").count();
        assert_eq!(oks, 2, "both requests must answer 200, got:\n{all}");
        assert!(!all.contains("400"), "body bytes must not desync the parser:\n{all}");
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn malformed_head_answers_400() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.write_all(b"GET\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.0 400"), "got:\n{all}");
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn saturated_threaded_engine_answers_503() {
        let server = quick_server();
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { max_connections: 2, ..FrontendConfig::default() },
        )
        .expect("bind");
        // Two connections occupy the cap (handlers spawn at accept)…
        let mut held: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(fe.addr()).expect("connect");
                s.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
                let mut buf = [0u8; 256];
                let n = s.read(&mut buf).unwrap();
                assert!(std::str::from_utf8(&buf[..n]).unwrap().contains("200 OK"));
                s
            })
            .collect();
        // …so the third is rejected outright with 503 + close.
        let mut s3 = TcpStream::connect(fe.addr()).expect("connect");
        let mut all = String::new();
        s3.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 503"), "over-cap accept must 503, got:\n{all}");
        assert!(all.contains("Connection: close"), "got:\n{all}");
        // Closing one held connection frees a slot for new arrivals.
        held.pop();
        std::thread::sleep(Duration::from_millis(300));
        let mut s4 = TcpStream::connect(fe.addr()).expect("connect");
        s4.write_all(b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut all = String::new();
        s4.read_to_string(&mut all).unwrap();
        assert!(all.contains("200 OK"), "freed slot must serve again, got:\n{all}");
        drop(held);
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn threaded_idle_timeout_closes_quiet_keep_alives() {
        let server = quick_server();
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig {
                idle_timeout: Duration::from_millis(250),
                ..FrontendConfig::default()
            },
        )
        .expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 512];
        let n = s.read(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n]).unwrap().contains("200 OK"));
        // Now go quiet: the server must close us, not hold the handler
        // thread forever.
        let t = Instant::now();
        let n = s.read(&mut buf).unwrap();
        assert_eq!(n, 0, "idle connection must be closed by the server");
        assert!(t.elapsed() >= Duration::from_millis(150), "not closed *immediately*");
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn dropping_frontend_stops_the_accept_loop() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let addr = fe.addr();
        drop(fe); // no shutdown(): Drop must still stop the accept thread
                  // Once the loop is gone, fresh connections go unserved: either
                  // the connect fails or the socket just closes without a byte.
        std::thread::sleep(Duration::from_millis(30));
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.write_all(b"GET / HTTP/1.0\r\n\r\n");
            let mut buf = [0u8; 16];
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "accept loop must be dead after drop"
            );
        }
        Arc::try_unwrap(server).ok().expect("no handlers left").shutdown();
    }
}
