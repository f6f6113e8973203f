//! One reactor shard: a single-threaded event loop owning a subset of
//! the connections (assigned round-robin by the accepting shard),
//! generic over the [`Driver`] that moves its bytes.
//!
//! Per-connection state machine ([`Phase`]):
//!
//! * `Reading` — the driver delivers arriving bytes; they feed the
//!   sans-io codec until a full request (head + drained body) is
//!   parsed.
//! * `Waiting` — parked: the request sits in the PSD dispatch queue and
//!   the driver holds no interest and no operation for the connection,
//!   so it costs nothing. Pipelined bytes stay in the kernel socket
//!   buffer (natural TCP backpressure, like the blocked thread of the
//!   thread-per-connection engine). The PSD executor's completion
//!   callback posts into this shard's mailbox and rings its doorbell.
//! * `Flushing` — the driver drains [`WriteBuf`], resuming at the exact
//!   byte offset after every short write; then back to `Reading`
//!   (keep-alive, picking up a pipelined request already buffered) or
//!   close.
//!
//! Idle policy: only *arriving or departing bytes* refresh a
//! connection's clock, so both a silent keep-alive and a slow-loris
//! drip-feeding a head are reaped after `idle_timeout` (the drip
//! refreshes the clock per byte, but each head line is bounded, so the
//! bounded parser plus the cap on connections bounds total exposure).
//! `Waiting` connections are exempt — their latency belongs to the PSD
//! queue, which is the thing under test.
//!
//! One loop turn, in this order on every driver: wait (the turn's one
//! blocking call), read the clock once, handle I/O events, adopt
//! handed-off streams, answer PSD completions, sweep idle connections.
//! The inbox and mailbox drains come *after* the I/O events because a
//! completion driver consumes the doorbell while reaping them: a ring
//! that lands mid-turn is then still followed by a drain in the same
//! turn, instead of waiting out the next tick with its doorbell spent.
//!
//! Allocation discipline: the loop owns every scratch buffer it uses
//! (drained completions, handed-off streams, expiry key
//! lists, the response-body scratch) and a pool of retired
//! per-connection codec/write buffers, so steady-state event handling
//! performs **no allocation per event** — `tests/reactor_alloc.rs`
//! pins this with a counting global allocator.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::admin::AdminInfo;
use crate::codec::{HttpRequest, RequestCodec, Response, WriteBuf};
use crate::httplite::{
    bad_request, keeps_alive, record_span, route, service_unavailable, write_ok_response, Routed,
};
use crate::server::{Completion, PsdServer};
use crate::FrontendConfig;

use super::driver::{Driver, Flush, IoEvent};
use super::{Shared, DRAIN_GRACE, TICK};

/// How many retired (codec, write) buffer pairs a shard keeps for
/// reuse by future connections.
const POOL_CAP: usize = 256;

/// Where a connection is in its request/response cycle.
enum Phase {
    /// Parsing the next request.
    Reading,
    /// Request submitted to the PSD queue; parked. `since` is the
    /// coarse-clock instant of admission — the span's total lifetime
    /// starts there.
    Waiting { req: HttpRequest, class: usize, cost: f64, since: Instant },
    /// Draining the write buffer.
    Flushing { then_close: bool },
}

struct Conn<Io> {
    /// The driver's half: the socket and its registration or slot.
    io: Io,
    codec: RequestCodec,
    out: WriteBuf,
    phase: Phase,
    /// Refreshed by transferred bytes only (see module docs), stamped
    /// from the loop's coarse cached clock.
    last_progress: Instant,
}

pub(super) struct Shard<D: Driver> {
    driver: D,
    /// Every shard's shared state, for round-robin handoffs.
    peers: Vec<Arc<Shared>>,
    self_index: usize,
    rr_next: usize,
    server: Arc<PsdServer>,
    cfg: FrontendConfig,
    shared: Arc<Shared>,
    conns: HashMap<usize, Conn<D::Io>>,
    next_key: usize,
    /// Shard 0 until its drain begins.
    accepting: bool,
    /// Coarse cached clock: read once per loop turn, used for every
    /// progress stamp and idle comparison in that turn.
    now: Instant,
    /// Retired connection buffers, reused by future accepts.
    pool: Vec<(Vec<u8>, Vec<u8>)>,
    /// Response-body formatting scratch shared by every connection.
    body_scratch: Vec<u8>,
    /// Reused key list for idle sweeps / drains.
    key_scratch: Vec<usize>,
}

impl<D: Driver> Shard<D> {
    pub(super) fn new(
        driver: D,
        peers: Vec<Arc<Shared>>,
        self_index: usize,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
    ) -> Self {
        Self {
            driver,
            shared: Arc::clone(&peers[self_index]),
            peers,
            self_index,
            rr_next: self_index,
            server,
            cfg,
            conns: HashMap::new(),
            next_key: 1, // 0 is the driver's, for its listener
            accepting: self_index == 0,
            now: Instant::now(),
            pool: Vec::new(),
            body_scratch: Vec::new(),
            key_scratch: Vec::new(),
        }
    }

    pub(super) fn run(&mut self) {
        // Loop-owned scratch, swapped with the shared vectors and
        // drained, handing the capacity back and forth.
        let mut completions: Vec<(usize, Completion)> = Vec::new();
        let mut streams: Vec<TcpStream> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            if self.driver.wait(TICK).is_err() {
                break; // backend gone: nothing recoverable
            }
            // One clock read per turn: everything handled below is
            // stamped with this instant.
            self.now = Instant::now();
            self.shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let mut events = 0u64;
            while let Some(ev) = self.driver.next_event() {
                events += 1;
                self.on_io(ev);
            }
            if events > 0 {
                self.shared.stats.events.fetch_add(events, Ordering::Relaxed);
            }
            // Handed-off streams from the accepting shard.
            std::mem::swap(&mut self.shared.inbox.lock().streams, &mut streams);
            for stream in streams.drain(..) {
                self.adopt(stream);
            }
            // The swap drains the whole batch under one lock — paired
            // with the first-into-empty-mailbox doorbell ring, a burst
            // of completions costs one wakeup and one lock.
            std::mem::swap(&mut *self.shared.mailbox.lock(), &mut completions);
            self.shared.stats.record_drain(completions.len() as u64);
            for (key, done) in completions.drain(..) {
                self.on_complete(key, done);
            }
            self.sweep_idle();
            self.driver.end_turn();
        }
        self.exit();
    }

    /// Loop exit: hand what is left to the driver (whose own drop
    /// closes the fds in an order that is safe for it) and release the
    /// live slots.
    fn exit(&mut self) {
        self.close_where(|_| true);
        self.driver.end_turn();
        // Close the inbox under its lock — a racing handoff either
        // lands before this drain (closed below) or observes `closed`
        // and stays with the accepting shard — then release the live
        // slots of anything never adopted.
        let leftover = {
            let mut inbox = self.shared.inbox.lock();
            inbox.closed = true;
            std::mem::take(&mut inbox.streams)
        };
        self.shared.live.fetch_sub(leftover.len(), Ordering::SeqCst);
    }

    fn on_io(&mut self, ev: IoEvent) {
        match ev {
            IoEvent::Accepted(stream) => self.place(stream),
            IoEvent::Read { key, result } => self.on_read(key, result),
            IoEvent::Write { key, result } => self.flush(key, Some(result)),
        }
    }

    /// First stop-flag observation: stop accepting and close *idle*
    /// keep-alive connections. Connections mid-request — a partial head
    /// or body still arriving (`Reading` + `is_mid_request`), queued in
    /// the PSD dispatcher (`Waiting`), or flushing a response — serve
    /// out, exactly like the threaded engine's drain; a stalled
    /// mid-request client is bounded by [`Self::sweep_idle`]'s
    /// tightened drain grace instead of wedging the drain.
    fn begin_drain(&mut self) {
        if self.accepting {
            self.accepting = false;
            self.driver.stop_accepting();
        }
        self.close_where(|c| matches!(c.phase, Phase::Reading) && !c.codec.is_mid_request());
    }

    /// Apply the connection cap to a fresh connection, then keep it or
    /// hand it to a peer, round-robin.
    fn place(&mut self, mut stream: TcpStream) {
        if !self.accepting {
            return; // raced a drain: refuse politely by closing
        }
        if self.shared.live.load(Ordering::SeqCst) >= self.cfg.max_connections {
            // Over cap: best-effort 503 without ever blocking the loop
            // (the socket buffer of a fresh connection always fits 80
            // bytes; if it somehow doesn't, the close alone is answer
            // enough).
            let _ = stream.set_nonblocking(true);
            polling::count::bump(); // write(2)
            let _ = stream.write_all(&service_unavailable(true).to_bytes());
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.shared.stats.accepts.fetch_add(1, Ordering::Relaxed);
        let target = self.rr_next % self.peers.len();
        self.rr_next = self.rr_next.wrapping_add(1);
        if target == self.self_index {
            return self.adopt(stream);
        }
        let peer = &self.peers[target];
        let mut inbox = peer.inbox.lock();
        if inbox.closed {
            // The peer exited (drain race): keep the connection here
            // instead of stranding it — this shard serves or closes it
            // like any of its own.
            drop(inbox);
            self.adopt(stream);
        } else {
            inbox.streams.push(stream);
            drop(inbox);
            let _ = peer.poller.notify();
        }
    }

    /// Take ownership of an accepted (or handed-off) stream: the driver
    /// starts reading it, the shard sets up its connection state.
    fn adopt(&mut self, stream: TcpStream) {
        let key = self.next_key;
        self.next_key += 1;
        match self.driver.open(key, stream) {
            Ok(io) => self.insert(key, io),
            Err(_) => {
                self.shared.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// A new connection in `Reading`, on pooled buffers when available.
    fn insert(&mut self, key: usize, io: D::Io) {
        let (read_buf, write_buf) = self.pool.pop().unwrap_or_default();
        self.conns.insert(
            key,
            Conn {
                io,
                codec: RequestCodec::with_buffer(read_buf),
                out: WriteBuf::with_buffer(write_buf),
                phase: Phase::Reading,
                last_progress: self.now,
            },
        );
    }

    fn on_read(&mut self, key: usize, result: i32) {
        let Some(conn) = self.conns.get_mut(&key) else { return };
        if !matches!(conn.phase, Phase::Reading) {
            return; // hang-up report for a Waiting/Flushing connection
        }
        let now = self.now;
        let Conn { io, codec, last_progress, .. } = conn;
        let mut parsed = Ok(None);
        let open = self.driver.read(io, result, |bytes| {
            codec.feed(bytes);
            *last_progress = now;
            parsed = codec.poll();
            matches!(parsed, Ok(None))
        });
        match parsed {
            Ok(Some(req)) => self.begin_request(key, req),
            Err(_) => self.respond(key, &bad_request()),
            Ok(None) if open.is_err() => self.close(key), // EOF or socket error
            Ok(None) => {}                                // need more bytes
        }
    }

    /// Route a parsed request. Admin routes and admission-shed requests
    /// are answered on the spot — they never touch the queue; an
    /// admitted request goes to the PSD queue and the connection parks
    /// until the executor's callback rings back.
    fn begin_request(&mut self, key: usize, req: HttpRequest) {
        let draining = self.shared.stop.load(Ordering::SeqCst);
        let info = AdminInfo { engine: D::ENGINE, shards: &self.peers };
        let routed =
            route(&self.server, &req, draining, self.cfg.default_cost, self.self_index, &info);
        let (class, cost) = match routed {
            Routed::Respond(resp) => return self.respond(key, &resp),
            Routed::Submit { class, cost } => (class, cost),
        };
        let http11 = req.http11;
        let Some(conn) = self.conns.get_mut(&key) else { return };
        conn.phase = Phase::Waiting { req, class, cost, since: self.now };
        self.driver.park(&mut conn.io);
        let shared = Arc::clone(&self.shared);
        let submitted = self.server.submit_async(class, cost, move |done| {
            shared.post_completion(key, done);
        });
        if !submitted {
            // Server already shutting down.
            self.respond(key, &service_unavailable(http11));
        }
    }

    /// Queue `resp` and start flushing; the response's own
    /// `Connection:` header decides what follows.
    fn respond(&mut self, key: usize, resp: &Response) {
        let Some(conn) = self.conns.get_mut(&key) else { return };
        conn.out.push_response(resp);
        conn.phase = Phase::Flushing { then_close: !resp.keep_alive };
        self.flush(key, None);
    }

    /// A PSD executor finished this connection's request: encode the
    /// response and start flushing.
    fn on_complete(&mut self, key: usize, done: Completion) {
        let draining = self.shared.stop.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&key) else { return };
        let Phase::Waiting { req, class, cost, since } = &conn.phase else {
            return; // stale completion for a recycled state: ignore
        };
        // Stop keeping alive once a drain began so shutdown converges.
        let keep = keeps_alive(req, draining);
        let scratch = &mut self.body_scratch;
        conn.out
            .append_with(|out| write_ok_response(out, scratch, req, *class, *cost, &done, keep));
        // Span assembled once at respond time: the write-back stage is
        // the mailbox + wakeup delivery latency (total minus queueing
        // minus service), measured on the coarse per-turn clock.
        let total = self.now.saturating_duration_since(*since);
        record_span(&self.server, self.self_index, *class, *cost, &done, total);
        conn.phase = Phase::Flushing { then_close: !keep };
        self.flush(key, None);
    }

    /// Drive the write buffer (`completed`: the result of the write
    /// event being handled, if any); on drain, close or hand the
    /// connection back to the read path, serving any pipelined request
    /// already buffered in the codec.
    fn flush(&mut self, key: usize, completed: Option<i32>) {
        let Some(conn) = self.conns.get_mut(&key) else { return };
        let Phase::Flushing { then_close } = conn.phase else { return };
        let before = conn.out.pending();
        let state = self.driver.flush(&mut conn.io, &mut conn.out, completed);
        if conn.out.pending() < before {
            conn.last_progress = self.now;
        }
        match state {
            Flush::Pending => {}
            Flush::Drained if !then_close => {
                conn.phase = Phase::Reading;
                // A pipelined request may already be parseable without
                // another byte arriving.
                match conn.codec.poll() {
                    Ok(Some(req)) => self.begin_request(key, req),
                    Ok(None) => {
                        if self.driver.arm_read(&mut conn.io).is_err() {
                            self.close(key);
                        }
                    }
                    Err(_) => self.respond(key, &bad_request()),
                }
            }
            Flush::Drained | Flush::Failed => self.close(key),
        }
    }

    /// Reap connections that made no byte progress for `idle_timeout`:
    /// silent keep-alives, slow-loris heads, and clients that stopped
    /// reading their response. `Waiting` connections are exempt (their
    /// time belongs to the PSD queue). During a drain the grace
    /// tightens to [`DRAIN_GRACE`] so one stalled mid-request client
    /// cannot pin the shutdown to the full idle timeout.
    fn sweep_idle(&mut self) {
        let mut timeout = self.cfg.idle_timeout;
        if self.shared.stop.load(Ordering::SeqCst) {
            timeout = timeout.min(DRAIN_GRACE);
        }
        let now = self.now;
        let swept = self.close_where(|c| {
            !matches!(c.phase, Phase::Waiting { .. })
                && now.saturating_duration_since(c.last_progress) >= timeout
        });
        self.shared.stats.sweeps.fetch_add(1, Ordering::Relaxed);
        if swept > 0 {
            self.shared.stats.swept.fetch_add(swept as u64, Ordering::Relaxed);
        }
    }

    /// Close every connection `doomed` picks; returns how many.
    fn close_where(&mut self, doomed: impl Fn(&Conn<D::Io>) -> bool) -> usize {
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        keys.extend(self.conns.iter().filter(|(_, c)| doomed(c)).map(|(&k, _)| k));
        let n = keys.len();
        for key in keys.drain(..) {
            self.close(key);
        }
        self.key_scratch = keys;
        n
    }

    fn close(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            self.driver.close(conn.io);
            // Retire the connection's buffers into the shard pool so
            // the next accept starts warm.
            if self.pool.len() < POOL_CAP {
                self.pool.push((conn.codec.into_buffer(), conn.out.into_buffer()));
            }
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The shared transitions, driven through a recording driver with an
/// injected clock: no sockets, no sleeps, no kernel.
#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use super::*;
    use crate::server::ServerConfig;
    use crate::EngineKind;

    /// A socket that is a script: chunks the peer sent, and whether it
    /// has stopped reading.
    struct FakeIo {
        key: usize,
        inbound: VecDeque<&'static [u8]>,
        stalled: bool,
    }

    /// Moves bytes in memory; records parks, what each connection was
    /// sent, and which were closed.
    #[derive(Default)]
    struct Recorder {
        parks: usize,
        sent: HashMap<usize, String>,
        closed: Vec<usize>,
    }

    impl Driver for Recorder {
        type Io = FakeIo;
        const ENGINE: EngineKind = EngineKind::Reactor;

        fn wait(&mut self, _: Duration) -> io::Result<()> {
            Ok(())
        }
        fn next_event(&mut self) -> Option<IoEvent> {
            None
        }
        fn stop_accepting(&mut self) {}
        fn open(&mut self, _: usize, _: TcpStream) -> io::Result<FakeIo> {
            unreachable!("scripts insert connections directly")
        }
        fn read(
            &mut self,
            io: &mut FakeIo,
            _: i32,
            mut sink: impl FnMut(&[u8]) -> bool,
        ) -> io::Result<()> {
            while io.inbound.pop_front().is_some_and(&mut sink) {}
            Ok(())
        }
        fn arm_read(&mut self, _: &mut FakeIo) -> io::Result<()> {
            Ok(())
        }
        fn park(&mut self, _: &mut FakeIo) {
            self.parks += 1;
        }
        fn flush(&mut self, io: &mut FakeIo, out: &mut WriteBuf, _: Option<i32>) -> Flush {
            if io.stalled {
                return Flush::Pending;
            }
            let text = std::str::from_utf8(out.unflushed()).expect("utf8 responses");
            self.sent.entry(io.key).or_default().push_str(text);
            out.consume(out.pending());
            Flush::Drained
        }
        fn close(&mut self, io: FakeIo) {
            self.closed.push(io.key);
        }
    }

    const REQ: &[u8] = b"GET /class1/x HTTP/1.1\r\n\r\n";
    const DONE: Completion = Completion { delay_s: 1e-3, service_s: 1e-3 };

    fn shard() -> Shard<Recorder> {
        let control_window = Duration::from_secs(3600);
        let server = PsdServer::start(ServerConfig { control_window, ..ServerConfig::default() });
        let shared = Shared::new(Arc::new(AtomicUsize::new(0))).expect("poller");
        let cfg = FrontendConfig::default();
        Shard::new(Recorder::default(), vec![shared], 0, Arc::new(server), cfg)
    }

    /// A fresh connection, as `adopt` would leave it; `stalled` if its
    /// peer never reads.
    fn connect(s: &mut Shard<Recorder>, stalled: bool) -> usize {
        let key = s.next_key;
        s.next_key += 1;
        s.shared.live.fetch_add(1, Ordering::SeqCst);
        s.insert(key, FakeIo { key, inbound: VecDeque::new(), stalled });
        key
    }

    fn send(s: &mut Shard<Recorder>, key: usize, bytes: &'static [u8]) {
        s.conns.get_mut(&key).expect("open").io.inbound.push_back(bytes);
        s.on_io(IoEvent::Read { key, result: 0 });
    }

    /// Every script ends here: after the exit protocol nothing is live.
    fn finish(mut s: Shard<Recorder>) -> Recorder {
        s.exit();
        assert!(s.conns.is_empty());
        assert_eq!(s.shared.live.load(Ordering::SeqCst), 0, "live count returns to zero");
        let Shard { server, driver, .. } = s;
        Arc::try_unwrap(server).ok().expect("shard held the only handle").shutdown();
        driver
    }

    #[test]
    fn one_submit_per_request_and_pipelined_pickup_after_flush() {
        let mut s = shard();
        let k = connect(&mut s, false);
        for i in 0..REQ.len() {
            assert_eq!(s.driver.parks, 0, "no submit before the head is complete");
            send(&mut s, k, &REQ[i..=i]);
        }
        assert_eq!(s.driver.parks, 1, "byte-at-a-time head yields exactly one submit");
        s.on_complete(k, DONE);
        s.on_complete(k, DONE); // stale: the connection is back in Reading
        s.on_complete(k + 1, DONE); // stale: no such connection
        assert_eq!(s.driver.sent[&k].matches("200 OK").count(), 1, "stale completions ignored");

        // Two requests in one chunk: the second waits in the codec and
        // starts when the first response has flushed — no new bytes.
        send(&mut s, k, b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(s.driver.parks, 2);
        s.on_complete(k, DONE);
        assert_eq!(s.driver.parks, 3, "pipelined request submitted after the flush");
        assert!(s.driver.closed.is_empty());
        s.on_complete(k, DONE);
        assert_eq!(s.driver.closed, [k], "Connection: close honoured after the last response");
        assert_eq!(finish(s).sent[&k].matches("200 OK").count(), 3);
    }

    #[test]
    fn drain_and_idle_sweep_spare_requests_in_progress() {
        let mut s = shard();
        let [idle, partial, waiting] = [(); 3].map(|()| connect(&mut s, false));
        let flushing = connect(&mut s, true);
        send(&mut s, partial, b"GET /slow HT");
        send(&mut s, waiting, REQ);
        send(&mut s, flushing, b"GET /healthz HTTP/1.1\r\n\r\n");

        // A drain closes the idle `Reading` connection at once…
        s.shared.stop.store(true, Ordering::SeqCst);
        s.begin_drain();
        assert_eq!(s.driver.closed, [idle]);
        s.now += DRAIN_GRACE / 2;
        s.sweep_idle();
        assert_eq!(s.driver.closed, [idle]);
        // …the sweep reaps the others after DRAIN_GRACE (not the 30 s
        // idle timeout) without progress, and `Waiting` never.
        s.now += DRAIN_GRACE / 2;
        s.sweep_idle();
        assert_eq!(s.conns.keys().collect::<Vec<_>>(), [&waiting], "Waiting is the queue's");
        s.on_complete(waiting, DONE);
        assert!(finish(s).sent[&waiting].contains("200 OK"));
    }

    #[test]
    fn malformed_heads_and_sheds_are_answered_and_closed() {
        let mut s = shard();
        s.server.control().publish(0, &[0.5, 0.5], Some(&[1.0, 0.0])); // shed all of class 1
        let [bad, shed] = [(); 2].map(|()| connect(&mut s, false));
        send(&mut s, bad, b"GET / JUNK/9\r\n\r\n");
        send(&mut s, shed, REQ);
        assert_eq!((s.driver.parks, &s.driver.closed), (0, &vec![bad, shed]), "neither is queued");
        let span = s.server.obs().spans.recent(1)[0];
        assert!(!span.admitted && span.class == 1, "shed span recorded: {span:?}");
        let sent = finish(s).sent;
        assert!(sent[&bad].starts_with("HTTP/1.0 400"), "{}", sent[&bad]);
        assert!(sent[&shed].starts_with("HTTP/1.1 503"), "{}", sent[&shed]);
        assert!(sent[&shed].contains("X-Shed: 1"), "{}", sent[&shed]);
    }
}
