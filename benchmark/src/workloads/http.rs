//! The three closed-loop HTTP workloads: two connections (class 0 and
//! class 1) over loopback to an in-process [`HttpFrontend`], smallest
//! request, smallest service. `http-keepalive-*` hold their connections
//! open; `http-churn-uring` opens one per request and lets the server
//! close it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psd_dist::rng::Xoshiro256pp;
use psd_obs::JsonValue;
use psd_server::{
    EngineKind, FrontendConfig, HttpFrontend, PsdServer, SchedulerKind, ServerConfig,
    Workload as ExecKind,
};

use super::{GenOutput, Params, Window, Workload, CONNECTIONS};
use crate::inputs::{stream_rng, think_ns};
use crate::procfs::CpuReading;
use crate::stats::Sample;
use crate::trace::Tracer;

/// Differentiation parameters of the two classes.
const DELTAS: [f64; 2] = [1.0, 2.0];

/// Wall-clock length of one work unit; every request costs one.
const WORK_UNIT: Duration = Duration::from_micros(20);

/// Requests each connection sends in the priming script of a set-up.
const PRIME_REQUESTS: u64 = 1_000;

/// A reply that takes longer than this is a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Samples a generator thread can record in one window without
/// growing its buffer (over 20 s at twice the observed rate).
const SAMPLE_CAPACITY: usize = 1 << 18;

/// Drain budget at teardown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Which HTTP workload a name stands for.
fn variant(name: &str) -> Option<(EngineKind, bool)> {
    match name {
        "http-keepalive-epoll" => Some((EngineKind::Reactor, false)),
        "http-keepalive-uring" => Some((EngineKind::Uring, false)),
        "http-churn-uring" => Some((EngineKind::Uring, true)),
        // Not a workload of the set: the layers pass runs the keep-alive
        // traffic once on the thread-per-connection engine.
        "http-keepalive-threads" => Some((EngineKind::Threads, false)),
        _ => None,
    }
}

/// A uring workload measured on the epoll fallback would be a number
/// about the wrong engine: invalid, not skipped.
pub fn check_engine(requested: EngineKind, serving: EngineKind) -> Result<(), String> {
    if requested == serving {
        Ok(())
    } else {
        Err(format!(
            "asked for the {} engine but the frontend serves on {} (fallback): workload invalid",
            requested.as_str(),
            serving.as_str()
        ))
    }
}

/// The parts of a reply the generator checks.
#[derive(Debug, PartialEq)]
struct Reply<'a> {
    status: u16,
    x_class: Option<usize>,
    close: bool,
    body: &'a [u8],
}

/// Parse a complete reply out of `buf`; `Ok(None)` while more bytes are
/// needed.
fn parse_reply(buf: &[u8]) -> Result<Option<Reply<'_>>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad status line".to_string())?;
    let (mut x_class, mut close, mut length) = (None, false, 0usize);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("x-class") {
            x_class = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| "bad content length".to_string())?;
        }
    }
    let body_start = head_end + 4;
    match buf.get(body_start..body_start + length) {
        Some(body) => Ok(Some(Reply { status, x_class, close, body })),
        None => Ok(None),
    }
}

/// Is `reply` the correct answer to a cost-1 request of `class`?
fn check_reply(
    reply: &Reply<'_>,
    class: usize,
    expect_body: &[u8],
    churn: bool,
) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    if reply.x_class != Some(class) {
        return Err(format!("sent class {class}, answered X-Class {:?}", reply.x_class));
    }
    if reply.close != churn {
        return Err(format!("Connection: close is {}, expected {churn}", reply.close));
    }
    if !reply.body.starts_with(expect_body) {
        return Err(format!("body {:?}", String::from_utf8_lossy(reply.body)));
    }
    Ok(())
}

/// Where a connection is in its cycle: think, send, wait, check.
#[derive(Clone, Copy)]
enum Phase {
    /// Thinking since `woke`; the next request starts at `start`.
    Thinking { woke: Instant, start: Instant },
    /// Timed interval open since `start`; the bytes go out at `send_at`
    /// (later than `start` only when `sensitivity` injects a delay).
    Due { woke: Instant, start: Instant, send_at: Instant },
    /// Request written; `filled` bytes of reply read so far, `replied`
    /// once it was complete and correct (churn then waits for the FIN).
    Waiting {
        woke: Instant,
        start: Instant,
        connected: Instant,
        written: Instant,
        filled: usize,
        replied: bool,
    },
    /// No more requests in this phase of the run.
    Done,
}

/// One connection and its seeded think-time stream.
struct Client {
    class: usize,
    addr: SocketAddr,
    churn: bool,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    expect_body: Vec<u8>,
    rng: Xoshiro256pp,
    buf: Vec<u8>,
    phase: Phase,
    attempted: u64,
}

impl Client {
    fn new(class: usize, addr: SocketAddr, churn: bool, seed: u64) -> Self {
        let conn = if churn { "close" } else { "keep-alive" };
        Self {
            class,
            addr,
            churn,
            stream: None,
            request: format!(
                "GET /loadgen?cost=1 HTTP/1.1\r\nX-Class: {class}\r\nConnection: {conn}\r\n\r\n"
            )
            .into_bytes(),
            expect_body: format!("served path=/loadgen class={class} cost=1.000 ").into_bytes(),
            rng: stream_rng(seed, class as u64),
            buf: vec![0u8; 4096],
            phase: Phase::Done,
            attempted: 0,
        }
    }

    /// Non-blocking, so the generator polls instead of sleeping: a
    /// sleeping generator would let the core go idle. A churned
    /// connection closes with a reset (see `sys` for both).
    fn connect(&mut self) -> io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        if self.churn {
            crate::sys::close_with_reset(&s)?;
        }
        self.stream = Some(s);
        Ok(())
    }

    fn think(&mut self, p: &Params, woke: Instant) {
        let start = woke + Duration::from_nanos(think_ns(&mut self.rng, p.think_max_ns));
        self.phase = Phase::Thinking { woke, start };
    }

    /// Connect (churn) and write the request.
    fn send(&mut self) -> Result<(Instant, Instant), String> {
        if self.churn {
            self.connect().map_err(|e| format!("connect: {e}"))?;
        }
        let connected = Instant::now();
        let stream = self.stream.as_mut().ok_or("not connected")?;
        stream.write_all(&self.request).map_err(|e| format!("write: {e}"))?;
        Ok((connected, Instant::now()))
    }

    /// Read what has arrived. `Ok(true)` once the exchange is over: the
    /// reply complete and correct and, on churn, the server's FIN seen.
    /// Allocation-free on success, so the traced pass's allocation
    /// counts are the server's.
    fn poll(&mut self, filled: &mut usize, replied: &mut bool) -> Result<bool, String> {
        let stream = self.stream.as_mut().ok_or("not connected")?;
        let n = match stream.read(&mut self.buf[*filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(format!("read: {e}")),
        };
        if *replied {
            // The server closes: the exchange ends at its FIN.
            return match n {
                0 => {
                    self.stream = None;
                    Ok(true)
                }
                _ => Err("bytes after a Connection: close reply".into()),
            };
        }
        *filled += n;
        match parse_reply(&self.buf[..*filled])? {
            Some(reply) => {
                check_reply(&reply, self.class, &self.expect_body, self.churn)?;
                *replied = true;
                Ok(!self.churn)
            }
            None if n == 0 => Err("connection closed mid-reply".into()),
            None if *filled == self.buf.len() => Err("reply larger than the buffer".into()),
            None => Ok(false),
        }
    }
}

/// When a generator loop stops starting requests.
#[derive(Clone, Copy)]
enum Until {
    /// After this many requests on each connection.
    Count(u64),
    Deadline(Instant),
}

/// The generator: one thread drives every connection's closed loop —
/// think, send, wait, check — by polling, never sleeping, so no
/// scheduler decision on the generator's core is part of a round trip.
fn drive(
    clients: &mut [Client],
    p: &Params,
    origin: Instant,
    until: Until,
    mut out: GenOutput,
    mut tracer: Option<Tracer>,
) -> GenOutput {
    let record = out.samples.capacity() > 0;
    let cpu0 = CpuReading::this_thread();
    let begin = Instant::now();
    for c in clients.iter_mut() {
        c.attempted = 0;
        c.think(p, begin);
    }
    // The buffers above were sized by the caller; from here on the
    // generator allocates nothing, so a traced window counts the
    // program's allocations, not the benchmark's.
    let allocs0 = crate::alloc::totals();
    crate::alloc::arm(tracer.is_some());
    let mut live = clients.len();
    while live > 0 {
        for c in clients.iter_mut() {
            let now = Instant::now();
            let failure = match c.phase {
                Phase::Done => None,
                Phase::Thinking { start, .. } if now < start => None,
                Phase::Thinking { woke, .. } => {
                    let over = match until {
                        Until::Count(n) => c.attempted >= n,
                        Until::Deadline(t) => now >= t,
                    };
                    if over {
                        c.phase = Phase::Done;
                        live -= 1;
                    } else {
                        c.attempted += 1;
                        out.attempted += 1;
                        let send_at = now + Duration::from_nanos(p.inject_ns);
                        c.phase = Phase::Due { woke, start: now, send_at };
                    }
                    None
                }
                Phase::Due { send_at, .. } if now < send_at => None,
                Phase::Due { woke, start, .. } => match c.send() {
                    Ok((connected, written)) => {
                        c.phase = Phase::Waiting {
                            woke,
                            start,
                            connected,
                            written,
                            filled: 0,
                            replied: false,
                        };
                        None
                    }
                    Err(why) => Some(why),
                },
                Phase::Waiting { woke, start, connected, written, mut filled, mut replied } => {
                    match c.poll(&mut filled, &mut replied) {
                        Ok(true) => {
                            let end = Instant::now();
                            if record {
                                out.samples.push(Sample {
                                    done_ns: (end - origin).as_nanos() as u64,
                                    latency_ns: (end - start).as_nanos() as u64,
                                    class: c.class as u8,
                                    weight: 1,
                                });
                            }
                            if let Some(t) = tracer.as_mut() {
                                let root = t.span("request", woke, end, 0, 0);
                                t.span("gen.wait", woke, start, root, root);
                                if c.churn {
                                    t.span("client.connect", start, connected, root, root);
                                }
                                t.span("client.write", connected, written, root, root);
                                t.span("client.wait", written, end, root, root);
                            }
                            c.think(p, end);
                            None
                        }
                        Ok(false) if now - written > REPLY_TIMEOUT => {
                            Some(format!("no reply within {REPLY_TIMEOUT:?}"))
                        }
                        Ok(false) => {
                            c.phase =
                                Phase::Waiting { woke, start, connected, written, filled, replied };
                            None
                        }
                        Err(why) => Some(why),
                    }
                }
            };
            if let Some(why) = failure {
                out.fail(|| format!("class {}: {why}", c.class));
                c.think(p, Instant::now());
                // A broken keep-alive connection is replaced so one
                // failure does not fail every later request too.
                if !c.churn {
                    if let Err(e) = c.connect() {
                        out.fail(|| format!("class {}: reconnect: {e}", c.class));
                        c.phase = Phase::Done;
                        live -= 1;
                    }
                }
            }
        }
        thread::yield_now();
    }
    crate::alloc::arm(false);
    out.allocs = crate::alloc::since(allocs0);
    out.cpu = CpuReading::this_thread().since(&cpu0);
    out.tracer = tracer;
    out
}

/// Counters scraped from `/metrics/prometheus` around a traced window.
struct Scraped {
    reactor_wakeups: f64,
    uring_sqes: f64,
    uring_enters: f64,
}

/// A running HTTP workload.
pub struct Http {
    server: Arc<PsdServer>,
    frontend: HttpFrontend,
    clients: Vec<Client>,
    churn: bool,
    params: Params,
    /// Correct replies received over the instance's lifetime.
    answered: u64,
}

impl Http {
    /// Run one phase of traffic on the generator thread.
    fn phase(&mut self, until: Until, record: bool, traced: bool) -> GenOutput {
        let origin = Instant::now();
        let (p, clients) = (&self.params, &mut self.clients[..]);
        let tracer = traced.then(|| Tracer::new(origin, 1));
        let mut out = GenOutput::default();
        if record {
            out.samples.reserve(SAMPLE_CAPACITY);
        }
        let out = thread::scope(|s| {
            thread::Builder::new()
                .name("bench-gen".into())
                .spawn_scoped(s, move || drive(clients, p, origin, until, out, tracer))
                .expect("spawn generator thread")
                .join()
                .expect("generator thread panicked")
        });
        self.answered += out.attempted - out.failed;
        out
    }

    /// Requests the server has completed so far, all classes.
    fn completed(&self) -> u64 {
        self.server.stats().classes.iter().map(|c| c.completed).sum()
    }

    fn scrape(&self, path: &str) -> Result<String, String> {
        let got = psd_loadgen::client::get(self.frontend.addr(), path, REPLY_TIMEOUT)
            .map_err(|e| format!("scrape {path}: {e}"))?;
        if got.status == 200 {
            Ok(got.body)
        } else {
            Err(format!("scrape {path}: status {}", got.status))
        }
    }

    fn scraped(&self) -> Result<Scraped, String> {
        let prom = psd_obs::parse_prometheus(&self.scrape("/metrics/prometheus")?)?;
        let sum = |name: &str| prom.iter().filter(|s| s.name == name).map(|s| s.value).sum();
        Ok(Scraped {
            reactor_wakeups: sum("psd_reactor_wakeups_total"),
            uring_sqes: sum("psd_uring_sqes_total"),
            uring_enters: sum("psd_uring_enters_total"),
        })
    }

    /// Mean per-stage microseconds of the spans `/trace` still holds.
    fn span_stages(&self) -> Result<[f64; 4], String> {
        let doc = JsonValue::parse(&self.scrape("/trace?n=4096")?)?;
        let rows = doc.get("decomposition").and_then(JsonValue::as_array).unwrap_or(&[]);
        let mut sums = [0.0; 4];
        let mut total = 0.0;
        for row in rows {
            let get = |k: &str| row.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let n = get("count");
            total += n;
            for (s, key) in sums.iter_mut().zip([
                "mean_queue_us",
                "mean_stretch_us",
                "mean_service_us",
                "mean_writeback_us",
            ]) {
                *s += n * get(key);
            }
        }
        if total == 0.0 {
            return Err("/trace holds no spans".into());
        }
        Ok(sums.map(|s| s / total))
    }
}

impl Workload for Http {
    const OPEN_LOOP: bool = false;

    fn setup(name: &str, p: &Params) -> Result<Self, String> {
        let (engine, churn) =
            variant(name).ok_or_else(|| format!("{name} is not an HTTP workload"))?;
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: DELTAS.to_vec(),
            mean_cost: 1.0,
            scheduler: SchedulerKind::RatePartition,
            workload: ExecKind::Sleep,
            work_unit: WORK_UNIT,
            ..ServerConfig::default()
        }));
        let frontend = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, shards: 1, ..FrontendConfig::default() },
        )
        .map_err(|e| format!("frontend bind: {e}"))?;
        check_engine(engine, frontend.engine())?;
        let mut clients: Vec<Client> =
            (0..CONNECTIONS).map(|c| Client::new(c, frontend.addr(), churn, p.seed)).collect();
        if !churn {
            for c in &mut clients {
                c.connect().map_err(|e| format!("connect: {e}"))?;
            }
        }
        let mut this = Self { server, frontend, clients, churn, params: p.clone(), answered: 0 };
        let primed = this.phase(Until::Count(PRIME_REQUESTS), false, false);
        match primed.failures.first() {
            Some(why) => Err(format!("priming failed: {why}")),
            None => Ok(this),
        }
    }

    fn warm(&mut self, d: Duration) -> Result<(), String> {
        self.phase(Until::Deadline(Instant::now() + d), false, false);
        Ok(())
    }

    fn measure(&mut self, d: Duration, traced: bool) -> Result<Window, String> {
        // The scrapes sit outside the syscall and wheel readings, so
        // their own traffic is not counted.
        let scraped0 = if traced { Some(self.scraped()?) } else { None };
        let (syscalls0, wheel0) = (polling::count::total(), super::wheel_counts(&self.server));
        let completed0 = self.completed();
        let server_cpu0 = CpuReading::all_threads();
        let output = self.phase(Until::Deadline(Instant::now() + d), true, traced);
        let window_ns = d.as_nanos() as u64;
        let server_cpu = CpuReading::all_threads().since(&server_cpu0);
        let (syscalls1, wheel1) = (polling::count::total(), super::wheel_counts(&self.server));
        let scraped1 = if traced { Some(self.scraped()?) } else { None };

        let mut w = Window { window_ns, server_cpu, ..Window::default() };
        w.absorb(output);
        // In-flight replies have all been read (closed loop), so the
        // server's completions over the window are exactly the replies.
        let completed = self.completed() - completed0;
        if w.failed == 0 && completed != w.attempted {
            w.violations.push(format!(
                "server completed {completed} requests for {} correct replies",
                w.attempted
            ));
        }
        // One request in flight per class: nothing queues, so there is
        // no slowdown to differentiate.
        w.slowdown_c0 = Some(super::NOT_APPLICABLE);
        w.psd_fidelity = Some(super::NOT_APPLICABLE);

        if let (Some(a), Some(b)) = (scraped0, scraped1) {
            let reqs = (w.attempted - w.failed).max(1) as f64;
            let syscalls = (syscalls1 - syscalls0) as f64;
            let enters = b.uring_enters - a.uring_enters;
            let [queue, stretch, service, writeback] = self.span_stages()?;
            w.layer = vec![
                ("polling.syscalls_per_req", if self.churn { 0.0 } else { syscalls / reqs }),
                ("polling.syscalls_per_conn", if self.churn { syscalls / reqs } else { 0.0 }),
                ("reactor.wakeups_per_req", (b.reactor_wakeups - a.reactor_wakeups) / reqs),
                (
                    "uring.sqes_per_enter",
                    if enters > 0.0 { (b.uring_sqes - a.uring_sqes) / enters } else { 0.0 },
                ),
                ("wheel.wakeups_per_req", (wheel1.0 - wheel0.0) as f64 / reqs),
                ("wheel.cascades_per_req", (wheel1.1 - wheel0.1) as f64 / reqs),
                ("span.queueing_us", queue),
                ("span.stretch_us", stretch),
                ("span.service_us", service),
                ("span.writeback_us", writeback),
            ];
        }
        Ok(w)
    }

    fn teardown(self) -> Result<(), String> {
        let Self { server, frontend, clients, answered, .. } = self;
        drop(clients);
        let leftover = frontend.shutdown(DRAIN_TIMEOUT).map_err(|e| format!("drain: {e}"))?;
        if leftover != 0 {
            return Err(format!("{leftover} connections survived the drain"));
        }
        let server = Arc::try_unwrap(server).map_err(|_| "server still shared after drain")?;
        let completed: u64 = server.shutdown().classes.iter().map(|c| c.completed).sum();
        if completed == answered {
            Ok(())
        } else {
            Err(format!("{completed} completions for {answered} correct replies after drain"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 25\r\nConnection: keep-alive\r\n\
        X-Class: 1\r\nX-Delay-Us: 0\r\nX-Slowdown: 0.0000\r\n\r\nserved path=/loadgen clas";

    #[test]
    fn replies_parse_only_when_complete() {
        assert_eq!(parse_reply(&REPLY[..40]), Ok(None), "head incomplete");
        assert_eq!(parse_reply(&REPLY[..REPLY.len() - 1]), Ok(None), "body incomplete");
        let r = parse_reply(REPLY).unwrap().unwrap();
        assert_eq!((r.status, r.x_class, r.close), (200, Some(1), false));
        assert_eq!(r.body.len(), 25);
        assert!(parse_reply(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn a_mis_classed_or_wrong_reply_is_a_failure() {
        let r = parse_reply(REPLY).unwrap().unwrap();
        assert!(check_reply(&r, 1, b"served path=/loadgen", false).is_ok());
        let why = check_reply(&r, 0, b"served path=/loadgen", false).unwrap_err();
        assert!(why.contains("sent class 0, answered X-Class Some(1)"), "{why}");
        assert!(check_reply(&r, 1, b"served path=/other", false).is_err(), "wrong body");
        assert!(check_reply(&r, 1, b"served", true).is_err(), "churn expects a close");
        let shed = Reply { status: 503, x_class: None, close: true, body: b"" };
        assert!(check_reply(&shed, 1, b"", true).unwrap_err().contains("503"));
    }

    #[test]
    fn a_uring_fallback_invalidates_the_workload() {
        assert!(check_engine(EngineKind::Uring, EngineKind::Uring).is_ok());
        let why = check_engine(EngineKind::Uring, EngineKind::Reactor).unwrap_err();
        assert!(why.contains("fallback"), "{why}");
    }
}
