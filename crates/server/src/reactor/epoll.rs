//! The readiness driver: epoll through the shard's
//! [`polling::Poller`], with the `read(2)`/`write(2)`/`accept(2)` calls
//! made here, on the loop thread, and metered through
//! [`polling::count`].
//!
//! A connection is registered once, when it opens, for `EPOLLIN |
//! EPOLLRDHUP | EPOLLET` (edge-triggered, `epoll(7)`), and `close(2)`
//! drops the registration; the listener stays level-triggered. Parking
//! therefore costs nothing, and per keep-alive request on the shard
//! that fires the deadlines (shard 0) the sequence is `epoll_pwait2`,
//! `read`, `epoll_pwait2` (its timeout ends ε before the deadline; the
//! turn spins out the rest without a syscall), `write` — four, pinned
//! by `tests/syscall_gate.rs`. On the other shards the completion still
//! arrives through the mailbox: the firing thread's eventfd `write`,
//! and an eventfd `read` after the second wait, make six.
//!
//! An edge is reported once, so the driver keeps the debt itself: a
//! read is owed when an edge arrived while the connection was not
//! reading ([`Driver::defer_read`]), when a read stopped at a full
//! chunk with bytes possibly left behind, and for good once the peer
//! hung up (that edge never comes again). [`Driver::arm_read`] pays it
//! by replaying a read event on the next turn, whose wait then does not
//! block. A read stops at the first short read: the socket was drained
//! then, and anything arriving later raises a new edge. A write that
//! fills the socket buffer adds `EPOLLOUT` to the registration (one
//! `epoll_ctl MOD`, kept for the connection's lifetime).

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use polling::{Event, Interest};

use crate::codec::WriteBuf;
use crate::EngineKind;

use super::driver::{Driver, Flush, IoEvent};
use super::Shared;

/// Epoll key of the listener; connection keys start above it.
const LISTENER_KEY: usize = 0;

/// The read chunk, on the loop thread's stack. A read that fills it
/// may have left bytes in the socket.
const CHUNK: usize = 8192;

/// A read event's `result` when its report carried a hang-up.
const HANGUP: i32 = 1;

pub(super) struct EpollIo {
    stream: TcpStream,
    key: usize,
    /// A read is owed that no edge will announce: one arrived while the
    /// connection was not reading, or the last read filled its chunk.
    owed: bool,
    /// The peer hung up or the socket failed: every read from here on
    /// ends in EOF or the error, and no further edge says so.
    hangup: bool,
    /// `EPOLLOUT` is registered (added by the first short write).
    out_registered: bool,
}

pub(super) struct EpollDriver {
    /// The accepting shard's listener (shard 0 only).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    /// The last wait's readiness reports and how far
    /// [`Driver::next_event`] has read into them.
    events: Vec<Event>,
    cursor: usize,
    /// Second half of a report that was both readable and writable.
    writable_next: Option<usize>,
    /// Keys whose owed read [`Driver::arm_read`] replays next turn, and
    /// the batch the current turn delivers: a replay never runs in the
    /// turn that queued it, so a client streaming pipelined requests
    /// gets one chunk per turn, as every other connection does.
    replay: Vec<usize>,
    replaying: Vec<usize>,
}

impl EpollDriver {
    /// Registers `listener` with the shard's poller, so a refusal fails
    /// the whole start call before any thread spawns.
    pub(super) fn new(listener: Option<TcpListener>, shared: Arc<Shared>) -> io::Result<Self> {
        if let Some(listener) = &listener {
            shared.poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
        }
        Ok(Self {
            listener,
            shared,
            events: Vec::new(),
            cursor: 0,
            writable_next: None,
            replay: Vec::new(),
            replaying: Vec::new(),
        })
    }

    fn accept_one(&self) -> Option<TcpStream> {
        let listener = self.listener.as_ref()?;
        loop {
            polling::count::bump(); // accept(2)
            match listener.accept() {
                Ok((stream, _)) => return Some(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // WouldBlock: backlog drained. Anything else is
                // transient (EMFILE, ECONNABORTED): try next turn.
                Err(_) => return None,
            }
        }
    }
}

impl Driver for EpollDriver {
    type Io = EpollIo;

    const ENGINE: EngineKind = EngineKind::Reactor;

    /// A turn with replays to deliver polls without blocking.
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.cursor = 0;
        std::mem::swap(&mut self.replay, &mut self.replaying);
        let timeout = if self.replaying.is_empty() { timeout } else { Duration::ZERO };
        self.shared.poller.wait(&mut self.events, Some(timeout)).map(|_| ())
    }

    /// `epoll_pwait2` where the kernel allows it; `epoll_wait`'s
    /// milliseconds are not.
    fn precise_timeouts(&self) -> bool {
        self.shared.poller.precise_timeouts()
    }

    fn next_event(&mut self) -> Option<IoEvent> {
        if let Some(key) = self.writable_next.take() {
            return Some(IoEvent::Write { key, result: 0 });
        }
        if let Some(key) = self.replaying.pop() {
            return Some(IoEvent::Read { key, result: 0 });
        }
        loop {
            let ev = *self.events.get(self.cursor)?;
            if ev.key == LISTENER_KEY {
                // The listener's report stays current until its backlog
                // is drained, one connection per event.
                if let Some(stream) = self.accept_one() {
                    return Some(IoEvent::Accepted(stream));
                }
                self.cursor += 1;
                continue;
            }
            self.cursor += 1;
            if !ev.readable {
                return Some(IoEvent::Write { key: ev.key, result: 0 });
            }
            if ev.writable {
                self.writable_next = Some(ev.key);
            }
            let result = if ev.hangup { HANGUP } else { 0 };
            return Some(IoEvent::Read { key: ev.key, result });
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.shared.poller.delete(listener.as_raw_fd());
        }
    }

    /// The connection's one `epoll_ctl`. Bytes (or a FIN) already
    /// queued raise an edge at once.
    fn open(&mut self, key: usize, stream: TcpStream) -> io::Result<EpollIo> {
        self.shared.poller.add(stream.as_raw_fd(), key, Interest::READABLE.edge())?;
        Ok(EpollIo { stream, key, owed: false, hangup: false, out_registered: false })
    }

    fn read(
        &mut self,
        io: &mut EpollIo,
        result: i32,
        mut sink: impl FnMut(&[u8]) -> bool,
    ) -> io::Result<()> {
        io.hangup |= result == HANGUP;
        io.owed = false;
        let mut chunk = [0u8; CHUNK];
        loop {
            polling::count::bump(); // read(2)
            match io.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    let more = sink(&chunk[..n]);
                    if n == CHUNK {
                        if more {
                            continue;
                        }
                        io.owed = true; // bytes may be left, with no edge to come
                        return Ok(());
                    }
                    // A short read drained the socket. Only a hang-up
                    // left something behind: the EOF, read on to now if
                    // the request is still incomplete.
                    if !(more && io.hangup) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn defer_read(&mut self, io: &mut EpollIo, result: i32) {
        io.owed = true;
        io.hangup |= result == HANGUP;
    }

    /// No syscall: the registration never changed. What is owed is
    /// replayed next turn.
    fn arm_read(&mut self, io: &mut EpollIo) -> io::Result<()> {
        if io.owed || io.hangup {
            io.owed = false;
            self.replay.push(io.key);
        }
        Ok(())
    }

    /// Optimistic: write first, ask for writability only when the
    /// socket buffer is full.
    fn flush(&mut self, io: &mut EpollIo, out: &mut WriteBuf, _completed: Option<i32>) -> Flush {
        // One bump per flush attempt (flush_into may issue several
        // write(2)s — undercounting epoll is the conservative side of
        // the syscall-gate comparison).
        polling::count::bump();
        match out.flush_into(&mut io.stream) {
            Ok(true) => Flush::Drained,
            Ok(false) if io.out_registered => Flush::Pending,
            // A lost registration (shouldn't happen) drops the
            // connection rather than wedging it.
            Ok(false) => {
                let both = Interest::BOTH.edge();
                match self.shared.poller.modify(io.stream.as_raw_fd(), io.key, both) {
                    Ok(()) => {
                        io.out_registered = true;
                        Flush::Pending
                    }
                    Err(_) => Flush::Failed,
                }
            }
            Err(_) => Flush::Failed,
        }
    }

    /// Dropping the stream closes the fd, and with it the registration.
    fn close(&mut self, io: EpollIo) {
        for replays in [&mut self.replay, &mut self.replaying] {
            if !replays.is_empty() {
                replays.retain(|&key| key != io.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::net::Shutdown;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    use super::*;

    /// A request and the client's FIN, both queued before `open`
    /// registers the socket: the first turn reads the request (the edge
    /// carries the hang-up), the reply goes out, and the next turn —
    /// which does not block — reads the EOF.
    #[test]
    fn a_request_and_fin_queued_before_open_get_the_reply_then_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let shared = Shared::new(Arc::new(AtomicUsize::new(0))).unwrap();
        let mut driver = EpollDriver::new(None, shared).unwrap();
        let mut io = driver.open(1, stream).unwrap();

        driver.wait(Duration::from_secs(5)).unwrap();
        let Some(IoEvent::Read { key: 1, result }) = driver.next_event() else {
            panic!("the queued request raises a read")
        };
        let mut got = Vec::new();
        driver
            .read(&mut io, result, |bytes| {
                got.extend_from_slice(bytes);
                !got.ends_with(b"\r\n\r\n")
            })
            .expect("the request is read before the EOF");
        assert_eq!(got, b"GET / HTTP/1.1\r\n\r\n");
        assert!(matches!(driver.next_event(), Some(IoEvent::Write { key: 1, .. }) | None));
        while driver.next_event().is_some() {}

        let mut out = WriteBuf::with_buffer(Vec::new());
        out.append_with(|buf| buf.extend_from_slice(b"reply"));
        assert!(matches!(driver.flush(&mut io, &mut out, None), Flush::Drained));
        driver.arm_read(&mut io).unwrap();

        let t = Instant::now();
        driver.wait(Duration::from_secs(5)).unwrap();
        assert!(t.elapsed() < Duration::from_secs(1), "a replay turn does not block");
        let Some(IoEvent::Read { key: 1, result }) = driver.next_event() else {
            panic!("the hang-up is replayed after the reply")
        };
        let eof = driver.read(&mut io, result, |_| panic!("no bytes after the FIN"));
        assert_eq!(eof.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        driver.close(io);
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "reply", "the reply, then the server's close");
    }
}
