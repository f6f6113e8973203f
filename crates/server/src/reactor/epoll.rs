//! The readiness driver: level-triggered epoll through the shard's
//! [`polling::Poller`], with the `read(2)`/`write(2)`/`accept(2)` calls
//! made here, on the loop thread, and metered through
//! [`polling::count`].
//!
//! Per keep-alive request on the shard that fires the deadlines
//! (shard 0) the sequence is `epoll_pwait2`, `read`, `epoll_ctl DEL`
//! (park), `epoll_pwait2` (its timeout ends ε before the deadline; the
//! turn spins out the rest without a syscall), `write`,
//! `epoll_ctl ADD` — six, pinned by `tests/syscall_gate.rs`. On the
//! other shards the completion still arrives through the mailbox: the
//! firing thread's eventfd `write`, and an eventfd `read` after the
//! second wait, make eight.

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

pub(super) struct EpollIo {
    stream: TcpStream,
    key: usize,
    /// The interest currently registered with the poller, or `None`
    /// while the fd is deregistered (parked). Deregistering — not
    /// registering-with-empty-interest — matters: epoll reports ERR/HUP
    /// regardless of interest, so a client that aborts while its
    /// request is queued would otherwise level-trigger a busy loop
    /// until the PSD executor completes.
    registration: Option<Interest>,
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
}

impl EpollDriver {
    /// Registers `listener` with the shard's poller, so a refusal fails
    /// the whole start call before any thread spawns.
    pub(super) fn new(listener: Option<TcpListener>, shared: Arc<Shared>) -> io::Result<Self> {
        if let Some(listener) = &listener {
            shared.poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
        }
        Ok(Self { listener, shared, events: Vec::new(), cursor: 0, writable_next: None })
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

    /// (Re)register the connection's fd with `interest`, adding it back
    /// if it was parked.
    fn set_interest(&self, io: &mut EpollIo, interest: Interest) -> io::Result<()> {
        let fd = io.stream.as_raw_fd();
        match io.registration {
            Some(current) if current == interest => return Ok(()),
            Some(_) => self.shared.poller.modify(fd, io.key, interest)?,
            None => self.shared.poller.add(fd, io.key, interest)?,
        }
        io.registration = Some(interest);
        Ok(())
    }
}

impl Driver for EpollDriver {
    type Io = EpollIo;

    const ENGINE: EngineKind = EngineKind::Reactor;

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.cursor = 0;
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
            return Some(IoEvent::Read { key: ev.key, result: 0 });
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.shared.poller.delete(listener.as_raw_fd());
        }
    }

    fn open(&mut self, key: usize, stream: TcpStream) -> io::Result<EpollIo> {
        self.shared.poller.add(stream.as_raw_fd(), key, Interest::READABLE)?;
        Ok(EpollIo { stream, key, registration: Some(Interest::READABLE) })
    }

    fn read(
        &mut self,
        io: &mut EpollIo,
        _result: i32,
        mut sink: impl FnMut(&[u8]) -> bool,
    ) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        loop {
            polling::count::bump(); // read(2)
            match io.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    if !sink(&chunk[..n]) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn arm_read(&mut self, io: &mut EpollIo) -> io::Result<()> {
        self.set_interest(io, Interest::READABLE)
    }

    fn park(&mut self, io: &mut EpollIo) {
        if io.registration.take().is_some() {
            let _ = self.shared.poller.delete(io.stream.as_raw_fd());
        }
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
            // A lost registration (shouldn't happen) drops the
            // connection rather than wedging it.
            Ok(false) => match self.set_interest(io, Interest::WRITABLE) {
                Ok(()) => Flush::Pending,
                Err(_) => Flush::Failed,
            },
            Err(_) => Flush::Failed,
        }
    }

    fn close(&mut self, io: EpollIo) {
        if io.registration.is_some() {
            let _ = self.shared.poller.delete(io.stream.as_raw_fd());
        }
    }
}
