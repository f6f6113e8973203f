//! The completion driver: the same shard loop on io_uring.
//!
//! * Accepts arrive through one **multishot `ACCEPT`** SQE that stays
//!   armed across completions instead of an epoll-readable listener.
//! * Reads and writes are **submitted up front** into registered fixed
//!   buffers (`READ_FIXED`/`WRITE_FIXED` when the slot sits in the
//!   registered window, plain `READ`/`WRITE` past it); the kernel
//!   reports *finished* I/O, so the loop never calls `read(2)`/
//!   `write(2)` at all.
//! * Task-server completions still land in the shard mailbox, but the
//!   eventfd ring is observed by an in-ring **doorbell read** armed on
//!   the poller's notify fd — the wakeup folds into the same
//!   `io_uring_enter` wait as every other completion instead of
//!   costing an `epoll_wait` + `read` round-trip.
//!
//! Everything a loop turn queued — accept re-arms, reads, response
//! writes, cancels, the doorbell — is flushed by **one**
//! `io_uring_enter` in the next [`Driver::wait`]: four syscalls per
//! keep-alive request with the executor's eventfd `write`, against
//! epoll's eight (`tests/syscall_gate.rs` pins both).
//!
//! Closing inverts too: an fd with in-flight SQEs must outlive them, so
//! [`Driver::close`] cancels the ops (`ASYNC_CANCEL` on the fd) and
//! parks the connection in `closing` until the cancelled completions
//! drain; only then does the `TcpStream` drop. Buffer slots go through
//! the engine's zombie deferral the same way.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use polling::uring::{take_accepted_fd, UringEngine};

use crate::codec::WriteBuf;
use crate::EngineKind;

use super::driver::{Driver, Flush, IoEvent};
use super::Shared;

/// Ring capacity: enough SQEs that a full turn's batch (reads, writes
/// and re-arms across hundreds of connections) never forces a
/// mid-batch flush.
const ENTRIES: u32 = 1024;
/// Registered fixed-buffer slots per shard; connections past this use
/// engine-owned heap slots with plain opcodes (correct, one fewer fast
/// path).
const FIXED_SLOTS: usize = 128;
/// Bytes per buffer half (one read half + one write half per slot) —
/// matches the epoll driver's 8 KiB stack chunk.
const HALF_BYTES: usize = 8192;

/// Completion-token tags: `token = key << TAG_BITS | tag`.
const TAG_BITS: u32 = 3;
const TAG_READ: u64 = 0;
const TAG_WRITE: u64 = 1;
const TAG_ACCEPT: u64 = 2;
const TAG_DOORBELL: u64 = 3;
const TAG_CANCEL: u64 = 4;

/// `-EAGAIN` as a CQE result: the kernel chose not to poll-arm the op;
/// resubmitting it is the whole remedy.
const EAGAIN: i32 = -11;

fn token(key: usize, tag: u64) -> u64 {
    ((key as u64) << TAG_BITS) | tag
}

/// Build one ring (and its registered buffer arena) per shard, or say
/// on stderr why not. `--engine uring` is a request for the fast path,
/// not a hard requirement: a kernel without io_uring (ENOSYS), one that
/// refuses it (seccomp/EPERM), or a probe pass followed by a ring
/// construction failure (e.g. memlock exhaustion) all yield `None`, and
/// [`super::Handle::start`] serves on epoll instead.
pub(super) fn engines(shards: usize) -> Option<Vec<UringEngine>> {
    let built = match polling::uring::probe() {
        Err(why) => Err(format!("io_uring unavailable ({why})")),
        Ok(()) => (0..shards)
            .map(|_| UringEngine::new(ENTRIES, FIXED_SLOTS, HALF_BYTES))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("io_uring engine failed to start ({e})")),
    };
    built
        .map_err(|why| eprintln!("psd-server: {why}; falling back to the epoll reactor engine"))
        .ok()
}

/// Arm the multishot accept on the accepting shard's listener.
fn arm_accept(engine: &mut UringEngine, listener: Option<&TcpListener>) -> io::Result<()> {
    listener.map_or(Ok(()), |l| engine.push_accept(l.as_raw_fd(), token(0, TAG_ACCEPT)))
}

pub(super) struct UringIo {
    stream: TcpStream,
    key: usize,
    /// The engine buffer slot owned by this connection for its
    /// lifetime (read half + write half).
    slot: usize,
    read_inflight: bool,
    write_inflight: bool,
}

/// Teardown order is the field order: dropping `engine` cancels and
/// reaps every operation still in flight (the doorbell, the accept,
/// reads of connections in `closing`), and only then do `closing` and
/// `listener` drop and their fds close — an fd never closes under an
/// SQE that names it. The shard hands every connection it still holds
/// to [`Driver::close`] before the driver drops, so no stream lives
/// anywhere else.
pub(super) struct UringDriver {
    engine: UringEngine,
    /// Connections released with operations still in flight: cancels
    /// issued, the stream stays open until the last completion drains.
    closing: HashMap<usize, UringIo>,
    /// The accepting shard's listener (shard 0 only). It stays open
    /// after accepting stops: the cancel names its fd.
    listener: Option<TcpListener>,
    /// Whether a spent multishot accept is to be re-armed.
    accepting: bool,
    shared: Arc<Shared>,
    /// Set when the ring itself fails (enter error, doorbell lost): the
    /// next wait reports it and the loop exits rather than spin blind.
    dead: bool,
}

impl UringDriver {
    /// Arms the permanent SQEs: the doorbell read on the poller's
    /// eventfd (cross-thread wakeups fold into the ring wait) and, on
    /// the accepting shard, the multishot accept.
    pub(super) fn new(
        mut engine: UringEngine,
        listener: Option<TcpListener>,
        shared: Arc<Shared>,
    ) -> io::Result<Self> {
        engine.push_wakeup_read(shared.poller.notify_fd(), token(0, TAG_DOORBELL))?;
        arm_accept(&mut engine, listener.as_ref())?;
        Ok(Self {
            engine,
            closing: HashMap::new(),
            accepting: listener.is_some(),
            listener,
            shared,
            dead: false,
        })
    }

    /// A completion for a connection in `closing`: retire it when its
    /// last operation has drained. Returns false for live connections.
    fn reap_closing(&mut self, key: usize, tag: u64) -> bool {
        let Some(io) = self.closing.get_mut(&key) else { return false };
        match tag {
            TAG_READ => io.read_inflight = false,
            _ => io.write_inflight = false,
        }
        if !io.read_inflight && !io.write_inflight {
            if let Some(io) = self.closing.remove(&key) {
                self.engine.release_slot(io.slot);
            }
        }
        true
    }

    fn push_read(&mut self, io: &mut UringIo) -> io::Result<()> {
        if !io.read_inflight {
            self.engine.push_read(io.stream.as_raw_fd(), io.slot, token(io.key, TAG_READ))?;
            io.read_inflight = true;
        }
        Ok(())
    }
}

impl Driver for UringDriver {
    type Io = UringIo;

    const ENGINE: EngineKind = EngineKind::Uring;

    /// The one syscall of the turn: flush everything the previous turn
    /// queued (reads, writes, re-arms, cancels) and wait for the first
    /// completion or the timeout.
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("io_uring doorbell or accept lost"));
        }
        self.engine.submit_and_wait(Some(timeout))
    }

    /// Reap the CQ one completion at a time. Follow-up SQEs queue
    /// locally; they ride the next turn's enter.
    fn next_event(&mut self) -> Option<IoEvent> {
        while let Some(c) = self.engine.pop() {
            let key = (c.token >> TAG_BITS) as usize;
            let tag = c.token & ((1 << TAG_BITS) - 1);
            match tag {
                TAG_DOORBELL => {
                    // Someone rang (completion posted, handoff, stop):
                    // the shard drains its mailbox and inbox every turn
                    // anyway. Re-arm immediately — writes landing
                    // between the CQE and the re-arm stick in the
                    // eventfd counter, so no wakeup is ever lost.
                    let fd = self.shared.poller.notify_fd();
                    self.dead |= self.engine.push_wakeup_read(fd, token(0, TAG_DOORBELL)).is_err();
                }
                TAG_ACCEPT => {
                    // A spent multishot (kernel stops producing) must
                    // be re-armed by hand; do it first so an error
                    // result can't leak the arm.
                    if !c.more && self.accepting {
                        self.dead |= arm_accept(&mut self.engine, self.listener.as_ref()).is_err();
                    }
                    // Negative: ECANCELED after drain, or transient
                    // (EMFILE etc.).
                    if c.result >= 0 {
                        return Some(IoEvent::Accepted(take_accepted_fd(c.result)));
                    }
                }
                TAG_READ | TAG_WRITE => {
                    if !self.closing.is_empty() && self.reap_closing(key, tag) {
                        continue;
                    }
                    return Some(if tag == TAG_READ {
                        IoEvent::Read { key, result: c.result }
                    } else {
                        IoEvent::Write { key, result: c.result }
                    });
                }
                TAG_CANCEL => {} // the cancelled ops' own CQEs do the work
                _ => unreachable!("unknown completion tag"),
            }
        }
        None
    }

    /// Cancel the multishot accept.
    fn stop_accepting(&mut self) {
        self.accepting = false;
        if let Some(listener) = &self.listener {
            let _ = self.engine.push_cancel_fd(listener.as_raw_fd(), token(0, TAG_CANCEL));
        }
    }

    /// Claim a buffer slot and put the first read in flight.
    fn open(&mut self, key: usize, stream: TcpStream) -> io::Result<UringIo> {
        let slot = self.engine.alloc_slot();
        let mut io = UringIo { stream, key, slot, read_inflight: false, write_inflight: false };
        if let Err(e) = self.push_read(&mut io) {
            self.engine.release_slot(slot);
            return Err(e);
        }
        Ok(io)
    }

    fn read(
        &mut self,
        io: &mut UringIo,
        result: i32,
        mut sink: impl FnMut(&[u8]) -> bool,
    ) -> io::Result<()> {
        io.read_inflight = false;
        if result == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if result < 0 && result != EAGAIN {
            return Err(io::Error::from_raw_os_error(-result));
        }
        // Disjoint borrows: the slice lives in the engine arena, the
        // codec the sink feeds in the shard's connection table.
        if result == EAGAIN || sink(self.engine.read_slice(io.slot, result as usize)) {
            self.push_read(io)?;
        }
        Ok(())
    }

    fn arm_read(&mut self, io: &mut UringIo) -> io::Result<()> {
        self.push_read(io)
    }

    /// Nothing to undo: a connection enters `Waiting` from a read
    /// completion, which is not re-armed, so no SQE is in flight.
    fn park(&mut self, _io: &mut UringIo) {}

    /// Keep the write pipeline full: queue a write SQE for the front of
    /// the unflushed buffer unless one is already in flight. Its
    /// completion advances the buffer and comes back here.
    fn flush(&mut self, io: &mut UringIo, out: &mut WriteBuf, completed: Option<i32>) -> Flush {
        if let Some(result) = completed {
            io.write_inflight = false;
            match result {
                EAGAIN => {}                        // retry the same bytes
                n if n < 0 => return Flush::Failed, // EPIPE/ECONNRESET: client went away
                n => out.consume(n as usize),
            }
        }
        if io.write_inflight {
            return Flush::Pending;
        }
        if out.is_empty() {
            return Flush::Drained;
        }
        // push_write copies into the slot's write half, so a response
        // may exceed a half and drain in turns.
        let (fd, token) = (io.stream.as_raw_fd(), token(io.key, TAG_WRITE));
        if self.engine.push_write(fd, io.slot, out.unflushed(), token).is_err() {
            return Flush::Failed;
        }
        io.write_inflight = true;
        Flush::Pending
    }

    fn close(&mut self, io: UringIo) {
        if io.read_inflight || io.write_inflight {
            let _ = self.engine.push_cancel_fd(io.stream.as_raw_fd(), token(io.key, TAG_CANCEL));
            self.closing.insert(io.key, io);
        } else {
            self.engine.release_slot(io.slot);
        }
    }

    /// Copy the engine's single-threaded meters into the shared atomics
    /// (plain stores — the loop is the only writer).
    fn end_turn(&mut self) {
        let c = self.engine.counters();
        let s = &self.shared.uring_stats;
        s.enters.store(c.enters, Ordering::Relaxed);
        s.waits.store(c.waits, Ordering::Relaxed);
        s.sqes.store(c.sqes_submitted, Ordering::Relaxed);
        s.cqes.store(c.cqes_reaped, Ordering::Relaxed);
        s.fixed_reads.store(c.fixed_reads, Ordering::Relaxed);
        s.fixed_writes.store(c.fixed_writes, Ordering::Relaxed);
        s.plain_ops.store(c.plain_ops, Ordering::Relaxed);
    }
}
