//! The seam between the shard loop and the kernel: everything
//! [`super::shard::Shard`] needs from an I/O backend, and nothing it
//! does not. Two implementations exist — readiness
//! ([`super::epoll::EpollDriver`]) and completion
//! ([`super::uring::UringDriver`]) — and the loop is generic over them
//! (static dispatch: no `dyn` call per event).
//!
//! The split: the shard owns *what happens* to a connection (parse,
//! route, park, respond, keep alive or close, reap); the driver owns
//! *how bytes move* and every file descriptor. A connection's
//! `TcpStream` lives in the driver's [`Driver::Io`], so the shared half
//! never touches a socket.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use crate::codec::WriteBuf;
use crate::EngineKind;

/// One I/O event, in the only vocabulary the shard loop speaks. `result`
/// is the completion's raw result on a completion driver and 0 on a
/// readiness driver; the shard hands it back to the driver unread.
pub(super) enum IoEvent {
    /// The listener produced a connection.
    Accepted(TcpStream),
    /// Connection `key` has bytes to take (or an EOF/error to learn of).
    Read { key: usize, result: i32 },
    /// Connection `key` can make write progress (or already did).
    Write { key: usize, result: i32 },
}

/// Where a connection's write buffer stands after [`Driver::flush`].
pub(super) enum Flush {
    /// Every queued byte reached the socket.
    Drained,
    /// Bytes remain; an [`IoEvent::Write`] for this key will follow.
    Pending,
    /// The socket failed; the connection is to be closed.
    Failed,
}

/// The I/O mechanics of one shard. All methods run on the shard's
/// thread.
pub(super) trait Driver {
    /// Per-connection I/O state: the `TcpStream`, the key its events
    /// carry, and whatever the backend tracks for it (registered
    /// interest; buffer slot and in-flight flags).
    type Io;

    /// The engine this driver realizes (admin exposition, thread names).
    const ENGINE: EngineKind;

    /// The one blocking call of a loop turn: submit whatever the last
    /// turn queued and wait up to `timeout` for events or a doorbell
    /// ring ([`polling::Poller::notify`] on the shard's poller). An
    /// error means the backend is gone and the loop exits.
    fn wait(&mut self, timeout: Duration) -> io::Result<()>;

    /// Next event harvested by the last [`Driver::wait`], `None` when
    /// the turn's events are exhausted. Events for connections already
    /// handed to [`Driver::close`] never surface.
    fn next_event(&mut self) -> Option<IoEvent>;

    /// Stop delivering [`IoEvent::Accepted`] (drain began).
    fn stop_accepting(&mut self);

    /// Take ownership of a nonblocking stream and start reading it;
    /// its events carry `key` (≥ 1; 0 is the driver's to use for its
    /// listener).
    fn open(&mut self, key: usize, stream: TcpStream) -> io::Result<Self::Io>;

    /// Handle an [`IoEvent::Read`] for a connection in `Reading`: pass
    /// arrived bytes to `sink`, chunk by chunk, while it returns `true`
    /// (wants more) and bytes are available; keep the read armed when
    /// it still wants more. `Err` means EOF or a socket error. The
    /// shard drops read events for connections in other phases — a
    /// readiness backend reports hang-ups regardless of interest, and
    /// no backend holds a read in flight outside `Reading`, because
    /// only [`Driver::open`], this method and [`Driver::arm_read`]
    /// start one.
    fn read(
        &mut self,
        io: &mut Self::Io,
        result: i32,
        sink: impl FnMut(&[u8]) -> bool,
    ) -> io::Result<()>;

    /// The connection returns to `Reading` after a flush with no
    /// request buffered: make the next arriving bytes raise a read.
    fn arm_read(&mut self, io: &mut Self::Io) -> io::Result<()>;

    /// The connection enters `Waiting`: nothing may be registered or in
    /// flight for it until [`Driver::flush`], so pipelined bytes stay in
    /// the kernel socket buffer (TCP back-pressure) and a client abort
    /// raises no event.
    fn park(&mut self, io: &mut Self::Io);

    /// Move `out` toward the socket. `completed` carries the result of
    /// the [`IoEvent::Write`] being handled, `None` when the shard just
    /// queued a response.
    fn flush(&mut self, io: &mut Self::Io, out: &mut WriteBuf, completed: Option<i32>) -> Flush;

    /// Release a connection. The fd closes once nothing in the kernel
    /// refers to it any more — at once on a readiness backend, after
    /// the cancelled operations complete on a completion backend.
    fn close(&mut self, io: Self::Io);

    /// End of a loop turn (and once more at loop exit): publish
    /// whatever counters the backend keeps.
    fn end_turn(&mut self) {}
}
