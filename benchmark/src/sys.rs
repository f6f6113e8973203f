//! The two things a run asks of the operating system that `std` has no
//! call for: one core for the whole process, and connections that close
//! without a `TIME_WAIT`.
//!
//! **One core.** On the 2-core VM the bounds were set on, an idle core halts, and
//! waking it goes through the hypervisor: a wake-up sent to the other
//! core took 38 µs at the median and 180–630 µs at the 99th percentile,
//! against 2 µs and 7–50 µs for a thread on the waker's own, busy core.
//! Which core each thread landed on decided whether the same keep-alive
//! loop read a median round trip of 148 µs or of 280 µs. So a run pins
//! itself — the generator and, by inheritance, every thread the program
//! under test starts — to one core, and the generator polls and yields
//! instead of sleeping, which keeps that core awake and lets a woken
//! server thread take it over at the generator's next turn.
//!
//! **No `TIME_WAIT`.** Every connection `http-churn-uring` closes would
//! leave a `TIME_WAIT` entry in the kernel for 60 s, up to a table limit
//! of 65 536, and closing is cheaper once the table is full: the same
//! code read a median of 204 µs with an empty table and 179 µs with a
//! full one, so a run's numbers depended on how many runs preceded it.
//! The client therefore closes with a reset (`SO_LINGER` 0), which
//! leaves no entry on either side.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;

/// Words of a kernel `cpu_set_t` (1024 bits).
const SET_WORDS: usize = 16;

/// `SOL_SOCKET` and `SO_LINGER` in `<sys/socket.h>` on Linux.
const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const [i32; 2], len: u32) -> i32;
}

/// Make closing `stream` send a reset instead of a FIN.
pub fn close_with_reset(stream: &TcpStream) -> io::Result<()> {
    // `struct linger { l_onoff = 1, l_linger = 0 }`.
    let linger = [1i32, 0];
    // SAFETY: the descriptor is open for as long as `stream` is borrowed;
    // `linger` is a live `struct linger` of the length passed.
    let rc = unsafe {
        setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, size_of_val(&linger) as u32)
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The cores the calling thread may run on, ascending.
fn allowed() -> io::Result<Vec<usize>> {
    let mut set = [0u64; SET_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..SET_WORDS * 64).filter(|c| set[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pin the calling thread, and every thread spawned from it later, to
/// the last core it is allowed on (the first takes most interrupts).
/// Returns that core.
pub fn pin_to_one_core() -> io::Result<usize> {
    let core = *allowed()?.last().ok_or_else(|| io::Error::other("no core is allowed"))?;
    let mut set = [0u64; SET_WORDS];
    set[core / 64] |= 1 << (core % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn a_lingerless_close_resets_the_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        close_with_reset(&client).expect("SO_LINGER is settable");
        drop(client);
        let got = served.read(&mut [0u8; 8]);
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_one_core() {
        thread::spawn(|| {
            let before = allowed().expect("sched_getaffinity answers");
            assert!(before.windows(2).all(|w| w[0] < w[1]), "ascending: {before:?}");
            let core = pin_to_one_core().expect("own core is allowed");
            assert_eq!(Some(&core), before.last());
            assert_eq!(allowed().unwrap(), [core]);
            let child = thread::spawn(allowed).join().expect("child").unwrap();
            assert_eq!(child, [core], "affinity is inherited");
        })
        .join()
        .expect("pinned thread");
    }
}
