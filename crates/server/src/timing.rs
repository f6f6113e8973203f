//! Wall-clock waits that end on time, for every thread that targets a
//! wall-clock instant: [`sleep_until`] paces the `psd-loadgen` open
//! loop, and the task servers' timer thread calls `precise_timers`
//! before its condvar waits, as does the reactor shard that fires the
//! deadlines before its poller waits.
//!
//! Linux ends a timed wait late by the thread's *timer slack* — 50 µs
//! by default, so that it can fire the timer together with others —
//! plus scheduler latency. Setting the slack to 1 ns
//! (`polling::precise_timers`, one `prctl` per thread) leaves only the
//! latency. That is why there is no calibration: aiming a wait early by
//! a measured slack only trades lateness for waits that end *before*
//! their deadline — a service shorter than X/r_i, an arrival sent
//! early. A wait here, and the timer thread's, never ends early, and
//! ends late by scheduler latency only (7–9 µs on the 2-vCPU VM the
//! server is measured on).
//!
//! The reactor shard that fires the deadlines does not leave that
//! latency in its replies: its kernel wait ends a fixed ε before the
//! deadline and the turn spins out the rest on the clock (see the
//! shard's module doc). That is not an early aim — the wait's early end
//! fires nothing; the fire waits for a clock read at or past the due
//! instant.

use std::cell::Cell;
use std::thread;
use std::time::Instant;

/// Turn the calling thread's timer slack down to 1 ns; the `prctl` is
/// issued once per thread. A refusal is dropped: the thread's waits
/// then stay late by at most the default slack, never early.
pub(crate) fn precise_timers() {
    thread_local!(static PRECISE: Cell<bool> = const { Cell::new(false) });
    if !PRECISE.replace(true) {
        let _ = polling::precise_timers();
    }
}

/// Sleep until `deadline`, never returning before it. Already-past
/// deadlines return immediately.
pub fn sleep_until(deadline: Instant) {
    precise_timers();
    let now = Instant::now();
    if deadline > now {
        thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sleep_until_never_returns_early() {
        for i in 0..50u64 {
            // 50 evenly spaced waits from 50 µs to 2 ms, sizes interleaved.
            let wait = Duration::from_micros(50 + (i * 37 % 50) * 1950 / 49);
            let deadline = Instant::now() + wait;
            sleep_until(deadline);
            assert!(Instant::now() >= deadline, "wait {i} of {wait:?} returned early");
        }
    }

    #[test]
    fn sleep_until_lands_near_the_deadline() {
        // Scheduler noise on a loaded CI box can push any single wait
        // tens of milliseconds late; what must hold is that the
        // *mechanism* lands near the deadline when the OS cooperates.
        // Take the best of a few attempts so one preempted wake cannot
        // fail the test, while a systematic bias still would.
        let best = (0..5)
            .map(|_| {
                let target = Instant::now() + Duration::from_millis(5);
                sleep_until(target);
                Instant::now().saturating_duration_since(target)
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(15), "best wake {best:?} past the deadline");
        // A deadline in the past returns immediately.
        let t = Instant::now();
        sleep_until(t - Duration::from_millis(1));
        assert!(t.elapsed() < Duration::from_millis(5));
    }
}
