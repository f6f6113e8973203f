//! Shared wall-clock pacing utilities: the `thread::sleep` overshoot
//! calibration (measured once per process, cached) and a compensated
//! sleep used by every component that targets a wall-clock instant —
//! the task servers' timer thread, the in-process
//! [`crate::driver`] and the `psd-loadgen` open-loop pacing.
//!
//! On Linux `thread::sleep` systematically overshoots by the timer
//! slack plus scheduler latency (typically 50–150 µs). Uncompensated,
//! that bias inflates every modeled service time and every open-loop
//! inter-arrival gap, so offered load lands *below* target exactly at
//! the high rates where the model is interesting. Each caller used to
//! calibrate (or not) on its own; this module is now the single
//! implementation.

use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// Measure `thread::sleep`'s systematic overshoot with a few short
/// probe sleeps. This is the raw measurement; almost every caller
/// wants the process-wide cached [`sleep_overshoot`] instead.
pub fn calibrate_sleep_overshoot() -> Duration {
    const PROBES: u32 = 8;
    let probe = Duration::from_micros(500);
    let mut total = Duration::ZERO;
    for _ in 0..PROBES {
        let t = Instant::now();
        thread::sleep(probe);
        total += t.elapsed().saturating_sub(probe);
    }
    total / PROBES
}

/// The process-wide cached sleep-overshoot calibration. First call
/// pays ~4 ms of probe sleeps; every later call is a load.
pub fn sleep_overshoot() -> Duration {
    static CACHED: OnceLock<Duration> = OnceLock::new();
    *CACHED.get_or_init(calibrate_sleep_overshoot)
}

/// Sleep so that the thread wakes *at* `deadline` instead of
/// `overshoot` past it: the calibrated overshoot is subtracted from the
/// requested duration, capped at a quarter of the remaining time so a
/// noisy calibration can bias a short wait only mildly. Already-past
/// deadlines return immediately.
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline <= now {
        return;
    }
    let remaining = deadline - now;
    let comp = sleep_overshoot().min(remaining / 4);
    thread::sleep(remaining - comp);
}

/// The compensated duration to hand `thread::sleep` (or a condvar
/// timeout) for a wait of `target`: `target` minus the calibrated
/// overshoot, capped at a quarter of the target.
pub fn compensated(target: Duration) -> Duration {
    target.saturating_sub(sleep_overshoot().min(target / 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_small_and_cached() {
        let a = sleep_overshoot();
        let b = sleep_overshoot();
        assert_eq!(a, b, "cached value is stable");
        assert!(a < Duration::from_millis(20), "overshoot {a:?} is implausibly large");
    }

    #[test]
    fn compensated_never_underflows() {
        assert_eq!(compensated(Duration::ZERO), Duration::ZERO);
        let tiny = Duration::from_nanos(100);
        assert!(compensated(tiny) <= tiny);
        let big = Duration::from_millis(50);
        assert!(compensated(big) <= big);
        assert!(compensated(big) >= big / 2, "compensation is bounded");
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
