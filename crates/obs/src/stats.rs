//! Relaxed-atomic counters for internals that were previously
//! invisible: timer-thread wake/fire activity, per-shard reactor
//! loop behaviour, and admission draws. The hot paths bump
//! plain `AtomicU64`s (wait-free, no allocation); scrapes read them
//! relaxed — each counter is independently consistent, which is all an
//! exposition needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Timer-thread activity counters (occupancy is the executor's
/// in-flight count, reported alongside by the host).
#[derive(Debug, Default)]
pub struct WheelStats {
    /// Timer-thread wakeups (alarm fires and ticks with work).
    pub wakeups: AtomicU64,
    /// Virtual-finish deadlines fired.
    pub fires: AtomicU64,
    /// Always 0: the deadline queue that replaced the hierarchical wheel
    /// has no levels to cascade between. `benchmark/` reads the field.
    pub cascades: AtomicU64,
    /// Deadlines scheduled (including service-start reschedules).
    pub scheduled: AtomicU64,
    /// Fire lateness summed over every fire: the nanoseconds between a
    /// deadline's due instant and the clock read that popped it.
    pub late_ns: AtomicU64,
}

/// One reactor shard's event-loop counters.
#[derive(Debug, Default)]
pub struct ReactorShardStats {
    /// Poller returns (one per loop iteration).
    pub wakeups: AtomicU64,
    /// Readiness events delivered across all wakeups.
    pub events: AtomicU64,
    /// Connections accepted on this shard.
    pub accepts: AtomicU64,
    /// Executor completions drained from the mailbox.
    pub completions: AtomicU64,
    /// Largest single mailbox drain observed.
    pub mailbox_peak: AtomicU64,
    /// Non-empty mailbox drains (mean depth = completions / drains).
    pub mailbox_drains: AtomicU64,
    /// Connections retired by idle sweeps (one sweep per wakeup).
    pub swept: AtomicU64,
    /// Nanoseconds spent spinning out the last stretch before a
    /// deadline (the shard that fires them).
    pub spin_ns: AtomicU64,
    /// Core yields during those spins.
    pub spin_yields: AtomicU64,
}

impl ReactorShardStats {
    /// Record one mailbox drain of `n` completions.
    pub fn record_drain(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.completions.fetch_add(n, Ordering::Relaxed);
        self.mailbox_drains.fetch_add(1, Ordering::Relaxed);
        self.mailbox_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Record one spin: `spun` long, with `yields` yields of the core.
    pub fn record_spin(&self, spun: Duration, yields: u64) {
        let ns = u64::try_from(spun.as_nanos()).unwrap_or(u64::MAX);
        if ns > 0 {
            self.spin_ns.fetch_add(ns, Ordering::Relaxed);
        }
        if yields > 0 {
            self.spin_yields.fetch_add(yields, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy for exposition.
    pub fn snapshot(&self) -> ReactorShardSnapshot {
        ReactorShardSnapshot {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            mailbox_peak: self.mailbox_peak.load(Ordering::Relaxed),
            mailbox_drains: self.mailbox_drains.load(Ordering::Relaxed),
            swept: self.swept.load(Ordering::Relaxed),
            spin_ns: self.spin_ns.load(Ordering::Relaxed),
            spin_yields: self.spin_yields.load(Ordering::Relaxed),
        }
    }
}

/// The scrape-side view of one shard's loop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReactorShardSnapshot {
    /// Poller returns.
    pub wakeups: u64,
    /// Readiness events delivered.
    pub events: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Completions drained.
    pub completions: u64,
    /// Largest drain batch.
    pub mailbox_peak: u64,
    /// Non-empty drains.
    pub mailbox_drains: u64,
    /// Connections swept.
    pub swept: u64,
    /// Nanoseconds spun before deadlines.
    pub spin_ns: u64,
    /// Yields during those spins.
    pub spin_yields: u64,
}

/// One io_uring shard's ring counters, published by the uring engine's
/// event loop (it copies the ring's single-threaded meters into these
/// atomics once per loop iteration — stores, not read-modify-writes).
#[derive(Debug, Default)]
pub struct UringStats {
    /// `io_uring_enter` syscalls issued.
    pub enters: AtomicU64,
    /// Enter calls that waited for a completion.
    pub waits: AtomicU64,
    /// SQEs submitted across all enters.
    pub sqes: AtomicU64,
    /// CQEs reaped.
    pub cqes: AtomicU64,
}

impl UringStats {
    /// A point-in-time copy for exposition.
    pub fn snapshot(&self) -> UringSnapshot {
        UringSnapshot {
            enters: self.enters.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            sqes: self.sqes.load(Ordering::Relaxed),
            cqes: self.cqes.load(Ordering::Relaxed),
        }
    }
}

/// The scrape-side view of one uring shard's ring counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UringSnapshot {
    /// `io_uring_enter` calls.
    pub enters: u64,
    /// Waiting enters.
    pub waits: u64,
    /// SQEs submitted.
    pub sqes: u64,
    /// CQEs reaped.
    pub cqes: u64,
}

/// Admission-control door counters. What the draws turned away is
/// counted per class by the host (`psd-server`'s lanes), next to the
/// arrivals it is compared with.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    /// Admission decisions drawn (one per class-request arrival that
    /// went through the door).
    pub draws: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_accounting_tracks_peak_and_mean() {
        let s = ReactorShardStats::default();
        s.record_drain(0); // empty drains are not drains
        assert_eq!(s.snapshot(), ReactorShardSnapshot::default());
        s.record_drain(3);
        s.record_drain(1);
        s.record_spin(Duration::from_micros(7), 3);
        s.record_spin(Duration::from_nanos(500), 0);
        let snap = s.snapshot();
        assert_eq!((snap.spin_ns, snap.spin_yields), (7_500, 3));
        // Mean depth is completions / drains: 2.
        assert_eq!((snap.completions, snap.mailbox_drains, snap.mailbox_peak), (4, 2, 3));
    }
}
