//! Relaxed-atomic counters for internals that were previously
//! invisible: timer-thread wake/fire activity, per-shard reactor
//! loop behaviour, and admission draws vs sheds. The hot paths bump
//! plain `AtomicU64`s (wait-free, no allocation); scrapes read them
//! relaxed — each counter is independently consistent, which is all an
//! exposition needs.

use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Sum of mailbox batch sizes (mean depth = sum / drains).
    pub mailbox_sum: AtomicU64,
    /// Largest single mailbox drain observed.
    pub mailbox_peak: AtomicU64,
    /// Non-empty mailbox drains.
    pub mailbox_drains: AtomicU64,
    /// Idle sweeps executed.
    pub sweeps: AtomicU64,
    /// Connections retired by idle sweeps.
    pub swept: AtomicU64,
}

impl ReactorShardStats {
    /// Record one mailbox drain of `n` completions.
    pub fn record_drain(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.completions.fetch_add(n, Ordering::Relaxed);
        self.mailbox_sum.fetch_add(n, Ordering::Relaxed);
        self.mailbox_drains.fetch_add(1, Ordering::Relaxed);
        self.mailbox_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// A point-in-time copy for exposition.
    pub fn snapshot(&self) -> ReactorShardSnapshot {
        ReactorShardSnapshot {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            mailbox_sum: self.mailbox_sum.load(Ordering::Relaxed),
            mailbox_peak: self.mailbox_peak.load(Ordering::Relaxed),
            mailbox_drains: self.mailbox_drains.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            swept: self.swept.load(Ordering::Relaxed),
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
    /// Sum of drain batch sizes.
    pub mailbox_sum: u64,
    /// Largest drain batch.
    pub mailbox_peak: u64,
    /// Non-empty drains.
    pub mailbox_drains: u64,
    /// Idle sweeps.
    pub sweeps: u64,
    /// Connections swept.
    pub swept: u64,
}

impl ReactorShardSnapshot {
    /// Mean readiness events delivered per poller wakeup.
    pub fn events_per_wakeup(&self) -> f64 {
        ratio(self.events, self.wakeups)
    }

    /// Mean completions per non-empty mailbox drain.
    pub fn mean_mailbox_depth(&self) -> f64 {
        ratio(self.mailbox_sum, self.mailbox_drains)
    }

    /// Mean connections retired per idle sweep.
    pub fn mean_sweep_size(&self) -> f64 {
        ratio(self.swept, self.sweeps)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
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
    /// Reads served via `READ_FIXED` (registered buffers).
    pub fixed_reads: AtomicU64,
    /// Writes served via `WRITE_FIXED` (registered buffers).
    pub fixed_writes: AtomicU64,
    /// Reads/writes that fell back to plain opcodes (overflow slots or
    /// registration refused).
    pub plain_ops: AtomicU64,
}

impl UringStats {
    /// A point-in-time copy for exposition.
    pub fn snapshot(&self) -> UringSnapshot {
        UringSnapshot {
            enters: self.enters.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            sqes: self.sqes.load(Ordering::Relaxed),
            cqes: self.cqes.load(Ordering::Relaxed),
            fixed_reads: self.fixed_reads.load(Ordering::Relaxed),
            fixed_writes: self.fixed_writes.load(Ordering::Relaxed),
            plain_ops: self.plain_ops.load(Ordering::Relaxed),
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
    /// Fixed-buffer reads.
    pub fixed_reads: u64,
    /// Fixed-buffer writes.
    pub fixed_writes: u64,
    /// Plain-opcode reads/writes.
    pub plain_ops: u64,
}

impl UringSnapshot {
    /// Mean SQEs batched into one `io_uring_enter` — the batching win
    /// over epoll's one-syscall-per-op pattern.
    pub fn sqes_per_enter(&self) -> f64 {
        ratio(self.sqes, self.enters)
    }

    /// Mean CQEs reaped per waiting enter.
    pub fn cqes_per_wait(&self) -> f64 {
        ratio(self.cqes, self.waits)
    }

    /// Fraction of reads/writes that used registered buffers.
    pub fn fixed_hit_ratio(&self) -> f64 {
        let fixed = self.fixed_reads + self.fixed_writes;
        ratio(fixed, fixed + self.plain_ops)
    }
}

/// Admission-control door counters.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    /// Admission decisions drawn (one per class-request arrival).
    pub draws: AtomicU64,
    /// Requests turned away by the draw.
    pub sheds: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_accounting_tracks_peak_and_mean() {
        let s = ReactorShardStats::default();
        s.record_drain(0); // empty drains are not drains
        s.record_drain(3);
        s.record_drain(1);
        s.wakeups.fetch_add(2, Ordering::Relaxed);
        s.events.fetch_add(5, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.completions, 4);
        assert_eq!(snap.mailbox_peak, 3);
        assert_eq!(snap.mailbox_drains, 2);
        assert!((snap.mean_mailbox_depth() - 2.0).abs() < 1e-12);
        assert!((snap.events_per_wakeup() - 2.5).abs() < 1e-12);
        assert_eq!(ReactorShardSnapshot::default().mean_sweep_size(), 0.0);
    }

    #[test]
    fn uring_snapshot_ratios() {
        let s = UringStats::default();
        s.enters.store(4, Ordering::Relaxed);
        s.waits.store(2, Ordering::Relaxed);
        s.sqes.store(12, Ordering::Relaxed);
        s.cqes.store(10, Ordering::Relaxed);
        s.fixed_reads.store(6, Ordering::Relaxed);
        s.fixed_writes.store(3, Ordering::Relaxed);
        s.plain_ops.store(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert!((snap.sqes_per_enter() - 3.0).abs() < 1e-12);
        assert!((snap.cqes_per_wait() - 5.0).abs() < 1e-12);
        assert!((snap.fixed_hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(UringSnapshot::default().sqes_per_enter(), 0.0);
    }
}
