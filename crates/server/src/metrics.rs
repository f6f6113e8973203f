//! Measured per-class statistics of the server, accumulated
//! **share-nothing**: every executor thread (the timer thread, or each
//! class's spinning thread) registers its own [`MetricsRecorder`] shard
//! and records completions into it without ever contending with
//! another thread: the lock is per *recorder* (one owner thread →
//! always uncontended), and [`MetricsSink::snapshot`] sweeps the
//! shards.

use parking_lot::Mutex;
use std::sync::Arc;

/// Snapshot of one class's measured behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission (503, never executed). Counted by the
    /// server facade, not the metrics shards — the sink reports 0.
    pub shed: u64,
    /// Mean queueing delay in seconds (enqueue → dispatch).
    pub mean_delay: f64,
    /// Mean service duration in seconds (dispatch → done).
    pub mean_service: f64,
    /// Mean slowdown (delay / service, per request).
    pub mean_slowdown: f64,
}

/// Snapshot over all classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Per-class stats, indexed by class.
    pub classes: Vec<ClassStats>,
}

impl ServerStats {
    /// Achieved slowdown ratio of class `i` vs class `j`, if both have
    /// completions and the denominator is positive.
    pub fn slowdown_ratio(&self, i: usize, j: usize) -> Option<f64> {
        let a = &self.classes[i];
        let b = &self.classes[j];
        (a.completed > 0 && b.completed > 0 && b.mean_slowdown > 0.0)
            .then(|| a.mean_slowdown / b.mean_slowdown)
    }
}

/// One class's running sums. Means only need Σx (the old Welford
/// accumulators tracked variance nobody read — plain sums are cheaper
/// and merge exactly).
#[derive(Debug, Default, Clone, Copy)]
struct ClassAccum {
    completed: u64,
    delay_sum: f64,
    service_sum: f64,
    slowdown_sum: f64,
}

impl ClassAccum {
    fn add(&mut self, other: &ClassAccum) {
        self.completed += other.completed;
        self.delay_sum += other.delay_sum;
        self.service_sum += other.service_sum;
        self.slowdown_sum += other.slowdown_sum;
    }
}

/// One recorder's private accumulators (all classes). The hot path
/// writes **only** `window`; `totals` holds everything already swept
/// out of it (folded in by [`MetricsSink::sweep_window`] under the
/// same lock), so a lifetime snapshot is `totals + window` and a
/// record costs one set of additions, not two.
#[derive(Debug)]
struct ShardData {
    totals: Vec<ClassAccum>,
    window: Vec<ClassAccum>,
}

/// One recorder's private accumulator array (all classes).
#[derive(Debug)]
struct Shard {
    classes: Mutex<ShardData>,
}

/// A per-executor handle into the sink: recording takes only this
/// shard's (uncontended) lock.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    shard: Arc<Shard>,
}

impl MetricsRecorder {
    /// Record one completed request (durations in seconds).
    pub fn record(&self, class: usize, delay_s: f64, service_s: f64) {
        let mut g = self.shard.classes.lock();
        // Guard the division: sub-microsecond services can measure as 0.
        let slowdown = delay_s / service_s.max(1e-9);
        let c = &mut g.window[class];
        c.completed += 1;
        c.delay_sum += delay_s;
        c.service_sum += service_s;
        c.slowdown_sum += slowdown;
    }
}

/// One control window's departures, swept (snapshot-and-reset) from
/// every shard by [`MetricsSink::sweep_window`]. Feeds the
/// `completions` / `slowdown_sums` fields of the controller's
/// `WindowObservation`; a class with `completions == 0` yields
/// `mean_slowdowns() == None` downstream — never NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSweep {
    /// Per-class completions since the previous sweep.
    pub completions: Vec<u64>,
    /// Per-class sum of slowdowns of those completions.
    pub slowdown_sums: Vec<f64>,
}

/// Sharded metrics sink: executors register recorders, snapshots sweep
/// them.
#[derive(Debug)]
pub struct MetricsSink {
    n_classes: usize,
    shards: Mutex<Vec<Arc<Shard>>>,
}

impl MetricsSink {
    /// Sink for `n` classes with no shards yet.
    pub fn new(n: usize) -> Self {
        Self { n_classes: n, shards: Mutex::new(Vec::new()) }
    }

    /// Register a new private shard and return its recorder. Shards are
    /// never removed: a recorder dropped mid-run keeps its history in
    /// the snapshot.
    pub fn recorder(&self) -> MetricsRecorder {
        let shard = Arc::new(Shard {
            classes: Mutex::new(ShardData {
                totals: vec![ClassAccum::default(); self.n_classes],
                window: vec![ClassAccum::default(); self.n_classes],
            }),
        });
        self.shards.lock().push(Arc::clone(&shard));
        MetricsRecorder { shard }
    }

    /// Sweep every shard into one consistent-enough snapshot (per-shard
    /// locks, no global freeze — fine for monitoring). Lifetime =
    /// already-swept totals plus the live (un-swept) window.
    pub fn snapshot(&self) -> ServerStats {
        let mut totals = vec![ClassAccum::default(); self.n_classes];
        for shard in self.shards.lock().iter() {
            let g = shard.classes.lock();
            for (t, (swept, live)) in totals.iter_mut().zip(g.totals.iter().zip(g.window.iter())) {
                t.add(swept);
                t.add(live);
            }
        }
        ServerStats {
            classes: totals
                .iter()
                .map(|t| {
                    let n = (t.completed as f64).max(1.0);
                    ClassStats {
                        completed: t.completed,
                        shed: 0,
                        mean_delay: if t.completed > 0 { t.delay_sum / n } else { 0.0 },
                        mean_service: if t.completed > 0 { t.service_sum / n } else { 0.0 },
                        mean_slowdown: if t.completed > 0 { t.slowdown_sum / n } else { 0.0 },
                    }
                })
                .collect(),
        }
    }

    /// Close the current observation window: sweep each shard's window
    /// accumulators **and reset them** under the shard's lock, so a
    /// departure is counted in exactly one window however the sweep
    /// instants fall (no double counting across windows, no losses —
    /// records racing the sweep land in one window or the next).
    pub fn sweep_window(&self) -> WindowSweep {
        let mut completions = vec![0u64; self.n_classes];
        let mut slowdown_sums = vec![0.0f64; self.n_classes];
        for shard in self.shards.lock().iter() {
            let mut g = shard.classes.lock();
            let ShardData { totals, window } = &mut *g;
            for (i, c) in window.iter_mut().enumerate() {
                completions[i] += c.completed;
                slowdown_sums[i] += c.slowdown_sum;
                // Fold the swept window into the shard's lifetime
                // totals (the hot path only ever writes the window).
                totals[i].add(c);
                *c = ClassAccum::default();
            }
        }
        WindowSweep { completions, slowdown_sums }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = MetricsSink::new(2);
        let r = s.recorder();
        r.record(0, 1.0, 0.5); // slowdown 2
        r.record(0, 3.0, 0.5); // slowdown 6
        r.record(1, 1.0, 1.0); // slowdown 1
        let snap = s.snapshot();
        assert_eq!(snap.classes[0].completed, 2);
        assert!((snap.classes[0].mean_slowdown - 4.0).abs() < 1e-12);
        assert!((snap.classes[0].mean_delay - 2.0).abs() < 1e-12);
        assert_eq!(snap.classes[1].completed, 1);
        assert_eq!(snap.slowdown_ratio(0, 1), Some(4.0));
    }

    #[test]
    fn empty_ratio_is_none() {
        let s = MetricsSink::new(2);
        s.recorder().record(0, 1.0, 1.0);
        assert!(s.snapshot().slowdown_ratio(0, 1).is_none());
    }

    #[test]
    fn zero_service_guarded() {
        let s = MetricsSink::new(1);
        s.recorder().record(0, 1.0, 0.0);
        assert!(s.snapshot().classes[0].mean_slowdown.is_finite());
    }

    #[test]
    fn empty_sink_snapshots_zeroes() {
        let snap = MetricsSink::new(3).snapshot();
        assert_eq!(snap.classes.len(), 3);
        assert!(snap.classes.iter().all(|c| c.completed == 0 && c.mean_slowdown == 0.0));
    }

    /// Snapshot-and-reset semantics: a departure lands in exactly one
    /// window, and the lifetime snapshot is untouched by sweeping.
    #[test]
    fn sweep_window_never_double_counts() {
        let s = MetricsSink::new(2);
        let r1 = s.recorder();
        let r2 = s.recorder();
        r1.record(0, 1.0, 0.5); // slowdown 2
        r2.record(0, 3.0, 0.5); // slowdown 6
        r2.record(1, 1.0, 1.0); // slowdown 1
        let w1 = s.sweep_window();
        assert_eq!(w1.completions, vec![2, 1]);
        assert!((w1.slowdown_sums[0] - 8.0).abs() < 1e-12);
        assert!((w1.slowdown_sums[1] - 1.0).abs() < 1e-12);
        // Next window starts empty; only new departures appear in it.
        r1.record(1, 2.0, 1.0);
        let w2 = s.sweep_window();
        assert_eq!(w2.completions, vec![0, 1], "window 1's departures must not repeat");
        assert!((w2.slowdown_sums[1] - 2.0).abs() < 1e-12);
        // Lifetime totals still hold everything.
        let snap = s.snapshot();
        assert_eq!(snap.classes[0].completed, 2);
        assert_eq!(snap.classes[1].completed, 2);
    }

    /// The satellite contract: an empty window must surface to the
    /// controller as `None` mean slowdowns — never NaN.
    #[test]
    fn empty_window_yields_none_not_nan() {
        let s = MetricsSink::new(2);
        let _r = s.recorder();
        let w = s.sweep_window();
        assert_eq!(w.completions, vec![0, 0]);
        assert_eq!(w.slowdown_sums, vec![0.0, 0.0]);
        let obs = psd_core::control::WindowObservation {
            index: 0,
            start: 0.0,
            end: 0.05,
            arrivals: vec![0, 0],
            arrived_work: vec![0.0, 0.0],
            shed_work: vec![0.0; 2],
            completions: w.completions,
            backlog: vec![0, 0],
            slowdown_sums: w.slowdown_sums,
        };
        let means = obs.mean_slowdowns();
        assert_eq!(means, vec![None, None], "no departures ⇒ None, not NaN");
        assert!(means.iter().flatten().all(|m| m.is_finite()), "no NaN can leak");
    }

    /// The sharded-accumulator consistency contract: concurrent
    /// recorders on private shards must sum to exactly what the old
    /// single-mutex sink would have produced.
    #[test]
    fn sharded_accumulators_sum_to_the_serial_totals() {
        const RECORDERS: usize = 4;
        const PER: usize = 1000;
        let s = Arc::new(MetricsSink::new(2));
        let handles: Vec<_> = (0..RECORDERS)
            .map(|k| {
                let r = s.recorder();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let class = (k + i) % 2;
                        r.record(class, 1.0 + i as f64 * 1e-3, 0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Serial oracle with the same stream of records.
        let mut completed = [0u64; 2];
        let mut delay = [0.0f64; 2];
        for k in 0..RECORDERS {
            for i in 0..PER {
                let class = (k + i) % 2;
                completed[class] += 1;
                delay[class] += 1.0 + i as f64 * 1e-3;
            }
        }
        let snap = s.snapshot();
        for c in 0..2 {
            assert_eq!(snap.classes[c].completed, completed[c]);
            let want_mean = delay[c] / completed[c] as f64;
            assert!(
                (snap.classes[c].mean_delay - want_mean).abs() < 1e-9,
                "class {c}: {} vs {want_mean}",
                snap.classes[c].mean_delay
            );
            assert!((snap.classes[c].mean_service - 0.5).abs() < 1e-12);
        }
    }
}
