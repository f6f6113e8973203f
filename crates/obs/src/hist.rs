//! The tree's one latency histogram, in HdrHistogram's layout (Gil
//! Tene) over microseconds: exact below 32 µs, then 32 linear
//! sub-buckets per power-of-two octave, so every value comes back
//! within 1/32 (≈ 3 %) of itself. The range ends at `2^26 µs ≈ 67 s`;
//! one overflow bucket holds everything above. 705 buckets, 5.6 KiB.
//!
//! One store of `AtomicU64`s, two recording fronts:
//!
//! * [`LogHistogram::observe_ns`] (`&self`): relaxed atomic adds, for
//!   the server's shards, which share one histogram per class;
//! * [`LogHistogram::record`] (`&mut self`): plain adds, for an owner
//!   such as a load-generator worker, whose histograms are
//!   [merged](LogHistogram::merge) after the run.
//!
//! Reads give the exact count, min, max and mean, and quantiles from
//! bucket midpoints clamped into `[min, max]`. [`LogHistogram::snapshot`]
//! folds the buckets into the [`HIST_BUCKETS`] power-of-two buckets that
//! Prometheus sees: bucket `b` holds the values with exactly `b`
//! significant bits of microseconds (`[2^(b-1), 2^b) µs`), so its `le`
//! bound is `2^b µs`. The fold is exact because every fine bucket lies
//! inside one octave.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Prometheus buckets: `2^26 µs ≈ 67 s` before the `+Inf` overflow
/// bucket — far beyond any request this stack serves.
pub const HIST_BUCKETS: usize = 28;

/// Linear sub-buckets per octave, and the width of the exact low range.
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Values from here up share the overflow bucket, `+Inf`'s range.
const MAX_US: u64 = 1 << (HIST_BUCKETS - 2);
/// Fine buckets, the overflow bucket last.
const N_BUCKETS: usize = index_of(MAX_US) + 1;

/// Bucket of `v` µs: identity below `SUB_BUCKETS`, then `SUB_BUCKETS`
/// linear sub-buckets per octave, then the overflow bucket.
const fn index_of(v: u64) -> usize {
    let v = if v < MAX_US { v } else { MAX_US };
    if v < SUB_BUCKETS {
        return v as usize;
    }
    // msb >= SUB_BITS; top is v's top SUB_BITS+1 bits, in [SUB_BUCKETS, 2*SUB_BUCKETS).
    let msb = 63 - v.leading_zeros();
    let top = (v >> (msb - SUB_BITS)) as usize;
    (msb - SUB_BITS) as usize * SUB_BUCKETS as usize + top
}

/// Midpoint of bucket `i`'s value range (exact in the low range).
fn value_of(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let octave = i / SUB_BUCKETS - 1; // 0-based octave above the exact range
    let low = (SUB_BUCKETS + i % SUB_BUCKETS) << octave;
    low + (1 << octave) / 2
}

/// A mergeable log-bucketed histogram of microseconds.
#[derive(Debug)]
pub struct LogHistogram {
    counts: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LogHistogram {
    fn clone(&self) -> Self {
        let mut h = Self::new();
        h.merge(self);
        h
    }
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        let cells = |h: &Self| {
            let tail = [&h.sum_ns, &h.min_us, &h.max_us];
            h.counts.iter().chain(tail).map(|c| c.load(Relaxed)).collect::<Vec<_>>()
        };
        cells(self) == cells(other)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one observation in nanoseconds from any thread; it is
    /// bucketed by whole microseconds.
    pub fn observe_ns(&self, ns: u64) {
        let us = ns / 1_000;
        self.counts[index_of(us)].fetch_add(1, Relaxed);
        let _ = self.sum_ns.fetch_update(Relaxed, Relaxed, |s| Some(s.saturating_add(ns)));
        if us < self.min_us.load(Relaxed) {
            self.min_us.fetch_min(us, Relaxed);
        }
        if us > self.max_us.load(Relaxed) {
            self.max_us.fetch_max(us, Relaxed);
        }
    }

    /// Record one observation in microseconds, as the sole owner.
    pub fn record(&mut self, us: u64) {
        *self.counts[index_of(us)].get_mut() += 1;
        let sum = self.sum_ns.get_mut();
        *sum = sum.saturating_add(us.saturating_mul(1_000));
        let min = self.min_us.get_mut();
        *min = (*min).min(us);
        let max = self.max_us.get_mut();
        *max = (*max).max(us);
    }

    /// Fold `other` into `self` (element-wise; order-independent).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a.get_mut() += b.load(Relaxed);
        }
        let sum = self.sum_ns.get_mut();
        *sum = sum.saturating_add(other.sum_ns.load(Relaxed));
        let min = self.min_us.get_mut();
        *min = (*min).min(other.min_us.load(Relaxed));
        let max = self.max_us.get_mut();
        *max = (*max).max(other.max_us.load(Relaxed));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Exact smallest value in µs (0 when empty).
    pub fn min(&self) -> u64 {
        // Starts at u64::MAX against a max of 0; never above max.
        self.min_us.load(Relaxed).min(self.max())
    }

    /// Exact largest value in µs (0 when empty).
    pub fn max(&self) -> u64 {
        self.max_us.load(Relaxed)
    }

    /// Exact mean in µs (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum_ns.load(Relaxed) as f64 / 1e3 / n as f64,
        }
    }

    /// Value in µs at quantile `q ∈ [0, 1]`: the midpoint of the first
    /// bucket that holds at least `q·count` observations, clamped into
    /// `[min, max]` so tails stay honest; the overflow bucket reads as
    /// `max`. `None` when empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        // Rank of the target observation, 1-based.
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let (min, max) = (self.min(), self.max());
        let mut seen = 0u64;
        for (i, c) in self.counts[..N_BUCKETS - 1].iter().enumerate() {
            seen += c.load(Relaxed);
            if seen >= target {
                return Some(value_of(i).clamp(min, max));
            }
        }
        Some(max)
    }

    /// The Prometheus view: buckets read relaxed and folded into
    /// [`HIST_BUCKETS`] power-of-two buckets.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = vec![0; HIST_BUCKETS];
        for (i, c) in self.counts.iter().enumerate() {
            counts[(u64::BITS - value_of(i).leading_zeros()) as usize] += c.load(Relaxed);
        }
        HistSnapshot {
            count: counts.iter().sum(),
            counts,
            sum_seconds: self.sum_ns.load(Relaxed) as f64 * 1e-9,
        }
    }
}

/// The scrape-side view of a [`LogHistogram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub sum_seconds: f64,
}

impl HistSnapshot {
    /// The inclusive upper bound of bucket `i` in seconds (`+Inf` for
    /// the last bucket), i.e. the Prometheus `le` label value.
    pub fn upper_bound_seconds(&self, i: usize) -> f64 {
        if i + 1 >= self.counts.len() {
            f64::INFINITY
        } else {
            (1u64 << i) as f64 * 1e-6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_cumulative_counts_monotone() {
        let h = LogHistogram::new();
        h.observe_ns(0); // bucket 0 (sub-microsecond)
        h.observe_ns(1_500); // 1 µs  -> bucket 1 (≤ 2 µs)
        h.observe_ns(1_000_000); // 1 ms  -> bucket 10 (≤ 1024 µs)
        h.observe_ns(u64::MAX / 2); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[10], 1);
        assert_eq!(s.counts[HIST_BUCKETS - 1], 1);
        let mut total = 0;
        let cum: Vec<u64> = s
            .counts
            .iter()
            .map(|&c| {
                total += c;
                total
            })
            .collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "cumulative must be monotone");
        assert_eq!(*cum.last().unwrap(), 4);
        assert!(s.upper_bound_seconds(HIST_BUCKETS - 1).is_infinite());
        assert!((s.upper_bound_seconds(10) - 1024e-6).abs() < 1e-12);
    }

    #[test]
    fn snapshot_matches_the_power_of_two_bucketing() {
        // The reference: the Prometheus bucketing this histogram has
        // always published, verbatim.
        let old_idx = |ns: u64| {
            let us = ns / 1_000;
            ((u64::BITS - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        // Every µs below 4096, then each octave's 32 sub-bucket edges
        // −1/0/+1 up to 2^40 µs, then the top of the range.
        let mut us: Vec<u64> = (0..4_096).collect();
        for b in 12..40 {
            for k in 0..32u64 {
                let edge = (1u64 << b) + (k << (b - 5));
                us.extend([edge - 1, edge, edge + 1]);
            }
        }
        let mut ns: Vec<u64> = us.iter().flat_map(|&u| [u * 1_000, u * 1_000 + 999]).collect();
        ns.extend([u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        let h = LogHistogram::new();
        let mut want = vec![0u64; HIST_BUCKETS];
        for v in ns {
            h.observe_ns(v);
            want[old_idx(v)] += 1;
            assert_eq!(h.snapshot().counts, want, "after observing {v} ns");
        }
    }

    #[test]
    fn exact_in_low_range() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        assert_eq!(h.value_at_quantile(1.0), Some(SUB_BUCKETS - 1));
    }

    #[test]
    fn index_is_monotone_and_continuous() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = index_of(v);
            assert!(i == prev || i == prev + 1, "index jumps at {v}: {prev} -> {i}");
            prev = i;
        }
        // Spot-check the octave boundaries.
        assert_eq!(index_of(31), 31);
        assert_eq!(index_of(32), 32);
        assert_eq!(index_of(63), 63);
        assert_eq!(index_of(64), 64);
        assert_eq!(index_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn reconstruction_within_relative_error() {
        for v in [1u64, 31, 32, 100, 999, 12_345, 1_000_000, MAX_US - 1] {
            let mid = value_of(index_of(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-12, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = h.value_at_quantile(q).unwrap() as f64;
            assert!((got - want).abs() / want < 0.05, "q={q}: got {got}, want {want}");
        }
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let vals: Vec<u64> = (0..5_000).map(|i| (i * i) % 100_000 + 1).collect();
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in vals.iter().enumerate() {
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must equal recording everything in one histogram");
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), None);
    }

    #[test]
    fn shared_front_equals_owner_front() {
        // ≈ 0.4 % of the values overflow: p99 reads a bucket, p999 the max.
        let us = |t: u64, i: u64| {
            (t * 25_000 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % (MAX_US + MAX_US / 256)
        };
        let shared = LogHistogram::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    (0..25_000).for_each(|i| shared.observe_ns(us(t, i) * 1_000));
                });
            }
        });
        let mut owned = LogHistogram::new();
        (0..4).for_each(|t| (0..25_000).for_each(|i| owned.record(us(t, i))));
        assert_eq!(shared.count(), 100_000);
        assert_eq!(
            (shared.count(), shared.min(), shared.max(), shared.mean()),
            (owned.count(), owned.min(), owned.max(), owned.mean())
        );
        assert_eq!(shared.snapshot(), owned.snapshot());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(shared.value_at_quantile(q), owned.value_at_quantile(q), "q={q}");
        }
        assert!(shared.value_at_quantile(0.99) < Some(MAX_US));
        assert_eq!(shared.value_at_quantile(0.999), Some(shared.max()));
        assert_eq!(shared, owned, "same buckets, sum, min and max");
    }

    #[test]
    fn huge_values_saturate_instead_of_wrapping() {
        let mut h = LogHistogram::new();
        h.observe_ns(u64::MAX);
        h.observe_ns(u64::MAX);
        assert_eq!(*h.sum_ns.get_mut(), u64::MAX);
        h.record(u64::MAX);
        h.merge(&h.clone());
        assert_eq!((h.count(), h.max(), *h.sum_ns.get_mut()), (6, u64::MAX, u64::MAX));
        assert_eq!(h.value_at_quantile(0.5), Some(u64::MAX));
    }
}
