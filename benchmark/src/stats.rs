//! The arithmetic every reported number goes through: cutting a
//! measured window into slices, the percentile rule, the
//! median-of-slices, the PSD fidelity formula and the spread used by
//! `calibrate` and `selfcheck.sh`.

/// Slices per measured window. Fixed: a shorter run shortens the
/// slices, never their number.
pub const SLICES: usize = 10;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One completed operation inside a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion instant, nanoseconds after the window opened.
    pub done_ns: u64,
    /// Latency in nanoseconds (from the due instant on open loops).
    pub latency_ns: u64,
    /// Service class of the operation.
    pub class: u8,
    /// Units of goodput the operation stands for: 1 for a request,
    /// the simulated completions of a `sim-sweep` replication.
    pub weight: u32,
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The `q`-quantile (nearest rank) of `sorted`, or `None` when fewer
/// than `min_beyond` samples lie strictly beyond its rank — a tail
/// percentile read off a handful of samples is noise, not a number.
pub fn quantile_with_support(sorted: &[u64], q: f64, min_beyond: usize) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Per-slice goodput and latency percentiles of one measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStats {
    /// Goodput units (see [`Sample::weight`]) per second in each slice.
    pub goodput_rps: Vec<f64>,
    /// Median latency (µs) in each slice.
    pub p50_us: Vec<f64>,
    /// p99 latency (µs) in each slice; `None` where the slice keeps
    /// fewer than [`MIN_BEYOND`] samples beyond it.
    pub p99_us: Vec<Option<f64>>,
}

/// Cut `samples` into [`SLICES`] equal slices of a `window_ns` window by
/// completion instant. Samples completing outside the window are not
/// part of any slice.
pub fn cut_slices(samples: &[Sample], window_ns: u64) -> SliceStats {
    let slice_ns = (window_ns / SLICES as u64).max(1);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    let mut work = [0u64; SLICES];
    for s in samples {
        let idx = (s.done_ns / slice_ns) as usize;
        if idx < SLICES {
            buckets[idx].push(s.latency_ns);
            work[idx] += u64::from(s.weight);
        }
    }
    let slice_s = slice_ns as f64 * 1e-9;
    let mut out = SliceStats { goodput_rps: Vec::new(), p50_us: Vec::new(), p99_us: Vec::new() };
    for (b, &units) in buckets.iter_mut().zip(&work) {
        b.sort_unstable();
        out.goodput_rps.push(units as f64 / slice_s);
        out.p50_us.push(quantile_with_support(b, 0.5, 0).map_or(0.0, |v| v as f64 * 1e-3));
        out.p99_us.push(quantile_with_support(b, 0.99, MIN_BEYOND).map(|v| v as f64 * 1e-3));
    }
    out
}

/// `latency_p99_us` of a window: the median of the per-slice p99s when
/// every slice supports one, otherwise the p99 of the pooled window,
/// which must itself keep [`MIN_BEYOND`] samples beyond it.
pub fn window_p99_us(samples: &[Sample], slices: &SliceStats) -> Option<f64> {
    if let Some(per_slice) = slices.p99_us.iter().copied().collect::<Option<Vec<f64>>>() {
        return median(&per_slice);
    }
    pooled_quantile_us(samples, 0.99, MIN_BEYOND)
}

/// The `q`-quantile latency (µs) of all `samples`, under the same
/// support rule as [`quantile_with_support`].
pub fn pooled_quantile_us(samples: &[Sample], q: f64, min_beyond: usize) -> Option<f64> {
    let mut pooled: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    pooled.sort_unstable();
    quantile_with_support(&pooled, q, min_beyond).map(|v| v as f64 * 1e-3)
}

/// PSD fidelity: how closely achieved slowdown ratios track the
/// differentiation parameters. `min` over classes `i ≥ 1` of
/// `min(R_i/T_i, T_i/R_i)` with `R_i = mean_slowdown[i]/mean_slowdown[0]`
/// and `T_i = deltas[i]/deltas[0]`; 1.0 is perfect, `None` when a mean
/// is missing or not positive.
pub fn psd_fidelity(mean_slowdown: &[f64], deltas: &[f64]) -> Option<f64> {
    if mean_slowdown.len() != deltas.len() || deltas.len() < 2 {
        return None;
    }
    let (s0, d0) = (mean_slowdown[0], deltas[0]);
    let mut worst = 1.0f64;
    for (&s, &d) in mean_slowdown.iter().zip(deltas).skip(1) {
        if !(s0 > 0.0 && s > 0.0 && d0 > 0.0 && d > 0.0) {
            return None;
        }
        let (achieved, target) = (s / s0, d / d0);
        worst = worst.min((achieved / target).min(target / achieved));
    }
    Some(worst)
}

/// Steadiness of a window: relative gap between the medians of the
/// first five and the last five per-slice goodputs.
pub fn half_gap(goodput_rps: &[f64]) -> f64 {
    let half = goodput_rps.len() / 2;
    match (median(&goodput_rps[..half]), median(&goodput_rps[half..])) {
        (Some(a), Some(b)) if a > 0.0 && b > 0.0 => (a - b).abs() / a.max(b),
        _ => 1.0,
    }
}

/// `calibrate`'s spread of repeated readings: `max |x − median| / median`.
pub fn max_dev_spread(values: &[f64]) -> f64 {
    match median(values) {
        Some(m) if m != 0.0 => values.iter().map(|x| (x - m).abs()).fold(0.0, f64::max) / m.abs(),
        _ => f64::INFINITY,
    }
}

/// The acceptance spread: distance between the first and third quartile
/// as a share of the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method).
pub fn iqr_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let Some(m) = median(values) else { return f64::INFINITY };
    if n < 2 || m == 0.0 {
        return f64::INFINITY;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (pos - lo as f64) * (v[hi - 1] - v[lo - 1])
    };
    (at(0.75) - at(0.25)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(done_ns: u64, latency_ns: u64) -> Sample {
        Sample { done_ns, latency_ns, class: 0, weight: 1 }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn slices_cut_by_completion_instant() {
        // A 1000 ns window: slice k covers [100k, 100k+100).
        let mut samples = Vec::new();
        for k in 0..SLICES as u64 {
            for j in 0..=k {
                samples.push(sample(100 * k + j, 1_000 * (k + 1)));
            }
        }
        samples.push(sample(1_000, 7)); // on the closing edge: outside
        samples.push(sample(5_000, 7)); // long after: outside
        let s = cut_slices(&samples, 1_000);
        assert_eq!(s.goodput_rps.len(), SLICES);
        for k in 0..SLICES {
            let expect = (k + 1) as f64 / 100e-9;
            assert!((s.goodput_rps[k] - expect).abs() < 1e-3 * expect, "slice {k}");
            assert_eq!(s.p50_us[k], (k + 1) as f64);
            assert_eq!(s.p99_us[k], None, "a handful of samples supports no p99");
        }
        assert_eq!(median(&s.p50_us), Some(5.5), "median of slices, not of samples");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_with_support(&v, 0.99, MIN_BEYOND), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        // rank ceil(989.01) = 990 leaves 9 beyond: refused.
        assert_eq!(quantile_with_support(&v, 0.99, MIN_BEYOND), None);
        assert_eq!(quantile_with_support(&v, 0.5, MIN_BEYOND), Some(500));
        assert_eq!(quantile_with_support(&[], 0.5, 0), None);
    }

    #[test]
    fn p99_falls_back_to_the_pooled_window() {
        // 150 samples per slice: no slice supports a p99, the pool does.
        let mut samples = Vec::new();
        for k in 0..SLICES as u64 {
            for j in 0..150u64 {
                samples.push(sample(100 * k + j % 100, 1_000 * (j + 1)));
            }
        }
        let s = cut_slices(&samples, 1_000);
        assert!(s.p99_us.iter().all(Option::is_none));
        assert_eq!(window_p99_us(&samples, &s), Some(149.0));
        // Too few even when pooled: no number at all.
        let few: Vec<Sample> = samples.into_iter().take(500).collect();
        assert_eq!(window_p99_us(&few, &cut_slices(&few, 1_000)), None);
    }

    #[test]
    fn fidelity_on_hand_computed_inputs() {
        // Perfect 1:2:4 tracking.
        assert_eq!(psd_fidelity(&[1.5, 3.0, 6.0], &[1.0, 2.0, 4.0]), Some(1.0));
        // R_1 = 2.2/1 vs T_1 = 2 → 2/2.2; R_2 = 3/1 vs T_2 = 4 → 0.75 (the min).
        let f = psd_fidelity(&[1.0, 2.2, 3.0], &[1.0, 2.0, 4.0]).unwrap();
        assert!((f - 0.75).abs() < 1e-12);
        // Overshoot and undershoot are penalised alike.
        let over = psd_fidelity(&[1.0, 2.5], &[1.0, 2.0]).unwrap();
        let under = psd_fidelity(&[1.0, 1.6], &[1.0, 2.0]).unwrap();
        assert!((over - 0.8).abs() < 1e-12 && (under - 0.8).abs() < 1e-12);
        assert_eq!(psd_fidelity(&[0.0, 1.0], &[1.0, 2.0]), None);
        assert_eq!(psd_fidelity(&[1.0], &[1.0]), None);
    }

    #[test]
    fn half_gap_flags_a_drifting_window() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5, 100.0, 99.5, 101.0, 100.0, 100.0];
        assert!(half_gap(&steady) < 0.05);
        let drifting = [70.0, 71.0, 72.0, 70.0, 71.0, 100.0, 101.0, 99.0, 100.0, 100.0];
        assert!(half_gap(&drifting) > 0.05);
        assert_eq!(half_gap(&[0.0; 10]), 1.0, "an empty half is never steady");
    }

    #[test]
    fn spreads_match_hand_and_python_values() {
        assert!((max_dev_spread(&[10.0, 11.0, 9.5, 10.0, 10.2]) - 0.1).abs() < 1e-12);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([2,4,4,5,7,9], n=4) == [3.5, 4.5, 7.5]
        assert!((iqr_spread(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0]) - 4.0 / 4.5).abs() < 1e-12);
    }
}
