//! Property tests of the queueing analysis: the closed forms must be
//! internally consistent and monotone over the whole parameter space.
//!
//! Each property runs 48 seeded cases whose inputs are drawn from
//! `Xoshiro256pp::seed_from(seed)`. A failure names its seed, which
//! replays the case exactly.

use psd_dist::rng::Xoshiro256pp;
use psd_dist::{BoundedPareto, Deterministic, HigherMoments, ServiceDistribution};
use psd_queueing::{md1, mm1, pk, variance, AnalysisError, Mg1Fcfs, PriorityMg1, TaskServerQueue};

/// Run `case` once per seed, each with its own generator.
fn each_seed(mut case: impl FnMut(u64, &mut Xoshiro256pp)) {
    for seed in 0..48 {
        case(seed, &mut Xoshiro256pp::seed_from(seed));
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Two draws from `[lo, hi)`, ordered, at least `gap` apart (closer
/// pairs are drawn again).
fn ordered_pair(rng: &mut Xoshiro256pp, lo: f64, hi: f64, gap: f64) -> (f64, f64) {
    loop {
        let (a, b) = (uniform(rng, lo, hi), uniform(rng, lo, hi));
        if (a - b).abs() > gap {
            return (a.min(b), a.max(b));
        }
    }
}

fn bp(rng: &mut Xoshiro256pp) -> BoundedPareto {
    let (a, k, span) = (uniform(rng, 0.8, 2.5), uniform(rng, 0.01, 1.0), uniform(rng, 1.5, 4.5));
    BoundedPareto::new(a, k, k * 10f64.powf(span)).unwrap()
}

/// Per-class arrival rates of a random 2–4-class split of `total_load`.
fn split_lambdas(rng: &mut Xoshiro256pp, total_load: f64, mean: f64) -> Vec<f64> {
    let n = 2 + (rng.next_f64() * 3.0) as usize;
    let splits: Vec<f64> = (0..n).map(|_| uniform(rng, 0.05, 1.0)).collect();
    let split_sum: f64 = splits.iter().sum();
    splits.iter().map(|s| s / split_sum * total_load / mean).collect()
}

/// P–K delay is finite, positive and increasing in λ below saturation.
#[test]
fn pk_monotone_in_lambda() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let (lo, hi) = ordered_pair(rng, 0.01, 0.99, 1e-6);
        let w_lo = pk::expected_delay(lo / m.mean, &m).unwrap();
        let w_hi = pk::expected_delay(hi / m.mean, &m).unwrap();
        assert!(w_lo >= 0.0, "seed {seed}: {w_lo}");
        assert!(w_hi > w_lo, "seed {seed}: delay must increase with load: {w_lo} -> {w_hi}");
    });
}

/// The queue is declared unstable exactly when ρ ≥ 1.
#[test]
fn stability_boundary() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let load = uniform(rng, 0.5, 2.0);
        let q = Mg1Fcfs::new(load / m.mean, m).unwrap();
        if load < 1.0 {
            assert!(q.is_stable(), "seed {seed}: load {load}");
            assert!(q.expected_delay().is_ok(), "seed {seed}: load {load}");
        } else {
            assert!(!q.is_stable(), "seed {seed}: load {load}");
            let unstable = matches!(q.expected_delay(), Err(AnalysisError::Unstable { .. }));
            assert!(unstable, "seed {seed}: load {load}");
        }
    });
}

/// Lemma 1 factorization: E[S] = E[W] · E[1/X].
#[test]
fn slowdown_factorizes() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let load = uniform(rng, 0.01, 0.98);
        let q = Mg1Fcfs::new(load / m.mean, m).unwrap();
        let s = q.expected_slowdown().unwrap();
        let w = q.expected_delay().unwrap();
        let mi = m.mean_inverse.unwrap();
        assert!((s - w * mi).abs() <= 1e-9 * s.abs().max(1e-12), "seed {seed}: {s} vs {w}·{mi}");
    });
}

/// Theorem 1 equals Lemma 1 applied to the Lemma 2-scaled queue, for
/// every rate and load with a stable task server.
#[test]
fn theorem1_equals_scaled_lemma1() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let (rate, util) = (uniform(rng, 0.05, 1.0), uniform(rng, 0.01, 0.95));
        // Choose λ so the task-server utilization is `util`.
        let lambda = util * rate / m.mean;
        let ts = TaskServerQueue::new(lambda, rate, m).unwrap();
        let direct = ts.expected_slowdown_direct().unwrap();
        let scaled = ts.expected_slowdown().unwrap();
        assert!((direct - scaled).abs() <= 1e-8 * direct.abs().max(1e-12), "seed {seed}");
    });
}

/// Task-server slowdown is decreasing in the allocated rate.
#[test]
fn slowdown_decreasing_in_rate() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let load = uniform(rng, 0.01, 0.5);
        let (lo, hi) = ordered_pair(rng, 0.51, 1.0, 1e-6);
        let lambda = load / m.mean;
        let s_lo_rate = TaskServerQueue::new(lambda, lo, m).unwrap().expected_slowdown().unwrap();
        let s_hi_rate = TaskServerQueue::new(lambda, hi, m).unwrap().expected_slowdown().unwrap();
        assert!(s_lo_rate > s_hi_rate, "seed {seed}: more capacity must lower slowdown");
    });
}

/// The M/D/1 fast path agrees with the generic analysis everywhere.
#[test]
fn md1_fast_path_consistent() {
    each_seed(|seed, rng| {
        let dval = uniform(rng, 0.05, 10.0);
        let (rate, util) = (uniform(rng, 0.05, 1.0), uniform(rng, 0.01, 0.95));
        let lambda = util * rate / dval;
        let fast = md1::expected_slowdown(lambda, dval, rate).unwrap();
        let det = Deterministic::new(dval).unwrap();
        let generic =
            TaskServerQueue::new(lambda, rate, det.moments()).unwrap().expected_slowdown().unwrap();
        assert!((fast - generic).abs() <= 1e-9 * fast.abs().max(1e-12), "seed {seed}");
        // And Eq. 15's explicit form.
        let u = lambda * dval / rate;
        assert!((fast - u / (2.0 * (1.0 - u))).abs() < 1e-9, "seed {seed}: {fast} at u = {u}");
    });
}

/// M/M/1 delay matches the P–K formula with exponential moments, and
/// its slowdown is always undefined.
#[test]
fn mm1_consistency() {
    each_seed(|seed, rng| {
        let (mu, util) = (uniform(rng, 0.1, 10.0), uniform(rng, 0.01, 0.95));
        let lambda = util * mu;
        let w = mm1::expected_delay(lambda, mu).unwrap();
        let exp = psd_dist::Exponential::new(mu).unwrap();
        let w_pk = pk::expected_delay(lambda, &exp.moments()).unwrap();
        assert!((w - w_pk).abs() <= 1e-9 * w.abs().max(1e-12), "seed {seed}: {w} vs {w_pk}");
        let undefined = mm1::expected_slowdown(lambda, mu).unwrap_err();
        assert_eq!(undefined, AnalysisError::SlowdownUndefined, "seed {seed}");
    });
}

/// Little's law identity within the analysis: E[N_q] = λ·E[W].
#[test]
fn littles_law() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let lambda = uniform(rng, 0.01, 0.95) / m.mean;
        let nq = pk::expected_queue_length(lambda, &m).unwrap();
        let w = pk::expected_delay(lambda, &m).unwrap();
        assert!((nq - lambda * w).abs() <= 1e-9 * nq.abs().max(1e-12), "seed {seed}: {nq}");
    });
}

/// Kleinrock's conservation law: Σ ρ_i·E[W_i] under non-preemptive
/// priority equals ρ·E[W_FCFS], for any class count and load split.
#[test]
fn priority_conservation_law() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let total_load = uniform(rng, 0.05, 0.9);
        let lambdas = split_lambdas(rng, total_load, m.mean);
        let p = PriorityMg1::homogeneous(lambdas.clone(), m).unwrap();
        let lhs: f64 =
            (0..lambdas.len()).map(|i| lambdas[i] * m.mean * p.expected_delay(i).unwrap()).sum();
        let fcfs = Mg1Fcfs::new(total_load / m.mean, m).unwrap().expected_delay().unwrap();
        let rhs = total_load * fcfs;
        assert!((lhs - rhs).abs() <= 1e-6 * rhs.abs().max(1e-12), "seed {seed}: {lhs} vs {rhs}");
    });
}

/// Priority delays are monotone in class index (lower priority waits
/// at least as long).
#[test]
fn priority_delays_monotone() {
    each_seed(|seed, rng| {
        let m = bp(rng).moments();
        let total_load = uniform(rng, 0.05, 0.9);
        let lambdas = split_lambdas(rng, total_load, m.mean);
        let n = lambdas.len();
        let p = PriorityMg1::homogeneous(lambdas, m).unwrap();
        let mut prev = 0.0;
        for i in 0..n {
            let w = p.expected_delay(i).unwrap();
            assert!(w >= prev - 1e-12, "seed {seed}: class {i} waits less than the class above");
            prev = w;
        }
    });
}

/// Slowdown variance is non-negative and increasing in load, for any
/// Bounded Pareto.
#[test]
fn slowdown_variance_monotone() {
    each_seed(|seed, rng| {
        let d = bp(rng);
        let (lo, hi) = ordered_pair(rng, 0.05, 0.9, 1e-3);
        let v_lo = variance::slowdown_variance_of(lo / d.mean(), &d).unwrap();
        let v_hi = variance::slowdown_variance_of(hi / d.mean(), &d).unwrap();
        assert!(v_lo >= 0.0, "seed {seed}: {v_lo}");
        assert!(v_hi > v_lo, "seed {seed}: variance must grow with load: {v_lo} -> {v_hi}");
    });
}

/// Cantelli bound is monotone: smaller tail probability ⇒ larger
/// bound, and the bound is never below the mean.
#[test]
fn cantelli_monotone() {
    each_seed(|seed, rng| {
        let (mean, var) = (uniform(rng, 0.0, 100.0), uniform(rng, 0.0, 1e4));
        let (p1, p2) = (uniform(rng, 0.01, 0.5), uniform(rng, 0.01, 0.5));
        let (tight, loose) = (p1.min(p2), p1.max(p2));
        let b_tight = variance::cantelli_upper_bound(mean, var, tight);
        let b_loose = variance::cantelli_upper_bound(mean, var, loose);
        assert!(b_tight >= b_loose - 1e-12, "seed {seed}: {b_tight} < {b_loose}");
        assert!(b_loose >= mean - 1e-12, "seed {seed}: {b_loose} < {mean}");
    });
}

/// E[W²] ≥ E[W]² always (Jensen), via the Takács second moment.
#[test]
fn delay_second_moment_jensen() {
    each_seed(|seed, rng| {
        let d = bp(rng);
        let m = d.moments();
        let lambda = uniform(rng, 0.05, 0.9) / m.mean;
        let third = d.third_moment().unwrap();
        let w = pk::expected_delay(lambda, &m).unwrap();
        let w2 = variance::delay_second_moment(lambda, &m, third).unwrap();
        assert!(w2 >= w * w - 1e-9, "seed {seed}: E[W²] {w2} < E[W]² {}", w * w);
    });
}
