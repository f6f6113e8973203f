//! Everything a workload feeds the program, made from the seed and
//! nothing else: arrival schedules, request costs, think times and
//! simulator seeds. The program under test never sees the seed.

use psd_dist::rng::{SplitMix64, Xoshiro256pp};
use psd_dist::BoundedPareto;

/// Upper edge of the closed-loop think time (exclusive), nanoseconds.
pub const THINK_MAX_NS: u64 = 100_000;

/// An independent generator for stream `stream` of run seed `seed`.
pub fn stream_rng(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from(SplitMix64::derive(seed, stream))
}

/// One class's open-loop arrivals: due instants and costs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSchedule {
    /// Due instant of each arrival, nanoseconds after the schedule's
    /// origin, non-decreasing.
    pub due_ns: Vec<u64>,
    /// Cost of each arrival in work units.
    pub cost: Vec<f64>,
}

/// Arrivals per stratification block.
const STRATA: usize = 128;

/// One block of `STRATA` stratified draws of the distribution with
/// quantile function `quantile`: one uniform draw from each of the
/// `STRATA` equal-probability strata, in seeded random order. Every
/// block therefore holds nearly the same multiset (same total, same
/// tail), and the seed decides the order — which is what keeps a
/// 10-second window's load, and with it its slowdown, from swinging by
/// 10 % between seeds the way independent draws do. Marginals are exact.
fn stratified_block(rng: &mut Xoshiro256pp, quantile: impl Fn(f64) -> f64) -> Vec<f64> {
    let mut block: Vec<f64> =
        (0..STRATA).map(|j| quantile((j as f64 + rng.next_f64()) / STRATA as f64)).collect();
    for i in (1..STRATA).rev() {
        block.swap(i, (rng.next_f64() * (i + 1) as f64) as usize);
    }
    block
}

/// Quantile function of `BP(α, k, p)` (the inverse of the CDF the
/// distribution's own `sample` inverts).
fn bounded_pareto_quantile(d: &BoundedPareto, u: f64) -> f64 {
    let norm = 1.0 - (d.lower() / d.upper()).powf(d.alpha());
    (d.lower() * (1.0 - u * norm).powf(-1.0 / d.alpha())).min(d.upper())
}

/// Block-stratified Poisson arrivals at `rate_per_s` with block-
/// stratified costs from `cost_dist`, covering `[0, horizon_s)`.
fn stratified_schedule(
    rng: &mut Xoshiro256pp,
    rate_per_s: f64,
    cost_dist: &BoundedPareto,
    horizon_s: f64,
) -> OpenSchedule {
    let mut out = OpenSchedule { due_ns: Vec::new(), cost: Vec::new() };
    let mut t = 0.0f64;
    loop {
        let gaps = stratified_block(rng, |u| -(1.0 - u).ln() / rate_per_s);
        let costs = stratified_block(rng, |u| bounded_pareto_quantile(cost_dist, u));
        for (gap, cost) in gaps.into_iter().zip(costs) {
            t += gap;
            if t >= horizon_s {
                return out;
            }
            out.due_ns.push((t * 1e9) as u64);
            out.cost.push(cost);
        }
    }
}

/// Seed of the base schedule every `psd-open` run plays.
const BASE_SCHEDULE_SEED: u64 = 0x5053_442d_6f70_656e;

/// One class's open-loop schedule: the base schedule of `period_s`
/// seconds, started at a seeded arrival and repeated to `horizon_s`.
///
/// The base is one fixed stratified-Poisson draw; the seed chooses where
/// in its cycle the run starts. A window of one period then holds every
/// arrival of the base exactly once, each behind the same predecessors,
/// whatever the seed. That is deliberate. The mean slowdown of ~2500
/// heavy-tailed requests moves by 12 % (quartile to quartile) between
/// independent draws, and still by 12 % between reshuffles of one
/// stratified multiset — most of it is which small request happens to
/// sit behind which large one — while the same schedule repeats within
/// 2–3 %. A 10 % bound on the paper's headline number needs the latter.
/// Independent sample paths are `sim-sweep`'s job.
pub fn open_schedule(
    seed: u64,
    stream: u64,
    rate_per_s: f64,
    cost_dist: &BoundedPareto,
    period_s: f64,
    horizon_s: f64,
) -> OpenSchedule {
    let base = stratified_schedule(
        &mut stream_rng(BASE_SCHEDULE_SEED, stream),
        rate_per_s,
        cost_dist,
        period_s,
    );
    let n = base.due_ns.len();
    assert!(n > 0, "the period holds at least one arrival");
    let start = (stream_rng(seed, stream).next_f64() * n as f64) as usize;
    let (period_ns, horizon_ns) = ((period_s * 1e9) as u64, (horizon_s * 1e9) as u64);
    let mut out = OpenSchedule { due_ns: Vec::new(), cost: Vec::new() };
    for i in start.. {
        let due = (i / n) as u64 * period_ns + base.due_ns[i % n] - base.due_ns[start];
        if due >= horizon_ns {
            break;
        }
        out.due_ns.push(due);
        out.cost.push(base.cost[i % n]);
    }
    out
}

/// One closed-loop think time, uniform on `[0, max_ns)`; 0 when
/// `max_ns` is 0.
pub fn think_ns(rng: &mut Xoshiro256pp, max_ns: u64) -> u64 {
    (rng.next_f64() * max_ns as f64) as u64
}

/// The simulator seeds of `sim-sweep`: replication `r` of load index
/// `l` gets its own stream, so adding replications never changes the
/// earlier ones.
pub fn sim_seed(seed: u64, load_idx: usize, replication: usize) -> u64 {
    SplitMix64::derive(seed, ((load_idx as u64) << 32) | replication as u64)
}

/// Seed of the replication set every `sim-sweep` window runs.
pub const BASE_SIM_SEED: u64 = 0x7369_6d2d_7377_6565;

/// Where in its cycle of `n` replications a `sim-sweep` window starts.
/// As on `psd-open`, the run seed orders fixed work instead of drawing
/// new work: 250 replications per load leave 3-4 % of sampling noise on
/// the slowdowns between independent sets, and the same set, started
/// anywhere, reads the same to the last digits — so these numbers move
/// only when the simulator's behaviour does.
pub fn sim_rotation(seed: u64, n: usize) -> usize {
    (stream_rng(seed, u64::MAX).next_f64() * n as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BoundedPareto {
        BoundedPareto::new(1.5, 0.5, 10.0).unwrap()
    }

    /// The bytes a schedule would put on the wire: equality of these is
    /// equality of the inputs.
    fn bytes(s: &OpenSchedule) -> Vec<u8> {
        let mut out = Vec::new();
        for (d, c) in s.due_ns.iter().zip(&s.cost) {
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = open_schedule(7, 0, 250.0, &bp(), 4.0, 6.0);
        let b = open_schedule(7, 0, 250.0, &bp(), 4.0, 6.0);
        assert_eq!(bytes(&a), bytes(&b), "same seed, byte-identical arrivals and costs");
        assert_ne!(bytes(&a), bytes(&open_schedule(8, 0, 250.0, &bp(), 4.0, 6.0)), "other seed");
        assert_ne!(bytes(&a), bytes(&open_schedule(7, 1, 250.0, &bp(), 4.0, 6.0)), "other stream");
    }

    #[test]
    fn a_seed_rotates_the_base_schedule_and_keeps_its_content() {
        let sorted = |s: &OpenSchedule| {
            let mut c: Vec<u64> = s.cost.iter().map(|c| c.to_bits()).collect();
            c.sort_unstable();
            c
        };
        // One period from any start holds every arrival of the base once.
        let a = open_schedule(1, 0, 250.0, &bp(), 4.0, 4.0);
        let b = open_schedule(2, 0, 250.0, &bp(), 4.0, 4.0);
        assert_ne!(a.cost, b.cost, "another seed starts elsewhere in the cycle");
        assert_eq!(sorted(&a), sorted(&b), "and plays the same requests");
        // Each request keeps its predecessor: b is a rotation of a.
        let k = a.cost.iter().position(|c| *c == b.cost[0]).expect("b's first request is in a");
        let n = a.cost.len();
        assert!((0..n).all(|i| a.cost[(k + i) % n] == b.cost[i]), "same cyclic order");
        // Past one period the schedule repeats, a period later.
        let long = open_schedule(1, 0, 250.0, &bp(), 4.0, 9.0);
        assert_eq!(long.cost[..n], a.cost[..]);
        assert_eq!(long.cost[n..2 * n], a.cost[..]);
        assert_eq!(long.due_ns[n] - long.due_ns[0], 4_000_000_000);
    }

    #[test]
    fn schedule_is_ordered_bounded_and_near_its_rate() {
        let s = open_schedule(1, 0, 250.0, &bp(), 8.0, 8.0);
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.due_ns.iter().all(|&d| d < 8_000_000_000));
        assert!(s.cost.iter().all(|&c| (0.5..=10.0).contains(&c)));
        let n = s.due_ns.len() as f64;
        assert!((n - 2000.0).abs() < 40.0, "{n} arrivals for 2000 expected");
    }

    #[test]
    fn every_block_holds_one_draw_per_stratum() {
        let mut rng = stream_rng(5, 0);
        let block = stratified_block(&mut rng, |u| u);
        let mut strata: Vec<usize> = block.iter().map(|u| (u * STRATA as f64) as usize).collect();
        assert_ne!(strata, (0..STRATA).collect::<Vec<_>>(), "shuffled");
        strata.sort_unstable();
        assert_eq!(strata, (0..STRATA).collect::<Vec<_>>(), "one per stratum");
    }

    #[test]
    fn stratified_costs_keep_the_distribution_and_steady_the_load() {
        let d = bp();
        assert!((bounded_pareto_quantile(&d, 0.0) - 0.5).abs() < 1e-12);
        assert!((bounded_pareto_quantile(&d, 1.0) - 10.0).abs() < 1e-9);
        use psd_dist::ServiceDistribution;
        // Block sums of work sit within a few percent of STRATA x E[X],
        // whatever the seed.
        for seed in 0..20 {
            let s = stratified_schedule(&mut stream_rng(seed, 0), 250.0, &d, 4.0);
            for block in s.cost.chunks_exact(STRATA) {
                let mean = block.iter().sum::<f64>() / STRATA as f64;
                assert!((mean / d.mean() - 1.0).abs() < 0.03, "seed {seed}: block mean {mean}");
            }
        }
    }

    #[test]
    fn think_times_stay_inside_their_range() {
        let mut rng = stream_rng(3, 9);
        let draws: Vec<u64> = (0..10_000).map(|_| think_ns(&mut rng, THINK_MAX_NS)).collect();
        assert!(draws.iter().all(|&d| d < THINK_MAX_NS));
        assert!(draws.iter().any(|&d| d > 90_000) && draws.iter().any(|&d| d < 10_000));
        assert_eq!(think_ns(&mut rng, 0), 0, "jitter forced off");
        let mut again = stream_rng(3, 9);
        assert_eq!(think_ns(&mut again, THINK_MAX_NS), draws[0], "seeded");
    }

    #[test]
    fn sim_seeds_are_distinct_and_stable() {
        assert_eq!(sim_seed(1, 2, 3), sim_seed(1, 2, 3));
        assert_ne!(sim_seed(1, 2, 3), sim_seed(1, 3, 2));
        assert_ne!(sim_seed(1, 2, 3), sim_seed(2, 2, 3));
        assert_eq!(sim_rotation(4, 250), sim_rotation(4, 250));
        let starts: Vec<usize> = (1..=10).map(|seed| sim_rotation(seed, 250)).collect();
        assert!(starts.iter().all(|&s| s < 250));
        assert!(starts.windows(2).any(|w| w[0] != w[1]), "seeds start elsewhere: {starts:?}");
    }
}
