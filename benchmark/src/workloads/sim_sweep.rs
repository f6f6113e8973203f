//! `sim-sweep`: fixed simulator work on one thread — `run_once` at the
//! paper horizon over loads 0.1…0.9 with δ = (1, 2, 4). No socket,
//! thread or clock is involved in the program under test, so the
//! slowdown numbers are exact functions of the replication seeds and
//! every HTTP or wheel optimisation should leave this workload flat.
//! Every window runs the same replications; the run seed decides which
//! one it starts at (see [`sim_rotation`]).

use std::time::{Duration, Instant};

use psd_core::config::PsdConfig;
use psd_core::simulation::run_once;
use psd_core::PsdReport;

use super::{Params, Window, Workload};
use crate::inputs::{sim_rotation, sim_seed, BASE_SIM_SEED};
use crate::procfs::CpuReading;
use crate::stats::{self, Sample, SLICES};
use crate::trace::Tracer;

/// Differentiation parameters of the three classes.
const DELTAS: [f64; 3] = [1.0, 2.0, 4.0];

/// Total offered loads swept, equal share per class.
const LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The load `slowdown_c0` is read at.
const SLOWDOWN_LOAD_IDX: usize = 6;

/// Replications per load and slice for each requested second. The work
/// of a window is fixed by `--seconds`, not by the clock: 2.5 makes the
/// window last about the requested time on the 2-core VM the bounds
/// were calibrated on, and a faster simulator simply finishes sooner.
const REPS_PER_LOAD_PER_SLICE_PER_S: f64 = 2.5;

/// Replications per load in the priming script of a set-up.
const PRIME_REPS_PER_LOAD: usize = 3;

/// Warm-up replications per load.
const WARM_REPS_PER_LOAD: usize = 10;

/// Replications per load per slice of a window of `seconds`.
pub fn reps_per_slice(seconds: f64) -> usize {
    ((REPS_PER_LOAD_PER_SLICE_PER_S * seconds).round() as usize).max(1)
}

/// Replaying a replication must reproduce its report bit for bit;
/// anything else means the "exact function of the seed" premise — and
/// with it the behaviour check — is gone.
pub fn check_replay(first: &PsdReport, again: &PsdReport) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!("replaying seed {} gave a different report", first.seed))
    }
}

/// Per-load, per-class pooled slowdown: Σ slowdown over departures and
/// the departure count.
#[derive(Default, Clone)]
struct Pool {
    sum: [f64; DELTAS.len()],
    n: [f64; DELTAS.len()],
}

impl Pool {
    /// Add one replication; returns its departures over all classes. A
    /// report with a class that measured nothing is refused whole.
    /// Allocation-free on success, so a traced window counts the
    /// simulator's allocations.
    fn add(&mut self, r: &PsdReport) -> Result<u32, String> {
        let measured = |c: &psd_core::ClassReport| {
            c.mean_slowdown.filter(|m| m.is_finite() && *m >= 0.0 && c.completed > 0)
        };
        if let Some(i) = r.classes.iter().position(|c| measured(c).is_none()) {
            return Err(format!("seed {}: class {i} measured no slowdown", r.seed));
        }
        for (i, c) in r.classes.iter().enumerate() {
            self.sum[i] += measured(c).unwrap_or(0.0) * c.completed as f64;
            self.n[i] += c.completed as f64;
        }
        Ok(r.classes.iter().map(|c| c.completed).sum::<u64>() as u32)
    }

    fn means(&self) -> Vec<f64> {
        self.sum.iter().zip(&self.n).map(|(s, n)| s / n.max(1.0)).collect()
    }
}

/// A ready `sim-sweep` instance.
pub struct SimSweep {
    seed: u64,
    configs: Vec<PsdConfig>,
}

impl Workload for SimSweep {
    const OPEN_LOOP: bool = false;

    fn setup(_name: &str, p: &Params) -> Result<Self, String> {
        let configs: Vec<PsdConfig> =
            LOADS.iter().map(|&load| PsdConfig::equal_load(&DELTAS, load)).collect();
        // Priming script: a few fixed-seed replications per load.
        for r in 0..PRIME_REPS_PER_LOAD {
            for (l, cfg) in configs.iter().enumerate() {
                std::hint::black_box(run_once(cfg, sim_seed(0, l, r)));
            }
        }
        Ok(Self { seed: p.seed, configs })
    }

    fn warm(&mut self, _d: Duration) -> Result<(), String> {
        for r in 0..WARM_REPS_PER_LOAD {
            for (l, cfg) in self.configs.iter().enumerate() {
                std::hint::black_box(run_once(cfg, sim_seed(0, l, PRIME_REPS_PER_LOAD + r)));
            }
        }
        Ok(())
    }

    fn measure(&mut self, d: Duration, traced: bool) -> Result<Window, String> {
        let k = reps_per_slice(d.as_secs_f64());
        let mut w = Window::default();
        let mut pools = vec![Pool::default(); LOADS.len()];
        let mut first: Option<PsdReport> = None;
        let cpu0 = CpuReading::this_thread();
        let open = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(open, 1));
        w.samples.reserve(k * SLICES * LOADS.len());
        let allocs0 = crate::alloc::totals();
        crate::alloc::arm(traced);
        let reps = k * SLICES;
        let first_rep = sim_rotation(self.seed, reps);
        for i in 0..reps {
            let rep = (first_rep + i) % reps;
            for (l, cfg) in self.configs.iter().enumerate() {
                let start = Instant::now();
                let report = run_once(cfg, sim_seed(BASE_SIM_SEED, l, rep));
                let end = Instant::now();
                w.attempted += 1;
                match pools[l].add(&report) {
                    Ok(completed) => w.samples.push(Sample {
                        done_ns: (end - open).as_nanos() as u64,
                        latency_ns: (end - start).as_nanos() as u64,
                        class: l as u8,
                        weight: completed,
                    }),
                    Err(why) => {
                        w.failed += 1;
                        w.violations.push(why);
                    }
                }
                if let Some(t) = tracer.as_mut() {
                    t.span("sim.replication", start, end, 0, 0);
                }
                first.get_or_insert(report);
            }
        }
        crate::alloc::arm(false);
        w.allocs = crate::alloc::since(allocs0);
        // Fixed work: the window is as long as the work took.
        w.window_ns = open.elapsed().as_nanos() as u64;
        w.gen_cpu = CpuReading::this_thread().since(&cpu0);
        w.tracers.extend(tracer);

        let first = first.expect("at least one replication");
        if let Err(why) = check_replay(&first, &run_once(&self.configs[0], first.seed)) {
            w.violations.push(why);
        }
        w.slowdown_c0 = Some(pools[SLOWDOWN_LOAD_IDX].means()[0]);
        // The worst load counts; every load's value is printed.
        let per_load: Option<Vec<f64>> =
            pools.iter().map(|p| stats::psd_fidelity(&p.means(), &DELTAS)).collect();
        if let Some(per_load) = per_load {
            println!("sim-sweep: fidelity at loads {LOADS:?}: {per_load:.3?}");
            w.psd_fidelity = per_load.into_iter().reduce(f64::min);
        }
        Ok(w)
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PsdConfig {
        PsdConfig::equal_load(&DELTAS, 0.5).with_horizon(3_000.0, 500.0)
    }

    #[test]
    fn a_replay_that_differs_fails_the_run() {
        let a = run_once(&quick(), 11);
        assert!(
            check_replay(&a, &run_once(&quick(), 11)).is_ok(),
            "the simulator is deterministic"
        );
        let mut tampered = a.clone();
        tampered.classes[0].completed += 1;
        let why = check_replay(&a, &tampered).unwrap_err();
        assert!(why.contains("replaying seed 11 gave a different report"), "{why}");
    }

    #[test]
    fn pooled_means_weight_by_departures() {
        let mut pool = Pool::default();
        let mut r = run_once(&quick(), 3);
        for (c, (mean, n)) in r.classes.iter_mut().zip([(1.0, 100), (2.0, 100), (4.0, 100)]) {
            c.mean_slowdown = Some(mean);
            c.completed = n;
        }
        assert_eq!(pool.add(&r), Ok(300));
        r.classes[0].mean_slowdown = Some(4.0);
        r.classes[0].completed = 300;
        pool.add(&r).unwrap();
        assert_eq!(pool.means(), vec![(100.0 + 1200.0) / 400.0, 2.0, 4.0]);
        r.classes[2].mean_slowdown = None;
        assert!(pool.add(&r).unwrap_err().contains("class 2 measured no slowdown"));
    }

    #[test]
    fn work_scales_with_the_requested_seconds() {
        assert_eq!(reps_per_slice(10.0), 25);
        assert_eq!(reps_per_slice(16.0), 40, "the issue's 400 replications per load");
        assert_eq!(reps_per_slice(0.1), 1);
    }
}
