//! The declarative scenario catalog: what traffic to offer, in which
//! loop mode, against which server profile.
//!
//! A [`Scenario`] is data, not code — the same struct drives the
//! `psd_loadtest` CLI, the CI smoke job and the e2e tests, so every
//! workload the generator can produce is nameable and reproducible
//! from a seed. The stock catalog ([`Scenario::by_name`]):
//!
//! | name | shape |
//! |---|---|
//! | `steady` | stationary Poisson arrivals, fixed 50/50 class mix |
//! | `burst` | MMPP-2 on/off arrivals (bursts at 1.8× the mean rate) |
//! | `flashcrowd` | Poisson with a 3× surge through the middle third |
//! | `stepload` | Poisson stepping to 1.6× at half time, and staying |
//! | `classmix-shift` | steady arrivals, mix flips 55/45 → 45/55 at half time |
//! | `closed` | closed-loop: fixed session population with think times |

use std::time::Duration;

use psd_dist::arrival::{ArrivalProcess, Mmpp2, PoissonProcess, StepPoisson};
use psd_dist::rng::Xoshiro256pp;
use psd_dist::{BoundedPareto, ServiceDist};
use psd_server::{ControllerKind, EngineKind, ServerConfig, Workload};

/// Piecewise-constant-rate Poisson process: segment `i` holds
/// `rates[i]` until absolute time `ends[i]`; the last rate holds
/// forever. This is the flash-crowd arrival shape (surge up, then back
/// down), which the two-rate [`StepPoisson`] cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewisePoisson {
    /// Segment end times (strictly increasing; seconds).
    ends: Vec<f64>,
    /// One rate per segment, plus the rate after the last end.
    rates: Vec<f64>,
    now: f64,
}

impl PiecewisePoisson {
    /// `rates.len()` must be `ends.len() + 1`; every rate positive.
    pub fn new(ends: Vec<f64>, rates: Vec<f64>) -> Self {
        assert_eq!(rates.len(), ends.len() + 1, "need one rate per segment plus the tail");
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "segment ends must increase");
        assert!(rates.iter().all(|&r| r.is_finite() && r > 0.0), "rates must be positive");
        Self { ends, rates, now: 0.0 }
    }

    fn rate_at(&self, t: f64) -> f64 {
        for (i, &end) in self.ends.iter().enumerate() {
            if t < end {
                return self.rates[i];
            }
        }
        *self.rates.last().expect("at least one rate")
    }
}

impl ArrivalProcess for PiecewisePoisson {
    fn next_interarrival(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        // Thinning-free piecewise sampling: draw at the current rate;
        // if the gap crosses a boundary, restart there (memorylessness).
        let mut gap = 0.0;
        loop {
            let rate = self.rate_at(self.now);
            let g = -rng.next_open_f64().ln() / rate;
            let boundary = self.ends.iter().copied().find(|&e| e > self.now);
            match boundary {
                Some(b) if self.now + g > b => {
                    gap += b - self.now;
                    self.now = b;
                }
                _ => {
                    gap += g;
                    self.now += g;
                    return gap;
                }
            }
        }
    }
}

/// The arrival shape of an open-loop scenario, in requests/second
/// aggregated over all classes.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Stationary Poisson at `rate`.
    Steady {
        /// Aggregate arrival rate (req/s).
        rate: f64,
    },
    /// MMPP-2 bursts: long-run `mean_rate`, on-state at
    /// `burstiness × mean_rate`, mean on-sojourn `sojourn_s`.
    Burst {
        /// Long-run aggregate rate (req/s).
        mean_rate: f64,
        /// Peak-to-mean ratio (≥ 1).
        burstiness: f64,
        /// Mean burst length in seconds.
        sojourn_s: f64,
    },
    /// Poisson at `base_rate`, surging to `peak_rate` between
    /// `from_frac` and `to_frac` of the scenario duration.
    FlashCrowd {
        /// Rate outside the surge (req/s).
        base_rate: f64,
        /// Rate during the surge (req/s).
        peak_rate: f64,
        /// Surge start, as a fraction of the duration.
        from_frac: f64,
        /// Surge end, as a fraction of the duration.
        to_frac: f64,
    },
    /// Poisson stepping from `rate_before` to `rate_after` at
    /// `at_frac` of the duration — the controller-adaptivity probe.
    Step {
        /// Rate before the step (req/s).
        rate_before: f64,
        /// Rate after the step (req/s).
        rate_after: f64,
        /// Step time, as a fraction of the duration.
        at_frac: f64,
    },
}

impl ArrivalSpec {
    /// Materialize the arrival process for a run of `duration`.
    pub fn build(&self, duration: Duration) -> Box<dyn ArrivalProcess + Send> {
        let d = duration.as_secs_f64();
        match *self {
            ArrivalSpec::Steady { rate } => {
                Box::new(PoissonProcess::new(rate).expect("validated rate"))
            }
            ArrivalSpec::Burst { mean_rate, burstiness, sojourn_s } => {
                Box::new(Mmpp2::bursty(mean_rate, burstiness, sojourn_s).expect("validated MMPP"))
            }
            ArrivalSpec::FlashCrowd { base_rate, peak_rate, from_frac, to_frac } => {
                Box::new(PiecewisePoisson::new(
                    vec![from_frac * d, to_frac * d],
                    vec![base_rate, peak_rate, base_rate],
                ))
            }
            ArrivalSpec::Step { rate_before, rate_after, at_frac } => {
                Box::new(StepPoisson::new(rate_before, rate_after, at_frac * d).expect("validated"))
            }
        }
    }

    /// Long-run aggregate rate implied by the spec (req/s), used for
    /// sizing sanity checks.
    pub fn mean_rate(&self, duration: Duration) -> f64 {
        match *self {
            ArrivalSpec::Steady { rate } => rate,
            ArrivalSpec::Burst { mean_rate, .. } => mean_rate,
            ArrivalSpec::FlashCrowd { base_rate, peak_rate, from_frac, to_frac } => {
                let surge = (to_frac - from_frac).clamp(0.0, 1.0);
                base_rate * (1.0 - surge) + peak_rate * surge
            }
            ArrivalSpec::Step { rate_before, rate_after, at_frac } => {
                let f = at_frac.clamp(0.0, 1.0);
                let _ = duration;
                rate_before * f + rate_after * (1.0 - f)
            }
        }
    }
}

/// Open loop (arrivals independent of responses) or closed loop (a
/// fixed session population with think times, as in `desim::session`).
#[derive(Debug, Clone, PartialEq)]
pub enum LoadMode {
    /// Arrivals from an [`ArrivalSpec`], dispatched to a connection
    /// pool; latency is measured from the *intended* arrival instant
    /// (coordinated-omission corrected).
    Open {
        /// The aggregate arrival shape.
        arrival: ArrivalSpec,
    },
    /// `sessions` independent users, each looping think → request →
    /// response; arrivals throttle themselves under load.
    Closed {
        /// Concurrent session count.
        sessions: usize,
        /// Mean exponential think time between a response and the next
        /// request.
        mean_think: Duration,
    },
}

/// Per-class share of the traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMix {
    /// Relative weight of this class in the mix (normalized over all
    /// classes at dispatch time).
    pub weight: f64,
    /// Cost distribution for this class's `?cost=` draws (work units).
    pub cost: ServiceDist,
}

/// How the in-process server under test is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Wall-clock duration of one work unit.
    pub work_unit: Duration,
    /// Spin or sleep execution.
    pub workload: Workload,
    /// Monitor window for the online PSD allocator.
    pub control_window: Duration,
    /// Estimator history in windows.
    pub estimator_history: usize,
    /// Which HTTP front-end engine serves the run (`--engine` on the
    /// CLI): thread-per-connection baseline or the epoll reactor. The
    /// scenario itself is engine-agnostic — every catalog entry runs
    /// against both.
    pub engine: EngineKind,
    /// Reactor event-loop shards (`--shards` on the CLI; ignored by
    /// the threaded engine). Defaults to min(cores, 4).
    pub shards: usize,
    /// Which controller family drives the server's monitor
    /// (`--controller {open,feedback}`).
    pub controller: ControllerKind,
    /// Feedback integral gain (`--gain`; ignored by `open`).
    pub gain: f64,
    /// Target admitted utilization (`--admission-cap`); `None`
    /// disables admission control.
    pub admission_cap: Option<f64>,
    /// Request-trace sampling probability (`--trace-sample`): the
    /// fraction of requests recorded into the server's span ring.
    /// `0.0` disables tracing entirely — the CI observability smoke
    /// compares a traced run against this baseline.
    pub trace_sample: f64,
}

impl Default for ServerProfile {
    fn default() -> Self {
        // Sleep workload on the server's rate-partitioned task servers
        // (the regime Eq. 17 controls exactly): accurate
        // on one core, since sleeping burns no cycles the generator
        // needs, and the sub-millisecond work unit keeps the machine
        // rate ≈1410 req/s at the default mix's ≈1.18-unit mean cost.
        Self {
            work_unit: Duration::from_micros(600),
            workload: Workload::Sleep,
            control_window: Duration::from_millis(500),
            estimator_history: 5,
            engine: EngineKind::Threads,
            shards: psd_server::default_shards(),
            controller: ControllerKind::Open,
            gain: 0.3,
            admission_cap: None,
            trace_sample: 1.0,
        }
    }
}

/// A mid-run hot reconfiguration: at `at_frac` of the duration the
/// generator issues `PUT /config?deltas=…` against the live server's
/// admin endpoint, and the report's convergence metric
/// (`time_to_band_s`) is measured against the *new* targets from that
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigSpec {
    /// When to fire, as a fraction of the duration, in `(0, 1)`.
    pub at_frac: f64,
    /// The replacement differentiation parameters (same class count).
    pub deltas: Vec<f64>,
}

/// A complete, declarative load-test description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Catalog name (free-form for custom scenarios).
    pub name: String,
    /// Differentiation parameters, one per class (class 0 highest).
    pub deltas: Vec<f64>,
    /// Per-class mix weights and cost distributions (same length as
    /// `deltas`).
    pub mix: Vec<ClassMix>,
    /// If set, at `(frac, weights)` the mix weights are replaced —
    /// the `classmix-shift` scenario's knob.
    pub mix_shift: Option<(f64, Vec<f64>)>,
    /// If set, the generator hot-swaps the server's δ's mid-run via the
    /// admin endpoint — the `reconfig` scenario's knob.
    pub reconfig: Option<ReconfigSpec>,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Total run length (includes warmup).
    pub duration: Duration,
    /// Leading window excluded from the measured statistics.
    pub warmup: Duration,
    /// Connection-pool size (open loop) — must cover the expected
    /// in-flight count; closed loop uses one connection per session.
    pub connections: usize,
    /// Experiment seed (schedules and cost draws are deterministic).
    pub seed: u64,
    /// In-process server profile.
    pub server: ServerProfile,
}

/// The default cost distribution: a bounded Pareto in the paper's
/// α=1.5 shape, with the support pulled in on both sides — away from
/// zero so the smallest request is still ≳1 ms of service (above
/// `thread::sleep` granularity), and capped at 10 units so a single
/// tail draw cannot blow up the mean-slowdown estimator inside a
/// seconds-long measurement window.
fn default_cost() -> ServiceDist {
    ServiceDist::BoundedPareto(BoundedPareto::new(1.5, 0.5, 10.0).expect("valid BP"))
}

fn even_mix(n: usize) -> Vec<ClassMix> {
    (0..n).map(|_| ClassMix { weight: 1.0, cost: default_cost() }).collect()
}

impl Scenario {
    /// Names in the stock catalog, in presentation order.
    pub fn catalog() -> &'static [&'static str] {
        &[
            "steady",
            "burst",
            "flashcrowd",
            "stepload",
            "classmix-shift",
            "closed",
            "overload",
            "reconfig",
        ]
    }

    /// Look up a stock scenario by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        // Sized against the default [`ServerProfile`]: a 600 µs work
        // unit and the ~1.18-unit mean cost give ≈1410 req/s of machine
        // capacity, so the steady rate offers ≈0.75 load — enough
        // queueing for the slowdown differentiation to be measurable,
        // with margin against both the allocator's overload fallback
        // and the nonlinear M/G/1 blow-up near saturation.
        let base_rate = 1050.0;
        let base = |mode: LoadMode| Scenario {
            name: name.to_string(),
            deltas: vec![1.0, 2.0],
            mix: even_mix(2),
            mix_shift: None,
            reconfig: None,
            mode,
            duration: Duration::from_secs(20),
            warmup: Duration::from_secs(4),
            connections: 48,
            seed: 42,
            server: ServerProfile::default(),
        };
        match name {
            "steady" => {
                Some(base(LoadMode::Open { arrival: ArrivalSpec::Steady { rate: base_rate } }))
            }
            "burst" => Some(base(LoadMode::Open {
                arrival: ArrivalSpec::Burst {
                    // Peaks near machine capacity with sojourns longer
                    // than the estimator memory, so the allocator can
                    // track the modulation instead of averaging it away
                    // (sub-window bursts starve the low class wildly).
                    mean_rate: 0.5 * base_rate,
                    burstiness: 1.8,
                    sojourn_s: 2.0,
                },
            })),
            "flashcrowd" => Some(base(LoadMode::Open {
                arrival: ArrivalSpec::FlashCrowd {
                    // The surge approaches (but stays under) machine
                    // capacity, so the crowd is survivable and the
                    // allocator's reaction is visible in the report.
                    base_rate: 0.5 * base_rate,
                    peak_rate: 1.28 * base_rate,
                    from_frac: 1.0 / 3.0,
                    to_frac: 2.0 / 3.0,
                },
            })),
            "stepload" => Some(base(LoadMode::Open {
                arrival: ArrivalSpec::Step {
                    rate_before: 0.6 * base_rate,
                    rate_after: 1.0 * base_rate,
                    at_frac: 0.5,
                },
            })),
            "classmix-shift" => {
                let mut s =
                    base(LoadMode::Open { arrival: ArrivalSpec::Steady { rate: base_rate } });
                s.mix[0].weight = 0.55;
                s.mix[1].weight = 0.45;
                s.mix_shift = Some((0.5, vec![0.45, 0.55]));
                Some(s)
            }
            "closed" => {
                Some(base(LoadMode::Closed { sessions: 64, mean_think: Duration::from_millis(50) }))
            }
            "overload" => {
                // Offered ρ ≈ 1.3 — Eq. 17 alone has no feasible
                // solution here. The 0.9 admission cap restores
                // feasibility by shedding the lowest class at the door
                // (503 + Connection: close), so class 0 keeps its PSD
                // band through the overload.
                //
                // The work unit is doubled (same dimensionless loads,
                // half the request rate): an overload experiment whose
                // *generator* needs more CPU than the server leaves
                // the control plane measuring scheduler noise, not
                // load. Connections are sized so the door actually
                // sees ρ ≈ 1.3 — a small blocking pool would throttle
                // the offered load to the completion rate and the
                // admission controller would under-measure the
                // overload.
                let mut s = base(LoadMode::Open {
                    arrival: ArrivalSpec::Steady { rate: 0.865 * base_rate },
                });
                s.connections = 128;
                s.warmup = Duration::from_secs(8);
                s.server.work_unit = Duration::from_micros(1200);
                // A faster control window (estimator memory 1.5 s
                // instead of 2.5 s) so admission engages before the
                // overload transient piles a multi-second backlog that
                // would take the whole run to drain at cap headroom.
                s.server.control_window = Duration::from_millis(300);
                s.server.admission_cap = Some(0.9);
                Some(s)
            }
            "reconfig" => {
                // δ = (1, 2) flips to (1, 1) at half time through the
                // admin endpoint — the differentiation gap collapses
                // *live*, no restart — and the report measures
                // time-to-band against the new (equal-slowdown)
                // targets from the flip instant. An equalizing flip is
                // the robust probe: extreme δ ratios sit near the
                // band edge on a real substrate (the M/G/1 "+1" term
                // compresses achieved ratios toward 1), while the
                // equal target lands mid-band once the controller has
                // genuinely converged.
                let mut s =
                    base(LoadMode::Open { arrival: ArrivalSpec::Steady { rate: base_rate } });
                s.reconfig = Some(ReconfigSpec { at_frac: 0.5, deltas: vec![1.0, 1.0] });
                s.server.controller = ControllerKind::Feedback;
                Some(s)
            }
            _ => None,
        }
    }

    /// The [`ServerConfig`] this scenario runs against, with `E[X]`
    /// derived from the mix's cost distributions.
    pub fn server_config(&self) -> ServerConfig {
        use psd_dist::ServiceDistribution;
        let wsum: f64 = self.mix.iter().map(|m| m.weight).sum();
        let mean_cost: f64 =
            self.mix.iter().map(|m| m.weight / wsum * m.cost.mean()).sum::<f64>().max(1e-6);
        ServerConfig {
            deltas: self.deltas.clone(),
            mean_cost,
            work_unit: self.server.work_unit,
            workload: self.server.workload,
            control_window: self.server.control_window,
            estimator_history: self.server.estimator_history,
            controller: self.server.controller,
            gain: self.server.gain,
            admission_cap: self.server.admission_cap,
            trace_sample: self.server.trace_sample,
            ..ServerConfig::default()
        }
    }

    /// Panic on nonsensical configurations (mismatched lengths, empty
    /// mixes, zero durations, …) before any thread spawns.
    pub fn validate(&self) {
        assert!(!self.deltas.is_empty(), "need at least one class");
        assert_eq!(self.mix.len(), self.deltas.len(), "one mix entry per class");
        assert!(self.deltas.iter().all(|&d| d.is_finite() && d > 0.0), "deltas must be positive");
        assert!(self.mix.iter().any(|m| m.weight > 0.0), "mix needs some weight");
        assert!(self.mix.iter().all(|m| m.weight >= 0.0), "mix weights must be non-negative");
        assert!(self.duration > self.warmup, "duration must exceed warmup");
        assert!(self.connections >= 1, "need at least one connection");
        if let Some((frac, w)) = &self.mix_shift {
            assert!((0.0..1.0).contains(frac), "mix shift fraction in [0, 1)");
            assert_eq!(w.len(), self.mix.len(), "shifted mix length");
            assert!(w.iter().any(|&x| x > 0.0), "shifted mix needs some weight");
        }
        if let Some(r) = &self.reconfig {
            assert!((0.0..1.0).contains(&r.at_frac) && r.at_frac > 0.0, "reconfig frac in (0,1)");
            assert_eq!(r.deltas.len(), self.deltas.len(), "reconfig deltas length");
            assert!(r.deltas.iter().all(|&d| d.is_finite() && d > 0.0), "reconfig deltas positive");
        }
        if let Some(cap) = self.server.admission_cap {
            assert!(cap > 0.0 && cap < 1.0, "admission cap in (0,1)");
        }
        assert!(self.server.gain >= 0.0 && self.server.gain.is_finite(), "gain must be >= 0");
        if let LoadMode::Closed { sessions, .. } = self.mode {
            assert!(sessions >= 1, "need at least one session");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_all_resolve() {
        for name in Scenario::catalog() {
            let s = Scenario::by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(&s.name, name);
            s.validate();
        }
        assert!(Scenario::by_name("nope").is_none());
    }

    #[test]
    fn piecewise_rates_follow_segments() {
        let mut p = PiecewisePoisson::new(vec![10.0, 20.0], vec![100.0, 400.0, 100.0]);
        let mut rng = Xoshiro256pp::seed_from(5);
        let mut t = 0.0;
        let mut counts = [0u64; 3];
        while t < 30.0 {
            t += p.next_interarrival(&mut rng);
            if t < 10.0 {
                counts[0] += 1;
            } else if t < 20.0 {
                counts[1] += 1;
            } else if t < 30.0 {
                counts[2] += 1;
            }
        }
        let r0 = counts[0] as f64 / 10.0;
        let r1 = counts[1] as f64 / 10.0;
        let r2 = counts[2] as f64 / 10.0;
        assert!((r0 - 100.0).abs() / 100.0 < 0.15, "segment 0 rate {r0}");
        assert!((r1 - 400.0).abs() / 400.0 < 0.15, "segment 1 rate {r1}");
        assert!((r2 - 100.0).abs() / 100.0 < 0.15, "segment 2 rate {r2}");
    }

    #[test]
    #[should_panic(expected = "one rate per segment")]
    fn piecewise_rejects_mismatched_lengths() {
        PiecewisePoisson::new(vec![1.0], vec![1.0]);
    }

    #[test]
    fn arrival_specs_build_and_report_mean_rate() {
        let d = Duration::from_secs(10);
        let specs = [
            ArrivalSpec::Steady { rate: 100.0 },
            ArrivalSpec::Burst { mean_rate: 100.0, burstiness: 3.0, sojourn_s: 0.5 },
            ArrivalSpec::FlashCrowd {
                base_rate: 50.0,
                peak_rate: 200.0,
                from_frac: 0.25,
                to_frac: 0.75,
            },
            ArrivalSpec::Step { rate_before: 50.0, rate_after: 150.0, at_frac: 0.5 },
        ];
        let mut rng = Xoshiro256pp::seed_from(3);
        for spec in &specs {
            let mut p = spec.build(d);
            assert!(p.next_interarrival(&mut rng) > 0.0);
            assert!(spec.mean_rate(d) > 0.0);
        }
        assert_eq!(specs[0].mean_rate(d), 100.0);
        assert_eq!(specs[3].mean_rate(d), 100.0);
        assert!((specs[2].mean_rate(d) - 125.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duration must exceed warmup")]
    fn validate_catches_bad_horizon() {
        let mut s = Scenario::by_name("steady").unwrap();
        s.warmup = s.duration;
        s.validate();
    }

    #[test]
    fn server_config_uses_mix_mean_cost() {
        let s = Scenario::by_name("steady").unwrap();
        let cfg = s.server_config();
        use psd_dist::ServiceDistribution;
        let want = s.mix[0].cost.mean();
        assert!((cfg.mean_cost - want).abs() < 1e-12, "even mix of equal dists keeps E[X]");
        assert_eq!(cfg.deltas, s.deltas);
    }
}
