//! # psd-control — the shared control-plane contract and plant
//!
//! What *both* execution substrates — the discrete-event simulator
//! (`psd-desim`) and the live server (`psd-server`) — share with each
//! other and with the PSD allocation strategy in `psd-core`. This crate
//! is dependency-free on purpose: it is the one vocabulary every layer
//! of the stack speaks, so the exact same controller object drives a
//! simulation and a socket-accepting server, and the exact same plant
//! serves both.
//!
//! **The contract.** Every control period the host (simulator engine or
//! server monitor) closes an observation window and hands it to the
//! controller, which answers with a [`ControlDirective`]: optionally a
//! fresh rate vector, and optionally per-class admission probabilities.
//! This mirrors the paper's split between the *load estimator* (inputs)
//! and the *rate allocator* (Eq. 17), re-run every 1000 time units —
//! extended with the admission output that Eq. 17 alone cannot express
//! (it has no feasible solution at ρ ≥ 1). A host fills the window in
//! one [`WindowTally`] per class and builds the observation from them
//! ([`WindowObservation::from_tallies`]).
//!
//! **The plant.** A [`Station`] is one class of the paper's Fig. 1: its
//! FCFS queue, its task server at rate `r_i` and the one completion the
//! pair can have pending, stepped by its host on the host's own time
//! axis. The simulator drives one per class in virtual time (in
//! [`ServiceMode::Fluid`] by default); each lane of the live server is
//! one, in [`ServiceMode::PinnedRate`], on a time axis of seconds since
//! its executor's epoch.
//!
//! The concrete controllers (open-loop Eq. 17, the slowdown-feedback
//! extension, admission composition) live in `psd_core::control`, which
//! re-exports everything here; `psd_desim` re-exports the contract and
//! [`ServiceMode`] for backwards compatibility.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod server;

pub use server::{precedes, Job, Rank, Seq, ServiceMode, Station, NEVER};

/// What the load estimator gets to see about the window just ended.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Index of the window (0-based since simulation start).
    pub index: u64,
    /// Window start time.
    pub start: f64,
    /// Window end time (the control instant).
    pub end: f64,
    /// Per-class arrival counts inside the window.
    pub arrivals: Vec<u64>,
    /// Per-class sum of **admitted** work (full-rate sizes) inside the
    /// window — what actually entered the queues.
    pub arrived_work: Vec<f64>,
    /// Per-class sum of work turned away at the door by admission
    /// control inside the window. Zeros when the host has no admission
    /// path (the simulator, or a server without a cap). Offered load is
    /// `arrived_work + shed_work` — see [`Self::offered_loads`]; an
    /// admission controller that only saw post-shed load would
    /// equilibrate *above* its cap.
    pub shed_work: Vec<f64>,
    /// Per-class completions inside the window.
    pub completions: Vec<u64>,
    /// Per-class backlog (queued + in service) at the control instant.
    pub backlog: Vec<u64>,
    /// Per-class sum of slowdowns of this window's departures (divide by
    /// `completions` for the mean — see [`Self::mean_slowdowns`]).
    pub slowdown_sums: Vec<f64>,
}

impl WindowObservation {
    /// Observed per-class arrival rate over this window.
    pub fn arrival_rates(&self) -> Vec<f64> {
        let dur = (self.end - self.start).max(f64::MIN_POSITIVE);
        self.arrivals.iter().map(|&a| a as f64 / dur).collect()
    }

    /// Observed per-class **offered** load (work per time) over this
    /// window: admitted plus shed — the load at the door, which is what
    /// admission decisions must act on.
    pub fn offered_loads(&self) -> Vec<f64> {
        let dur = (self.end - self.start).max(f64::MIN_POSITIVE);
        self.arrived_work.iter().zip(&self.shed_work).map(|(&w, &s)| (w + s) / dur).collect()
    }

    /// Window `index` over `[start, end]` from each class's tally and
    /// its backlog (queued + in service) at `end`, class 0 first, with
    /// work multiplied by `work_unit` (1.0 when the host already counts
    /// in the controller's time unit).
    pub fn from_tallies(
        index: u64,
        start: f64,
        end: f64,
        work_unit: f64,
        classes: impl IntoIterator<Item = (WindowTally, u64)>,
    ) -> Self {
        let (tallies, backlog): (Vec<WindowTally>, _) = classes.into_iter().unzip();
        WindowObservation {
            index,
            start,
            end,
            arrivals: tallies.iter().map(|t| t.arrivals).collect(),
            arrived_work: tallies.iter().map(|t| t.work * work_unit).collect(),
            shed_work: tallies.iter().map(|t| t.shed_work * work_unit).collect(),
            completions: tallies.iter().map(|t| t.completions).collect(),
            backlog,
            slowdown_sums: tallies.iter().map(|t| t.slowdown_sum).collect(),
        }
    }

    /// Mean slowdown of each class's departures in this window (`None`
    /// for classes with no departures).
    pub fn mean_slowdowns(&self) -> Vec<Option<f64>> {
        self.slowdown_sums
            .iter()
            .zip(&self.completions)
            .map(|(&s, &c)| (c > 0).then(|| s / c as f64))
            .collect()
    }
}

/// One class's tally of the control window now open: what a host adds
/// up between two ticks. Work is in the host's unit (the simulator's
/// time units, the live server's work units) until
/// [`WindowObservation::from_tallies`] scales it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowTally {
    arrivals: u64,
    work: f64,
    shed_work: f64,
    completions: u64,
    slowdown_sum: f64,
}

impl WindowTally {
    /// An admitted request of `work`.
    pub fn arrive(&mut self, work: f64) {
        self.arrivals += 1;
        self.work += work;
    }

    /// A request of `work` turned away at the door.
    pub fn shed(&mut self, work: f64) {
        self.shed_work += work;
    }

    /// A departure with the given slowdown.
    pub fn depart(&mut self, slowdown: f64) {
        self.completions += 1;
        self.slowdown_sum += slowdown;
    }
}

/// What a controller tells the host to do for the next window: rates
/// for the task servers and (optionally) per-class admission
/// probabilities, so overload shedding composes with any controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDirective {
    /// `Some(rates)` to re-allocate the task servers, `None` to keep
    /// the current assignment.
    pub rates: Option<Vec<f64>>,
    /// `Some(p)` with one admission probability per class (in `[0, 1]`,
    /// class 0 first) to shed load at the door; `None` admits
    /// everything.
    pub admit_probability: Option<Vec<f64>>,
}

impl ControlDirective {
    /// A directive that only (re)allocates rates and admits everything.
    pub fn rates_only(rates: Option<Vec<f64>>) -> Self {
        Self { rates, admit_probability: None }
    }
}

/// A strategy that assigns processing rates to the task servers.
///
/// Implementations only need the two rate methods; hosts that support
/// admission shedding call [`RateController::control`], whose default
/// implementation wraps [`RateController::reallocate`] and admits
/// everything — so every pre-existing controller composes unchanged.
pub trait RateController {
    /// Rates to use from time 0 until the first control tick. Must have
    /// length `n_classes`; entries must be ≥ 0 and sum to ≤ 1 + ε.
    fn initial_rates(&mut self, n_classes: usize) -> Vec<f64>;

    /// Called at every control tick with the window just observed.
    /// Return `Some(rates)` to re-allocate or `None` to keep the current
    /// assignment.
    fn reallocate(&mut self, now: f64, window: &WindowObservation) -> Option<Vec<f64>>;

    /// The unified control entry point: both the simulator engine and
    /// the live server monitor call this every window. The default
    /// forwards to [`RateController::reallocate`] with no admission
    /// control; wrappers like `psd_core::control::Admitting` override it
    /// to attach admission probabilities.
    fn control(&mut self, now: f64, window: &WindowObservation) -> ControlDirective {
        ControlDirective::rates_only(self.reallocate(now, window))
    }

    /// Named internal state vectors for tracing — what a flight
    /// recorder stores next to each directive so a decision can be
    /// audited and replayed. Stateless controllers keep the default
    /// (nothing); e.g. the slowdown-feedback controller exposes its
    /// per-class integral terms.
    fn internals(&self) -> Vec<(String, Vec<f64>)> {
        Vec::new()
    }
}

impl<T: RateController + ?Sized> RateController for Box<T> {
    fn initial_rates(&mut self, n_classes: usize) -> Vec<f64> {
        (**self).initial_rates(n_classes)
    }

    fn reallocate(&mut self, now: f64, window: &WindowObservation) -> Option<Vec<f64>> {
        (**self).reallocate(now, window)
    }

    fn control(&mut self, now: f64, window: &WindowObservation) -> ControlDirective {
        (**self).control(now, window)
    }

    fn internals(&self) -> Vec<(String, Vec<f64>)> {
        (**self).internals()
    }
}

/// A controller that never re-allocates: fixed rates for the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticRates {
    rates: Vec<f64>,
}

impl StaticRates {
    /// Fixed rate vector (must be non-empty, entries ≥ 0, sum ≤ 1 + ε).
    pub fn new(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "StaticRates needs at least one class");
        let sum: f64 = rates.iter().sum();
        assert!(rates.iter().all(|&r| r >= 0.0), "rates must be non-negative");
        assert!(sum <= 1.0 + 1e-9, "rates sum to {sum} > 1");
        Self { rates }
    }

    /// Capacity split evenly over `n` classes.
    pub fn even(n: usize) -> Self {
        assert!(n > 0);
        Self { rates: vec![1.0 / n as f64; n] }
    }
}

impl RateController for StaticRates {
    fn initial_rates(&mut self, n_classes: usize) -> Vec<f64> {
        assert_eq!(n_classes, self.rates.len(), "class count mismatch");
        self.rates.clone()
    }

    fn reallocate(&mut self, _now: f64, _window: &WindowObservation) -> Option<Vec<f64>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(arrivals: Vec<u64>) -> WindowObservation {
        let n = arrivals.len();
        WindowObservation {
            index: 0,
            start: 0.0,
            end: 1.0,
            arrivals,
            arrived_work: vec![0.0; n],
            shed_work: vec![0.0; n],
            completions: vec![0; n],
            backlog: vec![0; n],
            slowdown_sums: vec![0.0; n],
        }
    }

    #[test]
    fn window_rates() {
        let w = WindowObservation {
            index: 3,
            start: 3000.0,
            end: 4000.0,
            arrivals: vec![500, 1000],
            arrived_work: vec![150.0, 290.0],
            shed_work: vec![0.0; 2],
            completions: vec![498, 1001],
            backlog: vec![2, 0],
            slowdown_sums: vec![996.0, 500.5],
        };
        let r = w.arrival_rates();
        assert!((r[0] - 0.5).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
        let l = w.offered_loads();
        assert!((l[0] - 0.15).abs() < 1e-12);
        let s = w.mean_slowdowns();
        assert!((s[0].unwrap() - 2.0).abs() < 1e-12);
        assert!((s[1].unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_slowdowns_none_for_empty_class() {
        let w = WindowObservation {
            index: 0,
            start: 0.0,
            end: 1.0,
            arrivals: vec![0, 5],
            arrived_work: vec![0.0, 2.0],
            shed_work: vec![0.0; 2],
            completions: vec![0, 4],
            backlog: vec![0, 1],
            slowdown_sums: vec![0.0, 6.0],
        };
        let s = w.mean_slowdowns();
        assert_eq!(s[0], None);
        assert_eq!(s[1], Some(1.5));
    }

    #[test]
    fn tallies_make_the_observation() {
        let mut tallies = [WindowTally::default(), WindowTally::default()];
        tallies[0].arrive(2.0);
        tallies[0].arrive(4.0);
        tallies[0].depart(1.5);
        tallies[1].shed(3.0);
        tallies[1].depart(0.5);
        tallies[1].depart(2.0);
        let obs =
            WindowObservation::from_tallies(7, 1.0, 2.0, 0.5, tallies.into_iter().zip([1, 0]));
        let expected = WindowObservation {
            index: 7,
            start: 1.0,
            end: 2.0,
            arrivals: vec![2, 0],
            arrived_work: vec![3.0, 0.0],
            shed_work: vec![0.0, 1.5],
            completions: vec![1, 2],
            backlog: vec![1, 0],
            slowdown_sums: vec![1.5, 2.5],
        };
        assert_eq!(obs, expected);
    }

    #[test]
    fn static_rates_basics() {
        let mut c = StaticRates::even(4);
        let r = c.initial_rates(4);
        assert_eq!(r, vec![0.25; 4]);
        assert!(c.reallocate(1.0, &window(vec![0; 4])).is_none());
    }

    #[test]
    fn default_control_wraps_reallocate_and_admits_everything() {
        let mut c = StaticRates::even(2);
        c.initial_rates(2);
        let d = c.control(1.0, &window(vec![3, 4]));
        assert_eq!(d, ControlDirective { rates: None, admit_probability: None });
        assert_eq!(d, ControlDirective::rates_only(None));
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn static_rates_rejects_oversubscription() {
        StaticRates::new(vec![0.7, 0.7]);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn static_rates_class_count_checked() {
        StaticRates::even(2).initial_rates(3);
    }
}
