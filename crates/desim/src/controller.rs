//! The rate-controller interface between the simulator and the PSD
//! allocation strategy, and the window bookkeeping behind it.
//!
//! The contract itself ([`RateController`], [`WindowObservation`],
//! [`ControlDirective`], [`StaticRates`]) lives in the dependency-free
//! `psd-control` crate, so the exact same controller objects drive this
//! simulator *and* the live `psd-server` monitor; it is re-exported
//! here because the simulator's own API is written in its terms. The
//! concrete controllers (the Eq. 17 `PsdController` with its optional
//! slowdown feedback, admission composition) live in
//! `psd_core::control`. What this module adds is `WindowAccount`, the
//! one place a simulator fills in the observation its controller sees.

pub use psd_control::{ControlDirective, RateController, StaticRates, WindowObservation};

/// The control window a simulator is filling: what its controller is
/// shown at the next tick. Both `Simulation::run` and `run_sessions`
/// account through this, so they cannot disagree about what a window
/// holds.
#[derive(Debug)]
pub(crate) struct WindowAccount(WindowObservation);

impl WindowAccount {
    /// Window 0, opening at time 0, for `n` classes.
    pub fn new(n: usize) -> Self {
        Self(WindowObservation {
            index: 0,
            start: 0.0,
            end: 0.0,
            arrivals: vec![0; n],
            arrived_work: vec![0.0; n],
            shed_work: vec![0.0; n],
            completions: vec![0; n],
            backlog: Vec::new(),
            slowdown_sums: vec![0.0; n],
        })
    }

    pub fn on_arrival(&mut self, class: usize, size: f64) {
        self.0.arrivals[class] += 1;
        self.0.arrived_work[class] += size;
    }

    pub fn on_departure(&mut self, class: usize, slowdown: f64) {
        self.0.completions[class] += 1;
        self.0.slowdown_sums[class] += slowdown;
    }

    /// Close the window at `now` with the per-class backlog (queued +
    /// in service) at that instant, and open the next one.
    pub fn close(&mut self, now: f64, backlog: Vec<u64>) -> WindowObservation {
        let fresh = Self::new(backlog.len()).0;
        let next = WindowObservation { index: self.0.index + 1, start: now, ..fresh };
        let closed = std::mem::replace(&mut self.0, next);
        WindowObservation { end: now, backlog, ..closed }
    }
}
