//! `run_sessions` drives its controller through `RateController::control`
//! — the entry point the open-loop engine and the live server's monitor
//! use — so a wrapper that overrides it (here `Admitting`) observes the
//! closed-loop simulator's windows too.

use std::cell::RefCell;
use std::rc::Rc;

use psd_core::control::{
    Admitting, ControlDirective, RateController, StaticRates, WindowObservation,
};
use psd_desim::{run_sessions, SessionConfig, SessionState};
use psd_dist::{Deterministic, ServiceDist};

/// Hands the simulator a controller the test keeps a handle on.
struct Shared(Rc<RefCell<Admitting<StaticRates>>>);

impl RateController for Shared {
    fn initial_rates(&mut self, n: usize) -> Vec<f64> {
        self.0.borrow_mut().initial_rates(n)
    }
    fn reallocate(&mut self, now: f64, w: &WindowObservation) -> Option<Vec<f64>> {
        self.0.borrow_mut().reallocate(now, w)
    }
    fn control(&mut self, now: f64, w: &WindowObservation) -> ControlDirective {
        self.0.borrow_mut().control(now, w)
    }
}

#[test]
fn admitting_observes_the_first_session_window() {
    let cfg = SessionConfig {
        states: vec![SessionState {
            class: 0,
            service: ServiceDist::Deterministic(Deterministic::new(0.5).unwrap()),
            mean_think: 2.0,
            next: vec![1.0],
        }],
        initial_state: 0,
        n_classes: 1,
        n_users: 4,
        // One control tick, at t = 100.
        end_time: 150.0,
        warmup: 0.0,
        control_period: 100.0,
        seed: 1,
    };
    let admitting = Rc::new(RefCell::new(Admitting::new(StaticRates::new(vec![1.0]), 0.9, 1)));
    assert!(admitting.borrow().internals().is_empty(), "nothing observed before the run");
    run_sessions(cfg, Box::new(Shared(admitting.clone())));

    let internals = admitting.borrow().internals();
    let (name, loads) = internals.first().expect("the window at t = 100 was observed");
    assert_eq!(name, "admission_offered_loads");
    // Four users cycling through 0.5 work + 2.0 mean think: well under 1.
    assert!(loads[0] > 0.2 && loads[0] < 1.0, "offered load {loads:?}");
}
