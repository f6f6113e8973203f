//! Golden reports: the simulator's output is an exact function of the
//! configuration and the seed, so one hash over every number in a set
//! of `run_once` reports pins the engine's behaviour bit for bit — the
//! event order (ties included), the RNG draw order and the floating
//! point of every accumulator. A simulator change that is a pure
//! optimisation leaves the constants alone — they were computed with
//! the engine `desim` began with, which popped every event from one
//! binary heap, and the window-synchronous loop over steppable
//! stations, which has no event set at all, still produces them; one
//! that moves them has changed what the simulator computes and must say
//! so.
//! `golden_output.rs` pins the parts of `SimOutput` a report drops.
//!
//! Two constants, so that a controller change can move the one it means
//! to: `OPEN_LOOP` covers the paper's controller (gain 0), on which
//! every benchmark workload runs; `FEEDBACK` the same controller with
//! the §6 slowdown feedback engaged.

mod common;

use common::Fold;
use psd_core::config::PsdConfig;
use psd_core::simulation::run_once;
use psd_core::PsdReport;
use psd_desim::ServiceMode;

const OPEN_LOOP: u64 = 0xf9ab_8d12_e8eb_d3e5;
const FEEDBACK: u64 = 0x8a4c_d72c_a4d8_554d;
const DELTAS: [f64; 3] = [1.0, 2.0, 4.0];

impl Fold {
    /// Every numeric field of the report, lengths included.
    fn report(&mut self, r: &PsdReport) {
        self.word(r.seed);
        self.word(r.classes.len() as u64);
        for c in &r.classes {
            self.f64(c.delta);
            self.f64(c.load);
            self.opt(c.mean_slowdown);
            self.opt(c.expected_slowdown);
            self.opt(c.mean_delay);
            self.word(c.completed);
        }
        self.opt(r.system_slowdown);
        for ratios in &r.window_ratios_vs_class0 {
            self.word(ratios.len() as u64);
            ratios.iter().for_each(|&x| self.f64(x));
        }
        self.word(r.trace.len() as u64);
        for &(class, t, s) in &r.trace {
            self.word(class as u64);
            self.f64(t);
            self.f64(s);
        }
    }
}

#[test]
fn run_once_reports_match_the_golden_hash() {
    let mut h = Fold::fnv1a();
    for load in [0.1, 0.5, 0.9] {
        let cfg = PsdConfig::equal_load(&DELTAS, load);
        for seed in 1000..1005 {
            h.report(&run_once(&cfg, seed));
        }
    }

    // Pinned rates keep the completion scheduled at service start alive
    // across a rate change; the trace window adds per-request records.
    let mut pinned = PsdConfig::equal_load(&DELTAS, 0.7).with_trace(60_000.0, 61_000.0);
    pinned.service_mode = ServiceMode::PinnedRate;
    h.report(&run_once(&pinned, 1000));

    assert_eq!(h.0, OPEN_LOOP, "simulator output moved: {:#018x}", h.0);
}

/// Rates that depend on the window's slowdown sums.
#[test]
fn feedback_report_matches_the_golden_hash() {
    let mut cfg = PsdConfig::equal_load(&DELTAS, 0.8);
    cfg.controller_params.gain = 0.3;
    let mut h = Fold::fnv1a();
    h.report(&run_once(&cfg, 1000));
    assert_eq!(h.0, FEEDBACK, "feedback-leg output moved: {:#018x}", h.0);
}
