//! Flight-recorder replay: a control trace captured during a
//! simulation, serialized to the same JSON document the live server's
//! `GET /trace/control` serves, parses back and replays through a
//! *freshly constructed* identical controller with zero divergence —
//! the offline-debugging loop the observability layer promises
//! (record live, replay in the simulator, diff the decisions).

use psd_core::config::PsdConfig;
use psd_desim::{RateController, Simulation};
use psd_obs::{max_divergence, parse_traces, replay};

fn short_cfg() -> PsdConfig {
    PsdConfig::equal_load(&[1.0, 2.0], 0.6).with_horizon(8_000.0, 1_000.0)
}

/// Capture → JSON → parse → replay, end to end: the replayed
/// controller must reproduce every recorded directive exactly.
#[test]
fn sim_control_trace_replays_with_zero_divergence() {
    let cfg = short_cfg();
    let out = Simulation::new(cfg.sim_config(42), Box::new(cfg.controller())).run();
    assert!(!out.control_trace.is_empty(), "the sim must flight-record its control windows");
    assert_eq!(
        out.control_trace.len(),
        out.rate_history.len() - 1,
        "one trace per control window (rate_history also holds the initial allocation)"
    );

    let json = out.control_trace_json();
    let traces = parse_traces(&json).expect("the dump parses back");
    assert_eq!(traces.len(), out.control_trace.len());
    for (parsed, orig) in traces.iter().zip(&out.control_trace) {
        assert_eq!(parsed, orig, "JSON round-trip must be lossless");
    }

    // A fresh controller built the same way the sim's was: replay must
    // mirror the sim's startup sequence (initial_rates precedes the
    // first window) for the internal state to evolve identically.
    let mut fresh = cfg.controller();
    fresh.initial_rates(cfg.classes.len());
    let diffs = replay(&mut fresh, &traces);
    assert_eq!(diffs.len(), traces.len());
    let div = max_divergence(&diffs);
    assert!(div < 1e-12, "replayed decisions diverged by {div}");
}

/// Replaying through a *differently* tuned controller diverges — the
/// diff is a real comparison, not a tautology.
#[test]
fn replay_detects_a_mistuned_controller() {
    let cfg = short_cfg();
    let out = Simulation::new(cfg.sim_config(7), Box::new(cfg.controller())).run();
    let traces = parse_traces(&out.control_trace_json()).expect("parses");

    let mistuned = PsdConfig::equal_load(&[1.0, 4.0], 0.6).with_horizon(8_000.0, 1_000.0);
    let mut other = mistuned.controller();
    other.initial_rates(cfg.classes.len());
    let div = max_divergence(&replay(&mut other, &traces));
    assert!(div > 1e-6, "a δ = (1,4) controller should not reproduce the δ = (1,2) run");
}
