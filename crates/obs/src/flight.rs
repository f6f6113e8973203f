//! The control-decision flight recorder: every control window, the
//! host (live-server monitor or desim engine) records what the
//! controller *saw* ([`WindowObservation`]), what it *answered*
//! ([`ControlDirective`]), what was actually applied, and any named
//! internal state the controller exposes — into a bounded ring.
//!
//! A dump serializes to JSON (`GET /trace/control` on the server, an
//! export helper in desim) and parses back, so a trace captured on one
//! host can be [replayed](replay) through a fresh controller on
//! another — the first concrete step toward the digital-twin roadmap
//! item: run the live server's observations through the simulator's
//! controller and diff the directives.

use crate::json::{
    push_json_f64, push_json_f64_array, push_json_str, push_json_u64_array, JsonValue,
};
use psd_control::{ControlDirective, RateController, WindowObservation};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One control window's complete decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTrace {
    /// Host time of the control instant, seconds since run start.
    pub at_s: f64,
    /// Configuration epoch the decision was made under.
    pub epoch: u64,
    /// What the estimator fed the controller.
    pub observation: WindowObservation,
    /// What the controller answered.
    pub directive: ControlDirective,
    /// The rate vector actually in force after applying the directive
    /// (equals the previous rates when the directive kept them).
    pub applied_rates: Vec<f64>,
    /// Named internal state vectors (e.g. feedback integral terms),
    /// from [`RateController::internals`].
    pub internals: Vec<(String, Vec<f64>)>,
}

impl ControlTrace {
    /// Append this trace as a JSON object.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"at_s\":");
        push_json_f64(out, self.at_s);
        let _ = write!(out, ",\"epoch\":{}", self.epoch);
        let o = &self.observation;
        let _ = write!(
            out,
            ",\"observation\":{{\"index\":{},\"start\":{},\"end\":{}",
            o.index, o.start, o.end
        );
        out.push_str(",\"arrivals\":");
        push_json_u64_array(out, &o.arrivals);
        out.push_str(",\"arrived_work\":");
        push_json_f64_array(out, &o.arrived_work);
        out.push_str(",\"shed_work\":");
        push_json_f64_array(out, &o.shed_work);
        out.push_str(",\"completions\":");
        push_json_u64_array(out, &o.completions);
        out.push_str(",\"backlog\":");
        push_json_u64_array(out, &o.backlog);
        out.push_str(",\"slowdown_sums\":");
        push_json_f64_array(out, &o.slowdown_sums);
        out.push_str("},\"directive\":{\"rates\":");
        match &self.directive.rates {
            Some(r) => push_json_f64_array(out, r),
            None => out.push_str("null"),
        }
        out.push_str(",\"admit_probability\":");
        match &self.directive.admit_probability {
            Some(p) => push_json_f64_array(out, p),
            None => out.push_str("null"),
        }
        out.push_str("},\"applied_rates\":");
        push_json_f64_array(out, &self.applied_rates);
        out.push_str(",\"internals\":{");
        for (i, (name, values)) in self.internals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, name);
            out.push(':');
            push_json_f64_array(out, values);
        }
        out.push_str("}}");
    }

    /// Rebuild a trace from a parsed JSON object (the inverse of
    /// [`Self::push_json`]).
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));
        let obs = field("observation")?;
        let obs_field =
            |name: &str| obs.get(name).ok_or_else(|| format!("missing observation.{name}"));
        let f64s = |val: &JsonValue, name: &str| {
            val.f64_array().ok_or_else(|| format!("{name} must be a number array"))
        };
        let u64s = |val: &JsonValue, name: &str| {
            val.u64_array().ok_or_else(|| format!("{name} must be an integer array"))
        };
        let observation = WindowObservation {
            index: obs_field("index")?.as_u64().ok_or("bad observation.index")?,
            start: obs_field("start")?.as_f64().ok_or("bad observation.start")?,
            end: obs_field("end")?.as_f64().ok_or("bad observation.end")?,
            arrivals: u64s(obs_field("arrivals")?, "arrivals")?,
            arrived_work: f64s(obs_field("arrived_work")?, "arrived_work")?,
            shed_work: f64s(obs_field("shed_work")?, "shed_work")?,
            completions: u64s(obs_field("completions")?, "completions")?,
            backlog: u64s(obs_field("backlog")?, "backlog")?,
            slowdown_sums: f64s(obs_field("slowdown_sums")?, "slowdown_sums")?,
        };
        let dir = field("directive")?;
        let opt_f64s = |val: Option<&JsonValue>, name: &str| -> Result<Option<Vec<f64>>, String> {
            match val {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => f64s(v, name).map(Some),
            }
        };
        let directive = ControlDirective {
            rates: opt_f64s(dir.get("rates"), "directive.rates")?,
            admit_probability: opt_f64s(
                dir.get("admit_probability"),
                "directive.admit_probability",
            )?,
        };
        let mut internals = Vec::new();
        if let Some(JsonValue::Object(fields)) = v.get("internals") {
            for (name, values) in fields {
                internals.push((name.clone(), f64s(values, "internals")?));
            }
        }
        Ok(Self {
            at_s: field("at_s")?.as_f64().ok_or("bad at_s")?,
            epoch: field("epoch")?.as_u64().ok_or("bad epoch")?,
            observation,
            directive,
            applied_rates: f64s(field("applied_rates")?, "applied_rates")?,
            internals,
        })
    }
}

/// Control windows a flight recorder keeps by default: the simulator's
/// and the live server's.
pub const FLIGHT_CAPACITY: usize = 256;

/// A bounded ring of [`ControlTrace`]s. Control windows are hundreds
/// of milliseconds apart, so one mutex and per-record allocation are
/// fine here — this is the cold plane, unlike the span ring.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<ControlTrace>>,
    recorded: std::sync::atomic::AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` windows.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            recorded: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Record one window, evicting the oldest beyond capacity.
    pub fn record(&self, trace: ControlTrace) {
        let mut g = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() == self.capacity {
            g.pop_front();
        }
        g.push_back(trace);
        self.recorded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Windows recorded since start (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Copy out the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<ControlTrace> {
        let g = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        g.iter().cloned().collect()
    }

    /// Serialize the retained traces as the `GET /trace/control`
    /// response body.
    pub fn to_json(&self) -> String {
        traces_to_json(&self.snapshot(), self.capacity, self.recorded())
    }
}

/// Serialize a trace list with recorder metadata.
pub fn traces_to_json(traces: &[ControlTrace], capacity: usize, recorded: u64) -> String {
    let mut out = String::with_capacity(128 + traces.len() * 512);
    let _ = write!(
        out,
        "{{\"capacity\":{capacity},\"recorded\":{recorded},\"count\":{},\"traces\":[",
        traces.len()
    );
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        t.push_json(&mut out);
    }
    out.push_str("]}");
    out
}

/// Parse a dump produced by [`FlightRecorder::to_json`] /
/// [`traces_to_json`] back into traces.
pub fn parse_traces(text: &str) -> Result<Vec<ControlTrace>, String> {
    let v = JsonValue::parse(text)?;
    let traces = v.get("traces").and_then(JsonValue::as_array).ok_or("missing \"traces\" array")?;
    traces.iter().map(ControlTrace::from_json).collect()
}

/// One window's replay outcome: the recorded directive's rates vs what
/// the replayed controller answered for the same observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDiff {
    /// Observation window index.
    pub window: u64,
    /// Control instant.
    pub at_s: f64,
    /// Rates from the recorded directive (`None` = kept current).
    pub recorded: Option<Vec<f64>>,
    /// Rates from the replayed controller.
    pub replayed: Option<Vec<f64>>,
    /// Largest absolute per-class rate difference; `0` when both kept
    /// the current rates, `+Inf` on a shape mismatch (one realloced,
    /// the other did not).
    pub max_abs_diff: f64,
}

/// Feed each recorded observation through `controller` in order and
/// diff its directives against the recorded ones — the live trace
/// replayed through the simulator's controller.
pub fn replay(controller: &mut dyn RateController, traces: &[ControlTrace]) -> Vec<ReplayDiff> {
    traces
        .iter()
        .map(|t| {
            let d = controller.control(t.at_s, &t.observation);
            let max_abs_diff = match (&t.directive.rates, &d.rates) {
                (None, None) => 0.0,
                (Some(a), Some(b)) if a.len() == b.len() => {
                    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
                }
                _ => f64::INFINITY,
            };
            ReplayDiff {
                window: t.observation.index,
                at_s: t.at_s,
                recorded: t.directive.rates.clone(),
                replayed: d.rates,
                max_abs_diff,
            }
        })
        .collect()
}

/// The largest divergence across a replay (0 for an empty list).
pub fn max_divergence(diffs: &[ReplayDiff]) -> f64 {
    diffs.iter().map(|d| d.max_abs_diff).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_control::StaticRates;

    fn trace(index: u64, rates: Option<Vec<f64>>) -> ControlTrace {
        ControlTrace {
            at_s: index as f64,
            epoch: 1,
            observation: WindowObservation {
                index,
                start: index as f64 - 1.0,
                end: index as f64,
                arrivals: vec![10, 20],
                arrived_work: vec![1.5, 2.5],
                shed_work: vec![0.0, 0.25],
                completions: vec![9, 19],
                backlog: vec![1, 2],
                slowdown_sums: vec![18.0, 76.0],
            },
            directive: ControlDirective { rates, admit_probability: Some(vec![1.0, 0.8]) },
            applied_rates: vec![0.4, 0.6],
            internals: vec![("integral_terms".into(), vec![0.01, -0.02])],
        }
    }

    #[test]
    fn traces_round_trip_through_json() {
        let original = vec![trace(0, None), trace(1, Some(vec![0.3, 0.7]))];
        let text = traces_to_json(&original, 16, 2);
        let parsed = parse_traces(&text).expect("parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn recorder_bounds_retention_and_counts_everything() {
        let rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.record(trace(i, None));
        }
        let kept = rec.snapshot();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].observation.index, 7, "oldest retained is window 7");
        assert_eq!(rec.recorded(), 10);
        let parsed = parse_traces(&rec.to_json()).expect("parse dump");
        assert_eq!(parsed, kept);
    }

    #[test]
    fn replaying_a_matching_controller_diverges_nowhere() {
        // StaticRates never re-allocates; a trace recorded from it has
        // rates: None everywhere, so a fresh StaticRates replays it
        // exactly.
        let traces = vec![trace(0, None), trace(1, None)];
        let mut controller = StaticRates::even(2);
        controller.initial_rates(2);
        let diffs = replay(&mut controller, &traces);
        assert_eq!(diffs.len(), 2);
        assert_eq!(max_divergence(&diffs), 0.0);
    }

    #[test]
    fn replay_flags_shape_mismatches_as_infinite() {
        let traces = vec![trace(0, Some(vec![0.5, 0.5]))];
        let mut controller = StaticRates::even(2);
        controller.initial_rates(2);
        let diffs = replay(&mut controller, &traces);
        assert!(diffs[0].max_abs_diff.is_infinite());
    }
}
