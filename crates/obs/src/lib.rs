//! # psd-obs — observability for the PSD stack
//!
//! The telemetry layer every runtime crate threads through: the live
//! server (`psd-server`), the discrete-event simulator (`psd-desim`)
//! and the load generator (`psd-loadgen`). Dependency-free apart from
//! the control-plane contract (`psd-control`), which it needs so a
//! flight-recorder trace can embed the exact observation/directive
//! types both hosts speak.
//!
//! Three coordinated pieces:
//!
//! 1. **Request lifecycle tracing** ([`span`]) — a sharded
//!    fixed-capacity ring of compact `Copy` span records, written from
//!    the frontends' hot paths with zero per-request heap allocation,
//!    thinned by a per-request sampling draw, and rendered as JSON
//!    with a per-stage slowdown decomposition (queueing vs stretch vs
//!    service vs write-back).
//! 2. **Prometheus text exposition** ([`prom`], [`hist`], [`stats`]) —
//!    a hand-rolled 0.0.4 writer (HELP/TYPE, label escaping,
//!    log-bucket histograms with cumulative `le` buckets) plus the
//!    relaxed-atomic internals counters it publishes: timer-thread
//!    fires, reactor loop stats, admission draws vs sheds.
//! 3. **Control-decision flight recorder** ([`flight`]) — a bounded
//!    ring of `ControlTrace { observation, directive, internals }`
//!    records shared by the server monitor and the desim engine,
//!    JSON-serializable both ways so a live trace replays through the
//!    simulator's controller and diffs ([`flight::replay`]).
//!
//! ```
//! use psd_obs::{ObsBundle, ObsConfig, SpanRecord};
//!
//! let obs = ObsBundle::new(2, ObsConfig::default());
//! obs.spans.record(0, SpanRecord {
//!     class: 1,
//!     admitted: true,
//!     cost: 1.0,
//!     queue_ns: 250_000,
//!     service_ns: 2_000_000,
//!     nominal_ns: 1_000_000,
//!     writeback_ns: 10_000,
//!     ..SpanRecord::default()
//! });
//! obs.observe_latency_ns(1, 2_260_000);
//! let spans = obs.spans.recent(16);
//! assert_eq!(spans.len(), 1);
//! assert!((spans[0].slowdown().unwrap() - 2.26).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod prom;
pub mod span;
pub mod stats;

pub use flight::{
    max_divergence, parse_traces, replay, traces_to_json, ControlTrace, FlightRecorder, ReplayDiff,
};
pub use hist::{HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use json::JsonValue;
pub use prom::{parse_text as parse_prometheus, PromSample, PromWriter};
pub use span::{decompose, spans_to_json, SpanRecord, SpanRing, StageBreakdown};
pub use stats::{
    AdmissionStats, ReactorShardSnapshot, ReactorShardStats, UringSnapshot, UringStats, WheelStats,
};

/// Sizing knobs for an [`ObsBundle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Writer shards in the span ring (frontend writers map onto these
    /// round-robin, so ≥ the expected writer count avoids contention).
    pub span_shards: usize,
    /// Total span slots across all shards.
    pub span_capacity: usize,
    /// Per-request sampling probability in `[0, 1]`; `0` disables the
    /// span ring entirely (counters and the flight recorder stay on).
    pub sample: f64,
    /// Control windows retained by the flight recorder.
    pub flight_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { span_shards: 8, span_capacity: 4096, sample: 1.0, flight_capacity: 256 }
    }
}

/// Everything a host wires through its stack: the span ring, the
/// flight recorder, admission door counters, and per-class latency
/// histograms.
#[derive(Debug)]
pub struct ObsBundle {
    /// Request lifecycle spans.
    pub spans: SpanRing,
    /// Control-decision records.
    pub flight: FlightRecorder,
    /// Admission draws vs sheds.
    pub admission: AdmissionStats,
    /// Per-class end-to-end latency histograms (index = class).
    pub latency: Vec<LogHistogram>,
}

impl ObsBundle {
    /// A bundle for `n_classes` service classes.
    pub fn new(n_classes: usize, cfg: ObsConfig) -> Self {
        Self {
            spans: SpanRing::new(cfg.span_shards, cfg.span_capacity, cfg.sample),
            flight: FlightRecorder::new(cfg.flight_capacity),
            admission: AdmissionStats::default(),
            latency: (0..n_classes.max(1)).map(|_| LogHistogram::new()).collect(),
        }
    }

    /// Record one completed request's end-to-end latency (class
    /// indices beyond the configured count land in the last
    /// histogram).
    pub fn observe_latency_ns(&self, class: usize, ns: u64) {
        let idx = class.min(self.latency.len() - 1);
        self.latency[idx].observe_ns(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_all_pieces() {
        let obs = ObsBundle::new(2, ObsConfig { sample: 1.0, ..ObsConfig::default() });
        assert!(obs.spans.record(3, SpanRecord { admitted: true, ..SpanRecord::default() }));
        obs.observe_latency_ns(0, 1_000);
        obs.observe_latency_ns(99, 2_000); // clamps to the last class
        assert_eq!(obs.latency[0].snapshot().count, 1);
        assert_eq!(obs.latency[1].snapshot().count, 1);
        assert_eq!(obs.admission.draws.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(obs.flight.recorded(), 0);
    }
}
