//! # psd-desim — discrete-event simulation of a PSD Internet server
//!
//! An event-driven reproduction of the paper's simulation model
//! (Fig. 1): per-class request generators feed per-class FCFS waiting
//! queues; one **task server** per class drains its queue at a
//! processing rate `r_i` assigned by a pluggable [`RateController`]
//! (the paper's "rate allocator"), re-invoked every control window with
//! that window's observations (the paper's "load estimator" inputs).
//!
//! Key modelling choices:
//!
//! * **Normalized capacity** — the machine rate is 1.0 and task-server
//!   rates are fractions summing to ≤ 1.
//! * **Fluid task servers** — each server tracks the *remaining work* of
//!   the request in service; a rate change mid-service rescales the
//!   completion time (work-conserving, like the GPS abstraction the
//!   paper assumes). [`ServiceMode::PinnedRate`] freezes the rate at
//!   service start instead (used by the ablation benches).
//! * **Determinism** — all randomness flows from one experiment seed via
//!   SplitMix64-derived child streams, and simultaneous events fire in
//!   the order they were scheduled, so a report is an exact function of
//!   configuration and seed.
//! * **A future-event set shaped like the model** — Fig. 1 never has
//!   more than `2n + 1` events pending (per class the next arrival and
//!   the in-service completion, plus the control tick), so
//!   [`Simulation::run`] keeps one fixed slot for each and scans them;
//!   a rescheduled completion overwrites the one it made stale. The
//!   closed-loop [`run_sessions`] has one think timer per user instead
//!   and keeps a binary heap.
//!
//! ```
//! use psd_desim::{ClassSpec, SimConfig, Simulation, StaticRates};
//! use psd_dist::ServiceDist;
//!
//! let cfg = SimConfig {
//!     classes: vec![
//!         ClassSpec::poisson(0.8, ServiceDist::paper_default()),
//!         ClassSpec::poisson(0.8, ServiceDist::paper_default()),
//!     ],
//!     end_time: 2_000.0,
//!     warmup: 200.0,
//!     control_period: 100.0,
//!     seed: 1,
//!     ..SimConfig::default()
//! };
//! let out = Simulation::new(cfg, Box::new(StaticRates::even(2))).run();
//! assert!(out.per_class[0].completed > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod engine;
mod events;
mod generator;
mod metrics;
mod request;
mod server;
pub mod session;
mod trace;

pub use controller::{ControlDirective, RateController, StaticRates, WindowObservation};
pub use engine::{ClassSpec, SimConfig, Simulation};
pub use generator::ArrivalSpec;
pub use metrics::{ClassMetrics, SimOutput, WindowStat};
pub use request::{CompletedRequest, Request};
pub use server::ServiceMode;
pub use session::{run_sessions, SessionConfig, SessionState};
pub use trace::TraceRecord;
