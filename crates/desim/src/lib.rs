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
//!   SplitMix64-derived child streams, and simultaneous events whose
//!   order can be observed fire in the order they were scheduled, so a
//!   report is an exact function of configuration and seed.
//! * **One plant, two drivers** — a class is a `Station`: its FCFS
//!   queue, its fluid task server and the one completion the pair can
//!   have pending, steppable in virtual time. The stations, the
//!   controller that re-rates them at every window boundary and the
//!   collectors their events write to are one plant (`engine.rs`),
//!   which [`Simulation::run`] drives from per-class arrival processes
//!   and [`run_sessions`] from a closed population of users.
//! * **A window-synchronous open loop, no future-event set** — the task
//!   servers are rate-partitioned, so between two control instants the
//!   classes cannot affect one another: each is an FCFS queue at a
//!   fixed rate, and they meet only when the controller runs.
//!   [`Simulation::run`] therefore advances class 0 through the control
//!   window, then class 1, … each a two-way choice between its next
//!   arrival and the completion of its request in service, then runs
//!   the tick. One sequence counter, drawn whenever an event is armed,
//!   still breaks every tie that can be observed — among a class's two
//!   events and the tick (see `engine.rs`). The closed-loop
//!   [`run_sessions`] cannot be taken apart like that — a departure
//!   from one class schedules an arrival at another — so each step it
//!   fires the earliest of the stations' completions, the tick and a
//!   heap of think timers, one per user.
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
