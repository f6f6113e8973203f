//! # psd-loadgen — open/closed-loop traffic generation for the PSD server
//!
//! The paper validates its Eq. 17 allocation in a discrete-event
//! simulator; this crate closes the remaining loop by hammering the
//! *real* server (`psd-server`, on any of its three front-end engines)
//! over real TCP sockets and measuring whether the achieved per-class
//! slowdown ratios track the configured δ's end to end.
//!
//! Pieces:
//!
//! * [`scenario`] — the declarative [`Scenario`] catalog (`steady`,
//!   `burst`, `flashcrowd`, `stepload`, `classmix-shift`, `closed`,
//!   `overload`, `reconfig`), built on the arrival processes in
//!   `psd-dist::arrival` plus a piecewise-rate Poisson for flash
//!   crowds. `overload` offers ρ > 1 against an admission cap;
//!   `reconfig` hot-swaps the δ's mid-run through the server's
//!   `PUT /config` admin endpoint.
//! * [`generator`] — the multi-threaded connection-worker pool:
//!   open loop with coordinated-omission-corrected latencies (measured
//!   from each request's *intended* arrival instant) or closed loop
//!   with a fixed session population and think times.
//! * [`report`] — the [`LoadReport`] JSON/markdown schema with
//!   per-class p50/p99/p999, throughput, mean slowdown, achieved vs.
//!   target slowdown ratios, shed counts and the controller kind, plus
//!   the CI gate [`LoadReport::check`]. The report is whole-run; the
//!   per-window slowdowns the controller acted on are the server's own
//!   control flight record (`GET /trace/control`).
//! * [`harness`] — spawn the server in-process, run a scenario, drain
//!   gracefully, return the report. The `psd_loadtest` binary is a
//!   thin CLI over this.
//!
//! ```no_run
//! use psd_loadgen::{harness, Scenario};
//!
//! let scenario = Scenario::by_name("steady").unwrap();
//! let out = harness::run_scenario(&scenario).unwrap();
//! println!("{}", out.report.to_markdown());
//! assert!(out.report.check(0.25).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod generator;
pub mod harness;
pub mod report;
pub mod scenario;

// The latency histogram is psd-obs's; callers name it here too.
pub use psd_obs::LogHistogram;
pub use report::{ClassReport, LatencySummary, LoadReport};
pub use scenario::{ArrivalSpec, ClassMix, LoadMode, ReconfigSpec, Scenario};
