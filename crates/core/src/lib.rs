//! # psd-core — proportional slowdown differentiation (PSD)
//!
//! The primary contribution of Zhou/Wei/Xu (IPDPS 2004), *"Processing
//! Rate Allocation for Proportional Slowdown Differentiation on
//! Internet Servers"*, implemented as a library:
//!
//! * [`allocation`] — the processing-rate allocation strategy (paper
//!   Eq. 17): each class receives its raw processing requirement
//!   `ρ_i = λ_i·E[X]` plus a share of the residual capacity
//!   proportional to `λ_i/δ_i`. One clamped path (overload fallback →
//!   residual split → `min_rate` floor) serves the strict, the clamped
//!   and the per-class-moments entries alike.
//! * [`model`] — the PSD model itself (paper Eqs. 16/18): the expected
//!   per-class slowdown under the allocation, its predictability /
//!   controllability properties, and feasibility checks.
//! * [`estimator`] — the windowed load estimator (paper §4.1: the load
//!   for the next window is the average over the past five windows).
//! * [`control`] — the unified control plane: the shared
//!   [`control::RateController`] contract (re-exported from
//!   `psd-control`), the one [`PsdController`] (the paper's open loop;
//!   the slowdown feedback is its `gain`), admission shedding and the
//!   hot-reconfigurable [`control::SharedControl`] runtime surface —
//!   the same objects drive the desim engine and the live
//!   `psd-server` monitor.
//! * [`baselines`] — comparison allocators: static-equal,
//!   load-proportional, a backlog-proportional PDD-style allocator, and
//!   strict priority. None of them achieves PSD; the benches show it.
//! * [`config`] / [`simulation`] / [`experiment`] — the façade used by
//!   examples, tests and the figure harness: declare classes (δ, load),
//!   run `n` replications (optionally across threads, deterministically
//!   seeded), and collect slowdowns / ratios / percentiles.
//!
//! ## Quickstart
//!
//! ```
//! use psd_core::config::PsdConfig;
//! use psd_core::experiment::Experiment;
//!
//! // Two classes, δ = (1, 2), equal shares of a 60%-loaded server.
//! let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.6)
//!     .with_horizon(6_000.0, 1_000.0); // short run for the doctest
//! let report = Experiment::new(cfg).runs(2).base_seed(7).run();
//! let s = report.mean_slowdowns();
//! // Class 1 experiences roughly twice class 0's slowdown.
//! assert!(s[1] > s[0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod baselines;
pub mod config;
pub mod control;
pub mod estimator;
pub mod experiment;
pub mod model;
pub mod report;
pub mod simulation;

pub use allocation::{psd_rates, psd_rates_heterogeneous, AllocationError};
pub use config::{ClassConfig, PsdConfig};
pub use control::PsdController;
pub use estimator::LoadEstimator;
pub use model::PsdModel;
pub use report::{ClassReport, PsdReport};
