//! The unified PSD control plane — **the single home of every rate
//! decision in the workspace**.
//!
//! The contract ([`RateController`], [`WindowObservation`],
//! [`ControlDirective`]) lives in the dependency-free `psd-control`
//! crate and is re-exported here; this module adds every concrete
//! controller and the composition/runtime machinery, so the exact same
//! stack drives the discrete-event simulator (`psd-desim`) *and* the
//! live server (`psd-server`):
//!
//! * [`open`] — [`PsdController`], **the one PSD rate controller**:
//!   the paper's Eq. 17 allocator behind a windowed load estimator,
//!   optionally with per-class service moments and with the
//!   closed-loop extension (§6 future work), an integral term on
//!   measured per-class slowdowns that is inert at `gain = 0` — the
//!   paper's open loop, and the default. Whatever the configuration,
//!   the rates come out of one clamped path: overload fallback →
//!   residual split → floor (floored classes pinned at `min_rate`, the
//!   rest sharing the remainder).
//! * [`admission`] — utilization-capped admission probabilities,
//!   shedding the lowest classes first.
//! * [`Admitting`] — composes admission with **any** controller by
//!   overriding [`RateController::control`] to attach
//!   `admit_probability` to the directive.
//! * [`ControllerKind`] / [`build_controller`] — the one factory every
//!   CLI and the server monitor use (`--controller {open,feedback}`,
//!   `--gain`, `--admission-cap`); `open` means gain 0.
//! * [`SharedControl`] — the lock-light runtime surface between the
//!   monitor, the submit path and the admin endpoints: atomic
//!   f64-bit rate/admission tables plus an epoch-stamped class table
//!   for hot reconfiguration without restart.
//!
//! The clamped Eq. 17 path itself (in [`crate::allocation`], behind
//! [`crate::allocation::psd_rates_clamped`]) is only ever *driven* from
//! inside this module — everything outside (server monitor, desim
//! engine, load drivers) goes through a [`RateController`].
//! [`admission`] (the pure shedding rule) and [`Admitting`] (its
//! `RateController` wrapper) are two files on purpose: a function and
//! the one type that calls it.

pub mod admission;
mod admit;
mod kind;
pub mod open;
mod shared;

pub use admission::{admission_probabilities, AdmissionDecision};
pub use admit::Admitting;
pub use kind::{build_controller, ControllerKind};
pub use open::{ControllerParams, PsdController};
pub use psd_control::{ControlDirective, RateController, StaticRates, WindowObservation};
pub use shared::{ClassTable, SharedControl};
