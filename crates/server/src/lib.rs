//! # psd-server — an Internet server with PSD rate allocation
//!
//! The paper's *task server* is "an abstract concept … a child process
//! in a multi-process server, or a thread in a multi-thread server"
//! (§1), one per class, running at its allocated rate `r_i` (Fig. 1).
//! This crate realizes exactly that and nothing else: one serial
//! rate-partitioned task server per class, with the rates produced
//! online by the PSD rate allocator from [`psd_core`].
//!
//! Architecture (mirrors paper Fig. 1, with three selectable front-end
//! engines feeding the task servers through one routing function):
//!
//! ```text
//!  clients / TCP                  front-end engines (FrontendConfig::engine)
//!  ─────────────                 ┌────────────────────────────────────────────┐
//!                                │ threads: 1 blocking thread / connection    │
//!  psd-loadgen / curl ─────────▶ │ reactor: N shards (cfg.shards) of ONE loop │
//!                                │   + connection state machine, round-robin  │
//!                                │   fd assignment, sans-io codec, pooled     │
//!                                │   buffers, coarse cached clock, coalesced  │
//!                                │   eventfd completions — on an epoll driver │
//!                                │   (epoll_pwait2); shard 0 fires the        │
//!                                │   deadlines in its own loop                │
//!                                │ uring: the same loop on an io_uring driver │
//!                                │   — multishot accept, plain reads/writes   │
//!                                │   into slot buffers, doorbell, batched     │
//!      GET|PUT /config ────────┐ │   into ONE io_uring_enter per loop turn;   │
//!      (hot reconfig:          │ │   probe → epoll fallback with warning      │
//!       δ's, gain, cap)        └─┼─▶ admin routes (classify::admin_route)     │
//!                                └──────────────┬─────────────────────────────┘
//!                             httplite::route (every engine): admin first, then
//!                             classify → class, cost → admit? ──no──▶ 503
//!                                               │ yes                X-Shed: 1
//!                           submit/submit_async ▼                   + close
//!             ┌─────────────────────────────────────────────────────────┐
//!             │ PsdServer                                               │
//!             │  monitor (every control window):                        │
//!             │    Lanes::close_window — per class, under its lane      │
//!             │    lock: arrivals, offered work (incl. shed), measured  │
//!             │    slowdowns, backlog → WindowObservation               │
//!             │      → Box<dyn RateController>.control()                │
//!             │        (psd_core::control: open Eq.17 | feedback,       │
//!             │         × Admitting cap — the same objects desim runs)  │
//!             │      → ControlDirective { rates, admit_probability }    │
//!             │        rates → lane stations; admission + epoch →       │
//!             │        SharedControl (lock-free submit-path tables)     │
//!             │  task servers (queues.rs lanes, executed by wheel.rs):  │
//!             │  ┌───────────────────────────────────────────────────┐  │
//!             │  │ lane[class]: Station (psd-control, PinnedRate,    │  │
//!             │  │   rate r_i ≥ 1 %: desim's queue + task server)    │  │
//!             │  │   · ledger, under one lock, clock-free            │  │
//!             │  │ one request per class in service, stretched 1/r_i │  │
//!             │  │ its armed completion → a finish deadline in one   │  │
//!             │  │   store, fired by reactor shard 0's loop while it │  │
//!             │  │   holds the claim, else by one timer thread       │  │
//!             │  └───────────────────────────────────────────────────┘  │
//!             │  the ledger counts under the lane lock: submit → an     │
//!             │  arrival, admit's 503 → a shed, finish → a departure    │
//!             │  (before CompletionNotify is delivered); stats(),       │
//!             │  the exposition and the monitor all read it             │
//!             └──────────────────────────┬──────────────────────────────┘
//!                                        │ psd-obs (allocation-free)
//!             ┌──────────────────────────▼──────────────────────────────┐
//!             │ ObsBundle: span ring (every request's trace, stage      │
//!             │ decomposition), per-class log-bucket latency histograms,│
//!             │ admission door counters, control-decision flight        │
//!             │ recorder (one ControlTrace per window, replayable       │
//!             │ through desim's controller)                             │
//!             │   GET /healthz · /trace · /trace/control ·              │
//!             │   /metrics/prometheus  (served by every engine)         │
//!             └─────────────────────────────────────────────────────────┘
//! ```
//!
//! Requests carry a *cost* (work units), scaled by a configurable
//! work-unit duration so tests stay fast. A class executes one request
//! at a time for `cost × work_unit / r_i`, as pure waiting: a finish
//! deadline fired by the reactor's shard 0 in its own event loop, or by
//! one timer thread when no reactor runs, no thread blocked per request.
//!
//! # Performance
//!
//! What a request costs end to end, and per layer, is measured by the
//! standalone `benchmark/` crate (see its README); nothing here is a
//! claim beyond what it reports. Two structural numbers are pinned by
//! tests in this crate: the io_uring driver spends **fewer I/O-plane
//! syscalls per request** than the epoll driver (3.0 vs 4.0 on shard 0,
//! which fires the deadlines in its own loop, and whose epoll
//! connections stay registered, edge-triggered, while parked; metered by
//! `polling::count`, exported as `psd_reactor_syscalls_total`, gated by
//! `tests/syscall_gate.rs`) because reads, writes, the multishot accept
//! and the deadline's timeout ride one batched `io_uring_enter` per
//! loop turn; and steady-state request handling performs ~3 heap
//! allocations end to end (`tests/reactor_alloc.rs`, counting
//! allocator). Shard 0 fires each deadline at its nanosecond: its
//! kernel wait ends ε = 10 µs early and the turn spins out the rest on
//! the clock, yielding the core between reads until the last 3 µs,
//! because a timed wait wakes 7–9 µs late even at 1 ns timer slack. The
//! spin adds no poller call, so the syscall gate's numbers hold; its
//! yields raise the context switches per request instead. Every fire's
//! lateness is summed in `psd_wheel_fire_lateness_seconds_total`, and
//! each shard's spin time and yields in `psd_reactor_spin_seconds_total`
//! and `psd_reactor_spin_yields_total`.
//!
//! ```no_run
//! use psd_server::{PsdServer, ServerConfig};
//!
//! let cfg = ServerConfig { deltas: vec![1.0, 2.0], ..ServerConfig::default() };
//! let server = PsdServer::start(cfg);
//! server.submit(0, 1.0);
//! let stats = server.shutdown();
//! ```
//!
//! The blocking front-end engine (the wire-parity reference), the
//! sharded reactor (one generic shard loop and connection state machine
//! over an I/O driver — epoll readiness or io_uring completion) and
//! their shared HTTP codec live in [`httplite`], [`reactor`] and
//! [`codec`]; the `psd_httpd` binary selects between engines with
//! `--engine {threads,reactor,uring}` (uring probes at startup and
//! falls back to the epoll reactor with a logged warning — exposed to
//! scripts as `--probe-uring`), sizes the reactor with `--shards N`, and
//! selects the control plane with `--controller {open,feedback}`,
//! `--gain` and `--admission-cap` — flags `psd_loadtest` takes too, so
//! both binaries parse them through [`cli`]. The admin route family
//! (`GET /metrics/prometheus`, `GET`/`PUT /config` —
//! hot reconfiguration of δ's, gain and admission cap without restart,
//! epoch-ordered at control window boundaries — plus the observability
//! routes `GET /healthz`, `GET /trace` and `GET /trace/control`) is
//! served by every engine ahead of classification; see `admin` and
//! [`SharedControl`]. Request tracing, Prometheus exposition and the
//! control-decision flight recorder come from the dependency-free
//! `psd-obs` crate; the task servers live in `queues` (the lanes: each
//! the simulator's `psd_control::Station` plus its class's ledger from
//! `metrics`) and `wheel` (their clock and execution), all internal,
//! and the wall-clock waits
//! that end on time (no timer slack, never early) in [`timing`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admin;
pub mod classify;
pub mod cli;
pub mod codec;
pub mod httplite;
mod locks;
mod metrics;
mod queues;
pub mod reactor;
mod server;
pub mod timing;
mod wheel;

pub use classify::{admin_route, classify_path, AdminRoute, Classification};
pub use codec::{ConnectionHeader, HttpRequest, RequestCodec, Response, WriteBuf};
pub use httplite::{default_shards, uring_available, EngineKind, FrontendConfig, HttpFrontend};
pub use metrics::{ClassStats, ServerStats};
pub use psd_core::control::{ClassTable, ControllerKind, SharedControl};
pub use server::{
    Completion, PsdServer, SchedulerKind, ServerConfig, Workload, DEFAULT_CONTROL_WINDOW,
};
