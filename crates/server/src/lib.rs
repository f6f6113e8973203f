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
//!  driver::LoadDriver ────┐      │ threads: 1 blocking thread / connection    │
//!                         │      │ reactor: N shards (cfg.shards) of ONE loop │
//!  psd-loadgen / curl ─────────▶ │   + connection state machine, round-robin  │
//!                         │      │   fd assignment, sans-io codec, pooled     │
//!                         │      │   buffers, coarse cached clock, coalesced  │
//!                         │      │   eventfd completions — on an epoll driver │
//!                         │      │ uring: the same loop on an io_uring driver │
//!                         │      │   — multishot accept, registered fixed     │
//!      GET /metrics       │      │   buffers, reads/writes/doorbell batched   │
//!      GET|PUT /config ────────┐ │   into ONE io_uring_enter per loop turn;   │
//!      (hot reconfig:     │    │ │   probe → epoll fallback with warning      │
//!       δ's, gain, cap)   │    └─┼─▶ admin routes (classify::admin_route)     │
//!                         │      └──────────────┬─────────────────────────────┘
//!                         │   httplite::route (every engine): admin first, then
//!                         │   classify → class, cost → admit? ──no──▶ 503
//!                         │                     │ yes                X-Shed: 1
//!                         │ submit/submit_async ▼                   + close
//!             ┌─────────────────────────────────────────────────────────┐
//!             │ PsdServer                                               │
//!             │  monitor (every control window):                        │
//!             │    sweep arrivals + offered work (incl. shed) +         │
//!             │    measured slowdowns (MetricsSink::sweep_window) +     │
//!             │    backlogs → WindowObservation                         │
//!             │      → Box<dyn RateController>.control()                │
//!             │        (psd_core::control: open Eq.17 | feedback,       │
//!             │         × Admitting cap — the same objects desim runs)  │
//!             │      → ControlDirective { rates, admit_probability }    │
//!             │        rates → lane shares; admission + epoch →         │
//!             │        SharedControl (lock-free submit-path tables)     │
//!             │  task servers (queues.rs lanes, executed by wheel.rs):  │
//!             │  ┌───────────────────────────────────────────────────┐  │
//!             │  │ lane[class]: share r_i · FIFO · busy              │  │
//!             │  │ one request per class in service, stretched 1/r_i │  │
//!             │  │   Sleep: finish deadline → one timer thread       │  │
//!             │  │   Spin:  the class's own thread burns the time    │  │
//!             │  └───────────────────────────────────────────────────┘  │
//!             │  finish: record delay/slowdown into the executor's      │
//!             │  metric shard (swept per window AND at snapshot),       │
//!             │  deliver CompletionNotify, start the lane's next        │
//!             └──────────────────────────┬──────────────────────────────┘
//!                                        │ psd-obs (allocation-free)
//!             ┌──────────────────────────▼──────────────────────────────┐
//!             │ ObsBundle: span ring (sampled request traces, stage     │
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
//! at a time for `cost × work_unit / r_i`: under [`Workload::Sleep`]
//! that is pure waiting — a finish deadline fired by one timer thread,
//! no thread blocked per request — and under [`Workload::Spin`] the
//! class's own thread burns it on a CPU.
//!
//! # Performance
//!
//! What a request costs end to end, and per layer, is measured by the
//! standalone `benchmark/` crate (see its README); nothing here is a
//! claim beyond what it reports. Two structural numbers are pinned by
//! tests in this crate: the io_uring driver spends **half the I/O-plane
//! syscalls per request** of the epoll driver (4.0 vs 8.0, metered by
//! `polling::count`, exported as `psd_reactor_syscalls_total`, gated by
//! `tests/syscall_gate.rs`) because reads, writes, the multishot accept
//! and the completion doorbell ride one batched `io_uring_enter` per
//! loop turn; and steady-state request handling performs ~3 heap
//! allocations end to end (`tests/reactor_alloc.rs`, counting
//! allocator).
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
//! `--gain` and `--admission-cap`. The admin route family
//! (`GET /metrics`, `GET /metrics/prometheus`, `GET`/`PUT /config` —
//! hot reconfiguration of δ's, gain and admission cap without restart,
//! epoch-ordered at control window boundaries — plus the observability
//! routes `GET /healthz`, `GET /trace` and `GET /trace/control`) is
//! served by every engine ahead of classification; see `admin` and
//! [`SharedControl`]. Request tracing, Prometheus exposition and the
//! control-decision flight recorder come from the dependency-free
//! `psd-obs` crate; the task servers live in `queues` (the lanes) and
//! `wheel` (their execution), both internal, and the shared
//! sleep-overshoot calibration in [`timing`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admin;
pub mod classify;
pub mod codec;
pub mod driver;
pub mod httplite;
mod metrics;
mod queues;
pub mod reactor;
mod server;
pub mod timing;
mod wheel;

pub use classify::{admin_route, classify_path, AdminRoute, Classification};
pub use codec::{ConnectionHeader, HttpRequest, RequestCodec, Response, WriteBuf};
pub use httplite::{default_shards, uring_available, EngineKind, FrontendConfig, HttpFrontend};
pub use metrics::{ClassStats, MetricsRecorder, ServerStats, WindowSweep};
pub use psd_core::control::{ClassTable, ControllerKind, SharedControl};
pub use server::{
    Completion, PsdServer, SchedulerKind, ServerConfig, Workload, DEFAULT_CONTROL_WINDOW,
};
