//! # psd-server — a multi-threaded Internet server with PSD scheduling
//!
//! The paper's *task server* is "an abstract concept … a child process
//! in a multi-process server, or a thread in a multi-thread server"
//! (§1). This crate realizes that abstraction: a real request server
//! whose dispatch order is driven by a proportional-share scheduler
//! from [`psd_propshare`], with weights produced online by the PSD rate
//! allocator from [`psd_core`].
//!
//! Architecture (mirrors paper Fig. 1, with three selectable front-end
//! engines feeding the same dispatch core through one routing function,
//! and two execution engines behind it):
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
//!             │        rates → engine weights; admission + epoch →      │
//!             │        SharedControl (lock-free submit-path tables)     │
//!             │  Sleep × RatePartition:      everything else:           │
//!             │  ┌────────────────────────┐  ┌───────────────────────┐  │
//!             │  │ timer-wheel virtual    │  │ per-class arrival     │  │
//!             │  │ task servers (wheel.rs)│  │ shards → dispatch     │  │
//!             │  │ per-class deadline     │  │ core (ProportionalS.  │  │
//!             │  │ chains, 0 blocked      │  │ | rate partition) →   │  │
//!             │  │ threads, 50 µs ticks   │  │ worker pool           │  │
//!             │  └────────────────────────┘  └───────────────────────┘  │
//!             │  both: record delay/slowdown into per-executor metric   │
//!             │  shards (swept per window AND at snapshot), deliver     │
//!             │  CompletionNotify                                       │
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
//! work-unit duration so tests stay fast. CPU-bound (`Spin`) work
//! executes on the worker pool; I/O-like (`Sleep`) work under the
//! paper's rate partition is pure *waiting*, so it completes on the
//! hashed hierarchical timer wheel instead — no thread blocks per
//! in-service request and in-service concurrency is not bounded by
//! `workers`.
//!
//! # Performance
//!
//! The wheel + sharded reactor + allocation-light request path (pooled
//! codec/write buffers, in-place head parsing, direct-write responses,
//! per-executor metrics shards) move the 5 s steady `psd_loadtest`
//! smoke on one core from **5141 sent / ~1031 req/s** (PR 3, threads
//! or single-loop reactor, offered-load-limited at its stable
//! operating point) to **10977 sent / ~2172 req/s** (reactor ×2
//! shards, 250 µs work units, 2200 req/s offered), and the io_uring
//! engine doubles the hot path again: **24137 sent / ~4850 req/s**
//! (uring ×2 shards, 125 µs work units, 4800 req/s offered) — each
//! step with 0 errors and the achieved S1/S0 slowdown ratio within
//! the ±20 % band of the configured δ1/δ0 = 2. See
//! `BENCH_hotpath.json` / `BENCH_uring.json` in CI and the committed
//! reference runs in `benches/baselines/`. The uring engine gets
//! there on **half the I/O-plane syscalls per request** (4.0 vs 8.0,
//! metered by `polling::count`, exported as
//! `psd_reactor_syscalls_total` and pinned strictly below epoll by
//! `tests/syscall_gate.rs`): per-connection reads, response writes,
//! the multishot accept and the PSD completion doorbell all ride one
//! batched `io_uring_enter` per loop iteration, with payloads in a
//! registered fixed-buffer pool (128 slots/shard, heap spill above).
//! Steady-state request handling performs ~3 heap allocations end to
//! end (`tests/reactor_alloc.rs` pins this with a counting
//! allocator).
//!
//! ```no_run
//! use psd_server::{PsdServer, ServerConfig, SchedulerKind};
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
//! `psd-obs` crate; the timer-wheel execution engine lives in `wheel`
//! (internal), the shared sleep-overshoot calibration in [`timing`].

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
