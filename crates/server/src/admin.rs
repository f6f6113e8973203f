//! The admin route family served by **every** front-end engine:
//!
//! | route | method | semantics |
//! |---|---|---|
//! | `/metrics/prometheus` | `GET` | epochs, published rates & admission probabilities, per-class completed/shed/backlog/mean delay, service and slowdown, plus engine internals (timer thread, reactor shards, admission door, latency histograms) in Prometheus text format 0.0.4 |
//! | `/config`  | `GET` | JSON view of the epoch-stamped class table |
//! | `/config`  | `PUT`/`POST` | hot reconfiguration via query parameters |
//! | `/healthz` | `GET` | liveness: engine, shard count, classes, uptime, epochs |
//! | `/trace`   | `GET` | recent request spans (`?n=` caps the count) with the per-class queueing/service/stretch/write-back decomposition |
//! | `/trace/control` | `GET` | the control-decision flight recorder: one `ControlTrace` per window, JSON-replayable through `psd_obs::replay` |
//!
//! `PUT /config` accepts any subset of:
//!
//! * `deltas=1,2,4` — swap the differentiation parameters (class count
//!   is fixed; lengths must match);
//! * `gain=0.5` — feedback integral gain;
//! * `admission-cap=0.9` (alias `cap=`) — target admitted utilization,
//!   or `admission-cap=off` to disable admission control;
//! * `controller=open|feedback` — switch the controller family.
//!
//! The update is validated and committed atomically with a bumped
//! epoch; it **takes effect at the next control-window boundary**, when
//! the monitor rebuilds its controller and publishes under the new
//! epoch (`applied_epoch` in the responses tracks that hand-over — see
//! the epoch-ordering notes on `psd_core::control::SharedControl`).
//! Invalid parameters answer `400` with an `{"error": …}` body and
//! leave the table untouched.
//!
//! Responses are `application/json`, the Prometheus exposition aside;
//! admin requests respect keep-alive like any other request. The routes
//! are matched by [`crate::classify::admin_route`] *before*
//! classification, so `/metrics/prometheus` is never queued behind the
//! PSD scheduler — you can observe an overloaded server while it sheds.
//! Every other path, `/metrics` included, is an ordinary request.

use std::fmt::Write as _;
use std::sync::Arc;

use bytes::Bytes;

use crate::classify::{admin_route, AdminRoute};
use crate::codec::{HttpRequest, Response};
use crate::reactor::Shared;
use crate::server::PsdServer;
use crate::EngineKind;
use psd_core::control::ControllerKind;
use psd_obs::json::{push_json_f64_array, push_json_str};
use psd_obs::{spans_to_json, PromWriter};

/// How many spans `GET /trace` returns when the request does not cap
/// the count with `?n=`.
const DEFAULT_TRACE_SPANS: usize = 512;

/// Engine-side context the front-end hands to every admin call: which
/// engine is serving and (reactor only) its shards, whose loop and
/// ring counters the exposition reads. Built from references so
/// constructing one on the request path costs nothing.
pub(crate) struct AdminInfo<'a> {
    /// The engine actually serving.
    pub(crate) engine: EngineKind,
    /// The reactor's shards in shard order; empty for the threaded
    /// engine.
    pub(crate) shards: &'a [Arc<Shared>],
}

/// Serve `req` if it targets an admin route. `keep_alive` is the
/// connection policy the caller already decided (drain-aware).
pub(crate) fn handle(
    server: &PsdServer,
    req: &HttpRequest,
    keep_alive: bool,
    info: &AdminInfo<'_>,
) -> Option<Response> {
    let route = admin_route(&req.path)?;
    Some(match (route, req.method.as_str()) {
        (AdminRoute::MetricsProm, "GET") => prom_response(req, keep_alive, prom_text(server, info)),
        (AdminRoute::Config, "GET") => json_response(req, keep_alive, 200, config_json(server)),
        (AdminRoute::Config, "PUT" | "POST") => match apply_config(server, req) {
            Ok(()) => json_response(req, keep_alive, 200, config_json(server)),
            Err(e) => {
                let mut body = String::from("{\"error\":");
                push_json_str(&mut body, &e);
                body.push('}');
                json_response(req, keep_alive, 400, body)
            }
        },
        (AdminRoute::Healthz, "GET") => {
            json_response(req, keep_alive, 200, healthz_json(server, info))
        }
        (AdminRoute::Trace, "GET") => json_response(req, keep_alive, 200, trace_json(server, req)),
        (AdminRoute::TraceControl, "GET") => {
            json_response(req, keep_alive, 200, server.obs().flight.to_json())
        }
        _ => json_response(req, keep_alive, 405, "{\"error\":\"method not allowed\"}".to_string()),
    })
}

fn json_response(req: &HttpRequest, keep_alive: bool, status: u16, body: String) -> Response {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Method Not Allowed",
    };
    Response {
        http11: req.http11,
        status,
        reason,
        keep_alive,
        extra_headers: vec![("Content-Type", "application/json".to_string())],
        body: Bytes::from(body.into_bytes()),
    }
}

/// `200 OK` carrying the Prometheus exposition with its versioned
/// content type (scrapers negotiate on it).
fn prom_response(req: &HttpRequest, keep_alive: bool, body: String) -> Response {
    Response {
        http11: req.http11,
        status: 200,
        reason: "OK",
        keep_alive,
        extra_headers: vec![("Content-Type", psd_obs::prom::CONTENT_TYPE.to_string())],
        body: Bytes::from(body.into_bytes()),
    }
}

fn config_json(server: &PsdServer) -> String {
    let control = server.control();
    // Read `applied_epoch` *before* the table: both only ever increase
    // and applied ≤ epoch holds at every instant, so this order keeps
    // the reported pair consistent (reading the table first could race
    // a PUT + window boundary into `applied_epoch > epoch`).
    let applied = control.applied_epoch();
    let t = control.table();
    let cap = t.admission_cap.map_or("null".to_string(), |c| c.to_string());
    let mut out = String::from("{\"controller\":");
    push_json_str(&mut out, t.controller.as_str());
    out.push_str(",\"deltas\":");
    push_json_f64_array(&mut out, &t.deltas);
    let _ = write!(
        out,
        ",\"gain\":{},\"admission_cap\":{cap},\"epoch\":{},\"applied_epoch\":{applied}}}",
        t.gain, t.epoch,
    );
    out
}

fn healthz_json(server: &PsdServer, info: &AdminInfo<'_>) -> String {
    let control = server.control();
    let applied = control.applied_epoch();
    let t = control.table();
    let mut out = String::from("{\"status\":\"ok\",\"engine\":");
    push_json_str(&mut out, info.engine.as_str());
    let _ = write!(
        out,
        ",\"shards\":{},\"classes\":{},\"uptime_s\":{:.3},\"epoch\":{},\
         \"applied_epoch\":{applied}}}",
        info.shards.len(),
        server.num_classes(),
        server.started_at().elapsed().as_secs_f64(),
        t.epoch,
    );
    out
}

fn trace_json(server: &PsdServer, req: &HttpRequest) -> String {
    let mut max = DEFAULT_TRACE_SPANS;
    if let Some(q) = req.query.as_deref() {
        for kv in q.split('&') {
            if let Some(v) = kv.strip_prefix("n=") {
                if let Ok(n) = v.parse::<usize>() {
                    max = n;
                }
            }
        }
    }
    let spans = server.obs().spans.recent(max);
    spans_to_json(
        &spans,
        server.num_classes(),
        server.obs().spans.sample_rate(),
        server.obs().spans.recorded(),
    )
}

/// Render the whole Prometheus exposition: control plane, per-class
/// service stats, latency histograms, and the engine internals
/// (timer-thread activity, per-shard reactor loop behaviour, admission
/// door counters).
fn prom_text(server: &PsdServer, info: &AdminInfo<'_>) -> String {
    let control = server.control();
    let applied = control.applied_epoch();
    let t = control.table();
    let stats = server.stats();
    let telemetry = server.obs();
    let mut w = PromWriter::new();

    w.help("psd_server_info", "gauge", "Constant 1, labeled with the serving engine.");
    w.sample("psd_server_info", &[("engine", info.engine.as_str())], 1.0);
    w.help("psd_uptime_seconds", "gauge", "Seconds since the server started.");
    w.sample("psd_uptime_seconds", &[], server.started_at().elapsed().as_secs_f64());

    w.help("psd_controller_epoch", "gauge", "Config-table epoch (bumped by PUT /config).");
    w.sample("psd_controller_epoch", &[], t.epoch as f64);
    w.help("psd_controller_applied_epoch", "gauge", "Epoch the monitor last published under.");
    w.sample("psd_controller_applied_epoch", &[], applied as f64);

    let rates = control.rates();
    let admit = control.admit_probabilities();
    w.help("psd_rate", "gauge", "Published per-class processing-rate share.");
    w.help("psd_admit_probability", "gauge", "Published per-class admission probability.");
    w.help("psd_requests_completed_total", "counter", "Requests completed per class.");
    w.help("psd_requests_shed_total", "counter", "Requests shed at the door per class.");
    w.help("psd_backlog", "gauge", "Requests queued or in service per class.");
    w.help("psd_mean_slowdown", "gauge", "Mean slowdown of completed requests per class.");
    w.help("psd_mean_delay_seconds", "gauge", "Mean queueing delay per class.");
    w.help("psd_mean_service_seconds", "gauge", "Mean service time per class.");
    let mut label = String::new();
    for (i, c) in stats.classes.iter().enumerate() {
        label.clear();
        let _ = write!(label, "{i}");
        let class: &[(&str, &str)] = &[("class", &label)];
        w.sample("psd_rate", class, rates.get(i).copied().unwrap_or(0.0));
        w.sample("psd_admit_probability", class, admit.get(i).copied().unwrap_or(1.0));
        w.sample("psd_requests_completed_total", class, c.completed as f64);
        w.sample("psd_requests_shed_total", class, c.shed as f64);
        w.sample("psd_backlog", class, server.backlog(i) as f64);
        w.sample("psd_mean_slowdown", class, c.mean_slowdown);
        w.sample("psd_mean_delay_seconds", class, c.mean_delay);
        w.sample("psd_mean_service_seconds", class, c.mean_service);
    }

    w.help(
        "psd_request_duration_seconds",
        "histogram",
        "End-to-end request latency (admit to response write) per class.",
    );
    for (i, h) in telemetry.latency.iter().enumerate() {
        label.clear();
        let _ = write!(label, "{i}");
        w.histogram("psd_request_duration_seconds", &[("class", &label)], &h.snapshot());
    }

    w.help("psd_admission_draws_total", "counter", "Admission decisions drawn at the door.");
    w.sample(
        "psd_admission_draws_total",
        &[],
        telemetry.admission.draws.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );

    w.help("psd_trace_spans_recorded_total", "counter", "Request spans kept by the trace ring.");
    w.sample("psd_trace_spans_recorded_total", &[], telemetry.spans.recorded() as f64);
    w.help("psd_control_traces_recorded_total", "counter", "Control windows flight-recorded.");
    w.sample("psd_control_traces_recorded_total", &[], telemetry.flight.recorded() as f64);

    if let Some((wheel, in_flight)) = server.wheel_stats() {
        use std::sync::atomic::Ordering::Relaxed;
        w.help(
            "psd_wheel_wakeups_total",
            "counter",
            "Deadline-store wakeups: timer thread waits, plus claiming reactor turns that fired.",
        );
        w.sample("psd_wheel_wakeups_total", &[], wheel.wakeups.load(Relaxed) as f64);
        w.help("psd_wheel_fires_total", "counter", "Virtual-finish deadlines fired.");
        w.sample("psd_wheel_fires_total", &[], wheel.fires.load(Relaxed) as f64);
        w.help(
            "psd_wheel_fire_lateness_seconds_total",
            "counter",
            "Fire lateness summed over every fired deadline: due instant to the clock read that fired it.",
        );
        let late_s = wheel.late_ns.load(Relaxed) as f64 / 1e9;
        w.sample("psd_wheel_fire_lateness_seconds_total", &[], late_s);
        w.help("psd_wheel_scheduled_total", "counter", "Finish deadlines scheduled.");
        w.sample("psd_wheel_scheduled_total", &[], wheel.scheduled.load(Relaxed) as f64);
        w.help("psd_wheel_in_flight", "gauge", "Requests queued or in service, all classes.");
        w.sample("psd_wheel_in_flight", &[], in_flight as f64);
    }

    if !info.shards.is_empty() {
        w.help("psd_reactor_wakeups_total", "counter", "Poller returns per reactor shard.");
        w.help("psd_reactor_events_total", "counter", "Readiness events per reactor shard.");
        w.help("psd_reactor_accepts_total", "counter", "Connections accepted per shard.");
        w.help("psd_reactor_completions_total", "counter", "Completions drained per shard.");
        w.help("psd_reactor_mailbox_drains_total", "counter", "Non-empty drains per shard.");
        w.help("psd_reactor_swept_total", "counter", "Connections reaped by idle sweeps.");
        w.help(
            "psd_reactor_spin_seconds_total",
            "counter",
            "Time spent spinning out the last stretch before a deadline.",
        );
        w.help("psd_reactor_spin_yields_total", "counter", "Core yields during those spins.");
        w.help("psd_reactor_mailbox_peak", "gauge", "Largest mailbox drain batch per shard.");
        for (i, s) in info.shards.iter().enumerate() {
            let snap = s.stats.snapshot();
            label.clear();
            let _ = write!(label, "{i}");
            let shard: &[(&str, &str)] = &[("shard", &label)];
            w.sample("psd_reactor_wakeups_total", shard, snap.wakeups as f64);
            w.sample("psd_reactor_events_total", shard, snap.events as f64);
            w.sample("psd_reactor_accepts_total", shard, snap.accepts as f64);
            w.sample("psd_reactor_completions_total", shard, snap.completions as f64);
            w.sample("psd_reactor_mailbox_drains_total", shard, snap.mailbox_drains as f64);
            w.sample("psd_reactor_swept_total", shard, snap.swept as f64);
            w.sample("psd_reactor_spin_seconds_total", shard, snap.spin_ns as f64 / 1e9);
            w.sample("psd_reactor_spin_yields_total", shard, snap.spin_yields as f64);
            w.sample("psd_reactor_mailbox_peak", shard, snap.mailbox_peak as f64);
        }
    }

    if info.engine == EngineKind::Uring {
        w.help("psd_uring_enters_total", "counter", "io_uring_enter syscalls per shard.");
        w.help("psd_uring_waits_total", "counter", "Enter calls that waited for a completion.");
        w.help("psd_uring_sqes_total", "counter", "SQEs submitted per shard.");
        w.help("psd_uring_cqes_total", "counter", "CQEs reaped per shard.");
        for (i, s) in info.shards.iter().enumerate() {
            let snap = s.uring_stats.snapshot();
            label.clear();
            let _ = write!(label, "{i}");
            let shard: &[(&str, &str)] = &[("shard", &label)];
            w.sample("psd_uring_enters_total", shard, snap.enters as f64);
            w.sample("psd_uring_waits_total", shard, snap.waits as f64);
            w.sample("psd_uring_sqes_total", shard, snap.sqes as f64);
            w.sample("psd_uring_cqes_total", shard, snap.cqes as f64);
        }
    }

    // Process-wide I/O-plane syscall meter from the vendored polling
    // shim (epoll ctl/wait, eventfd ops, io_uring setup/enter,
    // and the reactor shards' direct read/write/accept calls). The
    // engines' syscall economy is compared on deltas of this counter —
    // see `tests/syscall_gate.rs`.
    w.help(
        "psd_reactor_syscalls_total",
        "counter",
        "I/O-plane syscalls issued through the polling/uring shim.",
    );
    w.sample("psd_reactor_syscalls_total", &[], polling::count::total() as f64);
    w.into_string()
}

/// Parse the `PUT /config` query parameters and commit them as one
/// epoch-bumping update.
fn apply_config(server: &PsdServer, req: &HttpRequest) -> Result<(), String> {
    let query = req.query.as_deref().unwrap_or("");
    if query.is_empty() {
        return Err("no parameters (try deltas=, gain=, admission-cap=, controller=)".to_string());
    }
    let mut deltas: Option<Vec<f64>> = None;
    let mut gain: Option<f64> = None;
    let mut cap: Option<Option<f64>> = None;
    let mut kind: Option<ControllerKind> = None;
    for kv in query.split('&').filter(|kv| !kv.is_empty()) {
        let (key, value) = kv.split_once('=').ok_or_else(|| format!("bare parameter '{kv}'"))?;
        match key {
            "deltas" => {
                let parsed: Result<Vec<f64>, _> =
                    value.split(',').map(|s| s.trim().parse::<f64>()).collect();
                deltas = Some(parsed.map_err(|_| format!("bad deltas '{value}'"))?);
            }
            "gain" => {
                gain = Some(value.parse().map_err(|_| format!("bad gain '{value}'"))?);
            }
            "admission-cap" | "admission_cap" | "cap" => {
                cap = Some(match value {
                    "off" | "none" | "null" => None,
                    v => Some(v.parse().map_err(|_| format!("bad admission cap '{v}'"))?),
                });
            }
            "controller" => {
                kind = Some(
                    ControllerKind::parse(value)
                        .ok_or_else(|| format!("unknown controller '{value}'"))?,
                );
            }
            other => return Err(format!("unknown parameter '{other}'")),
        }
    }
    server
        .control()
        .update(|t| {
            if let Some(d) = deltas {
                t.deltas = d;
            }
            if let Some(g) = gain {
                t.gain = g;
            }
            if let Some(c) = cap {
                t.admission_cap = c;
            }
            if let Some(k) = kind {
                t.controller = k;
            }
        })
        .map(|_| ())
}
