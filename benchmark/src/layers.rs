//! The layer table: which per-layer metrics exist, the in-situ ones read
//! off a traced window, and the tight loops on public functions. Layers
//! are measured from outside — nothing here reaches into a crate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psd_core::config::PsdConfig;
use psd_core::control::{
    build_controller, ClassTable, ControllerKind, SharedControl, WindowObservation,
};
use psd_core::simulation::run_once;
use psd_core::{psd_rates, LoadEstimator};
use psd_dist::rng::Xoshiro256pp;
use psd_dist::{BoundedPareto, Exponential, ServiceDistribution};
use psd_obs::{JsonValue, PromWriter, SpanRecord, SpanRing};
use psd_propshare::{ProportionalScheduler, Wfq, WorkItem};
use psd_server::classify::classify;
use psd_server::{
    EngineKind, FrontendConfig, HttpFrontend, PsdServer, RequestCodec, Response, ServerConfig,
    WriteBuf,
};

use crate::stats::{self, quantile_with_support};
use crate::trace::Tracer;
use crate::workloads::{http::Http, Params, Window, Workload};

/// The name `run --trace` runs the tight loops under, in a child of
/// their own: a pass of the suite, not a workload.
pub const PASS: &str = "layers";

/// Every per-layer metric, with its unit, in the order `BENCHMARK.json`
/// lists them. A traced run prints all of them; one the workload does
/// not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 56] = [
    ("latency_p99_us", "us"),
    ("server.cpu_us_per_req", "us"),
    ("gen.cpu_us_per_req", "us"),
    ("proc.ctx_switches_per_req", "count"),
    ("alloc.allocs_per_req", "count"),
    ("alloc.bytes_per_req", "B"),
    ("polling.syscalls_per_req", "count"),
    ("polling.syscalls_per_conn", "count"),
    ("reactor.wakeups_per_req", "count"),
    ("uring.sqes_per_enter", "count"),
    ("client.connect_us_p50", "us"),
    ("client.write_us_p50", "us"),
    ("client.wait_us_p50", "us"),
    ("server.submit_call_ns_p50", "ns"),
    ("server.submit_call_ns_p99", "ns"),
    ("server.notify_lag_us_p50", "us"),
    ("server.notify_lag_us_p99", "us"),
    ("wheel.wakeups_per_req", "count"),
    ("wheel.cascades_per_req", "count"),
    ("span.queueing_us", "us"),
    ("span.stretch_us", "us"),
    ("span.service_us", "us"),
    ("span.writeback_us", "us"),
    ("gen.lag_us_p50", "us"),
    ("gen.lag_us_p99", "us"),
    ("budget.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("codec.parse_ns", "ns"),
    ("codec.parse_fragmented_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("classify.ns", "ns"),
    ("core.psd_rates_ns", "ns"),
    ("core.psd_rates_8_ns", "ns"),
    ("core.control_open_ns", "ns"),
    ("core.control_feedback_ns", "ns"),
    ("core.estimator_update_ns", "ns"),
    ("core.admit_ns", "ns"),
    ("dist.bp_sample_ns", "ns"),
    ("dist.exp_gap_ns", "ns"),
    ("desim.replication_ms_load30", "ms"),
    ("desim.replication_ms_load90", "ms"),
    ("propshare.wfq_cycle_ns", "ns"),
    ("obs.span_record_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("obs.prom_render_us", "us"),
    ("obs.json_roundtrip_us", "us"),
    ("loadgen.hist_record_ns", "ns"),
    ("admin.healthz_us", "us"),
    ("admin.prometheus_scrape_us", "us"),
    ("admin.trace_scrape_us", "us"),
    ("server.start_us", "us"),
    ("server.shutdown_us", "us"),
    ("frontend.start_us_epoll", "us"),
    ("frontend.start_us_uring", "us"),
    ("frontend.start_us_threads", "us"),
    ("engine.threads_keepalive_rps", "1/s"),
];

/// Median span duration by name, in microseconds; 0 when no such span
/// was recorded.
fn span_p50_us(tracers: &[Tracer], name: &str) -> f64 {
    let mut d: Vec<u64> = tracers
        .iter()
        .flat_map(Tracer::spans)
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    d.sort_unstable();
    quantile_with_support(&d, 0.5, 0).map_or(0.0, |v| v as f64 * 1e-3)
}

fn median_goodput(w: &Window) -> f64 {
    stats::median(&stats::cut_slices(&w.samples, w.window_ns).goodput_rps).unwrap_or(0.0)
}

/// The in-situ layer readings of a traced window `w`; `base` is the
/// untraced window that ran just before it on the same instance.
pub fn in_situ(base: &Window, w: &Window) -> Vec<(&'static str, f64)> {
    let reqs = (w.attempted - w.failed).max(1) as f64;
    let mut out = w.layer.clone();
    out.extend([
        ("server.cpu_us_per_req", w.server_cpu.run_ns as f64 * 1e-3 / reqs),
        ("gen.cpu_us_per_req", w.gen_cpu.run_ns as f64 * 1e-3 / reqs),
        // Generator threads are left out: each turn of their yielding
        // busy-wait counts as a voluntary switch.
        ("proc.ctx_switches_per_req", w.server_cpu.ctx_switches as f64 / reqs),
        ("alloc.allocs_per_req", w.allocs.0 as f64 / reqs),
        ("alloc.bytes_per_req", w.allocs.1 as f64 / reqs),
        ("client.connect_us_p50", span_p50_us(&w.tracers, "client.connect")),
        ("client.write_us_p50", span_p50_us(&w.tracers, "client.write")),
        ("client.wait_us_p50", span_p50_us(&w.tracers, "client.wait")),
    ]);
    let (traced, untraced) = (median_goodput(w), median_goodput(base));
    if untraced > 0.0 {
        out.push(("trace.overhead_share", 1.0 - traced / untraced));
    }
    // The share of an HTTP round trip's median that no measured part
    // explains. Parts are medians or means of different populations, so
    // this is a budget, not an identity.
    let get = |name: &str| out.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let p50_us = stats::median(&stats::cut_slices(&w.samples, w.window_ns).p50_us).unwrap_or(0.0);
    let parts_us = get("client.connect_us_p50")
        + get("client.write_us_p50")
        + get("span.queueing_us")
        + get("span.stretch_us")
        + get("span.service_us")
        + get("span.writeback_us");
    if p50_us > 0.0 && get("span.service_us") > 0.0 {
        out.push(("budget.unattributed_share", 1.0 - parts_us / p50_us));
    }
    out
}

/// Nanoseconds per call of `op`: the median of 7 batches, each sized to
/// run about 4 ms.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let took = t.elapsed();
        if took >= Duration::from_millis(2) || iters >= 1 << 24 {
            iters = ((iters as f64 * 4e6 / took.as_nanos().max(1) as f64) as u64).max(1);
            break;
        }
        iters *= 4;
    }
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches).expect("seven batches")
}

/// Median microseconds of `cycles` runs of `op`, which returns the
/// duration it wants counted.
fn median_us(cycles: usize, mut op: impl FnMut() -> Duration) -> f64 {
    let v: Vec<f64> = (0..cycles).map(|_| op().as_secs_f64() * 1e6).collect();
    stats::median(&v).expect("at least one cycle")
}

const REQUEST: &[u8] =
    b"GET /loadgen?cost=1 HTTP/1.1\r\nX-Class: 1\r\nConnection: keep-alive\r\n\r\n";

fn observation(n: usize) -> WindowObservation {
    WindowObservation {
        index: 7,
        start: 1.4,
        end: 1.6,
        arrivals: vec![51; n],
        arrived_work: vec![0.06; n],
        shed_work: vec![0.0; n],
        completions: vec![50; n],
        backlog: vec![1; n],
        slowdown_sums: (0..n).map(|i| 70.0 * (i + 1) as f64).collect(),
    }
}

fn sample_spans(n: usize) -> Vec<SpanRecord> {
    (0..n)
        .map(|i| SpanRecord {
            seq: i as u64,
            class: (i % 2) as u32,
            admitted: true,
            cost: 1.0,
            queue_ns: 1_000 + i as u64,
            service_ns: 56_000,
            nominal_ns: 20_000,
            writeback_ns: 30_000,
            ..SpanRecord::default()
        })
        .collect()
}

fn prom_page() -> String {
    let hist = psd_obs::LogHistogram::new();
    for i in 0..1_000u64 {
        hist.observe_ns(100_000 + 997 * i);
    }
    let snap = hist.snapshot();
    let mut w = PromWriter::new();
    for class in ["0", "1"] {
        for name in ["psd_completed_total", "psd_shed_total", "psd_rate", "psd_backlog"] {
            w.help(name, "gauge", "Per-class signal.");
            w.sample(name, &[("class", class)], 0.5);
        }
        w.histogram("psd_request_duration_seconds", &[("class", class)], &snap);
    }
    for i in 0..24 {
        w.sample("psd_reactor_wakeups_total", &[("shard", "0")], i as f64);
    }
    w.into_string()
}

fn tiny_server() -> Arc<PsdServer> {
    Arc::new(PsdServer::start(ServerConfig::default()))
}

fn frontend_start_us(engine: EngineKind) -> f64 {
    let server = tiny_server();
    let us = median_us(11, || {
        let t = Instant::now();
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine, shards: 1, ..FrontendConfig::default() },
        )
        .expect("bind");
        let took = t.elapsed();
        fe.shutdown(Duration::from_secs(5)).expect("drain");
        took
    });
    Arc::try_unwrap(server).ok().expect("frontends drained").shutdown();
    us
}

/// The `layers` pass: tight loops and start/stop cycles on public
/// functions, one number each. An engine that cannot be measured is an
/// error, not a 0.
pub fn tight_loops(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let mut codec = RequestCodec::new();
    out.push((
        "codec.parse_ns",
        ns_per_call(|| {
            codec.feed(REQUEST);
            black_box(codec.poll().expect("valid").expect("complete").cost);
        }),
    ));
    out.push((
        "codec.parse_fragmented_ns",
        ns_per_call(|| {
            for chunk in REQUEST.chunks(7) {
                codec.feed(chunk);
                let _ = black_box(codec.poll());
            }
        }),
    ));
    let resp = Response {
        http11: true,
        status: 200,
        reason: "OK",
        keep_alive: true,
        extra_headers: vec![("X-Class", "1".into()), ("X-Slowdown", "0.0000".into())],
        body: bytes::Bytes::from(&b"served path=/loadgen class=1 cost=1.000\n"[..]),
    };
    let mut wb = WriteBuf::new();
    out.push((
        "codec.encode_ns",
        ns_per_call(|| {
            wb.push_response(&resp);
            black_box(wb.flush_into(&mut std::io::sink()).expect("sink accepts all"));
        }),
    ));
    out.push((
        "classify.ns",
        ns_per_call(|| {
            black_box(classify(black_box("/loadgen"), black_box(Some("1")), 1));
        }),
    ));

    let lambdas2 = [3_700.0, 3_600.0];
    out.push((
        "core.psd_rates_ns",
        ns_per_call(|| {
            black_box(psd_rates(black_box(&lambdas2), &[1.0, 2.0], 20e-6).expect("feasible"));
        }),
    ));
    let lambdas8 = [400.0; 8];
    let deltas8 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    out.push((
        "core.psd_rates_8_ns",
        ns_per_call(|| {
            black_box(psd_rates(black_box(&lambdas8), &deltas8, 20e-6).expect("feasible"));
        }),
    ));
    for (name, kind) in [
        ("core.control_open_ns", ControllerKind::Open),
        ("core.control_feedback_ns", ControllerKind::Feedback),
    ] {
        let mut controller = build_controller(kind, &[1.0, 2.0], 1.18e-3, 0.3, 5, None);
        controller.initial_rates(2);
        let obs = observation(2);
        let mut now = 1.6;
        out.push((
            name,
            ns_per_call(|| {
                now += 0.2;
                black_box(controller.control(now, black_box(&obs)));
            }),
        ));
    }
    let mut estimator = LoadEstimator::new(2, 5);
    out.push((
        "core.estimator_update_ns",
        ns_per_call(|| {
            estimator.observe(black_box(&[255.0, 254.0]));
            black_box(estimator.estimate());
        }),
    ));
    let control = SharedControl::new(ClassTable {
        deltas: vec![1.0, 2.0],
        gain: 0.3,
        admission_cap: None,
        controller: ControllerKind::Open,
        epoch: 0,
    });
    out.push((
        "core.admit_ns",
        ns_per_call(|| {
            black_box(control.admit(black_box(1)));
        }),
    ));

    let mut rng = Xoshiro256pp::seed_from(seed);
    let bp = BoundedPareto::new(1.5, 0.5, 10.0).expect("valid bounded Pareto");
    out.push((
        "dist.bp_sample_ns",
        ns_per_call(|| {
            black_box(bp.sample(&mut rng));
        }),
    ));
    let gap = Exponential::new(255.0).expect("positive rate");
    out.push((
        "dist.exp_gap_ns",
        ns_per_call(|| {
            black_box(gap.sample(&mut rng));
        }),
    ));
    for (name, load) in [("desim.replication_ms_load30", 0.3), ("desim.replication_ms_load90", 0.9)]
    {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0, 4.0], load);
        let mut s = seed;
        let us = median_us(5, || {
            s += 1;
            let t = Instant::now();
            black_box(run_once(&cfg, s));
            t.elapsed()
        });
        out.push((name, us * 1e-3));
    }

    let mut wfq = Wfq::new(vec![0.64, 0.36]);
    let mut id = 0u64;
    out.push((
        "propshare.wfq_cycle_ns",
        ns_per_call(|| {
            id += 1;
            wfq.enqueue((id % 2) as usize, WorkItem { id, cost: 1.0 });
            black_box(wfq.dequeue());
        }),
    ));

    let ring = SpanRing::new(8, 4096, 1.0);
    let span = sample_spans(1)[0];
    out.push((
        "obs.span_record_ns",
        ns_per_call(|| {
            black_box(ring.record(0, black_box(span)));
        }),
    ));
    let hist = psd_obs::LogHistogram::new();
    let mut v = 0u64;
    out.push((
        "obs.hist_record_ns",
        ns_per_call(|| {
            v = v.wrapping_add(7_919);
            hist.observe_ns(150_000 + v % 100_000);
        }),
    ));
    out.push(("obs.prom_render_us", ns_per_call(|| drop(black_box(prom_page()))) * 1e-3));
    let spans = sample_spans(512);
    out.push((
        "obs.json_roundtrip_us",
        ns_per_call(|| {
            let text = psd_obs::spans_to_json(&spans, 2, 1.0, 512);
            black_box(JsonValue::parse(&text).expect("own output parses"));
        }) * 1e-3,
    ));
    let mut lg = psd_loadgen::LogHistogram::new();
    out.push((
        "loadgen.hist_record_ns",
        ns_per_call(|| {
            v = v.wrapping_add(7_919);
            lg.record(150 + v % 100);
        }),
    ));

    // Scrape cost: a served-traffic server, fresh connection per scrape.
    {
        let server = tiny_server();
        let fe = HttpFrontend::start_with(
            "127.0.0.1:0",
            Arc::clone(&server),
            FrontendConfig { engine: EngineKind::Reactor, shards: 1, ..FrontendConfig::default() },
        )
        .expect("bind");
        let timeout = Duration::from_secs(5);
        let mut conn =
            psd_loadgen::client::Connection::connect(fe.addr(), timeout).expect("connect");
        for i in 0..600 {
            conn.exchange(i % 2, 0.1).expect("exchange");
        }
        for (name, path) in [
            ("admin.healthz_us", "/healthz"),
            ("admin.prometheus_scrape_us", "/metrics/prometheus"),
            ("admin.trace_scrape_us", "/trace"),
        ] {
            out.push((
                name,
                median_us(21, || {
                    let t = Instant::now();
                    let got = psd_loadgen::client::get(fe.addr(), path, timeout).expect("scrape");
                    assert_eq!(got.status, 200, "{path}");
                    t.elapsed()
                }),
            ));
        }
        drop(conn);
        fe.shutdown(timeout).expect("drain");
        Arc::try_unwrap(server).ok().expect("frontend drained").shutdown();
    }

    let mut starts = Vec::new();
    let mut stops = Vec::new();
    for _ in 0..11 {
        let t = Instant::now();
        let server = PsdServer::start(ServerConfig::default());
        starts.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        server.shutdown();
        stops.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("server.start_us", stats::median(&starts).expect("11 cycles")));
    out.push(("server.shutdown_us", stats::median(&stops).expect("11 cycles")));
    out.push(("frontend.start_us_epoll", frontend_start_us(EngineKind::Reactor)));
    out.push((
        "frontend.start_us_uring",
        if psd_server::uring_available() { frontend_start_us(EngineKind::Uring) } else { 0.0 },
    ));
    out.push(("frontend.start_us_threads", frontend_start_us(EngineKind::Threads)));

    // Evidence for the keep-or-delete decision on the thread-per-
    // connection engine: the keep-alive workload's traffic, 2 s.
    let p = Params { seed, seconds: 2.0, inject_ns: 0, think_max_ns: crate::inputs::THINK_MAX_NS };
    let mut h = Http::setup("http-keepalive-threads", &p)?;
    h.warm(Duration::from_millis(500))?;
    let w = h.measure(Duration::from_secs(2), false)?;
    h.teardown()?;
    match w.violations.first() {
        Some(why) => return Err(format!("threads engine: {why}")),
        None => out.push(("engine.threads_keepalive_rps", median_goodput(&w))),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn layer_names_are_unique_and_within_the_contract() {
        let names: HashSet<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), LAYER_METRICS.len(), "a name is used once");
        for (name, unit) in LAYER_METRICS {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
            }
        };
        let (small, large) = (ns_per_call(spin(100)), ns_per_call(spin(1_000)));
        assert!(large > 4.0 * small, "10x the work reads {small} → {large} ns");
    }

    #[test]
    fn in_situ_budget_and_overhead_on_hand_built_windows() {
        use crate::stats::Sample;
        let window = |latency_ns: u64, per_slice: u64| {
            let mut w =
                Window { window_ns: 10_000_000, attempted: 10 * per_slice, ..Window::default() };
            for k in 0..10u64 {
                for j in 0..per_slice {
                    w.samples.push(Sample {
                        done_ns: k * 1_000_000 + j,
                        latency_ns,
                        class: 0,
                        weight: 1,
                    });
                }
            }
            w
        };
        let base = window(200_000, 100);
        let mut traced = window(200_000, 90);
        traced.layer = vec![("span.service_us", 60.0), ("span.writeback_us", 40.0)];
        traced.server_cpu.run_ns = 9_000_000;
        traced.allocs = (2_700, 90_000);
        let got = in_situ(&base, &traced);
        let get = |n: &str| got.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("trace.overhead_share") - 0.1).abs() < 1e-9);
        assert!((get("budget.unattributed_share") - 0.5).abs() < 1e-9, "100 of 200 us explained");
        assert!((get("server.cpu_us_per_req") - 10.0).abs() < 1e-9);
        assert!((get("alloc.allocs_per_req") - 3.0).abs() < 1e-9);
        assert!((get("alloc.bytes_per_req") - 100.0).abs() < 1e-9);
    }
}
