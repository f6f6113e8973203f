//! End-to-end load-generation tests: a real `PsdServer` + HTTP
//! front-end on a loopback socket, driven by the `psd-loadgen`
//! generator, with the achieved slowdown ratio checked against the
//! configured δ's — the loop the paper only closes in simulation.

use std::time::Duration;

use psd::loadgen::scenario::ArrivalSpec;
use psd::loadgen::{generator, harness, LoadMode, LogHistogram, Scenario};
use psd::server::EngineKind;

/// A shortened `steady` run: class-1/class-0 slowdown ratio must land
/// in a band around δ1/δ0 = 2, every request must succeed, and the
/// JSON report schema must hold together.
///
/// The band is wide because a few seconds of measurement over a
/// heavy-tailed workload on a shared CI core carries real estimator
/// variance (the 20-second default run lands within ~20% of target);
/// what the band *must* catch is a dead controller (ratio ≈ 1), an
/// inverted allocation (ratio < 1), or runaway starvation.
#[test]
fn steady_slowdown_ratio_tracks_deltas() {
    let mut scenario = Scenario::by_name("steady").expect("stock scenario");
    scenario.duration = Duration::from_secs(7);
    scenario.warmup = Duration::from_secs(2);
    scenario.connections = 32;

    let out = harness::run_scenario(&scenario).expect("harness run");
    let report = &out.report;

    assert_eq!(report.total_errors, 0, "non-2xx or transport errors:\n{}", report.to_markdown());
    assert_eq!(report.dead_workers, 0);
    assert!(report.total_sent > 4_000, "sent only {} requests", report.total_sent);
    for c in &report.classes {
        assert!(c.measured > 500, "class {} measured only {} responses", c.class, c.measured);
        assert!(c.latency.p50_ms > 0.0 && c.latency.p999_ms >= c.latency.p50_ms);
    }

    let target = scenario.server.deltas[1] / scenario.server.deltas[0];
    let ratio = report.classes[1]
        .slowdown_ratio_vs_class0
        .expect("both classes completed requests, so the ratio exists");
    assert!(
        (0.55 * target..=1.8 * target).contains(&ratio),
        "achieved slowdown ratio {ratio:.2} outside the tolerance band of δ1/δ0 = {target} \
         (seed {}, {} engine):\n{}",
        scenario.seed,
        report.engine,
        report.to_markdown()
    );

    // The JSON schema CI tracks stays exercised end to end.
    let json = report.to_json();
    for key in [
        "\"scenario\"",
        "\"deltas\"",
        "\"total_sent\"",
        "\"throughput_rps\"",
        "\"classes\"",
        "\"mean_slowdown\"",
        "\"slowdown_ratio_vs_class0\"",
        "\"target_ratio_vs_class0\"",
        "\"p99_ms\"",
        "\"p999_ms\"",
    ] {
        assert!(json.contains(key), "JSON report lost the {key} field:\n{json}");
    }
    assert!(report.to_markdown().contains("| 1 | 2 |"), "markdown table row per class");

    // Client-side accounting agrees with the server's own books.
    let server_total: u64 = out.server_stats.classes.iter().map(|c| c.completed).sum();
    assert_eq!(server_total, report.total_sent, "server completed exactly what was sent");
}

/// Golden merge/percentile test for the log-bucketed histogram: two
/// shards merged must report the same percentiles as one histogram fed
/// everything, and known quantiles of a fixed dataset must come out
/// within the bucket resolution.
#[test]
fn histogram_merge_percentile_golden() {
    // 1..=100_000 in two interleaved shards.
    let mut all = LogHistogram::new();
    let mut shard_a = LogHistogram::new();
    let mut shard_b = LogHistogram::new();
    for v in 1..=100_000u64 {
        all.record(v);
        if v % 2 == 0 {
            shard_a.record(v);
        } else {
            shard_b.record(v);
        }
    }
    shard_a.merge(&shard_b);
    assert_eq!(shard_a.count(), all.count());

    // Golden quantiles of the uniform ramp, within the ~3% bucket width.
    for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
        let merged = shard_a.value_at_quantile(q).unwrap() as f64;
        let direct = all.value_at_quantile(q).unwrap() as f64;
        assert_eq!(merged, direct, "merge must not move the q={q} percentile");
        let err = (merged - want).abs() / want;
        assert!(err < 0.04, "q={q}: got {merged}, want {want} (err {err:.3})");
    }
    assert_eq!(shard_a.min(), 1);
    assert_eq!(shard_a.max(), 100_000);
    assert!((shard_a.mean() - 50_000.5).abs() < 1e-6);
}

/// The closed-loop mode drives sessions with think times end to end and
/// drains cleanly.
#[test]
fn closed_loop_sessions_run_clean() {
    let mut scenario = Scenario::by_name("closed").expect("stock scenario");
    scenario.duration = Duration::from_millis(1500);
    scenario.warmup = Duration::from_millis(300);
    scenario.mode = LoadMode::Closed { sessions: 8, mean_think: Duration::from_millis(4) };

    let out = harness::run_scenario(&scenario).expect("harness run");
    assert_eq!(out.report.total_errors, 0);
    assert_eq!(out.report.mode, "closed");
    assert!(out.report.total_sent > 100, "sessions produced {} requests", out.report.total_sent);
}

/// The overload satellite: offered ρ ≈ 1.3 against a 0.9 admission
/// cap. The control plane must shed **only** the lowest class (`503` +
/// `X-Shed` + `Connection: close` — a malformed shed is counted as an
/// error by the generator, so `total_errors == 0` covers the response
/// shape), keep class 0 entirely un-shed and healthy, and
/// `report.check()` gates on all of it.
#[test]
fn overload_sheds_low_class_and_protects_class0() {
    let mut scenario = Scenario::by_name("overload").expect("stock scenario");
    scenario.duration = Duration::from_secs(10);
    scenario.warmup = Duration::from_secs(4);
    // The reactor keeps the experiment's own thread count down — this
    // all runs on one shared CI core.
    scenario.frontend.engine = EngineKind::Reactor;
    scenario.frontend.shards = 2;
    // Half the request rate at the same offered ρ ≈ 1.3 (doubled work
    // unit): tier-1 runs unoptimized, where the stock rate starves the
    // 1-CPU box and the experiment measures contention, not admission.
    scenario.server.work_unit = Duration::from_micros(2400);
    if let LoadMode::Open { arrival: ArrivalSpec::Steady { rate } } = &mut scenario.mode {
        *rate *= 0.5;
    }

    let out = harness::run_scenario(&scenario).expect("harness run");
    let r = &out.report;
    assert_eq!(r.total_errors, 0, "shed responses must be well-formed:\n{}", r.to_markdown());
    assert_eq!(r.dead_workers, 0);
    assert_eq!(r.controller, "open");
    assert_eq!(r.admission_cap, Some(0.9));

    // Shedding happened, was substantial, and touched only class 1.
    assert_eq!(r.classes[0].shed, 0, "highest class must never shed:\n{}", r.to_markdown());
    assert!(
        r.classes[1].shed as f64 > 0.15 * r.classes[1].sent as f64,
        "ρ ≈ 1.3 against cap 0.9 must shed a real fraction of class 1:\n{}",
        r.to_markdown()
    );
    assert!(r.total_shed == r.classes[1].shed);

    // Class 0's band: its service stays in the healthy regime the cap
    // buys (without admission the same offered load drives class 0's
    // mean slowdown past 45 and p50 latency past 950 ms, growing with
    // the run — see CHANGES.md for the measured baselines).
    assert!(r.classes[0].measured > 500, "class 0 keeps serving:\n{}", r.to_markdown());
    assert!(
        r.classes[0].mean_slowdown < 60.0,
        "class 0 slowdown must stay bounded under overload:\n{}",
        r.to_markdown()
    );
    assert!(
        r.classes[0].latency.p50_ms < 400.0,
        "class 0 latency must stay bounded under overload:\n{}",
        r.to_markdown()
    );

    // The CI gate holds (errors, dead workers, class-0 sheds, empty
    // classes, and a sanity bound on the ratio).
    r.check(1.5).expect("overload run must pass its gate");

    // The JSON schema carries the control-plane fields.
    let json = r.to_json();
    for key in ["\"controller\"", "\"admission_cap\"", "\"shed\""] {
        assert!(json.contains(key), "JSON report lost {key}:\n{json}");
    }
}

/// The hot-reconfiguration satellite: δ = (1, 2) flips to (1, 1)
/// mid-run through `PUT /config`, and the measured slowdown ratio
/// collapses toward the new (equal) targets — asserted on the server's
/// control windows pooled over seconds before and after the flip, which
/// are robust where single windows are heavy-tail noise.
#[test]
fn reconfig_flips_deltas_mid_run_and_ratios_converge() {
    use std::sync::Arc;

    let mut scenario = Scenario::by_name("reconfig").expect("stock scenario");
    scenario.duration = Duration::from_secs(24);
    scenario.warmup = Duration::from_secs(3);
    // Half the request rate at the same dimensionless load (doubled
    // work unit): tier-1 runs this binary unoptimized, where the
    // generator+server burn several times more CPU per request — at
    // the stock rate the experiment starves the 1-CPU box and measures
    // scheduler contention instead of the control plane.
    scenario.server.work_unit = Duration::from_micros(1200);
    if let LoadMode::Open { arrival: ArrivalSpec::Steady { rate } } = &mut scenario.mode {
        *rate *= 0.58;
    }
    // A slightly hotter gain converges the integral within the
    // pre-flip phase (the stock 0.3 is tuned for long runs).
    scenario.server.gain = 0.5;

    let server = Arc::new(psd::server::PsdServer::start(scenario.server.clone()));
    let frontend = psd::server::HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        scenario.frontend.clone(),
    )
    .expect("bind");
    let stats = generator::run(frontend.addr(), &scenario).expect("generator run");

    // The admin update really landed and the monitor applied it.
    assert_eq!(server.control().epoch(), 1, "PUT /config must bump the epoch");
    assert_eq!(server.control().applied_epoch(), 1, "monitor must apply the new table");
    assert_eq!(server.control().table().deltas, vec![1.0, 1.0]);

    // Pooled ratio before the flip (warmup end → flip) vs the post-flip
    // tail (last 8 s), read from the server's own control windows: each
    // window's Σ slowdown / Σ completions is what the monitor fed the
    // controller, and δ (1,2) → (1,1) must visibly collapse it. The
    // 500 ms windows give 14 and 16 in the two spans; fewer than 12 and
    // 14 means a short record, not a ratio.
    let flight = &server.obs().flight;
    assert!(
        flight.recorded() <= psd::obs::FLIGHT_CAPACITY as u64,
        "the flight record dropped windows: {} recorded",
        flight.recorded()
    );
    let traces = flight.snapshot();
    let pooled = |from_s: f64, to_s: f64, min_windows: usize| -> f64 {
        let span: Vec<_> = traces.iter().filter(|t| (from_s..to_s).contains(&t.at_s)).collect();
        assert!(
            span.len() >= min_windows,
            "{from_s}–{to_s} s holds {} control windows, want ≥ {min_windows}",
            span.len()
        );
        let mean = |class: usize| {
            let sum: f64 = span.iter().map(|t| t.observation.slowdown_sums[class]).sum();
            let count: u64 = span.iter().map(|t| t.observation.completions[class]).sum();
            assert!(count > 0, "class {class} completed nothing in {from_s}–{to_s} s");
            sum / count as f64
        };
        mean(1) / mean(0)
    };
    let pre = pooled(5.0, 12.0, 12);
    let post = pooled(16.0, 24.0, 14);
    // What a failed ratio reads against: the run's seed and engine, the
    // server's per-class books and the rates it last published.
    let books = server.stats();
    let classes: Vec<String> = books
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!("class {i}: {} completed, mean slowdown {:.2}", c.completed, c.mean_slowdown)
        })
        .collect();
    let context = format!(
        "seed {}, {} engine; {}; rates {:?}",
        scenario.seed,
        frontend.engine().as_str(),
        classes.join("; "),
        server.control().rates()
    );
    assert!(pre > 1.35, "pre-flip ratio must track δ1/δ0 = 2, got {pre:.2} ({context})");
    assert!(post < 1.5, "post-flip ratio must approach 1, got {post:.2} ({context})");
    assert!(
        post < 0.8 * pre,
        "the flip must visibly collapse the differentiation: pre {pre:.2} → post {post:.2} \
         ({context})"
    );
    assert_eq!(stats.total_errors(), 0);

    assert_eq!(frontend.shutdown(Duration::from_secs(30)).expect("drain"), 0);
    Arc::try_unwrap(server).ok().expect("drained").shutdown();
}

/// A flash-crowd schedule built from the piecewise arrival spec runs
/// end to end (shortened), exercising the surge path.
#[test]
fn flashcrowd_surge_runs_clean() {
    let mut scenario = Scenario::by_name("flashcrowd").expect("stock scenario");
    scenario.duration = Duration::from_millis(2400);
    scenario.warmup = Duration::from_millis(400);
    scenario.connections = 16;
    if let LoadMode::Open { arrival } = &mut scenario.mode {
        *arrival = ArrivalSpec::FlashCrowd {
            base_rate: 150.0,
            peak_rate: 450.0,
            from_frac: 1.0 / 3.0,
            to_frac: 2.0 / 3.0,
        };
    }
    let out = harness::run_scenario(&scenario).expect("harness run");
    assert_eq!(out.report.total_errors, 0);
    assert!(out.report.total_sent > 300, "surge produced {} requests", out.report.total_sent);
}
