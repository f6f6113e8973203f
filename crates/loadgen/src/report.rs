//! The load-test report: per-class throughput, coordinated-omission
//! corrected latency percentiles, achieved slowdown ratios vs. the
//! configured δ's — serializable to JSON (the `BENCH_loadgen.json`
//! schema CI tracks) and renderable as markdown.

use std::fmt::Write as _;

use psd_obs::json::{pretty, push_json_f64, push_json_f64_array, push_json_key, push_json_str};
use psd_obs::LogHistogram;

use crate::generator::GenStats;
use crate::scenario::{LoadMode, Scenario};

/// Latency summary in milliseconds.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 90th percentile (ms).
    pub p90_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Largest observed (ms).
    pub max_ms: f64,
}

/// One class's slice of the report.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class index (0 = highest class).
    pub class: usize,
    /// Configured differentiation parameter δ.
    pub delta: f64,
    /// Requests attempted, whole run.
    pub sent: u64,
    /// 2xx responses, whole run.
    pub ok: u64,
    /// Non-2xx responses plus transport failures, whole run.
    pub errors: u64,
    /// Requests shed by admission control (503 + `X-Shed`), whole run —
    /// deliberate overload control, not failures.
    pub shed: u64,
    /// 2xx responses inside the measurement window.
    pub measured: u64,
    /// Measured-window throughput (req/s).
    pub throughput_rps: f64,
    /// Latency summary over the measurement window.
    pub latency: LatencySummary,
    /// Mean server-reported slowdown over the measurement window.
    pub mean_slowdown: f64,
    /// Achieved `E[S_class]/E[S_0]`, when both classes have data.
    pub slowdown_ratio_vs_class0: Option<f64>,
    /// Target `δ_class/δ_0`, from the δ's in force at the *end* of the
    /// run (the reconfigured values, when the scenario flips them).
    pub target_ratio_vs_class0: f64,
    /// `|achieved/target − 1|`, when achieved exists. `None` for
    /// reconfig runs: the whole-run mean blends both δ regimes, so no
    /// single target applies — the server's per-window slowdowns
    /// before and after the flip are in its `GET /trace/control`.
    pub ratio_deviation: Option<f64>,
}

/// The complete report of one scenario run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Scenario name.
    pub scenario: String,
    /// Front-end engine under test (`"threads"`, `"reactor"` or
    /// `"uring"`), so `BENCH_loadgen.json` / `BENCH_reactor.json` are
    /// self-describing and the perf trajectory can track the engines
    /// separately.
    pub engine: String,
    /// Reactor event-loop shards the run used (recorded even for the
    /// threaded engine, which ignores it, so the JSON schema is
    /// uniform).
    pub shards: usize,
    /// Controller family driving the server's monitor (`"open"` or
    /// `"feedback"`).
    pub controller: String,
    /// Admission cap the server ran with (`null` = no admission
    /// control).
    pub admission_cap: Option<f64>,
    /// `"open"` or `"closed"`.
    pub mode: String,
    /// Total run length in seconds (including warmup).
    pub duration_s: f64,
    /// Warmup excluded from the measured statistics.
    pub warmup_s: f64,
    /// Connection-pool size (open) or session population (closed).
    pub connections: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Configured (initial) δ's.
    pub deltas: Vec<f64>,
    /// When the scenario hot-swaps δ's mid-run: the flip instant as a
    /// fraction of the duration (`null` otherwise).
    pub reconfig_at_frac: Option<f64>,
    /// The replacement δ's of a reconfig run (`null` otherwise) — the
    /// values the per-class ratio targets are computed against.
    pub reconfig_deltas: Option<Vec<f64>>,
    /// Requests attempted, whole run, all classes.
    pub total_sent: u64,
    /// Errors, whole run, all classes.
    pub total_errors: u64,
    /// Requests shed by admission control, whole run, all classes.
    pub total_shed: u64,
    /// Connection workers that aborted on transport failures.
    pub dead_workers: usize,
    /// Aggregate measured-window throughput (req/s).
    pub throughput_rps: f64,
    /// Per-class detail.
    pub classes: Vec<ClassReport>,
}

/// Append `v` as a JSON number, or `null` when absent.
fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_json_f64(out, v),
        None => out.push_str("null"),
    }
}

fn quantile_ms(h: &LogHistogram, q: f64) -> f64 {
    h.value_at_quantile(q).unwrap_or(0) as f64 / 1_000.0
}

impl LoadReport {
    /// Assemble the report from the generator's raw counters.
    pub fn from_stats(scenario: &Scenario, stats: &GenStats) -> Self {
        let mode = match scenario.mode {
            LoadMode::Open { .. } => "open",
            LoadMode::Closed { .. } => "closed",
        };
        let connections = match scenario.mode {
            LoadMode::Closed { sessions, .. } => sessions,
            LoadMode::Open { .. } => scenario.connections,
        };
        let base_slowdown = stats.classes.first().map(|c| c.slowdown.mean()).unwrap_or(0.0);
        // Ratio targets come from the δ's in force at the *end* of the
        // run; a reconfig run's whole-run achieved ratio blends both
        // regimes, so its per-class `ratio_deviation` is suppressed
        // (judging a blend against either target would be
        // meaningless).
        let target_deltas: &[f64] = match &scenario.reconfig {
            Some(r) => &r.deltas,
            None => &scenario.server.deltas,
        };
        let base_delta = target_deltas.first().copied().unwrap_or(1.0);
        let measured_s = stats.measured_s.max(1e-9);
        let classes: Vec<ClassReport> = stats
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let h = &c.latency_us;
                let achieved = (i > 0 && c.slowdown.count() > 0 && base_slowdown > 0.0)
                    .then(|| c.slowdown.mean() / base_slowdown);
                let target = target_deltas[i] / base_delta;
                ClassReport {
                    class: i,
                    delta: scenario.server.deltas[i],
                    sent: c.sent,
                    ok: c.ok,
                    errors: c.errors,
                    shed: c.shed,
                    measured: h.count(),
                    throughput_rps: h.count() as f64 / measured_s,
                    latency: LatencySummary {
                        mean_ms: h.mean() / 1_000.0,
                        p50_ms: quantile_ms(h, 0.50),
                        p90_ms: quantile_ms(h, 0.90),
                        p99_ms: quantile_ms(h, 0.99),
                        p999_ms: quantile_ms(h, 0.999),
                        max_ms: h.max() as f64 / 1_000.0,
                    },
                    mean_slowdown: c.slowdown.mean(),
                    slowdown_ratio_vs_class0: achieved,
                    target_ratio_vs_class0: target,
                    ratio_deviation: if scenario.reconfig.is_some() {
                        None
                    } else {
                        achieved.map(|a| (a / target - 1.0).abs())
                    },
                }
            })
            .collect();
        let total_measured: u64 = classes.iter().map(|c| c.measured).sum();
        LoadReport {
            scenario: scenario.name.clone(),
            engine: scenario.frontend.engine.as_str().to_string(),
            shards: scenario.frontend.shards,
            controller: scenario.server.controller.as_str().to_string(),
            admission_cap: scenario.server.admission_cap,
            mode: mode.to_string(),
            duration_s: scenario.duration.as_secs_f64(),
            warmup_s: scenario.warmup.as_secs_f64(),
            connections,
            seed: scenario.seed,
            deltas: scenario.server.deltas.clone(),
            reconfig_at_frac: scenario.reconfig.as_ref().map(|r| r.at_frac),
            reconfig_deltas: scenario.reconfig.as_ref().map(|r| r.deltas.clone()),
            total_sent: stats.total_sent(),
            total_errors: stats.total_errors(),
            total_shed: classes.iter().map(|c| c.shed).sum(),
            dead_workers: stats.dead_workers,
            throughput_rps: total_measured as f64 / measured_s,
            classes,
        }
    }

    /// Largest per-class `ratio_deviation` (0.0 when no class pair has
    /// data — callers should also check `classes` counts).
    pub fn max_ratio_deviation(&self) -> f64 {
        self.classes.iter().filter_map(|c| c.ratio_deviation).fold(0.0, f64::max)
    }

    /// CI gate: errors, dead workers, empty classes, a shed highest
    /// class (admission must protect class 0 before touching anything
    /// else), or a slowdown ratio off target by more than
    /// `max_deviation` fail the run. Shed low-class requests do *not*
    /// fail the gate — they are the admission controller doing its job.
    pub fn check(&self, max_deviation: f64) -> Result<(), String> {
        if self.total_errors > 0 {
            return Err(format!("{} non-2xx/transport errors", self.total_errors));
        }
        if self.dead_workers > 0 {
            return Err(format!("{} connection worker(s) died", self.dead_workers));
        }
        if self.classes.len() > 1 && self.classes[0].shed > 0 {
            return Err(format!(
                "admission shed {} highest-class request(s) — lower classes must shed first",
                self.classes[0].shed
            ));
        }
        if let Some(c) = self.classes.iter().find(|c| c.measured == 0) {
            return Err(format!("class {} measured no responses", c.class));
        }
        let dev = self.max_ratio_deviation();
        if dev > max_deviation {
            return Err(format!(
                "slowdown ratio deviates {:.0}% from the δ targets (limit {:.0}%)",
                dev * 100.0,
                max_deviation * 100.0
            ));
        }
        Ok(())
    }

    /// Indented JSON (the `BENCH_loadgen.json` schema).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        push_json_str(push_json_key(&mut o, "scenario"), &self.scenario);
        push_json_str(push_json_key(&mut o, "engine"), &self.engine);
        let _ = write!(push_json_key(&mut o, "shards"), "{}", self.shards);
        push_json_str(push_json_key(&mut o, "controller"), &self.controller);
        push_opt_f64(push_json_key(&mut o, "admission_cap"), self.admission_cap);
        push_json_str(push_json_key(&mut o, "mode"), &self.mode);
        push_json_f64(push_json_key(&mut o, "duration_s"), self.duration_s);
        push_json_f64(push_json_key(&mut o, "warmup_s"), self.warmup_s);
        let _ = write!(push_json_key(&mut o, "connections"), "{}", self.connections);
        let _ = write!(push_json_key(&mut o, "seed"), "{}", self.seed);
        push_json_f64_array(push_json_key(&mut o, "deltas"), &self.deltas);
        push_opt_f64(push_json_key(&mut o, "reconfig_at_frac"), self.reconfig_at_frac);
        match &self.reconfig_deltas {
            Some(d) => push_json_f64_array(push_json_key(&mut o, "reconfig_deltas"), d),
            None => push_json_key(&mut o, "reconfig_deltas").push_str("null"),
        }
        let _ = write!(
            o,
            ",\"total_sent\":{},\"total_errors\":{},\"total_shed\":{},\"dead_workers\":{}",
            self.total_sent, self.total_errors, self.total_shed, self.dead_workers
        );
        push_json_f64(push_json_key(&mut o, "throughput_rps"), self.throughput_rps);
        push_json_key(&mut o, "classes").push('[');
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"class\":{},\"delta\":", c.class);
            push_json_f64(&mut o, c.delta);
            let _ = write!(
                o,
                ",\"sent\":{},\"ok\":{},\"errors\":{},\"shed\":{},\"measured\":{}",
                c.sent, c.ok, c.errors, c.shed, c.measured
            );
            push_json_f64(push_json_key(&mut o, "throughput_rps"), c.throughput_rps);
            let l = &c.latency;
            push_json_key(&mut o, "latency").push('{');
            for (key, v) in [
                ("mean_ms", l.mean_ms),
                ("p50_ms", l.p50_ms),
                ("p90_ms", l.p90_ms),
                ("p99_ms", l.p99_ms),
                ("p999_ms", l.p999_ms),
                ("max_ms", l.max_ms),
            ] {
                push_json_f64(push_json_key(&mut o, key), v);
            }
            o.push('}');
            push_json_f64(push_json_key(&mut o, "mean_slowdown"), c.mean_slowdown);
            push_opt_f64(
                push_json_key(&mut o, "slowdown_ratio_vs_class0"),
                c.slowdown_ratio_vs_class0,
            );
            push_json_f64(
                push_json_key(&mut o, "target_ratio_vs_class0"),
                c.target_ratio_vs_class0,
            );
            push_opt_f64(push_json_key(&mut o, "ratio_deviation"), c.ratio_deviation);
            o.push('}');
        }
        o.push_str("]}");
        pretty(&o)
    }

    /// Human-readable markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let engine = match self.engine.as_str() {
            "reactor" => format!("reactor engine ({} shard(s))", self.shards),
            other => format!("{other} engine"),
        };
        let cap = self
            .admission_cap
            .map(|c| format!("admission cap {c:.2}"))
            .unwrap_or_else(|| "no admission cap".into());
        out.push_str(&format!(
            "## Load report — `{}` ({}, {} loop)\n\n\
             {:.1}s run ({:.1}s warmup), {} connections, seed {}, δ = {:?}\n\n\
             control: `{}` controller, {cap}\n\n\
             total: {} sent, {} errors, {} shed, {:.0} req/s measured\n\n",
            self.scenario,
            engine,
            self.mode,
            self.duration_s,
            self.warmup_s,
            self.connections,
            self.seed,
            self.deltas,
            self.controller,
            self.total_sent,
            self.total_errors,
            self.total_shed,
            self.throughput_rps,
        ));
        out.push_str(
            "| class | δ | req/s | p50 ms | p99 ms | p99.9 ms | mean slowdown | S ratio | target | dev | shed |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for c in &self.classes {
            out.push_str(&format!(
                "| {} | {} | {:.0} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {:.2} | {} | {} |\n",
                c.class,
                c.delta,
                c.throughput_rps,
                c.latency.p50_ms,
                c.latency.p99_ms,
                c.latency.p999_ms,
                c.mean_slowdown,
                c.slowdown_ratio_vs_class0.map(|r| format!("{r:.2}")).unwrap_or_else(|| "—".into()),
                c.target_ratio_vs_class0,
                c.ratio_deviation
                    .map(|d| format!("{:.0}%", d * 100.0))
                    .unwrap_or_else(|| "—".into()),
                c.shed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ClassCounters;
    use std::time::Duration;

    fn fake_stats() -> (Scenario, GenStats) {
        let mut scenario = Scenario::by_name("steady").unwrap();
        scenario.duration = Duration::from_secs(10);
        scenario.warmup = Duration::from_secs(2);
        let mut c0 = ClassCounters { sent: 100, ok: 100, errors: 0, ..Default::default() };
        let mut c1 = ClassCounters { sent: 100, ok: 99, errors: 1, ..Default::default() };
        for i in 0..100u64 {
            c0.latency_us.record(1_000 + i * 10);
            c0.slowdown.push(1.0);
        }
        for i in 0..99u64 {
            c1.latency_us.record(2_000 + i * 20);
            c1.slowdown.push(2.1);
        }
        (scenario, GenStats { classes: vec![c0, c1], measured_s: 8.0, dead_workers: 0 })
    }

    #[test]
    fn report_computes_ratios_and_throughput() {
        let (scenario, stats) = fake_stats();
        let r = LoadReport::from_stats(&scenario, &stats);
        assert_eq!(r.total_sent, 200);
        assert_eq!(r.total_errors, 1);
        assert_eq!(r.classes[0].slowdown_ratio_vs_class0, None, "class 0 is the base");
        let ratio = r.classes[1].slowdown_ratio_vs_class0.unwrap();
        assert!((ratio - 2.1).abs() < 1e-9);
        assert!((r.classes[1].target_ratio_vs_class0 - 2.0).abs() < 1e-12);
        assert!((r.max_ratio_deviation() - 0.05).abs() < 1e-9);
        assert!((r.classes[0].throughput_rps - 100.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn check_gates_on_errors_and_deviation() {
        let (scenario, stats) = fake_stats();
        let r = LoadReport::from_stats(&scenario, &stats);
        assert!(r.check(0.5).unwrap_err().contains("errors"), "1 error must fail");
        let mut clean = stats.clone();
        clean.classes[1].errors = 0;
        let r = LoadReport::from_stats(&scenario, &clean);
        assert!(r.check(0.5).is_ok());
        assert!(r.check(0.01).unwrap_err().contains("deviates"));
    }

    #[test]
    fn json_roundtrips_key_fields() {
        let (scenario, stats) = fake_stats();
        let json = LoadReport::from_stats(&scenario, &stats).to_json();
        for key in [
            "\"scenario\"",
            "\"engine\"",
            "\"shards\"",
            "\"throughput_rps\"",
            "\"p99_ms\"",
            "\"mean_slowdown\"",
            "\"target_ratio_vs_class0\"",
            "\"classes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The whole document, compared as parsed trees (key order kept):
        // a writer change may respell a number, never move or drop a field.
        let want = psd_obs::JsonValue::parse(GOLDEN_JSON).expect("golden parses");
        assert_eq!(psd_obs::JsonValue::parse(&json).expect("report parses"), want, "{json}");
    }

    const GOLDEN_JSON: &str = r#"{
  "scenario": "steady", "engine": "reactor", "shards": 2, "controller": "open",
  "admission_cap": null, "mode": "open", "duration_s": 10.0, "warmup_s": 2.0,
  "connections": 48, "seed": 42, "deltas": [1.0, 2.0],
  "reconfig_at_frac": null, "reconfig_deltas": null,
  "total_sent": 200, "total_errors": 1, "total_shed": 0, "dead_workers": 0,
  "throughput_rps": 24.875,
  "classes": [
    {
      "class": 0, "delta": 1.0, "sent": 100, "ok": 100, "errors": 0, "shed": 0,
      "measured": 100, "throughput_rps": 12.5,
      "latency": {
        "mean_ms": 1.495, "p50_ms": 1.488, "p90_ms": 1.904,
        "p99_ms": 1.968, "p999_ms": 1.99, "max_ms": 1.99
      },
      "mean_slowdown": 1.0, "slowdown_ratio_vs_class0": null,
      "target_ratio_vs_class0": 1.0, "ratio_deviation": null
    },
    {
      "class": 1, "delta": 2.0, "sent": 100, "ok": 99, "errors": 1, "shed": 0,
      "measured": 99, "throughput_rps": 12.375,
      "latency": {
        "mean_ms": 2.98, "p50_ms": 2.976, "p90_ms": 3.808,
        "p99_ms": 3.936, "p999_ms": 3.936, "max_ms": 3.96
      },
      "mean_slowdown": 2.1, "slowdown_ratio_vs_class0": 2.1,
      "target_ratio_vs_class0": 2.0, "ratio_deviation": 0.050000000000000044
    }
  ]
}"#;

    #[test]
    fn markdown_has_a_row_per_class() {
        let (scenario, stats) = fake_stats();
        let md = LoadReport::from_stats(&scenario, &stats).to_markdown();
        assert!(md.contains("| 0 | 1 |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("Load report"));
    }
}
