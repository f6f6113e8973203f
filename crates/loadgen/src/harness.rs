//! End-to-end harness: spawn the real `PsdServer` + HTTP front-end
//! in-process on a loopback socket, run a [`Scenario`] through the
//! generator, drain everything gracefully, and return the
//! [`LoadReport`] — the whole loop the paper only closes in simulation.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use psd_server::{HttpFrontend, PsdServer, ServerStats};

use crate::client;
use crate::generator::{self, Timer};
use crate::report::LoadReport;
use crate::scenario::Scenario;

/// How long the drain may take before we declare handlers stuck.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one scrape GET may take.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(10);

/// Result of one harness run: the client-side report plus the
/// server-side final statistics (useful for cross-checking).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The generator's report.
    pub report: LoadReport,
    /// The server's own final per-class statistics.
    pub server_stats: ServerStats,
}

/// A mid-run observability scrape: the bodies of the server's
/// observability routes, pulled over a fresh connection while the
/// generator is still offering load — so the exposition reflects a
/// server *under traffic*, not a drained one.
#[derive(Debug, Clone, Default)]
pub struct ObsScrape {
    /// `GET /metrics/prometheus` — the text exposition.
    pub prometheus: String,
    /// `GET /healthz` — the liveness document.
    pub healthz: String,
    /// `GET /trace` — recent request spans with stage decomposition.
    pub trace: String,
    /// `GET /trace/control` — the control-decision flight record.
    pub control_trace: String,
}

/// Run `scenario` against a freshly started in-process server; returns
/// after the full graceful drain (front-end, then worker pool).
pub fn run_scenario(scenario: &Scenario) -> io::Result<RunOutput> {
    let (out, _) = run_with(scenario, None)?;
    Ok(out)
}

/// Like [`run_scenario`], but additionally scrape the observability
/// routes at `at_frac` of the run (from a timer thread, as the reconfig
/// trigger does). Fails if the run ends before the scrape
/// instant or any route answers non-200.
pub fn run_scenario_scraped(
    scenario: &Scenario,
    at_frac: f64,
) -> io::Result<(RunOutput, ObsScrape)> {
    assert!((0.0..1.0).contains(&at_frac) && at_frac > 0.0, "scrape fraction in (0,1)");
    let (out, scrape) = run_with(scenario, Some(at_frac))?;
    Ok((out, scrape.expect("scrape requested")))
}

/// Pull one observability route, insisting on a 200.
fn scrape_route(addr: SocketAddr, path: &str) -> io::Result<String> {
    let got = client::get(addr, path, SCRAPE_TIMEOUT)?;
    if got.status != 200 {
        return Err(io::Error::other(format!("GET {path} answered {}", got.status)));
    }
    if got.content_type.is_empty() {
        return Err(io::Error::other(format!("GET {path} carried no Content-Type")));
    }
    Ok(got.body)
}

fn run_with(
    scenario: &Scenario,
    scrape_at: Option<f64>,
) -> io::Result<(RunOutput, Option<ObsScrape>)> {
    scenario.validate().expect("invalid scenario");
    let server = Arc::new(PsdServer::start(scenario.server.clone()));
    let frontend =
        HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), scenario.frontend.clone())?;
    let addr = frontend.addr();

    let scraper = scrape_at.map(|frac| {
        Timer::start(scenario.duration.mul_f64(frac), move || {
            Ok(ObsScrape {
                prometheus: scrape_route(addr, "/metrics/prometheus")?,
                healthz: scrape_route(addr, "/healthz")?,
                trace: scrape_route(addr, "/trace?n=64")?,
                control_trace: scrape_route(addr, "/trace/control")?,
            })
        })
    });

    let stats = generator::run(addr, scenario);
    let scrape_outcome = scraper.map(Timer::finish);
    // The run's own failure is the primary diagnosis.
    let stats = stats?;
    let scrape = match scrape_outcome {
        None => None,
        Some(outcome) => Some(outcome?.ok_or_else(|| {
            io::Error::other(
                "run finished before the scrape instant — no mid-run observability sample",
            )
        })?),
    };

    let leftover = frontend.shutdown(DRAIN_TIMEOUT)?;
    if leftover > 0 {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{leftover} connection handler(s) did not drain"),
        ));
    }
    let server_stats = Arc::try_unwrap(server)
        .map_err(|_| io::Error::other("drained front-end still holds the server"))?
        .shutdown();

    Ok((RunOutput { report: LoadReport::from_stats(scenario, &stats), server_stats }, scrape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LoadMode;

    /// A fast steady smoke: a second of traffic end to end, everything
    /// drains, report is populated. (The slowdown-accuracy assertions
    /// live in the longer `tests/loadgen_e2e.rs` suite.)
    #[test]
    fn short_steady_run_end_to_end() {
        let mut s = Scenario::by_name("steady").unwrap();
        s.duration = Duration::from_millis(1200);
        s.warmup = Duration::from_millis(300);
        s.connections = 8;
        if let LoadMode::Open { arrival } = &mut s.mode {
            *arrival = crate::scenario::ArrivalSpec::Steady { rate: 150.0 };
        }
        let out = run_scenario(&s).expect("harness run");
        let r = &out.report;
        assert!(r.total_sent > 50, "sent {}", r.total_sent);
        assert_eq!(r.total_errors, 0, "{}", r.to_markdown());
        assert_eq!(r.dead_workers, 0);
        assert!(r.classes.iter().all(|c| c.measured > 0), "{}", r.to_markdown());
        // The server executed what the generator sent.
        let server_total: u64 = out.server_stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(server_total, r.total_sent, "server completed everything sent");
    }

    /// The scrape thread samples all four observability routes while
    /// the generator is still running, and the bodies parse with the
    /// same `psd-obs` readers the offline tooling uses.
    #[test]
    fn scraped_run_yields_parseable_observability() {
        let mut s = Scenario::by_name("steady").unwrap();
        s.duration = Duration::from_millis(1500);
        s.warmup = Duration::from_millis(300);
        s.connections = 8;
        if let LoadMode::Open { arrival } = &mut s.mode {
            *arrival = crate::scenario::ArrivalSpec::Steady { rate: 150.0 };
        }
        s.server.control_window = Duration::from_millis(150);
        let (out, scrape) = run_scenario_scraped(&s, 0.6).expect("scraped run");
        assert_eq!(out.report.total_errors, 0, "{}", out.report.to_markdown());
        let families = psd_obs::parse_prometheus(&scrape.prometheus).expect("prometheus parses");
        assert!(
            families.iter().any(|f| f.name == "psd_requests_completed_total"),
            "completion counter exposed"
        );
        let traces = psd_obs::parse_traces(&scrape.control_trace).expect("flight record parses");
        assert!(!traces.is_empty(), "control windows elapsed before the scrape");
        assert!(scrape.healthz.contains("\"status\":\"ok\""), "{}", scrape.healthz);
        assert!(scrape.trace.contains("\"spans\""), "{}", scrape.trace);
    }

    #[test]
    fn short_closed_run_end_to_end() {
        let mut s = Scenario::by_name("closed").unwrap();
        s.duration = Duration::from_millis(1000);
        s.warmup = Duration::from_millis(200);
        s.mode = LoadMode::Closed { sessions: 6, mean_think: Duration::from_millis(5) };
        let out = run_scenario(&s).expect("harness run");
        assert_eq!(out.report.total_errors, 0);
        assert!(out.report.total_sent > 20, "sent {}", out.report.total_sent);
    }
}
