//! Measurement: per-class windowed slowdown statistics, overall
//! accumulators, and the final [`SimOutput`] report.
//!
//! The paper measures "the slowdown of a class ... for every thousand
//! time units" after a warm-up period; Figures 5/6 then take percentiles
//! of the *per-window slowdown ratios*. We therefore keep, per class,
//! the exact sequence of window means alongside whole-run accumulators.

use crate::request::CompletedRequest;
use crate::trace::TraceRecord;
use psd_dist::stats::Welford;
use psd_obs::{traces_to_json, ControlTrace};

/// Mean slowdown of one class over one measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window index (0-based over the *measurement* period).
    pub index: u64,
    /// Number of departures in the window.
    pub count: u64,
    /// Mean slowdown of those departures (`None` if no departures).
    pub mean_slowdown: Option<f64>,
    /// Mean queueing delay of those departures.
    pub mean_delay: Option<f64>,
}

/// Whole-run metrics for one class.
#[derive(Debug, Clone)]
pub struct ClassMetrics {
    /// Departures counted (after warm-up).
    pub completed: u64,
    /// Slowdown accumulator over all counted departures.
    pub slowdown: Welford,
    /// Queueing-delay accumulator.
    pub delay: Welford,
    /// Service-duration accumulator (actual time on the task server).
    pub service: Welford,
    /// Per-window mean slowdowns (measurement period only).
    pub windows: Vec<WindowStat>,
    /// Total arrivals seen (including warm-up), for rate sanity checks.
    pub total_arrivals: u64,
}

impl ClassMetrics {
    fn new() -> Self {
        Self {
            completed: 0,
            slowdown: Welford::new(),
            delay: Welford::new(),
            service: Welford::new(),
            windows: Vec::new(),
            total_arrivals: 0,
        }
    }

    /// Mean slowdown over the whole measurement period.
    pub fn mean_slowdown(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.slowdown.mean())
    }

    /// Mean queueing delay over the measurement period.
    pub fn mean_delay(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.delay.mean())
    }
}

/// Collects departures into windows and accumulators.
///
/// Each class keeps its own place on the window grid and moves along it
/// as its own departures pass the boundaries, so the classes may be fed
/// one after the other over a stretch of time as well as interleaved —
/// all that is asked is that a class's departures come in time order.
#[derive(Debug)]
pub struct MetricsCollector {
    warmup: f64,
    window_len: f64,
    per_class: Vec<ClassMetrics>,
    /// Per class: the window it is filling and that window's
    /// accumulators.
    open: Vec<OpenWindow>,
}

#[derive(Debug, Default)]
struct OpenWindow {
    index: u64,
    slowdown: Welford,
    delay: Welford,
}

impl OpenWindow {
    /// Close the window into `windows` and open the next one.
    fn flush(&mut self, windows: &mut Vec<WindowStat>) {
        let count = self.slowdown.count();
        windows.push(WindowStat {
            index: self.index,
            count,
            mean_slowdown: (count > 0).then(|| self.slowdown.mean()),
            mean_delay: (count > 0).then(|| self.delay.mean()),
        });
        *self = Self { index: self.index + 1, ..Self::default() };
    }
}

impl MetricsCollector {
    /// `window_len` is the measurement window (the paper's 1000 time
    /// units); windows are counted from `warmup` onward.
    pub fn new(n_classes: usize, warmup: f64, window_len: f64) -> Self {
        assert!(window_len > 0.0, "window length must be positive");
        Self {
            warmup,
            window_len,
            per_class: (0..n_classes).map(|_| ClassMetrics::new()).collect(),
            open: (0..n_classes).map(|_| OpenWindow::default()).collect(),
        }
    }

    /// Record an arrival (any time, incl. warm-up).
    pub fn on_arrival(&mut self, class: usize) {
        self.per_class[class].total_arrivals += 1;
    }

    /// Record a departure; ignores departures during warm-up.
    pub fn on_departure(&mut self, done: &CompletedRequest) {
        if done.departure < self.warmup {
            return;
        }
        let class = done.request.class;
        let (m, open) = (&mut self.per_class[class], &mut self.open[class]);
        let w = ((done.departure - self.warmup) / self.window_len) as u64;
        while w > open.index {
            open.flush(&mut m.windows);
        }
        let s = done.slowdown();
        let d = done.delay();
        m.completed += 1;
        m.slowdown.push(s);
        m.delay.push(d);
        m.service.push(done.service_duration());
        open.slowdown.push(s);
        open.delay.push(d);
    }

    /// Close every class's windows up to the last one any class reached
    /// — so all `windows` vectors have the same length and indices
    /// `0..len` — and emit the report.
    pub fn finish(mut self, end_time: f64, rate_history: Vec<(f64, Vec<f64>)>) -> SimOutput {
        let last = self.open.iter().map(|o| o.index).max().unwrap_or(0);
        for (m, open) in self.per_class.iter_mut().zip(&mut self.open) {
            while open.index <= last {
                open.flush(&mut m.windows);
            }
        }
        SimOutput {
            per_class: self.per_class,
            end_time,
            rate_history,
            trace: Vec::new(),
            busy_time: Vec::new(),
            control_trace: Vec::new(),
        }
    }
}

/// Final simulation report.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Per-class metrics, indexed by class.
    pub per_class: Vec<ClassMetrics>,
    /// Simulation end time.
    pub end_time: f64,
    /// `(time, rates)` at every (re-)allocation, for controller audits.
    pub rate_history: Vec<(f64, Vec<f64>)>,
    /// Per-request trace records (populated when the config requested a
    /// trace range; see [`crate::SimConfig::trace_range`]).
    pub trace: Vec<TraceRecord>,
    /// Per-class task-server busy time over the whole run (set by the
    /// engine; empty in unit-constructed outputs).
    pub busy_time: Vec<f64>,
    /// The control-decision flight record: one [`ControlTrace`] per
    /// control window (the last [`psd_obs::FLIGHT_CAPACITY`]),
    /// exactly the shape the live server's `GET /trace/control` dumps —
    /// so a live recording replays through the simulator's controller
    /// and diffs (see [`psd_obs::replay`]).
    pub control_trace: Vec<ControlTrace>,
}

impl SimOutput {
    /// Mean slowdown of class `i` over the measurement period.
    pub fn mean_slowdown(&self, class: usize) -> Option<f64> {
        self.per_class[class].mean_slowdown()
    }

    /// The flight record as the same JSON document the live server's
    /// `GET /trace/control` serves — round-trips through
    /// [`psd_obs::parse_traces`] for offline replay.
    pub fn control_trace_json(&self) -> String {
        traces_to_json(&self.control_trace, self.control_trace.len(), {
            self.control_trace.len() as u64
        })
    }

    /// Fraction of the run the class's task server spent busy (whole
    /// run, warm-up included). `None` when busy-time accounting is
    /// absent (unit-constructed outputs).
    pub fn utilization(&self, class: usize) -> Option<f64> {
        let b = *self.busy_time.get(class)?;
        (self.end_time > 0.0).then(|| b / self.end_time)
    }

    /// The system slowdown: departure-weighted mean over classes (the
    /// "achieved system slowdowns" curve of paper Fig. 2).
    pub fn system_slowdown(&self) -> Option<f64> {
        let total: u64 = self.per_class.iter().map(|m| m.completed).sum();
        if total == 0 {
            return None;
        }
        let weighted: f64 = self
            .per_class
            .iter()
            .filter_map(|m| m.mean_slowdown().map(|s| s * m.completed as f64))
            .sum();
        Some(weighted / total as f64)
    }

    /// Ratio of mean slowdowns `class_a / class_b` (paper Figs 9/10).
    pub fn slowdown_ratio(&self, class_a: usize, class_b: usize) -> Option<f64> {
        let a = self.mean_slowdown(class_a)?;
        let b = self.mean_slowdown(class_b)?;
        (b > 0.0).then(|| a / b)
    }

    /// Per-window slowdown ratios `class_a / class_b`, skipping windows
    /// where either class is empty or the denominator is zero (the
    /// sample behind the percentile plots of paper Figs 5/6).
    pub fn window_ratios(&self, class_a: usize, class_b: usize) -> Vec<f64> {
        let wa = &self.per_class[class_a].windows;
        let wb = &self.per_class[class_b].windows;
        wa.iter()
            .zip(wb)
            .filter_map(|(a, b)| match (a.mean_slowdown, b.mean_slowdown) {
                (Some(x), Some(y)) if y > 0.0 => Some(x / y),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn done(class: usize, arrival: f64, start: f64, depart: f64) -> CompletedRequest {
        CompletedRequest {
            request: Request { id: 0, class, size: 1.0, arrival },
            service_start: start,
            departure: depart,
        }
    }

    #[test]
    fn warmup_departures_ignored() {
        let mut m = MetricsCollector::new(1, 100.0, 50.0);
        m.on_departure(&done(0, 0.0, 10.0, 99.0));
        let out = m.finish(200.0, vec![]);
        assert_eq!(out.per_class[0].completed, 0);
        assert!(out.mean_slowdown(0).is_none());
    }

    #[test]
    fn windows_partition_departures() {
        let mut m = MetricsCollector::new(1, 0.0, 10.0);
        // Window 0: slowdowns 1.0 and 3.0; window 2: slowdown 5.0.
        m.on_departure(&done(0, 0.0, 1.0, 2.0)); // W=1, svc=1 => s=1
        m.on_departure(&done(0, 0.0, 6.0, 8.0)); // W=6, svc=2 => s=3
        m.on_departure(&done(0, 20.0, 25.0, 26.0)); // s=5, window 2
        let out = m.finish(30.0, vec![]);
        let w = &out.per_class[0].windows;
        assert_eq!(w[0].count, 2);
        assert_eq!(w[0].mean_slowdown, Some(2.0));
        assert_eq!(w[1].count, 0);
        assert_eq!(w[1].mean_slowdown, None);
        assert_eq!(w[2].mean_slowdown, Some(5.0));
        assert_eq!(out.mean_slowdown(0), Some(3.0));
    }

    #[test]
    fn system_slowdown_weights_by_departures() {
        let mut m = MetricsCollector::new(2, 0.0, 100.0);
        // Class 0: two requests with slowdown 1; class 1: one with 4.
        m.on_departure(&done(0, 0.0, 1.0, 2.0));
        m.on_departure(&done(0, 0.0, 2.0, 4.0)); // W=2 svc=2 s=1
        m.on_departure(&done(1, 0.0, 4.0, 5.0)); // s=4
        let out = m.finish(100.0, vec![]);
        assert_eq!(out.system_slowdown(), Some((1.0 * 2.0 + 4.0) / 3.0));
    }

    #[test]
    fn ratio_helpers() {
        let mut m = MetricsCollector::new(2, 0.0, 10.0);
        m.on_departure(&done(0, 0.0, 1.0, 2.0)); // s=1, win 0
        m.on_departure(&done(1, 0.0, 2.0, 3.0)); // s=2, win 0
        m.on_departure(&done(0, 10.0, 11.0, 12.0)); // s=1, win 1
                                                    // class 1 empty in win 1 -> skipped
        let out = m.finish(20.0, vec![]);
        assert_eq!(out.slowdown_ratio(1, 0), Some(2.0));
        assert_eq!(out.window_ratios(1, 0), vec![2.0]);
    }

    /// The engine feeds the collector one class at a time over each
    /// control window, and a class may stop departing long before the
    /// others: every class still reports the same windows, on a grid
    /// (70) that shares no boundary with the control grid (100).
    #[test]
    fn windows_line_up_when_a_class_falls_silent() {
        use crate::{ArrivalSpec, ClassSpec, SimConfig, Simulation, StaticRates};
        use psd_dist::{Deterministic, ServiceDist};
        let class = |interval| ClassSpec {
            arrival: ArrivalSpec::Deterministic { interval },
            service: ServiceDist::Deterministic(Deterministic::new(0.25).unwrap()),
        };
        let cfg = SimConfig {
            // Class 1 arrives at 400 and 800 only.
            classes: vec![class(2.0), class(400.0)],
            end_time: 1_000.0,
            warmup: 0.0,
            control_period: 100.0,
            metrics_window: Some(70.0),
            ..SimConfig::default()
        };
        let out = Simulation::new(cfg, Box::new(StaticRates::even(2))).run();
        let [busy, quiet] = [&out.per_class[0].windows, &out.per_class[1].windows];
        // Class 0's last departure, at 1000.5, is past the horizon; the
        // one at 998.5 falls in window 14.
        assert_eq!(busy.len(), 15);
        assert_eq!(quiet.len(), 15);
        for w in [busy, quiet] {
            assert!(w.iter().map(|x| x.index).eq(0..15));
        }
        assert!(busy.iter().all(|w| w.count > 0));
        let counted: Vec<u64> = quiet.iter().filter(|w| w.count > 0).map(|w| w.index).collect();
        assert_eq!(counted, [5, 11], "departures at 400.5 and 800.5");
        assert_eq!(quiet[14].mean_slowdown, None);
    }

    /// Fed class by class or interleaved in time order, the collector
    /// reports the same thing.
    #[test]
    fn feeding_order_across_classes_does_not_matter() {
        // (class, arrival, start, departure)
        let departures = [
            (0, 0.0, 1.0, 2.0),
            (1, 0.0, 2.0, 3.0),
            (0, 1.0, 4.0, 9.0),
            (1, 2.0, 8.0, 16.0),
            (0, 5.0, 20.0, 24.0),
            (0, 6.0, 30.0, 31.0),
        ];
        let collect = |by_class: bool| {
            let mut m = MetricsCollector::new(2, 0.0, 7.0);
            let mut feed = departures.to_vec();
            if by_class {
                feed.sort_by_key(|d| d.0);
            }
            for (class, arrival, start, depart) in feed {
                m.on_departure(&done(class, arrival, start, depart));
            }
            m.finish(35.0, vec![])
        };
        let (a, b) = (collect(false), collect(true));
        for class in 0..2 {
            assert_eq!(a.per_class[class].windows, b.per_class[class].windows);
            assert_eq!(a.per_class[class].windows.len(), 5);
            assert_eq!(a.per_class[class].slowdown, b.per_class[class].slowdown);
        }
        assert_eq!(a.window_ratios(1, 0), b.window_ratios(1, 0));
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let m = MetricsCollector::new(2, 0.0, 10.0);
        let out = m.finish(0.0, vec![]);
        assert!(out.system_slowdown().is_none());
        assert!(out.slowdown_ratio(0, 1).is_none());
        assert!(out.window_ratios(0, 1).is_empty());
    }
}
