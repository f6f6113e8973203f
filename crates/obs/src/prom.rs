//! Prometheus text exposition (format 0.0.4), hand-rolled: `# HELP` /
//! `# TYPE` headers, label escaping, cumulative histogram buckets with
//! `+Inf`, and a small parser for the same subset so tests (and the
//! load generator's scrape check) can round-trip what the server emits.

use crate::hist::HistSnapshot;
use std::fmt::Write as _;

/// The `Content-Type` a scrape response must carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// An append-only builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the `# HELP` and `# TYPE` header pair for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`.
    pub fn help(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Write one sample line `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.buf.push_str(name);
        push_labels(&mut self.buf, labels, None);
        self.buf.push(' ');
        push_value(&mut self.buf, value);
        self.buf.push('\n');
    }

    /// Write a full histogram family member: `_bucket` lines with
    /// cumulative counts and `le` bounds (ending in `+Inf`), then
    /// `_sum` and `_count`. The caller writes the `help` header once
    /// per family.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
        let mut cumulative = 0u64;
        for (i, &c) in snap.counts.iter().enumerate() {
            cumulative += c;
            self.buf.push_str(name);
            self.buf.push_str("_bucket");
            push_labels(&mut self.buf, labels, Some(snap.upper_bound_seconds(i)));
            let _ = writeln!(self.buf, " {cumulative}");
        }
        self.buf.push_str(name);
        self.buf.push_str("_sum");
        push_labels(&mut self.buf, labels, None);
        let _ = writeln!(self.buf, " {}", snap.sum_seconds);
        self.buf.push_str(name);
        self.buf.push_str("_count");
        push_labels(&mut self.buf, labels, None);
        let _ = writeln!(self.buf, " {}", snap.count);
    }

    /// The finished document.
    pub fn into_string(self) -> String {
        self.buf
    }
}

fn push_labels(out: &mut String, labels: &[(&str, &str)], le: Option<f64>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        push_escaped_label(out, v);
        out.push('"');
    }
    if let Some(bound) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        if bound.is_infinite() {
            out.push_str("+Inf");
        } else {
            let _ = write!(out, "{bound}");
        }
        out.push('"');
    }
    out.push('}');
}

fn push_escaped_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn push_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in document order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// Label lookup.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse an exposition document back into samples (comments and blank
/// lines are skipped but `# TYPE` declarations are checked for
/// well-formedness). This consumes exactly the subset [`PromWriter`]
/// emits — enough for golden tests and scrape validation.
pub fn parse_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (name, kind) = (parts.next(), parts.next());
                if name.is_none()
                    || !matches!(kind, Some("counter" | "gauge" | "histogram" | "summary"))
                {
                    return Err(format!("line {}: malformed TYPE declaration", lineno + 1));
                }
            }
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (head, value_text) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}').ok_or_else(|| "unterminated label set".to_string())?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            (name, parts.next().unwrap_or("").trim())
        }
    };
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad value {v:?}"))?,
    };
    let (name, labels) = match head.find('{') {
        None => (head.to_string(), Vec::new()),
        Some(open) => {
            let name = head[..open].to_string();
            let body = &head[open + 1..head.len() - 1];
            (name, parse_labels(body)?)
        }
    };
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    Ok(PromSample { name, labels, value })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let eq =
            body[i..].find('=').map(|o| i + o).ok_or_else(|| "label without '='".to_string())?;
        let key = body[i..eq].trim().to_string();
        if b.get(eq + 1) != Some(&b'"') {
            return Err("label value must be quoted".into());
        }
        let mut value = String::new();
        let mut j = eq + 2;
        loop {
            match b.get(j) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(b'\\') => {
                    match b.get(j + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad label escape".into()),
                    }
                    j += 2;
                }
                Some(_) => {
                    let rest = &body[j..];
                    let c = rest.chars().next().unwrap();
                    value.push(c);
                    j += c.len_utf8();
                }
            }
        }
        labels.push((key, value));
        if b.get(j) == Some(&b',') {
            j += 1;
        }
        i = j;
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn golden_format_help_type_and_samples() {
        let mut w = PromWriter::new();
        w.help("psd_requests_total", "counter", "Completed requests per class.");
        w.sample("psd_requests_total", &[("class", "0")], 41.0);
        w.sample("psd_requests_total", &[("class", "1")], 7.0);
        w.help("psd_rate", "gauge", "Allocated processing rate.");
        w.sample("psd_rate", &[], 0.625);
        let text = w.into_string();
        assert_eq!(
            text,
            "# HELP psd_requests_total Completed requests per class.\n\
             # TYPE psd_requests_total counter\n\
             psd_requests_total{class=\"0\"} 41\n\
             psd_requests_total{class=\"1\"} 7\n\
             # HELP psd_rate Allocated processing rate.\n\
             # TYPE psd_rate gauge\n\
             psd_rate 0.625\n"
        );
    }

    #[test]
    fn label_values_are_escaped_and_round_trip() {
        let mut w = PromWriter::new();
        w.sample("m", &[("path", "a\\b\"c\nd")], 1.0);
        let text = w.into_string();
        assert_eq!(text, "m{path=\"a\\\\b\\\"c\\nd\"} 1\n");
        let parsed = parse_text(&text).expect("parse");
        assert_eq!(parsed[0].label("path"), Some("a\\b\"c\nd"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let h = LogHistogram::new();
        for ns in [800, 1_500, 1_500, 9_000_000] {
            h.observe_ns(ns);
        }
        let mut w = PromWriter::new();
        w.help("psd_latency_seconds", "histogram", "Request latency.");
        w.histogram("psd_latency_seconds", &[("class", "0")], &h.snapshot());
        let text = w.into_string();
        let samples = parse_text(&text).expect("parse");
        let buckets: Vec<&PromSample> =
            samples.iter().filter(|s| s.name == "psd_latency_seconds_bucket").collect();
        assert_eq!(buckets.len(), crate::hist::HIST_BUCKETS);
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative");
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
        assert_eq!(buckets.last().unwrap().value, 4.0);
        let count = samples.iter().find(|s| s.name == "psd_latency_seconds_count").unwrap();
        assert_eq!(count.value, 4.0);
        let sum = samples.iter().find(|s| s.name == "psd_latency_seconds_sum").unwrap();
        assert!((sum.value - (800.0 + 1_500.0 * 2.0 + 9_000_000.0) * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn histogram_text_is_pinned_byte_for_byte() {
        // 0 ns, 999 ns, `u64::MAX / 2`, and every power-of-two µs edge
        // −1/0/+1 µs up to 2^30 µs.
        let h = LogHistogram::new();
        for ns in [0, 999, u64::MAX / 2] {
            h.observe_ns(ns);
        }
        for edge in (0..=30).map(|b| 1u64 << b) {
            for us in [edge - 1, edge, edge + 1] {
                h.observe_ns(us * 1_000);
            }
        }
        let mut w = PromWriter::new();
        w.histogram("psd_request_duration_seconds", &[("class", "1")], &h.snapshot());
        assert_eq!(
            w.into_string(),
            "psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000001\"} 3\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000002\"} 5\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000004\"} 9\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000008\"} 12\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000016\"} 15\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000032\"} 18\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000064\"} 21\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000128\"} 24\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000256\"} 27\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.000512\"} 30\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.001024\"} 33\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.002048\"} 36\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.004096\"} 39\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.008192\"} 42\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.016384\"} 45\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.032768\"} 48\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.065536\"} 51\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.131072\"} 54\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.262144\"} 57\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"0.524288\"} 60\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"1.048576\"} 63\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"2.097152\"} 66\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"4.194304\"} 69\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"8.388608\"} 72\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"16.777216\"} 75\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"33.554432\"} 78\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"67.108864\"} 81\n\
             psd_request_duration_seconds_bucket{class=\"1\",le=\"+Inf\"} 96\n\
             psd_request_duration_seconds_sum{class=\"1\"} 9223378479.305717\n\
             psd_request_duration_seconds_count{class=\"1\"} 96\n"
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("name{l=\"v\" 3").is_err());
        assert!(parse_text("name{l=v} 3").is_err());
        assert!(parse_text("name oops").is_err());
        assert!(parse_text("# TYPE name sideways").is_err());
    }
}
