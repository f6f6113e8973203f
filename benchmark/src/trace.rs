//! The traced pass's span recorder. Spans are taken in the benchmark's
//! own code, around each call the generator makes into a layer; they
//! stay in memory (one pre-sized buffer) and are
//! written out once, after the pass, as JSON lines.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use psd_obs::json::{push_json_f64, push_json_str};

/// Spans one thread keeps; later ones are counted as dropped.
const MAX_SPANS_PER_THREAD: usize = 50_000;

/// Bits of a span id that number the span within its thread.
const SEQ_BITS: u32 = 26;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `client.write`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a request's root.
    pub parent: u32,
    /// Id shared by every span of one request.
    pub request: u32,
    /// Start, nanoseconds after the pass's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the pass's origin.
    pub end_ns: u64,
}

/// One generator thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    seq: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A buffer for generator thread `thread`, timing against `origin`.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self { origin, thread, seq: 0, spans: Vec::with_capacity(MAX_SPANS_PER_THREAD), dropped: 0 }
    }

    /// Record a span and return its id, for use as a `parent` or
    /// `request`. A `request` of 0 makes the span its own request root.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u32,
    ) -> u32 {
        self.seq += 1;
        let id = (self.thread << SEQ_BITS) | (self.seq & ((1 << SEQ_BITS) - 1));
        if self.spans.len() == MAX_SPANS_PER_THREAD {
            self.dropped += 1;
            return id;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            request: if request == 0 { id } else { request },
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Render a header line, every span, and the pass's counters as JSON
/// lines.
pub fn render_jsonl(
    workload: &str,
    seed: u64,
    tracers: &[Tracer],
    counters: &[(&str, f64, &str)],
) -> String {
    let spans: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    let mut out = String::with_capacity(64 + spans * 112);
    out.push_str("{\"workload\":");
    push_json_str(&mut out, workload);
    let _ = writeln!(out, ",\"seed\":{seed},\"spans\":{spans},\"dropped\":{dropped}}}");
    for s in tracers.iter().flat_map(|t| &t.spans) {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        );
    }
    for (name, value, unit) in counters {
        out.push_str("{\"counter\":");
        push_json_str(&mut out, name);
        out.push_str(",\"value\":");
        push_json_f64(&mut out, *value);
        out.push_str(",\"unit\":");
        push_json_str(&mut out, unit);
        out.push_str("}\n");
    }
    out
}

/// Write `text` to `dir/trace-<workload>.jsonl`, creating `dir`.
pub fn write_trace(dir: &Path, workload: &str, text: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("trace-{workload}.jsonl")), text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_obs::JsonValue;
    use std::time::Duration;

    #[test]
    fn spans_carry_parent_and_request_and_render_as_json_lines() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1);
        let at = |us: u64| origin + Duration::from_micros(us);
        let root = t.span("request", at(10), at(90), 0, 0);
        let child = t.span("client.write", at(12), at(20), root, root);
        assert_ne!(root, child);
        assert_eq!(root >> SEQ_BITS, 1, "thread index in the high bits");

        let text = render_jsonl("w", 5, &[t], &[("polling.syscalls_per_req", 8.0, "count")]);
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("spans").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(lines[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(lines[1].get("request").and_then(JsonValue::as_u64), Some(root as u64));
        assert_eq!(lines[2].get("span").and_then(JsonValue::as_str), Some("client.write"));
        assert_eq!(lines[2].get("parent").and_then(JsonValue::as_u64), Some(root as u64));
        assert_eq!(lines[2].get("start_ns").and_then(JsonValue::as_u64), Some(12_000));
        assert_eq!(lines[2].get("end_ns").and_then(JsonValue::as_u64), Some(20_000));
        assert_eq!(lines[3].get("value").and_then(JsonValue::as_f64), Some(8.0));
    }
}
