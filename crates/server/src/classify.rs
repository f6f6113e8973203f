//! Request classification for the HTTP-lite front-end.
//!
//! Real servers classify by URL prefix, client identity or an explicit
//! header. We support:
//!
//! * an explicit `X-Class: <n>` header,
//! * a `/classN/...` path prefix,
//! * tier-name prefixes (`/premium`, `/standard`, `/basic` → 0, 1, 2),
//! * a default class for everything else,
//!
//! plus the **admin route family** ([`admin_route`]): `/config`,
//! `/metrics/prometheus`, `/healthz`, `/trace` and `/trace/control` are
//! control-plane endpoints served by the front-end itself (never
//! classified or queued) — see `crate::admin`.

/// Result of classifying a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Class index, unbounded: the front end clamps it to the server's
    /// last class.
    pub class: usize,
}

/// The control-plane endpoints both front-end engines serve directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminRoute {
    /// `GET /metrics/prometheus` — the control plane, the per-class
    /// statistics and the engine internals in Prometheus text
    /// exposition format 0.0.4.
    MetricsProm,
    /// `GET /config` (read) / `PUT /config?…` (hot reconfiguration).
    Config,
    /// `GET /healthz` — liveness: engine, shards, uptime, epochs.
    Healthz,
    /// `GET /trace` — recent request spans with the per-stage slowdown
    /// decomposition (queueing vs stretch vs service vs write-back).
    Trace,
    /// `GET /trace/control` — the control-decision flight recorder.
    TraceControl,
}

/// Recognize an admin path. Admin routes win over classification: a
/// request matching one is answered by the front-end, not executed.
pub fn admin_route(path: &str) -> Option<AdminRoute> {
    match path {
        "/metrics/prometheus" => Some(AdminRoute::MetricsProm),
        "/config" => Some(AdminRoute::Config),
        "/healthz" => Some(AdminRoute::Healthz),
        "/trace" => Some(AdminRoute::Trace),
        "/trace/control" => Some(AdminRoute::TraceControl),
        _ => None,
    }
}

/// Classify from a request path (no header).
pub fn classify_path(path: &str, default_class: usize) -> Classification {
    let trimmed = path.trim_start_matches('/');
    let first = trimmed.split('/').next().unwrap_or("");
    if let Some(rest) = first.strip_prefix("class") {
        if let Ok(n) = rest.parse::<usize>() {
            return Classification { class: n };
        }
    }
    let class = match first {
        "premium" | "gold" => 0,
        "standard" | "silver" => 1,
        "basic" | "bronze" => 2,
        _ => default_class,
    };
    Classification { class }
}

/// Classify from header + path: the `X-Class` header wins when present
/// and parseable.
pub fn classify(path: &str, x_class_header: Option<&str>, default_class: usize) -> Classification {
    if let Some(h) = x_class_header {
        if let Ok(n) = h.trim().parse::<usize>() {
            return Classification { class: n };
        }
    }
    classify_path(path, default_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_prefix() {
        assert_eq!(classify_path("/class0/index.html", 9).class, 0);
        assert_eq!(classify_path("/class2/a/b", 9).class, 2);
        assert_eq!(classify_path("/class17", 9).class, 17);
    }

    #[test]
    fn tier_names() {
        assert_eq!(classify_path("/premium/cart", 9).class, 0);
        assert_eq!(classify_path("/gold", 9).class, 0);
        assert_eq!(classify_path("/standard/x", 9).class, 1);
        assert_eq!(classify_path("/basic", 9).class, 2);
    }

    #[test]
    fn default_fallback() {
        assert_eq!(classify_path("/images/logo.png", 3).class, 3);
        assert_eq!(classify_path("/", 1).class, 1);
        assert_eq!(classify_path("/classless", 4).class, 4, "non-numeric suffix");
    }

    #[test]
    fn admin_routes_recognized() {
        assert_eq!(admin_route("/metrics"), None, "an ordinary request");
        assert_eq!(admin_route("/metrics/prometheus"), Some(AdminRoute::MetricsProm));
        assert_eq!(admin_route("/config"), Some(AdminRoute::Config));
        assert_eq!(admin_route("/healthz"), Some(AdminRoute::Healthz));
        assert_eq!(admin_route("/trace"), Some(AdminRoute::Trace));
        assert_eq!(admin_route("/trace/control"), Some(AdminRoute::TraceControl));
        assert_eq!(admin_route("/metrics/x"), None, "exact paths only");
        assert_eq!(admin_route("/trace/x"), None);
        assert_eq!(admin_route("/class0/metrics"), None);
    }

    #[test]
    fn header_wins() {
        assert_eq!(classify("/basic", Some("0"), 9).class, 0);
        assert_eq!(classify("/premium", Some(" 2 "), 9).class, 2);
        assert_eq!(classify("/premium", Some("junk"), 9).class, 0, "bad header ignored");
        assert_eq!(classify("/other", None, 5).class, 5);
    }
}
