//! The shipped binary, spawned for real: `psd_httpd` with no scheduler
//! or engine flags serves one request per class through the
//! rate-partition task servers, drains at `--duration-s` and exits 0
//! with every class's completion counted; its usage text names exactly
//! the flags the README lists. (Everything else in CI that runs the
//! binary passes `--probe-uring`, which returns before a server exists.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

/// Run the binary for 2 s with `extra` flags, send one request per
/// class (the default δ's are 1,2,4: three classes) without `?cost=`,
/// and check each reply's body, the exit status and the final per-class
/// statistics.
fn serve_every_class(extra: &[&str], banner_says: &str, body_says: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psd_httpd"))
        .args(["--addr", "127.0.0.1:0", "--duration-s", "2"])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn psd_httpd");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));

    // "psd_httpd listening on 127.0.0.1:PORT — threads engine …"
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .strip_prefix("psd_httpd listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listen address in {banner:?}"));
    assert!(banner.contains(banner_says), "{banner}");

    for class in 0..3 {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET /class{class}/x HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "class {class}: {resp}");
        assert!(resp.contains(&format!("X-Class: {class}")), "class {class}: {resp}");
        assert!(resp.contains(body_says), "class {class}: {resp}");
    }

    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("read final stats");
    let status = child.wait().expect("wait");
    assert!(status.success(), "exit {status}: {rest}");
    for class in 0..3 {
        let line = rest
            .lines()
            .find(|l| l.starts_with(&format!("class {class}:")))
            .unwrap_or_else(|| panic!("no final stats for class {class}: {rest}"));
        let completed: u64 = line
            .split("completed=")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparsable stats line {line:?}"));
        assert!(completed >= 1, "{line}");
    }
}

#[test]
fn default_flags_serve_every_class_and_exit_clean() {
    serve_every_class(&[], "rate partition (sleep)", " cost=1.000 ");
}

/// A request without `?cost=` costs the server's mean cost, which
/// `--default-cost` sets.
#[test]
fn default_cost_prices_a_request_without_cost() {
    serve_every_class(&["--default-cost", "2.5"], "rate partition (sleep)", " cost=2.500 ");
}

/// The usage text `--help` prints.
fn usage() -> String {
    let help = Command::new(env!("CARGO_BIN_EXE_psd_httpd")).arg("--help").output();
    let help = help.expect("run --help");
    assert!(help.status.success());
    String::from_utf8(help.stdout).expect("UTF-8 usage")
}

/// Every `--flag` named in `text`, sorted and deduplicated.
fn flags(text: &str) -> Vec<&str> {
    let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
    let mut found: Vec<&str> = words.filter(|w| w.starts_with("--") && w.len() > 2).collect();
    found.sort_unstable();
    found.dedup();
    found
}

/// The deleted worker-pool and spinning-execution knobs are gone from
/// the usage text and refused on the command line.
#[test]
fn workers_flag_is_gone() {
    let usage = usage();
    for gone in ["--workers", "--spin"] {
        assert!(!usage.contains(gone), "{gone}: {usage}");
        let refused = Command::new(env!("CARGO_BIN_EXE_psd_httpd")).arg(gone).output();
        let refused = refused.expect("run psd_httpd");
        assert_eq!(refused.status.code(), Some(2), "{gone}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains(&format!("unknown argument: {gone}")), "{gone}: {stderr}");
    }
}

/// The README's "`psd_httpd --help` lists every flag (…)" names exactly
/// the flags `--help` prints, so a flag added or deleted in one and not
/// the other fails here.
#[test]
fn readme_flag_list_matches_help() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("read README.md");
    let marker = "`psd_httpd --help` lists every flag (";
    let start = readme.find(marker).expect("the README's flag list") + marker.len();
    let end = start + readme[start..].find(')').expect("the flag list's closing parenthesis");
    let usage = usage();
    assert_eq!(flags(&readme[start..end]), flags(&usage), "README vs --help: {usage}");
}

/// Every path in the README's admin-route table is an admin route, and
/// every admin route is in the table.
#[test]
fn readme_admin_table_matches_admin_route() {
    use psd_server::{admin_route, AdminRoute};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("read README.md");
    let start = readme.find("### Admin API").expect("the README's admin section");
    let listed: Vec<AdminRoute> = readme[start..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.strip_prefix("| `")?.split_once('`').map(|(path, _)| path))
        .map(|path| admin_route(path).unwrap_or_else(|| panic!("README lists {path}")))
        .collect();
    // Exhaustive: a new variant fails to compile here until it is listed.
    let every = |route| match route {
        AdminRoute::MetricsProm
        | AdminRoute::Config
        | AdminRoute::Healthz
        | AdminRoute::Trace
        | AdminRoute::TraceControl => route,
    };
    for route in [
        AdminRoute::MetricsProm,
        AdminRoute::Config,
        AdminRoute::Healthz,
        AdminRoute::Trace,
        AdminRoute::TraceControl,
    ]
    .map(every)
    {
        assert!(listed.contains(&route), "{route:?} is not in the README's admin table");
    }
}

/// Out-of-range values are refused with exit 2 and an `error:` line
/// before a server exists, not by a panic inside it. The first eight are
/// the server flags `psd_loadtest` refuses alike; a `--duration-s` no
/// `Duration` holds is refused before the server binds.
#[test]
fn out_of_range_flags_exit_2_with_an_error() {
    let bin = env!("CARGO_BIN_EXE_psd_httpd");
    for args in [
        &["--shards", "0"][..],
        &["--gain", "-1"],
        &["--gain", "nan"],
        &["--admission-cap", "1"],
        &["--engine", "fast"],
        &["--controller", "closed"],
        &["--work-unit-us", "0"],
        &["--deltas", "0,1"],
        &["--deltas", "1,-2"],
        &["--default-cost", "0"],
        &["--default-cost", "nan"],
        &["--addr", "127.0.0.1:0", "--duration-s", "inf"],
        &["--addr", "127.0.0.1:0", "--duration-s", "1e300"],
    ] {
        let out = Command::new(bin).args(args).output().expect("run psd_httpd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
