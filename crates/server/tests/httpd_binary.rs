//! The shipped binary, spawned for real: `psd_httpd` with no scheduler
//! or engine flags (and again with `--spin`) serves one request per
//! class through the rate-partition task servers, drains at
//! `--duration-s` and exits 0 with every class's completion counted.
//! (Everything else in CI that runs the binary passes `--probe-uring`,
//! which returns before a server exists.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

/// Run the binary for 2 s with `extra` flags, send one request per
/// class (the default δ's are 1,2,4: three classes), and check the exit
/// status and the final per-class statistics.
fn serve_every_class(extra: &[&str], banner_says: &str) {
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
    serve_every_class(&[], "rate partition (sleep)");
}

#[test]
fn spin_flag_serves_every_class_and_exit_clean() {
    serve_every_class(&["--spin"], "rate partition (spin)");
}

/// The deleted worker-pool knob is gone from the usage text and refused
/// on the command line.
#[test]
fn workers_flag_is_gone() {
    let bin = env!("CARGO_BIN_EXE_psd_httpd");
    let help = Command::new(bin).arg("--help").output().expect("run --help");
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("--spin") && !usage.contains("--workers"), "{usage}");
    let refused = Command::new(bin).args(["--workers", "2"]).output().expect("run --workers");
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("unknown argument: --workers"));
}
