//! Tour the load-generation scenario catalog against the real server.
//!
//! Runs shortened versions of an open-loop `steady` scenario and a
//! closed-loop session scenario end to end — real TCP sockets, the PSD
//! server behind its default epoll reactor, the online Eq. 17
//! allocator — and prints the per-class slowdown-differentiation
//! reports.
//!
//! ```sh
//! cargo run --release --example loadtest_catalog
//! ```
//!
//! For full-length runs and the other scenarios (`burst`,
//! `flashcrowd`, `stepload`, `classmix-shift`, `overload`, `reconfig`)
//! use the CLI:
//! `cargo run --release -p psd-loadgen --bin psd_loadtest -- --list`.

use std::time::Duration;

use psd::loadgen::{harness, LoadMode, Scenario};

fn main() {
    println!("scenario catalog: {:?}\n", Scenario::catalog());

    let mut steady = Scenario::by_name("steady").expect("stock scenario");
    steady.duration = Duration::from_secs(6);
    steady.warmup = Duration::from_secs(2);
    println!("running shortened `steady` (6s)…");
    let out = harness::run_scenario(&steady).expect("steady run");
    println!("{}", out.report.to_markdown());

    let mut closed = Scenario::by_name("closed").expect("stock scenario");
    closed.duration = Duration::from_secs(4);
    closed.warmup = Duration::from_secs(1);
    closed.mode = LoadMode::Closed { sessions: 32, mean_think: Duration::from_millis(20) };
    println!("running shortened `closed` (4s, 32 sessions)…");
    let out = harness::run_scenario(&closed).expect("closed run");
    println!("{}", out.report.to_markdown());
}
