//! The shipped binary, spawned for real: `psd_loadtest` refuses values
//! it cannot run with by exiting 2 with an `error:` line, before a
//! server exists and never by a panic.

use std::process::Command;

#[test]
fn unusable_values_exit_2_with_an_error() {
    let bin = env!("CARGO_BIN_EXE_psd_loadtest");
    for args in [
        &["--duration", "nan"][..],
        &["--duration", "inf"],
        &["--warmup", "nan"],
        &["--deltas", "nan,2"],
        &["--deltas", "1,inf"],
        &["--deltas", "0,1"],
        &["--duration", "1s", "--warmup", "1s"],
        &["--rate", "inf"],
    ] {
        let out = Command::new(bin).args(args).output().expect("run psd_loadtest");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
