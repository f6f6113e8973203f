//! The shipped binary, spawned for real: `psd_loadtest` refuses values
//! it cannot run with by exiting 2 with an `error:` line, before a
//! server exists and never by a panic; its usage text names exactly the
//! flags its module doc does.

use std::process::Command;

/// Refused with exit 2, an `error:` line and no panic. The first eight
/// are the server flags `psd_httpd` refuses alike.
#[test]
fn unusable_values_exit_2_with_an_error() {
    let bin = env!("CARGO_BIN_EXE_psd_loadtest");
    for args in [
        &["--shards", "0"][..],
        &["--gain", "-1"],
        &["--gain", "nan"],
        &["--admission-cap", "1"],
        &["--engine", "fast"],
        &["--controller", "closed"],
        &["--work-unit-us", "0"],
        &["--deltas", "0,1"],
        &["--duration", "nan"],
        &["--duration", "inf"],
        &["--warmup", "nan"],
        &["--deltas", "nan,2"],
        &["--deltas", "1,inf"],
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

/// Every `--flag` named in `text`, sorted and deduplicated.
fn flags(text: &str) -> Vec<&str> {
    let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
    let mut found: Vec<&str> = words.filter(|w| w.starts_with("--") && w.len() > 2).collect();
    found.sort_unstable();
    found.dedup();
    found
}

/// The usage block at the top of `bin/psd_loadtest.rs` — its synopsis
/// and its list of options alike — names exactly the flags `--help`
/// prints, so a flag added or deleted in one and not the other fails
/// here.
#[test]
fn doc_flag_list_matches_help() {
    let help = Command::new(env!("CARGO_BIN_EXE_psd_loadtest")).arg("--help").output();
    let help = help.expect("run --help");
    assert!(help.status.success());
    let usage = String::from_utf8(help.stdout).expect("UTF-8 usage");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/psd_loadtest.rs");
    let source = std::fs::read_to_string(path).expect("read psd_loadtest.rs");
    let doc: Vec<&str> = source.lines().map_while(|l| l.strip_prefix("//!")).collect();
    let open = doc.iter().position(|l| l.trim() == "```text").expect("the usage block");
    let len = doc[open + 1..].iter().position(|l| l.trim() == "```").expect("its end");
    let block = &doc[open + 1..open + 1 + len];
    let synopsis = block.iter().position(|l| l.trim().is_empty()).expect("a blank line");
    for (part, lines) in [("synopsis", &block[..synopsis]), ("options", &block[synopsis..])] {
        assert_eq!(flags(&lines.join("\n")), flags(&usage), "{part} vs --help: {usage}");
    }
}
