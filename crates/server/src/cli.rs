//! The server flags both binaries take, parsed once. `psd_httpd` and
//! `psd_loadtest` hand every flag they do not own themselves to
//! [`server_flag`], which writes its value into the [`ServerConfig`] or
//! [`FrontendConfig`] the run starts, or names what is wrong with it.

use std::str::FromStr;
use std::time::Duration;

use crate::{ControllerKind, EngineKind, FrontendConfig, ServerConfig};

/// Apply the server flag `flag`, taking its value from `args`:
/// `--deltas`, `--work-unit-us`, `--engine`, `--shards`,
/// `--controller`, `--gain` or `--admission-cap`. Returns `Ok(false)`,
/// consuming nothing, when `flag` is none of these, and `Err` with the
/// message to exit on when its value is missing or out of range.
pub fn server_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    server: &mut ServerConfig,
    frontend: &mut FrontendConfig,
) -> Result<bool, String> {
    match flag {
        "--deltas" => {
            let list = args.next().ok_or("--deltas needs a list")?;
            let deltas = list
                .split(',')
                .map(|d| d.trim().parse().map_err(|_| "bad delta"))
                .collect::<Result<Vec<f64>, _>>()?;
            if deltas.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
                return Err("deltas must be positive and finite".into());
            }
            server.deltas = deltas;
        }
        "--work-unit-us" => {
            let us = value(args, |&n: &u64| n >= 1, "--work-unit-us needs a positive integer")?;
            server.work_unit = Duration::from_micros(us);
        }
        "--engine" => {
            frontend.engine = args
                .next()
                .as_deref()
                .and_then(EngineKind::parse)
                .ok_or("--engine needs 'threads', 'reactor' or 'uring'")?;
        }
        "--shards" => {
            frontend.shards =
                value(args, |&n: &usize| n >= 1, "--shards needs a positive integer")?;
        }
        "--controller" => {
            server.controller = args
                .next()
                .as_deref()
                .and_then(ControllerKind::parse)
                .ok_or("--controller needs 'open' or 'feedback'")?;
        }
        "--gain" => {
            let ok = |&g: &f64| g >= 0.0 && g.is_finite();
            server.gain = value(args, ok, "--gain needs a number >= 0")?;
        }
        "--admission-cap" => {
            let ok = |&c: &f64| c > 0.0 && c < 1.0;
            server.admission_cap = Some(value(args, ok, "--admission-cap needs a value in (0,1)")?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// The next argument parsed as a `T` that satisfies `ok`, or `why`.
pub fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    ok: impl Fn(&T) -> bool,
    why: &str,
) -> Result<T, String> {
    args.next().and_then(|v| v.parse().ok()).filter(ok).ok_or_else(|| why.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One accepted and one refused value per flag: the accepted one
    /// lands in the configuration, the refused one names the flag's rule.
    #[test]
    fn each_flag_accepts_one_value_and_refuses_another() {
        type Check = fn(&ServerConfig, &FrontendConfig) -> bool;
        let table: [(&str, &str, Check, &str, &str); 7] = [
            ("--deltas", "1,2,4", |s, _| s.deltas == [1.0, 2.0, 4.0], "0,1", "positive"),
            ("--work-unit-us", "250", |s, _| s.work_unit.as_micros() == 250, "0", "positive"),
            ("--engine", "uring", |_, f| f.engine == EngineKind::Uring, "fast", "'threads'"),
            ("--shards", "3", |_, f| f.shards == 3, "0", "positive"),
            (
                "--controller",
                "feedback",
                |s, _| s.controller == ControllerKind::Feedback,
                "closed",
                "'open'",
            ),
            ("--gain", "0.5", |s, _| s.gain == 0.5, "nan", ">= 0"),
            ("--admission-cap", "0.9", |s, _| s.admission_cap == Some(0.9), "1", "(0,1)"),
        ];
        for (flag, good, applied, bad, rule) in table {
            let (mut server, mut frontend) = (ServerConfig::default(), FrontendConfig::default());
            let mut args = [good.to_string()].into_iter();
            assert_eq!(
                server_flag(flag, &mut args, &mut server, &mut frontend),
                Ok(true),
                "{flag}"
            );
            assert!(applied(&server, &frontend), "{flag} {good}");

            let mut args = [bad.to_string()].into_iter();
            let refused = server_flag(flag, &mut args, &mut server, &mut frontend);
            let why = refused.expect_err(flag);
            assert!(why.contains(rule), "{flag} {bad}: {why}");

            let missing = server_flag(flag, &mut std::iter::empty(), &mut server, &mut frontend);
            assert!(missing.is_err(), "{flag} without a value");
        }
    }

    #[test]
    fn other_flags_consume_nothing() {
        let (mut server, mut frontend) = (ServerConfig::default(), FrontendConfig::default());
        let mut args = ["7".to_string()].into_iter();
        assert_eq!(server_flag("--seed", &mut args, &mut server, &mut frontend), Ok(false));
        assert_eq!(args.next().as_deref(), Some("7"));
    }
}
