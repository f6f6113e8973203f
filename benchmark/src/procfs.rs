//! Readings the kernel keeps about this process: per-thread CPU time,
//! context switches and peak resident memory. The parsers are split
//! from the file reads so they are tested on canned text.

use std::fs;
use std::path::Path;

/// On-CPU nanoseconds from a `schedstat` line
/// (`<run_ns> <wait_ns> <timeslices>`).
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `kB` field of `/proc/<pid>/status`, e.g. `VmHWM`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Voluntary plus involuntary context switches from a `status` file.
pub fn parse_ctx_switches(text: &str) -> Option<u64> {
    let field = |key: &str| -> Option<u64> {
        text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?.trim().parse().ok()
    };
    Some(field("voluntary_ctxt_switches")? + field("nonvoluntary_ctxt_switches")?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// On-CPU time and context switches of one thread or a set of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuReading {
    /// On-CPU nanoseconds.
    pub run_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl CpuReading {
    fn of_task(dir: &Path) -> Self {
        let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap_or_default();
        Self {
            run_ns: parse_schedstat_run_ns(&read("schedstat")).unwrap_or(0),
            ctx_switches: parse_ctx_switches(&read("status")).unwrap_or(0),
        }
    }

    /// The calling thread. Generator threads bracket their own loop with
    /// this, because a thread's counters vanish when it exits.
    pub fn this_thread() -> Self {
        Self::of_task(Path::new("/proc/thread-self"))
    }

    /// Every live thread of the process, summed. Taken while no
    /// generator thread exists, a pair of these brackets the program
    /// under test (plus the idle main thread).
    pub fn all_threads() -> Self {
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return Self::default() };
        tasks.flatten().fold(Self::default(), |acc, t| acc.plus(&Self::of_task(&t.path())))
    }

    /// Sum of two readings.
    pub fn plus(&self, other: &Self) -> Self {
        Self {
            run_ns: self.run_ns + other.run_ns,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }

    /// What accrued since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tpsd-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  270336 kB\nVmSize:\t  204800 kB\nVmHWM:\t   12744 kB\nVmRSS:\t    9216 kB\n\
        Threads:\t5\nvoluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n";

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat_run_ns("182736455 9912 412\n"), Some(182_736_455));
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn status_fields_parse_on_canned_text() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(12_744));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(9_216));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        assert_eq!(parse_status_kb(STATUS, "Vm"), None, "a key prefix is not the key");
        assert_eq!(parse_ctx_switches(STATUS), Some(1_290));
        assert_eq!(parse_ctx_switches("voluntary_ctxt_switches:\t3\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb().expect("VmHWM present on Linux") > 0.5);
        let a = CpuReading::this_thread();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let d = CpuReading::this_thread().since(&a);
        assert!(d.run_ns > 0, "burning CPU shows up in this thread's schedstat");
        assert!(CpuReading::all_threads().run_ns >= CpuReading::this_thread().run_ns);
    }
}
