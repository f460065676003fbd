//! Host-side readings of this process from Linux procfs: peak resident
//! memory and consumed CPU time. Both are wall-clock-plane numbers; they
//! only ever reach the benchmark's report.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when procfs is unavailable or the field is missing.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// CPU seconds (user + system, all threads) this process has used so far.
///
/// # Errors
///
/// Returns a message when procfs is unavailable or malformed.
pub fn cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / CLOCK_TICKS_PER_SEC)
        .ok_or_else(|| "malformed /proc/self/stat".to_owned())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` from a `stat` line. The command name (field 2) may
/// contain spaces, so fields are counted after its closing parenthesis:
/// field 3 (`state`) is the first, `utime` and `stime` are fields 14–15.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_procfs_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        let stat = "42 (a b) S 1 42 42 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(280));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_secs().unwrap() >= 0.0);
    }
}
