//! Process-level readings from `/proc/self` (Linux), plus percentiles.

use std::collections::BTreeMap;

/// Kernel clock ticks per second of `/proc/self/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: u64 = 100;

fn status_field_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> Option<u64> {
    status_field_kb("Threads:")
}

/// User + system CPU time of the whole process (exited threads included),
/// in ns, at `USER_HZ` resolution.
pub fn cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Write system calls made so far (`syscw` of `/proc/self/io`).
pub fn syscw() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("syscw:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Per live thread: ns waited on a run queue (`/proc/self/task/*/schedstat`,
/// second field).
pub fn runq_wait_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        if let Some(wait) = s.split_whitespace().nth(1).and_then(|v| v.parse().ok()) {
            out.insert(tid, wait);
        }
    }
    out
}

/// Run-queue wait accumulated between two [`runq_wait_ns`] readings by the
/// threads alive at both.
pub fn runq_wait_delta(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> u64 {
    after
        .iter()
        .filter_map(|(tid, a)| before.get(tid).map(|b| a.saturating_sub(*b)))
        .sum()
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; `None` if empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
        assert!(threads().is_some_and(|t| t >= 1));
        assert!(cpu_ns().is_some());
        assert!(!runq_wait_ns().is_empty());
    }
}
