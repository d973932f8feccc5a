//! Process and host readings from Linux `/proc`: CPU time, peak resident
//! memory, thread count and the host's steal time. Each reader returns
//! `None` where the file is missing or unreadable, so the benchmark still
//! runs (reporting 0) on a host without `/proc`.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads included.
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// One `/proc/self/status` field in its own unit (kB for memory).
fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// OS threads this process has now.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let parse = || -> Option<CpuTicks> {
            let stat = fs::read_to_string("/proc/stat").ok()?;
            let line = stat.lines().next()?;
            // cpu user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted inside user.
            let v: Vec<u64> =
                line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
            (v.len() == 8).then(|| CpuTicks { total: v.iter().sum(), steal: v[7] })
        };
        parse().unwrap_or_default()
    }

    /// Percent of all host CPU ticks since `earlier` that the hypervisor
    /// stole.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Cores the OS lets this process use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
