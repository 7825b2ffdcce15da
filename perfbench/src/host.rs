//! Host diagnostics printed beside each round, never gated on: CPU steal
//! from `/proc/stat`, and this process's minor faults and user/system CPU
//! from `/proc/self/stat`. They let a reader tell host noise (a busy
//! neighbour, a balloon device reclaiming pages) from a program change.

use std::fs;

/// Kernel clock ticks per second in `/proc` files (`USER_HZ`), fixed at
/// 100 by the Linux ABI on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// One reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    steal: u64,
    cpu_total: u64,
    minflt: u64,
    utime: u64,
    stime: u64,
}

/// Reads the counters; all zero where `/proc` is unavailable.
pub fn sample() -> Sample {
    let mut s = Sample::default();
    if let Some(cpu) = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next().map(str::to_owned))
    {
        // cpu user nice system idle iowait irq softirq steal ...
        let v: Vec<u64> = cpu
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        if v.len() == 8 {
            s.cpu_total = v.iter().sum();
            s.steal = v[7];
        }
    }
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name start at field 3.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<u64> = rest
                .split_whitespace()
                .map(|x| x.parse().unwrap_or(0))
                .collect();
            if f.len() > 12 {
                s.minflt = f[7];
                s.utime = f[11];
                s.stime = f[12];
            }
        }
    }
    s
}

/// The change between two readings, for a human-readable line.
pub fn describe(before: &Sample, after: &Sample) -> String {
    let total = after.cpu_total.saturating_sub(before.cpu_total);
    let steal = after.steal.saturating_sub(before.steal);
    let share = if total == 0 {
        0.0
    } else {
        100.0 * steal as f64 / total as f64
    };
    format!(
        "steal {share:.1}%  minflt +{}  user {:.2} s  sys {:.2} s",
        after.minflt.saturating_sub(before.minflt),
        after.utime.saturating_sub(before.utime) as f64 / USER_HZ,
        after.stime.saturating_sub(before.stime) as f64 / USER_HZ,
    )
}
