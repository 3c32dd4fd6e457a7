//! Process-level host measurements read from `/proc/self`.
//!
//! CPU time next to wall time tells a descheduled run (low
//! `cpu_util`) apart from a slow program (high `cpu_util`, long wall).

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included.
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB. `None` where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_sane() {
        if let Some(cpu) = super::cpu_seconds() {
            assert!(cpu >= 0.0);
        }
        if let Some(rss) = super::peak_rss_mb() {
            assert!(rss > 0.0);
        }
    }
}
