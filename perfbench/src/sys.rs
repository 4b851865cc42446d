//! Process and disk gauges: `/proc/self/status` and bytes under a directory.

use std::path::Path;

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut total = 0;
    for e in entries.flatten() {
        let Ok(meta) = e.metadata() else { continue };
        if meta.is_dir() {
            total += dir_bytes(&e.path());
        } else {
            total += meta.len();
        }
    }
    total
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
