//! What the kernel accounts to this process, read from `/proc`.

use std::fs;

/// CPU seconds this process has used so far, all threads: the scheduler's
/// on-CPU nanoseconds of every task in `/proc/self/task`. (`utime+stime`
/// in `/proc/self/stat` count the same time, but in 10 ms ticks, which is
/// 1-2 % of one repetition here.)
///
/// # Panics
/// Panics where `/proc/self/task/*/schedstat` cannot be read.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let mut ns = 0u64;
    for task in tasks {
        let path = task.expect("task directory entry").path().join("schedstat");
        // A pool worker cannot exit, so a task that vanished between the
        // listing and the read was never one of ours to count.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{} has no on-CPU time field", path.display()));
    }
    ns as f64 / 1e9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
    }
}
