//! What the benchmark reads about the machine it runs on: a fixed CPU
//! canary, the process's peak memory and CPU time, and provenance.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the canary loop (about 20 ms on a current x86-64 core).
const CANARY_ITERATIONS: u64 = 20_000_000;

/// Canary readings that differ by more than this share signal host drift.
pub const DRIFT_LIMIT: f64 = 0.10;

/// Times a fixed xorshift loop, in milliseconds. The work never changes,
/// so a change in its time is a change in the host, not the program.
pub fn canary_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..black_box(CANARY_ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Relative difference between two canary readings.
pub fn drift(start_ms: f64, end_ms: f64) -> f64 {
    (end_ms - start_ms).abs() / start_ms.min(end_ms)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Pins this process, and every thread it starts later, to the last CPU
/// it may run on, and returns that CPU. A thread that sleeps and wakes on
/// another CPU finds cold caches there: unpinned, serve hits flipped
/// between ~10 and ~15 µs from one stretch of a run to the next, pinned
/// they held within 10%. Needs `taskset`; returns `None` without it.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = allowed.rsplit([',', '-']).next()?.trim().parse().ok()?;
    let pinned = std::process::Command::new("taskset")
        .args([
            "-a",
            "-c",
            "-p",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .output()
        .ok()?;
    pinned.status.success().then_some(cpu)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the current directory, read from `.git`
/// without leaving it; `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => match std::fs::read_to_string(format!(".git/{name}")) {
            Ok(rev) => rev.trim().to_string(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))?,
        },
        None => head.to_string(),
    };
    Some(rev.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(canary_ms() > 0.0);
    }

    #[test]
    fn drift_is_symmetric() {
        assert!((drift(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((drift(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
