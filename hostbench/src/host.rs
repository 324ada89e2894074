//! Host-side measurement helpers: process CPU time and peak memory from
//! `/proc`, and the host-noise diagnostics printed beside each run (a
//! fixed calibration kernel, the steal-time delta and the load average).
//! None of these touch the simulator.

use std::hint::black_box;
use std::time::Instant;

/// Linux's user-visible clock tick (`CLK_TCK`), fixed at 100 Hz on every
/// mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds (user + system, every thread, live or joined).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Machine-wide steal time so far, seconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .map(|t| t / TICKS_PER_S)
        .unwrap_or(0.0)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// A fixed integer kernel (xorshift + multiply-accumulate, no memory
/// traffic), timed in milliseconds; the median of `reps` runs. The same
/// count of the same instructions on every call, so a slower reading
/// means the host, not the program, got slower.
pub fn calibration_ms(reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc: u64 = 0;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
        black_box(acc);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// A fixed memory-bound kernel: a dependent walk of 2^20 loads through
/// a 32 MiB single-cycle permutation, timed in milliseconds. Reads the
/// memory system the way the integer kernel reads the cores, so cache
/// or bandwidth contention from other tenants shows here.
pub fn memory_calibration_ms() -> f64 {
    const LEN: usize = 1 << 22;
    // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..LEN).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) as usize) % i;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..(1 << 20) {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Host-noise readings taken at the start and end of a run.
#[derive(Debug, Clone, Copy)]
pub struct HostSnapshot {
    /// Calibration kernel time, ms.
    pub calib_ms: f64,
    /// Memory calibration kernel time, ms.
    pub mem_calib_ms: f64,
    /// Cumulative machine steal time, s.
    pub steal_s: f64,
    /// 1-minute load average.
    pub load1: f64,
}

impl HostSnapshot {
    /// Read the host now (runs the calibration kernel three times).
    pub fn take() -> HostSnapshot {
        HostSnapshot {
            calib_ms: calibration_ms(3),
            mem_calib_ms: memory_calibration_ms(),
            steal_s: steal_seconds(),
            load1: load_average(),
        }
    }

    /// One JSON object comparing this (start) snapshot with `end`.
    pub fn diagnostics_json(&self, end: &HostSnapshot) -> String {
        format!(
            "{{\"calib_ms_before\":{:.3},\"calib_ms_after\":{:.3},\
             \"mem_calib_ms_before\":{:.3},\"mem_calib_ms_after\":{:.3},\"steal_s\":{:.2},\
             \"load1_before\":{},\"load1_after\":{}}}",
            self.calib_ms,
            end.calib_ms,
            self.mem_calib_ms,
            end.mem_calib_ms,
            end.steal_s - self.steal_s,
            self.load1,
            end.load1
        )
    }
}

/// The median of `v` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(calibration_ms(1) > 0.0);
    }
}
