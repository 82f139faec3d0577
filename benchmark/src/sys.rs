//! Process-level gauges read from `/proc`: CPU time and peak RSS.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` (fixed at 100 on
/// Linux; there is no libc here to ask `sysconf`).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK
}

/// `(stolen, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`: time the hypervisor ran someone else
/// while this guest had work, and all accounted time.
pub fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let stolen = fields.get(7).copied().unwrap_or(0);
    (stolen, fields.iter().take(8).sum())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restrict this thread, and every thread it spawns afterwards, to the
/// lowest-numbered CPU it is allowed on. Returns whether that worked.
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size glibc's `cpu_set_t` has.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; 16];
    mask[word] = lowest;
    // SAFETY: `mask` is a live buffer of exactly `bytes` bytes that the
    // call only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_read_positive_values() {
        let mut x = 0u64;
        while cpu_seconds() == 0.0 {
            for i in 0..10_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(peak_rss_mib() > 0.0);
        let (stolen, total) = machine_ticks();
        assert!(total > 0 && stolen <= total);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // On its own thread, so the rest of the test process stays free.
        let allowed = std::thread::spawn(|| {
            assert!(pin_to_one_cpu());
            std::fs::read_to_string("/proc/thread-self/status")
                .expect("thread status")
                .lines()
                .find_map(|l| {
                    l.strip_prefix("Cpus_allowed_list:")
                        .map(|v| v.trim().to_string())
                })
        })
        .join()
        .expect("pinned thread");
        assert!(allowed.is_some_and(|list| !list.contains(',') && !list.contains('-')));
    }
}
