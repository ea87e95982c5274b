//! What the benchmark asks of the host: one CPU to itself, CPU clocks,
//! and the context numbers of `/proc`. Nothing here touches the system
//! under test.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words of a `cpu_set_t` (1024 CPUs, as glibc's).
const CPU_SET_WORDS: usize = 16;

const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Confine the calling thread, and so every thread it starts afterwards,
/// to the lowest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` where the host refuses (the run goes on unpinned).
///
/// On a two-vCPU micro-VM a datagram hop between threads costs 6 us when
/// both are on one CPU and 50 us when the hop wakes the other, halted,
/// one, and the scheduler moves threads between the two every few
/// seconds: unpinned, the same code ran at 3 600 or 13 700 logins/s.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly `size` bytes.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

/// Let the sleeps of the calling thread, and of every thread it starts
/// afterwards, end when asked: the kernel otherwise rounds a timer up by
/// as much as 50 us to batch wake-ups.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes its value in `arg2` and touches no
    // memory of the caller's.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

fn cpu_clock(clock: i32) -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `timespec`.
    if unsafe { clock_gettime(clock, &mut t) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// User + system CPU time of this process, all threads.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`), in KiB.
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)
}

pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in jiffies.
pub fn cpu_jiffies() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of the host's CPU time between two readings that the
/// hypervisor gave to someone else (field 8 of the `cpu` line).
pub fn steal_pct(before: &[u64], after: &[u64]) -> f64 {
    let delta = |i: usize| after.get(i).copied().unwrap_or(0) - before.get(i).copied().unwrap_or(0);
    let total: u64 = (0..after.len().min(8)).map(delta).sum();
    if total == 0 {
        return 0.0;
    }
    delta(7) as f64 / total as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu(), thread_cpu());
        let mut x = 1u64;
        while thread_cpu() - thread < Duration::from_millis(2) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu() - process >= Duration::from_millis(2));
    }

    #[test]
    fn steal_is_a_share_of_all_jiffies() {
        let before = [100, 0, 100, 800, 0, 0, 0, 0];
        let after = [150, 0, 150, 890, 0, 0, 0, 10];
        assert_eq!(steal_pct(&before, &after), 5.0);
        assert_eq!(steal_pct(&before, &before), 0.0);
    }
}
