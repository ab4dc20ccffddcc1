//! Process-wide measurements: peak RSS, CPU time and allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Counts allocations while switched on (see [`count_allocs`]); when off
/// it costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter updates touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off; returns the count so far.
/// Every thread of the process is counted — the daemon's workers and the
/// load generator alike (the generator allocates nothing per query).
pub fn count_allocs(on: bool) -> u64 {
    COUNTING.store(on, Relaxed);
    ALLOCS.load(Relaxed)
}

fn status_kb(key: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, from
/// `/proc/self/stat`.
pub fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat").map_or(0.0, |s| stat_cpu_secs(&s))
}

/// User + system CPU seconds of this process's threads whose name
/// starts with `prefix`, from `/proc/self/task/*/stat` (the kernel scales
/// these to the threads' exact run time; resolution is one 10 ms tick).
pub fn threads_cpu_secs(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        .map(|stat| stat_cpu_secs(&stat))
        .sum()
}

/// utime + stime of a `/proc/.../stat` line, in seconds.
fn stat_cpu_secs(stat: &str) -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in ticks of Linux's fixed
    // 100 Hz `USER_HZ`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time the calling thread has used, in ns (`CLOCK_THREAD_CPUTIME_ID`):
/// unlike a wall-clock interval, it leaves out time spent blocked.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that the call fills in.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere the thread's CPU clock is not read, and CPU spans read 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets how much later than asked the kernel may end the calling
/// thread's sleeps (`PR_SET_TIMERSLACK`), and returns the slack in force
/// afterwards (ns). The default, 50 µs, is charged in full to every
/// open-loop query whose sender slept until its due time, and is larger
/// than most of the daemon's own latency.
#[cfg(target_os = "linux")]
pub fn set_timer_slack(ns: u64) -> u64 {
    const PR_SET_TIMERSLACK: i32 = 29;
    const PR_GET_TIMERSLACK: i32 = 30;
    // SAFETY: both options take plain integer arguments (an unsigned
    // long slack, unused zeros) and touch only the calling thread.
    use std::ffi::c_ulong;
    unsafe {
        prctl(
            PR_SET_TIMERSLACK,
            ns as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
        );
        prctl(
            PR_GET_TIMERSLACK,
            0 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
        ) as u64
    }
}

/// Elsewhere the slack stays as it is; 0 says it is unknown.
#[cfg(not(target_os = "linux"))]
pub fn set_timer_slack(_ns: u64) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn timer_slack_is_set_per_thread() {
        let (set, other) = std::thread::scope(|s| {
            let set = s.spawn(|| set_timer_slack(1_000)).join().unwrap();
            let other = s.spawn(|| set_timer_slack(50_000)).join().unwrap();
            (set, other)
        });
        assert_eq!((set, other), (1_000, 50_000));
    }

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mb() > 1.0);
        let start = cpu_secs();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_secs() >= start);
    }

    #[test]
    fn thread_clock_leaves_out_blocked_time() {
        let spin = |ms: u128| {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < ms {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let cpu0 = thread_cpu_ns();
        spin(30);
        let busy = thread_cpu_ns() - cpu0;
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - cpu0 - busy;
        assert!(busy >= 10_000_000, "{busy} ns busy");
        assert!(slept < 5_000_000, "{slept} ns while asleep");
    }

    #[test]
    fn named_threads_are_found() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("pbtest-spin".into())
            .spawn(move || {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed().as_millis() < 200 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                rx.recv().ok();
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        let secs = threads_cpu_secs("pbtest-");
        tx.send(()).unwrap();
        h.join().unwrap();
        assert!((0.05..1.0).contains(&secs), "{secs} s");
        assert_eq!(threads_cpu_secs("no-such-thread"), 0.0);
    }

    #[test]
    fn stat_fields_after_the_command_name() {
        // A command name with spaces and parentheses, as the kernel prints it.
        let stat = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 1 0";
        assert_eq!(stat_cpu_secs(stat), 2.8);
    }
}
