//! What the benchmark reads from the operating system: peak memory,
//! load, core count; plus the child-process tie that keeps a killed
//! benchmark from leaving processes behind, and a heap counter for the
//! traced run's memory peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The 1, 5 and 15 minute load averages (empty if unreadable).
pub fn loadavg() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_whitespace()
                .take(3)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Makes the kernel SIGKILL the child once the thread that spawns it
/// exits, so a benchmark that is itself killed, or panics past its
/// guards, takes its daemon and helpers down with it.
pub fn die_with_parent(cmd: &mut Command) -> &mut Command {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
    const SIGKILL: std::ffi::c_ulong = 9;
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one prctl(2) system call, which is async-signal-safe and
    // touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        })
    }
}

/// The system allocator plus live and peak heap byte counts, kept only
/// inside [`peak_growth_mb`]. Everywhere else an allocation pays one
/// relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(delta: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak of the heap's net
/// growth while it ran, in MiB. Counts allocations on every thread, so
/// call it while no other thread allocates.
pub fn peak_growth_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}
