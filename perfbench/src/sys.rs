//! Std-only process measurements: child peak RSS through a hand-declared
//! `wait4`, this process's `VmHWM` and its reset, and an allocation
//! counter that is off unless a traced run switches it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a waited-for child ended.
#[derive(Debug, Clone, Copy)]
pub struct ChildExit {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// The child's peak resident set, in KiB.
    pub maxrss_kib: u64,
}

/// Reap child `pid` and return its exit code and peak RSS. The caller
/// must not wait for the same child through `std::process::Child`.
pub fn wait_child(pid: u32) -> io::Result<ChildExit> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters with the C layouts `wait4` writes.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED / WEXITSTATUS, spelled out.
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(ChildExit {
        code,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// One `kB` field of `/proc/self/status`.
fn status_kib(field: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/self/status")))
}

/// This process's peak RSS (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    status_kib("VmHWM")
}

/// This process's current RSS (`VmRSS`) in KiB.
pub fn rss_kib() -> io::Result<u64> {
    status_kib("VmRSS")
}

/// Reset this process's peak RSS to its current RSS, so memory the input
/// generator touched and released is not counted against the program.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and reallocations while
/// [`count_allocs`] has switched counting on.
pub struct CountingAlloc;

// SAFETY: every call is delegated unchanged to `System`; the counter does
// not touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting on; returns its result and the number
/// of allocations made on any thread meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}
