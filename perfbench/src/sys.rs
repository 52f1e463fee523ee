//! Measurements the standard library does not offer: live heap bytes
//! (a counting wrapper around the system allocator, switched on only
//! around a measured build) and the thread and process CPU clocks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Net bytes allocated by this thread while counting, or `None`
    /// when not counting. Const-initialised, so reading it never
    /// allocates (the allocator itself reads it).
    static LIVE: Cell<Option<i64>> = const { Cell::new(None) };
}

fn count(delta: i64) {
    LIVE.with(|live| {
        if let Some(n) = live.get() {
            live.set(Some(n + delta));
        }
    });
}

/// The system allocator, plus a per-thread net byte count while a
/// [`heap_growth`] measurement runs on that thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count is a
// thread-local integer and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns its result with the net heap bytes the calling
/// thread left allocated while it ran.
pub fn heap_growth<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.with(|live| live.set(Some(0)));
    let out = f();
    let grew = LIVE.with(|live| live.replace(None)).unwrap_or(0);
    (out, grew)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout for
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks are always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds the calling thread has used, read live (the per-task
/// `schedstat` file only advances at ticks and context switches).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU nanoseconds every thread of the process has used, read live.
/// Unlike wall time it leaves out time spent waiting for a CPU, which
/// on a shared host is most of the noise in a CPU-bound phase.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_growth_counts_what_stays_allocated() {
        let (kept, grew) = heap_growth(|| {
            let dropped = vec![0u8; 4096];
            drop(dropped);
            vec![0u64; 1000]
        });
        assert_eq!(kept.len(), 1000);
        assert_eq!(grew, 8000);
    }

    #[test]
    fn thread_clock_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_ns() > before);
        assert!(x > 0);
    }
}
