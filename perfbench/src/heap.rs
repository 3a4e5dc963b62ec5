//! Live-heap accounting for the whole process.
//!
//! `VmHWM` on glibc swings by ±15% from run to run with how many
//! per-thread malloc arenas the campaign and connection threads happen to
//! touch, which hides a memo or cache of a few MiB. The benchmark's
//! global allocator therefore wraps the system allocator and counts the
//! bytes the program holds; `peak_heap_mb` is the high-water mark.
//!
//! Threads batch their changes and fold them into the shared count once
//! they pass [`BATCH`] bytes (and when they exit), so threads do not
//! contend on one counter per allocation. The peak is exact to within
//! `BATCH` bytes per live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread may allocate or free before folding into the total.
const BATCH: isize = 64 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn fold(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// A thread's unfolded change, folded in when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        fold(self.0.get());
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn account(delta: isize) {
    let folded = PENDING.try_with(|p| {
        let total = p.0.get() + delta;
        if total.abs() < BATCH {
            p.0.set(total);
        } else {
            p.0.set(0);
            fold(total);
        }
    });
    // Thread-local storage is already gone during thread teardown.
    if folded.is_err() {
        fold(delta);
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

/// The system allocator with live and peak byte counters.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            account(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Highest number of heap bytes held at once so far, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
