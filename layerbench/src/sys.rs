//! Heap accounting for the op's own peak memory.
//!
//! [`Counting`] wraps the system allocator and tracks the bytes currently
//! allocated and their high-water mark. [`heap_peak_mb`] resets the mark
//! to the live bytes, runs an op or one of its phases, and reads the mark
//! after, so the peak is measured apart from the input generation, set-up
//! and reference scans that run in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// only updated beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Runs `f`; returns its result and the most heap live at once while it
/// ran, above what was live when it started, in MB (10^6 bytes). Calls
/// must not nest.
pub fn heap_peak_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(live) as f64 / 1e6)
}
