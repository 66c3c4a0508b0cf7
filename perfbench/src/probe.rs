//! The benchmark's two instruments: a wall clock and a counting global
//! allocator. Both are read from the benchmark's own files around calls
//! into the program; nothing inside the program is instrumented.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic reading of the wall clock.
pub fn now() -> Instant {
    // rpr-check: allow(raw-clock): the benchmark measures real time by definition; this is its one clock read
    Instant::now()
}

/// Seconds from `start` to `end`.
pub fn secs(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64()
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Passes every call through to the system allocator, counting
/// allocations and tracking live and peak heap bytes. Counters are
/// statistics that publish no other memory, so `Relaxed` suffices.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

// rpr-check: allow(unsafe-block): implementing GlobalAlloc is inherently unsafe; this shim only counts and delegates straight to System
unsafe impl GlobalAlloc for CountingAlloc {
    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::alloc
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards the caller's own `alloc` contract to System unchanged.
        let ptr = unsafe { System.alloc(layout) }; // rpr-check: allow(unsafe-block): forwards the caller's safety contract to System
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            Self::grow(layout.size());
        }
        ptr
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::dealloc
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's own `dealloc` contract to System unchanged.
        unsafe { System.dealloc(ptr, layout) }; // rpr-check: allow(unsafe-block): forwards the caller's safety contract to System
        Self::shrink(layout.size());
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::realloc
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwards the caller's own `realloc` contract to System unchanged.
        let out = unsafe { System.realloc(ptr, layout, new_size) }; // rpr-check: allow(unsafe-block): forwards the caller's safety contract to System
        if !out.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            Self::shrink(layout.size());
            Self::grow(new_size);
        }
        out
    }
}

/// Allocations (including reallocations) made so far by the process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
