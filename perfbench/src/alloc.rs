//! The benchmark binary's global allocator: the system allocator plus
//! three counters (live bytes, their peak, allocation calls). Every
//! query runs on one thread, so the counters repeat exactly from run to
//! run; they are statistics only and publish no other data, hence
//! `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its pointer unchanged; the counters never touch
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Relaxed);
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Allocation calls (alloc, alloc_zeroed, realloc) so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// The highest live-byte count since the last [`set_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from `bytes` (usually [`live`]).
pub fn set_peak(bytes: u64) {
    PEAK.store(bytes, Relaxed);
}
