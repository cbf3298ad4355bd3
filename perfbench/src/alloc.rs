//! A byte-counting global allocator: allocation count, live bytes and
//! peak live bytes, process-wide.
//!
//! `main.rs` installs it as the `#[global_allocator]`. Readings are
//! diffed around a measured span; the peak can be re-armed to the
//! current live size with [`reset_peak`] so that one window's peak is
//! read on its own. Without the attribute every counter would stay at
//! zero, so [`probe`] checks that a known allocation moves them before
//! any workload runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The counting allocator; forwards every call to [`System`].
pub struct CountingAllocator;

// The counters publish no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // A plain load first: most allocations do not raise the peak, and a
    // read leaves the cache line shared between threads.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counters only observe sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout (see the impl).
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout (see the impl).
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's pointer, layout and size.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Counted as one allocation, as the default `realloc`
            // (allocate, copy, free) would be.
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct HeapReading {
    /// Allocations since process start.
    pub allocations: u64,
    /// Bytes currently allocated.
    pub live_bytes: usize,
    /// Largest `live_bytes` since start or the last [`reset_peak`].
    pub peak_bytes: usize,
}

/// Reads the counters.
pub fn reading() -> HeapReading {
    HeapReading {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Re-arms the peak at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The vacuous-zero guard: a known allocation must move the allocation
/// count and show in the live and peak bytes. Errors when the allocator
/// is not installed, since every heap figure would then read zero.
pub fn probe() -> Result<(), String> {
    const BYTES: usize = 4096;
    let before = reading();
    let block = std::hint::black_box(vec![1u8; BYTES]);
    let during = reading();
    drop(block);
    // Only bounds that other threads' frees cannot break: the block is
    // live while `during` is read, and the peak was raised past it.
    if during.allocations <= before.allocations
        || during.live_bytes < BYTES
        || during.peak_bytes < BYTES
    {
        return Err(format!(
            "the counting allocator did not see a {BYTES}-byte allocation \
             (before {before:?}, during {during:?}); heap metrics would be vacuous"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_sees_a_known_allocation() {
        probe().expect("the test binary installs the counting allocator");
    }

    #[test]
    fn freeing_returns_live_bytes_and_keeps_the_peak() {
        // Other test threads allocate concurrently, so only bounds that
        // hold regardless of them are asserted.
        let block = std::hint::black_box(vec![0u8; 1 << 20]);
        let held = reading();
        drop(block);
        assert!(held.peak_bytes >= 1 << 20);
        assert!(reading().peak_bytes >= held.peak_bytes);
    }
}
