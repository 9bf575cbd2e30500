//! A counting global allocator for allocation-budget benchmarks.
//!
//! The regression gate reports *allocation counts* alongside
//! throughput: they are deterministic for a fixed seed and
//! workload, so they regress loudly and reproducibly where wall-clock
//! numbers drift with the host. Install [`CountingAllocator`] as the
//! `#[global_allocator]` in a binary, then bracket the measured region
//! with [`alloc_count`] reads.
//!
//! `realloc` is counted as one allocation event: a `Vec` that grows
//! without a reserved capacity shows up here, which is exactly the
//! class of hot-path waste the gate exists to catch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator while counting allocation events.
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side-effect-only.
#[expect(unsafe_code, reason = "`GlobalAlloc` is an unsafe trait")]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract for `layout`
        // is passed to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller's contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; `new_size` obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation events (alloc + realloc) since process start.
pub fn alloc_count() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}
