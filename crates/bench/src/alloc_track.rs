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
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn live_add(n: u64) {
    let live = LIVE_BYTES.fetch_add(n, Ordering::Relaxed) + n;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Forwards to the system allocator while counting events and live bytes.
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side-effect-only.
#[expect(unsafe_code, reason = "`GlobalAlloc` is an unsafe trait")]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        live_add(layout.size() as u64);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract for `layout`
        // is passed to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller's contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        live_add(new_size as u64);
        // SAFETY: as `dealloc`; `new_size` obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation events (alloc + realloc) since process start.
pub fn alloc_count() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// High-water mark of the bytes allocated and not yet freed, since
/// process start (or the last [`reset_peak`]) — a deterministic RSS
/// proxy for memory gates, free of the page-cache and fragmentation
/// noise a real RSS reading has.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live size and returns
/// that size: a measured region's peak is [`peak_bytes`] above it,
/// whatever the process already held (its arguments, earlier results).
pub fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}
