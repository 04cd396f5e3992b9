//! Counting global allocator for the traced run.
//!
//! The library crates forbid `unsafe`; the benchmark binary owns its
//! allocator, so allocation counts are taken from outside like every
//! other number here. Counting is off unless [`enable`] was called (the
//! untraced run pays one relaxed load per allocation). Counts are kept
//! per thread, so a span snapshots only the work of the thread that runs
//! it, and they repeat exactly for a seed because the simulation does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`enable`], over all threads.
/// Signed: blocks allocated before counting began may be freed after.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator runs during thread teardown too.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    // A new peak is rare; the plain load keeps the common path to one
    // read-modify-write.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping around the
// call touches only atomics and const-initialised thread-local `Cell`s,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            note(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            note(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting and zeroes the live/peak byte gauges.
pub fn enable() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Allocations and bytes requested by the calling thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    #[must_use]
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[must_use]
pub fn thread_counts() -> Counts {
    Counts {
        allocs: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Heap bytes currently held (all threads) since [`enable`].
#[must_use]
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since [`enable`] or [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
