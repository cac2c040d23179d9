//! A counting global allocator: exact per-thread heap-allocation counts,
//! switched on only for traced runs so untraced timings pay one relaxed
//! load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised with no destructor: reading it never allocates,
    // so the allocator can touch it re-entrantly.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Allocations the benchmark's own bookkeeping made (see `untracked`).
    static EXCLUDED: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts `alloc`, `alloc_zeroed` and
/// `realloc` calls (a growing `Vec` pays one count per regrowth).
pub struct CountingAlloc;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn raw() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Allocations the calling thread has made while counting was on,
/// excluding those made inside [`untracked`].
pub fn thread_allocations() -> u64 {
    raw() - EXCLUDED.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` (benchmark bookkeeping, such as growing a span buffer) with
/// its allocations left out of [`thread_allocations`].
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    let before = raw();
    let out = f();
    let made = raw() - before;
    let _ = EXCLUDED.try_with(|c| c.set(c.get() + made));
    out
}
