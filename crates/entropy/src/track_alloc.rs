//! Shared allocation-counting instrument (feature `track_alloc`).
//!
//! Both allocation checks in the workspace — the `alloc_free` test suite in
//! this crate and the `alloc` bench target in `maimon-bench` — count heap
//! activity with the same [`CountingAllocator`], defined once here so the
//! instrument cannot drift between them. Each leaf binary still installs
//! its *own* `#[global_allocator]` static (an allocator is per-binary by
//! construction), which is also why the timing bench targets stay
//! unaffected: merely compiling this module installs nothing.
//!
//! Allocations, zeroed allocations and reallocations are all counted;
//! deallocations are not interesting to the zero-allocation contracts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Per-thread tally: a measurement reads only the allocations of the
    /// thread running the measured code, never those of a concurrent
    /// thread such as the test harness's own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Reads the calling thread's allocation count.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count() {
    // `try_with`: the slot holds a plain `Cell` with no destructor, and an
    // allocation during thread teardown must not panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts every `alloc`, `alloc_zeroed`
/// and `realloc` of the calling thread (see [`allocations`]). Install per
/// binary with `#[global_allocator]`.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}
