//! Building a memory hierarchy allocates almost nothing: cache sets start
//! empty and grow on their first fill, so construction cost does not
//! scale with the number of lines.
//!
//! A counting global allocator over `System` tallies this thread's
//! allocations, so the guard needs no timing and no sibling test can
//! disturb it.

use atr_mem::{MemConfig, MemoryHierarchy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (allocations, bytes) made by this thread.
    static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    // `try_with` keeps allocations during thread teardown safe.
    let _ = TALLY.try_with(|t| {
        let (n, total) = t.get();
        t.set((n + 1, total + bytes));
    });
}

// SAFETY: every method forwards to `System` unchanged; the tally is a
// side effect on a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn tally<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = TALLY.with(Cell::get);
    let out = f();
    let after = TALLY.with(Cell::get);
    (after.0 - before.0, after.1 - before.1, out)
}

#[test]
fn golden_cove_hierarchy_construction_is_a_handful_of_small_allocations() {
    let cfg = MemConfig::golden_cove();
    let (count, bytes, mem) = tally(|| MemoryHierarchy::new(&cfg));
    drop(mem);
    assert!(count <= 16, "MemoryHierarchy::new made {count} allocations");
    assert!(bytes <= 256 << 10, "MemoryHierarchy::new allocated {bytes} bytes");
}
