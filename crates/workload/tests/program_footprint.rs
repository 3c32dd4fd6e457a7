//! Guards the heap footprint of a built program.
//!
//! A pass keeps one program per profile (and per replicate) alive for
//! its whole length, so bytes per static instruction are paid many
//! times over. A program is three boxed slices laid out once by the
//! builder (instructions, one behaviour slot per instruction, and the
//! behaviours themselves), with no hash maps and no `Vec` slack.
//!
//! A counting global allocator over `System` tracks this thread's live
//! heap bytes (its own test binary, so no other test shares it); the
//! bytes a program holds are the live bytes after building it minus
//! those before.

use atr_workload::spec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Heap bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn record(delta: isize) {
    // `try_with` keeps allocations during thread teardown safe.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the tally is a
// side effect on a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes of each built Table 2 program when programs were
/// three hash maps (PC index, branch behaviours, address patterns) over
/// a `Vec` of instructions, in `spec::all_profiles()` order.
const MAP_LAYOUT_BYTES: [usize; 23] = [
    73_440, 48_826, 39_438, 73_386, 73_382, 72_725, 72_712, 48_136, 73_380, 73_414, 77_968, 77_969,
    144_527, 78_633, 77_960, 77_968, 78_642, 48_138, 78_640, 145_212, 77_964, 78_627, 78_643,
];

/// Allowed share of the map layout's bytes.
const BOUND: f64 = 0.75;

#[test]
fn built_programs_hold_at_most_three_quarters_of_the_map_layout() {
    let profiles = spec::all_profiles();
    assert_eq!(profiles.len(), MAP_LAYOUT_BYTES.len(), "Table 2 has 23 profiles");
    let (mut total, mut total_before) = (0usize, 0usize);
    for (profile, &before) in profiles.iter().zip(&MAP_LAYOUT_BYTES) {
        let live = LIVE.with(Cell::get);
        let program = profile.build();
        let bytes = usize::try_from(LIVE.with(Cell::get) - live).expect("a program holds memory");
        eprintln!(
            "{:16} {:5} insts {:7} B ({:.1} B/inst) vs {before} B: {:.3}x",
            profile.name,
            program.len(),
            bytes,
            bytes as f64 / program.len() as f64,
            bytes as f64 / before as f64,
        );
        assert!(
            bytes as f64 <= BOUND * before as f64,
            "{}: program holds {bytes} B, over {BOUND} x {before} B",
            profile.name
        );
        total += bytes;
        total_before += before;
    }
    eprintln!("all 23: {total} B vs {total_before} B: {:.3}x", total as f64 / total_before as f64);
}
