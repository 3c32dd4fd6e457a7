//! A warmed-up core barely touches the heap: the ROB and issue queue are
//! slot-addressed rings, rename checkpoints are fixed arrays, and the
//! flush paths reuse the core's own buffers, so the per-cycle path
//! allocates almost nothing once warm.
//!
//! A counting global allocator over `System` tallies this thread's
//! allocations (its own test binary, so no other test shares it), and
//! the guard needs no timing.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, OooCore};
use atr_workload::{spec, Oracle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static TALLY: Cell<usize> = const { Cell::new(0) };
}

fn record() {
    // `try_with` keeps allocations during thread teardown safe.
    let _ = TALLY.try_with(|t| t.set(t.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the tally is a
// side effect on a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARMUP: u64 = 50_000;
const MEASURED: u64 = 20_000;
/// Allowed heap allocations per retired instruction after warmup.
const BOUND: f64 = 0.15;

/// Allocations per retired instruction of `profile` at RF 280 under
/// combined, over `MEASURED` instructions after a `WARMUP`.
fn allocations_per_inst(profile: &str) -> f64 {
    let program = spec::find_profile(profile).expect("profile").params.build();
    let cfg = CoreConfig::default()
        .with_rf_size(280)
        .with_scheme(ReleaseScheme::Combined { redefine_delay: 0 });
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let warm = core.run(WARMUP);
    let before = TALLY.with(Cell::get);
    let end = core.run(MEASURED);
    let allocations = TALLY.with(Cell::get) - before;
    let retired = end.retired - warm.retired;
    assert!(retired >= MEASURED, "{profile}: retired {retired}");
    allocations as f64 / retired as f64
}

#[test]
fn warmed_up_cores_make_almost_no_allocations_per_instruction() {
    for profile in ["502.gcc_r", "505.mcf_r"] {
        let per_inst = allocations_per_inst(profile);
        eprintln!("{profile}: {per_inst:.3} allocations per retired instruction");
        assert!(
            per_inst <= BOUND,
            "{profile}: {per_inst:.3} allocations per retired instruction (bound {BOUND})"
        );
    }
}
