//! Property-based tests of the memory hierarchy's timing model.
//!
//! Randomness comes from the in-tree `atr-rng` (the container has no
//! registry access for proptest); each case is seeded deterministically
//! so a failing seed reproduces the exact address stream.

use atr_mem::{AccessKind, MemConfig, MemoryHierarchy};
use atr_rng::{RngExt, SeedableRng, SmallRng};

const CASES: u64 = 64;

fn no_prefetch() -> MemConfig {
    let mut cfg = MemConfig::golden_cove();
    cfg.prefetch.enabled = false;
    cfg
}

fn random_addrs(rng: &mut SmallRng, max_len: usize, addr_bits: u32) -> Vec<u64> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| rng.random_range(0..1u64 << addr_bits)).collect()
}

#[test]
fn completion_never_precedes_the_request() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3E30_0000 + case);
        let addrs = random_addrs(&mut rng, 200, 28);
        let mut mem = MemoryHierarchy::new(&no_prefetch());
        for (cycle, a) in (0u64..).zip(addrs) {
            let done = mem.access(AccessKind::Load, a, cycle);
            assert!(done > cycle, "data cannot arrive at/before the request");
            // Worst case: full path plus every other in-flight miss
            // queued ahead of it (DRAM channel bandwidth and MSHR
            // admission both serialize) — linear in the burst size,
            // never unbounded.
            assert!(
                done <= cycle + 252 + 200 * 18,
                "latency {} exceeds the physical path plus queueing",
                done - cycle
            );
        }
    }
}

#[test]
fn same_line_reaccess_is_never_slower_than_cold() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3E31_0000 + case);
        let addr = rng.random_range(0..1u64 << 28);
        let gap = rng.random_range(1..1000u64);
        let mut mem = MemoryHierarchy::new(&no_prefetch());
        let cold = mem.access(AccessKind::Load, addr, 0);
        let warm_start = cold + gap;
        let warm = mem.access(AccessKind::Load, addr, warm_start);
        assert!(warm - warm_start <= cold, "warm access slower than cold");
    }
}

#[test]
fn timing_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3E32_0000 + case);
        let addrs = random_addrs(&mut rng, 100, 24);
        let run = |addrs: &[u64]| -> Vec<u64> {
            let mut mem = MemoryHierarchy::new(&no_prefetch());
            addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| mem.access(AccessKind::Load, a, i as u64 * 2))
                .collect()
        };
        assert_eq!(run(&addrs), run(&addrs));
    }
}

#[test]
fn stats_accumulate_conservation() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3E33_0000 + case);
        let addrs = random_addrs(&mut rng, 300, 26);
        let mut mem = MemoryHierarchy::new(&no_prefetch());
        for (i, &a) in addrs.iter().enumerate() {
            let _ = mem.access(AccessKind::Load, a, i as u64);
        }
        let (_, l1d, l2, _llc) = mem.stats();
        assert_eq!(l1d.accesses(), addrs.len() as u64);
        // Every L2 demand access stems from an L1D miss.
        assert!(l2.accesses() <= l1d.misses);
    }
}

#[test]
fn prefetcher_never_slows_a_pure_stream() {
    let mut with_pf = MemoryHierarchy::new(&MemConfig::golden_cove());
    let mut without = MemoryHierarchy::new(&no_prefetch());
    let run = |m: &mut MemoryHierarchy| {
        let mut t = 0u64;
        for i in 0..2000u64 {
            t = m.access(AccessKind::Load, 0x10_0000 + i * 64, t);
        }
        t
    };
    let a = run(&mut with_pf);
    let b = run(&mut without);
    assert!(a <= b, "prefetching a pure stream must not lose: {a} vs {b}");
}
