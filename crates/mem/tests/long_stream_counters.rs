//! Pinned counters of the full hierarchy over a long, seeded stream.
//!
//! The stream's data footprint (16 MiB) is several times the LLC and its
//! code footprint (96 KiB) three times the L1I, so every level fills its
//! sets, evicts and writes back. The expected values were captured from
//! the eagerly allocated fixed-ways cache layout; any change to the
//! caches' replacement, writeback or MSHR behaviour moves at least one
//! of them.

use atr_mem::{AccessKind, CacheStats, MemConfig, MemoryHierarchy};
use atr_rng::{RngExt, SeedableRng, SmallRng};

const ACCESSES: u64 = 200_000;
const DATA_BASE: u64 = 0x1000_0000;
const DATA_BYTES: u64 = 16 << 20;
const HOT_BYTES: u64 = 256 << 10;
const CODE_BASE: u64 = 0x40_0000;
const CODE_BYTES: u64 = 96 << 10;
/// Accesses in flight at once: access `i` waits for access `i - MLP`.
const MLP: usize = 16;

/// Runs the stream; returns the sum of every access's completion cycle.
fn run(mem: &mut MemoryHierarchy) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x5EED_CAC4E);
    let mut streams = [DATA_BASE, DATA_BASE + (5 << 20), DATA_BASE + (11 << 20)];
    let mut pc = CODE_BASE;
    let mut cycle = 0u64;
    let mut done_sum = 0u64;
    let mut window = [0u64; MLP];
    for i in 0..ACCESSES as usize {
        cycle = (cycle + rng.random_range(0..4u64)).max(window[i % MLP]);
        let pick = rng.random_range(0..100u32);
        let (kind, addr) = if pick < 10 {
            // Instruction fetch: mostly sequential, with taken branches.
            pc = if rng.random_bool(0.1) {
                CODE_BASE + rng.random_range(0..CODE_BYTES / 4) * 4
            } else {
                CODE_BASE + (pc - CODE_BASE + 4) % CODE_BYTES
            };
            (AccessKind::InstFetch, pc)
        } else {
            let addr = if pick < 45 {
                // One of three sequential streams (trains the prefetcher).
                let s = &mut streams[rng.random_range(0..3usize)];
                *s = DATA_BASE + (*s - DATA_BASE + 32) % DATA_BYTES;
                *s
            } else if pick < 75 {
                DATA_BASE + rng.random_range(0..HOT_BYTES)
            } else {
                DATA_BASE + rng.random_range(0..DATA_BYTES)
            };
            let kind = if rng.random_bool(0.3) { AccessKind::Store } else { AccessKind::Load };
            (kind, addr)
        };
        let done = mem.access(kind, addr, cycle);
        window[i % MLP] = done;
        done_sum += done;
    }
    done_sum
}

fn stats(
    hits: u64,
    misses: u64,
    inflight_hits: u64,
    prefetch_fills: u64,
    prefetch_useful: u64,
    writebacks: u64,
) -> CacheStats {
    CacheStats { hits, misses, inflight_hits, prefetch_fills, prefetch_useful, writebacks }
}

#[test]
fn golden_cove_counters_over_a_long_stream_are_pinned() {
    let mut mem = MemoryHierarchy::new(&MemConfig::golden_cove());
    let done_sum = run(&mut mem);
    let (l1i, l1d, l2, llc) = mem.stats();
    assert_eq!(l1i, stats(17_541, 2_284, 2_193, 0, 0, 0), "l1i");
    assert_eq!(l1d, stats(40_321, 139_854, 14_237, 0, 0, 50_065), "l1d");
    assert_eq!(l2, stats(86_671, 55_467, 2, 29_681, 29_663, 25_687), "l2");
    assert_eq!(llc, stats(7_267, 77_881, 2, 0, 0, 10_360), "llc");
    assert_eq!(mem.dram_stats(), (77_881, 10_360, 3_834), "dram (reads, writes, row hits)");
    assert_eq!(mem.prefetches(), 29_681, "prefetches");
    assert_eq!(done_sum, 305_374_277_231, "sum of completion cycles");
    // Every level fills more lines than it holds.
    assert!(l1i.misses > (32 << 10) / 64 && llc.misses > (3 << 20) / 64);
}
