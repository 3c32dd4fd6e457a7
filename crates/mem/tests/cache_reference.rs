//! `Cache` against a reference model: an eagerly allocated set of fixed
//! ways with a valid bit per line, filled into the first invalid way.
//!
//! Seeded random sequences of probes (reads and writes), fills (demand
//! and prefetch), `mark_dirty` and `peek` drive both on tiny geometries
//! (1–4 sets of 1, 2 or 4 ways) under every replacement policy, so sets
//! fill and evict constantly. Every return value and the final
//! `CacheStats` must agree.

use atr_mem::cache::Probe;
use atr_mem::{Cache, CacheConfig, CacheStats, ReplacementPolicy};
use atr_rng::{RngExt, SeedableRng, SmallRng};

const LINE: u64 = 64;
const SEEDS: u64 = 24;
const OPS: usize = 1_500;

#[derive(Clone, Copy, Default)]
struct RefLine {
    valid: bool,
    tag: u64,
    dirty: bool,
    prefetched: bool,
    ready_at: u64,
    stamp: u64,
}

/// The fixed-ways reference: every way exists from construction, and a
/// fill takes the first invalid way before any replacement decision.
struct RefCache {
    policy: ReplacementPolicy,
    ways: usize,
    sets: Vec<Vec<RefLine>>,
    stats: CacheStats,
    tick: u64,
    lfsr: u32,
}

impl RefCache {
    fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        RefCache {
            policy,
            ways,
            sets: vec![vec![RefLine::default(); ways]; sets],
            stats: CacheStats::default(),
            tick: 0,
            lfsr: 0xbeef,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let nsets = self.sets.len() as u64;
        (((addr / LINE) % nsets) as usize, addr / (LINE * nsets))
    }

    fn find(&mut self, addr: u64) -> Option<&mut RefLine> {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag)
    }

    fn probe(&mut self, addr: u64, cycle: u64, is_write: bool) -> Probe {
        self.tick += 1;
        let (tick, lru) = (self.tick, self.policy == ReplacementPolicy::Lru);
        let Some(line) = self.find(addr) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        if lru {
            line.stamp = tick;
        }
        line.dirty |= is_write;
        let useful = std::mem::take(&mut line.prefetched);
        let ready_at = line.ready_at;
        self.stats.prefetch_useful += u64::from(useful);
        self.stats.hits += 1;
        self.stats.inflight_hits += u64::from(ready_at > cycle);
        Probe::Hit { ready_at: ready_at.max(cycle) }
    }

    fn mark_dirty(&mut self, addr: u64) {
        if let Some(line) = self.find(addr) {
            line.dirty = true;
        }
    }

    fn peek(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    fn fill(&mut self, addr: u64, ready_at: u64, is_prefetch: bool) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        self.stats.prefetch_fills += u64::from(is_prefetch);
        if let Some(line) = self.find(addr) {
            line.ready_at = line.ready_at.min(ready_at);
            return None;
        }
        let (set, tag) = self.locate(addr);
        let nsets = self.sets.len() as u64;
        let way = match self.sets[set].iter().position(|l| !l.valid) {
            Some(free) => free,
            None => match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let stamps: Vec<u64> = self.sets[set].iter().map(|l| l.stamp).collect();
                    let best =
                        (0..stamps.len()).fold(0, |b, i| if stamps[i] < stamps[b] { i } else { b });
                    // Every probe and fill takes a fresh tick, so stamps
                    // never tie and "first minimum" needs no tie-break.
                    assert_eq!(stamps.iter().filter(|&&s| s == stamps[best]).count(), 1);
                    best
                }
                ReplacementPolicy::Random => {
                    let bit =
                        (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
                    self.lfsr = (self.lfsr >> 1) | (bit << 15);
                    self.lfsr as usize % self.ways
                }
            },
        };
        let victim = self.sets[set][way];
        let wb = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            (victim.tag * nsets + set as u64) * LINE
        });
        self.sets[set][way] = RefLine {
            valid: true,
            tag,
            dirty: false,
            prefetched: is_prefetch,
            ready_at,
            stamp: tick,
        };
        wb
    }
}

fn drive(sets: usize, ways: usize, policy: ReplacementPolicy, seed: u64) {
    let cfg = CacheConfig {
        size_bytes: sets * ways * LINE as usize,
        ways,
        line_bytes: LINE as usize,
        latency: 3,
        mshrs: 4,
        policy,
    };
    let mut cache = Cache::new(cfg);
    let mut model = RefCache::new(sets, ways, policy);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Three times as many distinct lines as the cache holds, at random
    // offsets within each line.
    let lines = (3 * sets * ways) as u64;
    let mut cycle = 0u64;
    for op in 0..OPS {
        cycle += rng.random_range(0..8u64);
        let addr = rng.random_range(0..lines) * LINE + rng.random_range(0..LINE);
        let ctx = format!("{sets}x{ways} {policy:?} seed {seed} op {op} addr {addr:#x}");
        match rng.random_range(0..6u32) {
            0 | 1 => {
                let is_write = rng.random_bool(0.4);
                let got = cache.probe(addr, cycle, is_write);
                assert_eq!(got, model.probe(addr, cycle, is_write), "probe: {ctx}");
            }
            2 | 3 => {
                let ready_at = cycle + rng.random_range(0..200u64);
                let is_prefetch = rng.random_bool(0.3);
                let got = cache.fill(addr, ready_at, is_prefetch);
                assert_eq!(got, model.fill(addr, ready_at, is_prefetch), "fill: {ctx}");
            }
            4 => {
                cache.mark_dirty(addr);
                model.mark_dirty(addr);
            }
            _ => assert_eq!(cache.peek(addr), model.peek(addr), "peek: {ctx}"),
        }
    }
    let ctx = format!("{sets}x{ways} {policy:?} seed {seed}");
    assert_eq!(*cache.stats(), model.stats, "final stats: {ctx}");
    assert!(model.stats.writebacks > 0, "the sequence never wrote back: {ctx}");
}

#[test]
fn cache_matches_the_fixed_ways_reference() {
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random] {
        for sets in [1, 2, 4] {
            for ways in [1, 2, 4] {
                for seed in 0..SEEDS {
                    drive(sets, ways, policy, 0xCAC4_E000 + seed);
                }
            }
        }
    }
}
