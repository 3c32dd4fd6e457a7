//! The assembled memory hierarchy: L1I + L1D → L2 → LLC → DRAM.

use crate::cache::{Cache, CacheConfig, CacheStats, Probe};
use crate::dram::{Dram, DramConfig};
use crate::prefetch::{PrefetchConfig, Prefetcher};

/// What kind of access is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I path).
    InstFetch,
    /// Data load (L1D path).
    Load,
    /// Data store (L1D path, write-allocate).
    Store,
    /// Prefetch fill (charged bandwidth, never stalls the core).
    Prefetch,
}

/// The hierarchy level that ultimately serviced a demand access —
/// i.e. the deepest level the request had to travel to. Telemetry uses
/// this to classify memory-bound stall cycles by miss level; it has no
/// effect on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ServiceLevel {
    /// L1 hit (or an MSHR merge into an in-flight L1 fill).
    #[default]
    L1,
    /// L1 miss serviced by the L2.
    L2,
    /// L2 miss serviced by the LLC.
    Llc,
    /// LLC miss serviced by DRAM.
    Dram,
}

impl ServiceLevel {
    /// Short label for telemetry output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServiceLevel::L1 => "l1",
            ServiceLevel::L2 => "l2",
            ServiceLevel::Llc => "llc",
            ServiceLevel::Dram => "dram",
        }
    }
}

/// Full-hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified private L2.
    pub l2: CacheConfig,
    /// Shared LLC slice.
    pub llc: CacheConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// L1D prefetcher.
    pub prefetch: PrefetchConfig,
}

impl MemConfig {
    /// The Table 1 Golden-Cove-like hierarchy: 32 KiB/8-way L1I (3 cyc),
    /// 48 KiB/12-way L1D (3 cyc), 1.25 MiB/10-way L2 (14 cyc),
    /// 3 MiB/12-way LLC (40 cyc), DDR4-3200 × 2 channels.
    #[must_use]
    pub fn golden_cove() -> Self {
        let line = 64;
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: line,
                latency: 3,
                mshrs: 8,
            },
            l1d: CacheConfig {
                size_bytes: 48 << 10,
                ways: 12,
                line_bytes: line,
                latency: 3,
                mshrs: 16,
            },
            l2: CacheConfig {
                size_bytes: 1280 << 10,
                ways: 10,
                line_bytes: line,
                latency: 14,
                mshrs: 32,
            },
            llc: CacheConfig {
                size_bytes: 3 << 20,
                ways: 12,
                line_bytes: line,
                latency: 40,
                mshrs: 64,
            },
            dram: DramConfig::default(),
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// The memory hierarchy. One instance per simulated core.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
    prefetcher: Prefetcher,
    prefetches_completed: u64,
    last_service: ServiceLevel,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration.
    #[must_use]
    pub fn new(cfg: &MemConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            llc: Cache::new(cfg.llc.clone()),
            dram: Dram::new(cfg.dram.clone()),
            prefetcher: Prefetcher::new(cfg.prefetch.clone(), cfg.l1d.line_bytes as u64),
            prefetches_completed: 0,
            last_service: ServiceLevel::L1,
        }
    }

    /// The level that serviced the most recent demand access (set by
    /// [`MemoryHierarchy::access`] for fetches, loads, and stores;
    /// unchanged by prefetch fills).
    #[must_use]
    pub fn last_service_level(&self) -> ServiceLevel {
        self.last_service
    }

    /// Performs an access starting at `cycle`; returns the cycle the data
    /// is available to the core. Demand loads train the prefetcher, whose
    /// candidate lines are filled into L2 (and charged DRAM bandwidth).
    pub fn access(&mut self, kind: AccessKind, addr: u64, cycle: u64) -> u64 {
        let done = match kind {
            AccessKind::InstFetch => self.access_l1(false, addr, cycle, false),
            AccessKind::Load => self.access_l1(true, addr, cycle, false),
            AccessKind::Store => self.access_l1(true, addr, cycle, true),
            AccessKind::Prefetch => {
                self.fill_prefetch(addr, cycle);
                cycle
            }
        };
        if matches!(kind, AccessKind::Load | AccessKind::Store) {
            // Prefetch fills walk the LLC path too; they must not
            // clobber the demand access's service level.
            let demand_level = self.last_service;
            for line in self.prefetcher.observe(addr) {
                self.fill_prefetch(line, cycle);
            }
            self.last_service = demand_level;
        }
        done
    }

    fn access_l1(&mut self, data: bool, addr: u64, cycle: u64, is_write: bool) -> u64 {
        let l1 = if data { &mut self.l1d } else { &mut self.l1i };
        let lat = l1.config().latency;
        match l1.probe(addr, cycle, is_write) {
            // An in-flight line forwards its data on arrival (MSHR
            // merge); a present line pays the access latency.
            Probe::Hit { ready_at } => {
                self.last_service = ServiceLevel::L1;
                if ready_at > cycle {
                    ready_at
                } else {
                    cycle + lat
                }
            }
            Probe::Miss => {
                let start = l1.mshr_admit(cycle) + lat;
                let fill_done = self.access_l2(addr, start);
                let l1 = if data { &mut self.l1d } else { &mut self.l1i };
                if let Some(wb) = l1.fill(addr, fill_done, false) {
                    self.writeback_to_l2(wb, fill_done);
                }
                let l1 = if data { &mut self.l1d } else { &mut self.l1i };
                if is_write {
                    l1.mark_dirty(addr);
                }
                l1.mshr_commit(fill_done);
                fill_done
            }
        }
    }

    fn access_l2(&mut self, addr: u64, cycle: u64) -> u64 {
        let lat = self.l2.config().latency;
        match self.l2.probe(addr, cycle, false) {
            Probe::Hit { ready_at } => {
                self.last_service = ServiceLevel::L2;
                if ready_at > cycle {
                    ready_at
                } else {
                    cycle + lat
                }
            }
            Probe::Miss => {
                let start = self.l2.mshr_admit(cycle) + lat;
                let fill_done = self.access_llc(addr, start);
                if let Some(wb) = self.l2.fill(addr, fill_done, false) {
                    self.writeback_to_llc(wb, fill_done);
                }
                self.l2.mshr_commit(fill_done);
                fill_done
            }
        }
    }

    fn access_llc(&mut self, addr: u64, cycle: u64) -> u64 {
        let lat = self.llc.config().latency;
        match self.llc.probe(addr, cycle, false) {
            Probe::Hit { ready_at } => {
                self.last_service = ServiceLevel::Llc;
                if ready_at > cycle {
                    ready_at
                } else {
                    cycle + lat
                }
            }
            Probe::Miss => {
                self.last_service = ServiceLevel::Dram;
                let start = self.llc.mshr_admit(cycle) + lat;
                let fill_done = self.dram.read(addr, start);
                if let Some(wb) = self.llc.fill(addr, fill_done, false) {
                    let _ = self.dram.write(wb, fill_done);
                }
                self.llc.mshr_commit(fill_done);
                fill_done
            }
        }
    }

    fn writeback_to_l2(&mut self, addr: u64, cycle: u64) {
        // Writeback allocates in L2 (dirty); evictions cascade.
        if let Some(wb) = self.l2.fill(addr, cycle, false) {
            self.writeback_to_llc(wb, cycle);
        }
        self.l2.mark_dirty(addr);
    }

    fn writeback_to_llc(&mut self, addr: u64, cycle: u64) {
        if let Some(wb) = self.llc.fill(addr, cycle, false) {
            let _ = self.dram.write(wb, cycle);
        }
        self.llc.mark_dirty(addr);
    }

    /// Installs a prefetch for `addr` into L2 (and LLC), charging real
    /// latency and bandwidth but never stalling the requester.
    fn fill_prefetch(&mut self, addr: u64, cycle: u64) {
        if self.l2.peek(addr) {
            return;
        }
        self.prefetches_completed += 1;
        let fill_done = self.access_llc(addr, cycle + self.l2.config().latency);
        if let Some(wb) = self.l2.fill(addr, fill_done, true) {
            self.writeback_to_llc(wb, fill_done);
        }
    }

    /// Statistics of each level: (l1i, l1d, l2, llc).
    #[must_use]
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats) {
        (*self.l1i.stats(), *self.l1d.stats(), *self.l2.stats(), *self.llc.stats())
    }

    /// DRAM statistics: (reads, writes, row hits).
    #[must_use]
    pub fn dram_stats(&self) -> (u64, u64, u64) {
        self.dram.stats()
    }

    /// Prefetches installed into L2.
    #[must_use]
    pub fn prefetches(&self) -> u64 {
        self.prefetches_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&MemConfig::golden_cove())
    }

    fn no_prefetch() -> MemoryHierarchy {
        let mut cfg = MemConfig::golden_cove();
        cfg.prefetch.enabled = false;
        MemoryHierarchy::new(&cfg)
    }

    #[test]
    fn cold_miss_pays_full_path_and_warm_hit_is_l1() {
        let mut m = no_prefetch();
        let t0 = 100;
        let done = m.access(AccessKind::Load, 0x1000, t0);
        // l1(3) + l2(14) + llc(40) + dram(195) = 252.
        assert_eq!(done, t0 + 3 + 14 + 40 + 195);
        assert_eq!(m.last_service_level(), ServiceLevel::Dram);
        let hit = m.access(AccessKind::Load, 0x1000, done + 10);
        assert_eq!(hit, done + 10 + 3);
        assert_eq!(m.last_service_level(), ServiceLevel::L1);
    }

    #[test]
    fn service_level_tracks_the_deepest_level_touched() {
        let mut m = no_prefetch();
        // Fill enough lines to evict line 0 from L1D but keep it in L2
        // (mirrors `l2_hit_after_l1_eviction_pressure`).
        let base = 0x10_0000u64;
        let mut t = 0;
        for i in 0..2048u64 {
            t = m.access(AccessKind::Load, base + i * 64, t + 1);
        }
        let reaccess = m.access(AccessKind::Load, base, t + 1);
        assert_eq!(reaccess, t + 1 + 3 + 14, "expected an L2 hit");
        assert_eq!(m.last_service_level(), ServiceLevel::L2);
        assert!(ServiceLevel::L1 < ServiceLevel::L2);
        assert!(ServiceLevel::Llc < ServiceLevel::Dram);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut m = no_prefetch();
        // Fill far more lines than L1D holds but well within L2.
        let base = 0x10_0000u64;
        let mut t = 0;
        for i in 0..2048u64 {
            t = m.access(AccessKind::Load, base + i * 64, t + 1);
        }
        // Line 0 must have been evicted from L1D but still be in L2:
        let reaccess = m.access(AccessKind::Load, base, t + 1);
        assert_eq!(reaccess, t + 1 + 3 + 14, "expected an L2 hit");
    }

    #[test]
    fn inflight_miss_merges_instead_of_duplicating() {
        let mut m = no_prefetch();
        let a = m.access(AccessKind::Load, 0x2000, 0);
        // Second access to the same line while the fill is in flight:
        let b = m.access(AccessKind::Load, 0x2010, 1);
        assert_eq!(b, a.max(1), "merged access completes with the fill");
        assert_eq!(m.dram_stats().0, 1, "only one DRAM read");
    }

    #[test]
    fn stores_write_allocate_and_write_back() {
        let mut m = no_prefetch();
        let t = m.access(AccessKind::Store, 0x3000, 0);
        assert!(t >= 252);
        // Evict the dirty line by filling its L1D set (12 ways), then its
        // L2 set... simpler: verify the dirty bit exists by forcing a
        // long scan and counting writebacks at L1D.
        let mut cyc = t;
        for i in 1..4096u64 {
            cyc = m.access(AccessKind::Load, 0x3000 + i * 64 * 8, cyc + 1);
        }
        let (_, l1d, _, _) = m.stats();
        assert!(l1d.writebacks >= 1, "dirty line should have been written back");
    }

    #[test]
    fn prefetcher_hides_streaming_latency() {
        let mut with_pf = mem();
        let mut without_pf = no_prefetch();
        let run = |m: &mut MemoryHierarchy| -> u64 {
            let mut cycle = 0u64;
            for i in 0..4096u64 {
                let done = m.access(AccessKind::Load, 0x40_0000 + i * 64, cycle);
                cycle = done; // serialized pointer-style consumption
            }
            cycle
        };
        let t_pf = run(&mut with_pf);
        let t_nopf = run(&mut without_pf);
        assert!(
            (t_pf as f64) < 0.7 * t_nopf as f64,
            "prefetching should cut streaming time: {t_pf} vs {t_nopf}"
        );
    }

    #[test]
    fn inst_and_data_paths_are_split() {
        let mut m = no_prefetch();
        let _ = m.access(AccessKind::InstFetch, 0x5000, 0);
        let (l1i, l1d, _, _) = m.stats();
        assert_eq!(l1i.misses, 1);
        assert_eq!(l1d.accesses(), 0);
        // Data access to the same address misses L1D but hits L2.
        let t = m.access(AccessKind::Load, 0x5000, 300);
        assert_eq!(t, 300 + 3 + 14);
    }

    #[test]
    fn dram_bandwidth_backpressures_bursts() {
        let mut m = no_prefetch();
        // 64 independent cold misses issued the same cycle.
        let dones: Vec<u64> =
            (0..64u64).map(|i| m.access(AccessKind::Load, 0x100_0000 + i * 64 * 131, 0)).collect();
        let first = dones.iter().min().unwrap();
        let last = dones.iter().max().unwrap();
        assert!(last - first >= 64 / 2 * 8 / 2, "channel queueing should spread completions");
    }
}
