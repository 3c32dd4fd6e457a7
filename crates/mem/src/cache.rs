//! Set-associative timestamped LRU cache with MSHR accounting.

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 throughout the paper's config).
    pub line_bytes: usize,
    /// Access latency in cycles (added on a hit; misses additionally pay
    /// the lower levels).
    pub latency: u64,
    /// Outstanding line-fill limit (MSHRs).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets or
    /// line size, zero ways).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0, "cache needs at least one way");
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(lines % self.ways, 0, "lines must divide evenly into ways");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss and traffic counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits (including hits on in-flight lines).
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Hits whose line was still in flight (MSHR merge).
    pub inflight_hits: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines that were later demanded (usefulness).
    pub prefetch_useful: u64,
    /// Dirty evictions (writebacks to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over demand accesses (0 when idle).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    prefetched: bool,
    /// Cycle the line's data arrives (hit-under-fill returns this).
    ready_at: u64,
    /// LRU stamp: the tick of the line's last fill or demand hit.
    stamp: u64,
}

/// Result of probing a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present; data available at the given cycle.
    Hit {
        /// Cycle at which data is available (>= probe cycle for
        /// in-flight lines).
        ready_at: u64,
    },
    /// Line absent.
    Miss,
}

/// A set-associative LRU cache with timestamped lines and MSHR
/// bookkeeping.
///
/// Each set holds only its valid lines, in way order: a set starts empty
/// and grows by one line per fill until it has `ways` lines. Nothing
/// ever invalidates a line, so a set never shrinks, and building a
/// cache costs one allocation however many lines it has.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
    /// Completion times of outstanding fills (pruned lazily).
    inflight: Vec<u64>,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = vec![Vec::new(); cfg.num_sets()];
        Cache { sets, stats: CacheStats::default(), tick: 0, inflight: Vec::new(), cfg }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line-aligned address of `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) & (self.sets.len() as u64 - 1)) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.line_bytes as u64 * self.sets.len() as u64)
    }

    /// Probes for `addr` at `cycle`, updating replacement state and
    /// demand statistics. Marks the line dirty when `is_write`.
    pub fn probe(&mut self, addr: u64, cycle: u64, is_write: bool) -> Probe {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = (self.set_index(addr), self.tag_of(addr));
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            line.stamp = tick;
            if is_write {
                line.dirty = true;
            }
            if line.prefetched {
                line.prefetched = false;
                self.stats.prefetch_useful += 1;
            }
            self.stats.hits += 1;
            if line.ready_at > cycle {
                self.stats.inflight_hits += 1;
            }
            Probe::Hit { ready_at: line.ready_at.max(cycle) }
        } else {
            self.stats.misses += 1;
            Probe::Miss
        }
    }

    /// Marks the line holding `addr` dirty without touching replacement
    /// state or statistics (write-allocate fill completion).
    pub fn mark_dirty(&mut self, addr: u64) {
        let (set, tag) = (self.set_index(addr), self.tag_of(addr));
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            line.dirty = true;
        }
    }

    /// Probes without disturbing replacement or statistics (prefetcher
    /// filter / tests).
    #[must_use]
    pub fn peek(&self, addr: u64) -> bool {
        let (set, tag) = (self.set_index(addr), self.tag_of(addr));
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Installs the line for `addr`, arriving at `ready_at`. Returns the
    /// address of a dirty victim, if one was evicted, so the caller can
    /// charge a writeback.
    pub fn fill(&mut self, addr: u64, ready_at: u64, is_prefetch: bool) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = (self.set_index(addr), self.tag_of(addr));
        let line_bytes = self.cfg.line_bytes as u64;
        let nsets = self.sets.len() as u64;
        if is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        // Refill of a present (possibly in-flight) line: keep the earlier
        // arrival time; the LRU stamp is left as it was.
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
            line.ready_at = line.ready_at.min(ready_at);
            return None;
        }
        let line = Line { tag, dirty: false, prefetched: is_prefetch, ready_at, stamp: tick };
        let set = &mut self.sets[set_idx];
        if set.len() < self.cfg.ways {
            // The first fill reserves every way; later ones find room.
            set.reserve_exact(self.cfg.ways - set.len());
            set.push(line);
            return None;
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.stamp)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = std::mem::replace(&mut set[victim_idx], line);
        if victim.dirty {
            self.stats.writebacks += 1;
            Some((victim.tag * nsets + set_idx as u64) * line_bytes)
        } else {
            None
        }
    }

    /// MSHR admission for a new miss starting at `cycle`: returns the
    /// cycle the fill may begin (delayed when all MSHRs are busy) and
    /// records the eventual completion via [`Cache::mshr_commit`].
    pub fn mshr_admit(&mut self, cycle: u64) -> u64 {
        self.inflight.retain(|&done| done > cycle);
        if self.inflight.len() < self.cfg.mshrs {
            return cycle;
        }
        // All MSHRs busy: the fill starts when the earliest completes.
        let (idx, &earliest) = self
            .inflight
            .iter()
            .enumerate()
            .min_by_key(|(_, &d)| d)
            .expect("inflight non-empty when full");
        self.inflight.swap_remove(idx);
        earliest.max(cycle)
    }

    /// Records an admitted miss completing at `done`.
    pub fn mshr_commit(&mut self, done: u64) {
        self.inflight.push(done);
    }

    /// Outstanding fills at `cycle` (diagnostics).
    #[must_use]
    pub fn mshr_occupancy(&self, cycle: u64) -> usize {
        self.inflight.iter().filter(|&&d| d > cycle).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 4 sets x 4 ways x 64B
            ways: 4,
            line_bytes: 64,
            latency: 3,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(0x1000, 10, false), Probe::Miss);
        c.fill(0x1000, 50, false);
        assert_eq!(c.probe(0x1000, 60, false), Probe::Hit { ready_at: 60 });
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hit_under_fill_returns_ready_time() {
        let mut c = small();
        c.fill(0x1000, 200, false);
        // Probing before the data arrives: hit, but data at 200.
        assert_eq!(c.probe(0x1000, 100, false), Probe::Hit { ready_at: 200 });
        assert_eq!(c.stats().inflight_hits, 1);
    }

    #[test]
    fn same_line_offsets_share_a_line() {
        let mut c = small();
        c.fill(0x1000, 1, false);
        assert!(matches!(c.probe(0x103f, 10, false), Probe::Hit { .. }));
        assert!(matches!(c.probe(0x1040, 10, false), Probe::Miss));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // 4 ways in set 0: lines at stride 4*64 = 256 bytes.
        let lines: Vec<u64> = (0..5).map(|i| i * 256).collect();
        for &a in &lines[..4] {
            c.fill(a, 1, false);
        }
        let _ = c.probe(lines[0], 2, false); // warm line 0
        c.fill(lines[4], 3, false); // evicts line 1 (oldest unwarmed)
        assert!(c.peek(lines[0]));
        assert!(!c.peek(lines[1]));
        assert!(c.peek(lines[4]));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        let lines: Vec<u64> = (0..5).map(|i| i * 256).collect();
        c.fill(lines[0], 1, false);
        let _ = c.probe(lines[0], 2, true); // dirty it
        for &a in &lines[1..4] {
            c.fill(a, 1, false);
        }
        let wb = c.fill(lines[4], 5, false);
        assert_eq!(wb, Some(lines[0]));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mshr_merge_via_inflight_hit_and_admission_delay() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
            latency: 3,
            mshrs: 2,
        });
        // Two outstanding fills exhaust the MSHRs.
        assert_eq!(c.mshr_admit(10), 10);
        c.mshr_commit(100);
        assert_eq!(c.mshr_admit(10), 10);
        c.mshr_commit(200);
        assert_eq!(c.mshr_occupancy(50), 2);
        // Third miss at cycle 20 waits for the 100-cycle completion.
        assert_eq!(c.mshr_admit(20), 100);
    }

    #[test]
    fn prefetch_usefulness_is_tracked() {
        let mut c = small();
        c.fill(0x2000, 5, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        let _ = c.probe(0x2000, 10, false);
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second demand hit does not double count.
        let _ = c.probe(0x2000, 11, false);
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3072,
            ways: 4,
            line_bytes: 64,
            latency: 1,
            mshrs: 1,
        });
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = small();
        let _ = c.probe(0, 1, false);
        c.fill(0, 2, false);
        let _ = c.probe(0, 3, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
    }
}
