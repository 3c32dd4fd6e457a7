//! The hardware data prefetcher of Table 1: a stream detector
//! (direction-trained, multi-degree) plus a spatial-footprint predictor
//! (SMS-lite), both trained by every demand load and store.

/// Prefetcher tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Runs the stream and spatial prefetchers. Off serves the
    /// hierarchy tests that need prefetch-free latencies.
    pub enabled: bool,
    /// Lines fetched ahead per trained stream trigger.
    pub degree: usize,
    /// Lines of lookahead distance.
    pub distance: u64,
    /// Stream table entries.
    pub streams: usize,
    /// Spatial region size in bytes.
    pub region_bytes: u64,
    /// Spatial pattern table entries.
    pub spatial_entries: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            degree: 4,
            distance: 4,
            streams: 16,
            region_bytes: 4096,
            spatial_entries: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    valid: bool,
    region: u64,
    last_line: u64,
    direction: i64,
    confidence: u8,
    lru: u64,
}

#[derive(Debug, Clone, Default)]
struct SpatialEntry {
    valid: bool,
    region: u64,
    footprint: u64, // bit per line in region
    lru: u64,
}

/// The L1D/L2 prefetch engine: observes demand accesses and emits
/// candidate prefetch line addresses.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    line_bytes: u64,
    streams: Vec<StreamEntry>,
    spatial: Vec<SpatialEntry>,
    live_region: Vec<SpatialEntry>,
    tick: u64,
    issued: u64,
}

impl Prefetcher {
    /// Creates a prefetcher for a cache with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[must_use]
    pub fn new(cfg: PrefetchConfig, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        Prefetcher {
            streams: vec![StreamEntry::default(); cfg.streams],
            spatial: vec![SpatialEntry::default(); cfg.spatial_entries],
            live_region: Vec::new(),
            tick: 0,
            issued: 0,
            line_bytes,
            cfg,
        }
    }

    /// Total prefetch candidates emitted.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access and returns the line addresses to
    /// prefetch.
    pub fn observe(&mut self, addr: u64) -> Vec<u64> {
        self.tick += 1;
        let mut out = Vec::new();
        if self.cfg.enabled {
            self.observe_stream(addr, &mut out);
            self.observe_spatial(addr, &mut out);
        }
        self.issued += out.len() as u64;
        out
    }

    fn observe_stream(&mut self, addr: u64, out: &mut Vec<u64>) {
        let line = addr / self.line_bytes;
        let region = addr / (self.cfg.region_bytes.max(self.line_bytes) * 4);
        let tick = self.tick;
        let idx = match self.streams.iter().position(|s| s.valid && s.region == region) {
            Some(i) => i,
            None => {
                let i = self
                    .streams
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| if s.valid { s.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("stream table non-empty");
                self.streams[i] = StreamEntry {
                    valid: true,
                    region,
                    last_line: line,
                    direction: 0,
                    confidence: 0,
                    lru: tick,
                };
                return;
            }
        };
        let s = &mut self.streams[idx];
        s.lru = tick;
        let delta = line as i64 - s.last_line as i64;
        if delta == 0 {
            return;
        }
        let dir = delta.signum();
        if s.direction == dir && delta.abs() <= 4 {
            s.confidence = (s.confidence + 1).min(3);
        } else {
            s.direction = dir;
            s.confidence = s.confidence.saturating_sub(1);
        }
        s.last_line = line;
        if s.confidence >= 2 {
            let (dir, degree, distance) = (s.direction, self.cfg.degree, self.cfg.distance);
            for d in 1..=degree as i64 {
                let target = line as i64 + dir * (distance as i64 + d - 1);
                if target > 0 {
                    out.push(target as u64 * self.line_bytes);
                }
            }
        }
    }

    fn observe_spatial(&mut self, addr: u64, out: &mut Vec<u64>) {
        let region_bytes = self.cfg.region_bytes.max(self.line_bytes);
        let region = addr / region_bytes;
        let line_in_region = (addr % region_bytes) / self.line_bytes;
        let tick = self.tick;

        // Update the live footprint for the region being touched.
        if let Some(e) = self.live_region.iter_mut().find(|e| e.region == region) {
            e.footprint |= 1 << (line_in_region & 63);
            e.lru = tick;
        } else {
            // Region transition: archive the coldest live region.
            if self.live_region.len() >= 4 {
                let idx = self
                    .live_region
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("live set non-empty");
                let done = self.live_region.swap_remove(idx);
                self.archive(done);
            }
            // On (re-)entering a region with a learned footprint,
            // prefetch it.
            if let Some(learned) = self.spatial.iter_mut().find(|e| e.valid && e.region == region) {
                learned.lru = tick;
                let fp = learned.footprint;
                for bit in 0..64u64 {
                    if fp & (1 << bit) != 0 && bit != (line_in_region & 63) {
                        out.push(region * region_bytes + bit * self.line_bytes);
                    }
                }
            }
            self.live_region.push(SpatialEntry {
                valid: true,
                region,
                footprint: 1 << (line_in_region & 63),
                lru: tick,
            });
        }
    }

    fn archive(&mut self, entry: SpatialEntry) {
        if entry.footprint.count_ones() < 2 {
            return; // single-line regions are not worth a pattern slot
        }
        if let Some(e) = self.spatial.iter_mut().find(|e| e.valid && e.region == entry.region) {
            e.footprint = entry.footprint;
            e.lru = self.tick;
            return;
        }
        let idx = self
            .spatial
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("spatial table non-empty");
        self.spatial[idx] = SpatialEntry { lru: self.tick, ..entry };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one access to the stream detector alone, as `observe`
    /// does before the spatial predictor runs.
    fn stream(p: &mut Prefetcher, addr: u64) -> Vec<u64> {
        p.tick += 1;
        let mut out = Vec::new();
        p.observe_stream(addr, &mut out);
        out
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p =
            Prefetcher::new(PrefetchConfig { enabled: false, ..PrefetchConfig::default() }, 64);
        for i in 0..100 {
            assert!(p.observe(i * 64).is_empty());
        }
    }

    #[test]
    fn stream_trains_on_ascending_accesses() {
        let mut p = Prefetcher::new(PrefetchConfig::default(), 64);
        let mut fired = Vec::new();
        for i in 0..10u64 {
            fired = stream(&mut p, 0x10000 + i * 64);
        }
        assert!(!fired.is_empty(), "trained stream should prefetch");
        // All candidates must be ahead of the last access.
        assert!(fired.iter().all(|&a| a > 0x10000 + 9 * 64));
    }

    #[test]
    fn stream_trains_descending() {
        let mut p = Prefetcher::new(PrefetchConfig::default(), 64);
        let mut fired = Vec::new();
        for i in 0..10u64 {
            fired = stream(&mut p, 0x20000 - i * 64);
        }
        assert!(!fired.is_empty());
        assert!(fired.iter().all(|&a| a < 0x20000 - 9 * 64));
    }

    #[test]
    fn random_accesses_do_not_train_streams() {
        let mut p = Prefetcher::new(PrefetchConfig::default(), 64);
        let mut total = 0usize;
        let mut x = 123456789u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            total += stream(&mut p, x % (1 << 30)).len();
        }
        assert!(total < 20, "random stream should rarely fire, got {total}");
    }

    #[test]
    fn spatial_replays_region_footprint() {
        let mut p = Prefetcher::new(PrefetchConfig::default(), 64);
        // Touch a sparse footprint in region A (lines 0, 3, 9), then move
        // through several other regions, then return to A.
        let region_a = 0x40_0000u64;
        for off in [0u64, 3 * 64, 9 * 64] {
            let _ = p.observe(region_a + off);
        }
        for r in 1..6u64 {
            let _ = p.observe(region_a + r * 4096);
            let _ = p.observe(region_a + r * 4096 + 64);
        }
        let fired = p.observe(region_a);
        let expected: Vec<u64> = vec![region_a + 3 * 64, region_a + 9 * 64];
        for e in expected {
            assert!(fired.contains(&e), "footprint line {e:#x} not replayed: {fired:x?}");
        }
    }
}
