//! TAGE direction predictor with a loop predictor (TAGE-L).
//!
//! This is the TAGE-SC-L-class predictor of Table 1: a bimodal base
//! table, a set of partially tagged tables indexed with geometrically
//! increasing global-history lengths, usefulness-driven allocation and
//! aging, plus a confidence-gated loop predictor that captures the
//! fixed-trip-count back-edges the workload generator emits. (The
//! statistical corrector of full TAGE-SC-L is omitted; its contribution
//! is small at these table sizes and it does not interact with the
//! register-release schemes under study.)

use crate::history::GlobalHistory;
use crate::predictor::DirectionPredictor;

/// TAGE geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of base (bimodal) table entries.
    pub base_bits: usize,
    /// log2 of entries per tagged table.
    pub table_bits: usize,
    /// Tag width in bits.
    pub tag_bits: usize,
    /// History length per tagged table, ascending.
    pub history_lengths: Vec<usize>,
    /// log2 of loop-predictor entries.
    pub loop_bits: usize,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            base_bits: 14,
            table_bits: 11,
            tag_bits: 9,
            history_lengths: vec![4, 8, 16, 32, 64, 128],
            loop_bits: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// Signed prediction counter in [-4, 3]; >= 0 predicts taken.
    ctr: i8,
    /// Usefulness counter in [0, 3].
    useful: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    /// Learned trip count (taken executions + 1 per loop entry).
    trip: u32,
    /// Current iteration counter.
    count: u32,
    /// Confidence in [0, 3]; >= 3 allows the loop predictor to override.
    conf: u8,
}

/// The TAGE-L predictor. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    loops: Vec<LoopEntry>,
    /// LFSR for pseudo-random allocation.
    lfsr: u32,
    updates: u64,
}

struct Lookup {
    provider: Option<usize>,
    provider_idx: usize,
    alt_taken: bool,
    base_idx: usize,
}

impl Tage {
    /// Creates a TAGE-L predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tagged tables or a history
    /// length exceeding the supported maximum.
    #[must_use]
    pub fn new(cfg: TageConfig) -> Self {
        assert!(!cfg.history_lengths.is_empty(), "need at least one tagged table");
        assert!(
            cfg.history_lengths.iter().all(|&l| l <= crate::history::MAX_HISTORY_BITS),
            "history length exceeds maximum"
        );
        let tables = cfg
            .history_lengths
            .iter()
            .map(|_| vec![TaggedEntry::default(); 1 << cfg.table_bits])
            .collect();
        Tage {
            base: vec![1; 1 << cfg.base_bits],
            loops: vec![LoopEntry::default(); 1 << cfg.loop_bits],
            tables,
            lfsr: 0xace1,
            updates: 0,
            cfg,
        }
    }

    /// Creates a TAGE-L with the default Table 1 geometry.
    #[must_use]
    pub fn default_config() -> Self {
        Tage::new(TageConfig::default())
    }

    fn idx(&self, t: usize, pc: u64, hist: &GlobalHistory) -> usize {
        let w = self.cfg.table_bits;
        let h = hist.fold(self.cfg.history_lengths[t], w);
        let mask = (1u64 << w) - 1;
        (((pc >> 2) ^ (pc >> (2 + w as u64)) ^ h ^ (t as u64).wrapping_mul(0x9e37)) & mask) as usize
    }

    fn tag(&self, t: usize, pc: u64, hist: &GlobalHistory) -> u16 {
        let w = self.cfg.tag_bits;
        let h = hist.fold(self.cfg.history_lengths[t], w);
        let h2 = hist.fold(self.cfg.history_lengths[t], w.saturating_sub(1).max(1));
        let mask = (1u64 << w) - 1;
        ((((pc >> 2) ^ h ^ (h2 << 1)) & mask) as u16).max(1) // 0 = invalid
    }

    fn lookup(&self, pc: u64, hist: &GlobalHistory) -> Lookup {
        let base_idx = ((pc >> 2) & ((1u64 << self.cfg.base_bits) - 1)) as usize;
        let mut provider = None;
        let mut provider_idx = 0;
        let mut alt_taken = self.base[base_idx] >= 2;
        for t in (0..self.tables.len()).rev() {
            let i = self.idx(t, pc, hist);
            if self.tables[t][i].tag == self.tag(t, pc, hist) {
                if provider.is_none() {
                    provider = Some(t);
                    provider_idx = i;
                } else {
                    // First shorter match becomes altpred.
                    alt_taken = self.tables[t][i].ctr >= 0;
                    break;
                }
            }
        }
        Lookup { provider, provider_idx, alt_taken, base_idx }
    }

    fn loop_idx(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1u64 << self.cfg.loop_bits) - 1)) as usize
    }

    fn loop_tag(pc: u64) -> u16 {
        (((pc >> 2) ^ (pc >> 14)) & 0x3fff) as u16 | 1
    }

    fn loop_predict(&self, pc: u64) -> Option<bool> {
        let e = &self.loops[self.loop_idx(pc)];
        if e.tag == Self::loop_tag(pc) && e.conf >= 3 && e.trip > 1 {
            Some(e.count + 1 < e.trip)
        } else {
            None
        }
    }

    fn loop_update(&mut self, pc: u64, taken: bool) {
        let i = self.loop_idx(pc);
        let tag = Self::loop_tag(pc);
        let e = &mut self.loops[i];
        if e.tag != tag {
            // Reallocate on a not-taken (loop exit) so counting starts
            // aligned with an entry.
            if !taken {
                *e = LoopEntry { tag, trip: 0, count: 0, conf: 0 };
            }
            return;
        }
        if taken {
            e.count += 1;
            if e.trip > 0 && e.count >= e.trip {
                // Ran past the learned trip: wrong trip count.
                e.conf = 0;
                e.trip = 0;
            }
        } else {
            let observed = e.count + 1;
            if e.trip == observed {
                e.conf = (e.conf + 1).min(3);
            } else {
                e.trip = observed;
                e.conf = 0;
            }
            e.count = 0;
        }
    }

    fn next_rand(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64, hist: &GlobalHistory) -> bool {
        if let Some(loop_pred) = self.loop_predict(pc) {
            return loop_pred;
        }
        let l = self.lookup(pc, hist);
        match l.provider {
            Some(t) => self.tables[t][l.provider_idx].ctr >= 0,
            None => self.base[l.base_idx] >= 2,
        }
    }

    fn update(&mut self, pc: u64, hist: &GlobalHistory, taken: bool) {
        self.updates += 1;
        self.loop_update(pc, taken);

        let l = self.lookup(pc, hist);
        let provider_taken = match l.provider {
            Some(t) => self.tables[t][l.provider_idx].ctr >= 0,
            None => self.base[l.base_idx] >= 2,
        };
        let mispredicted = provider_taken != taken;

        // Update provider (or base).
        match l.provider {
            Some(t) => {
                let e = &mut self.tables[t][l.provider_idx];
                e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
                // Usefulness: provider differed from altpred and was right.
                if provider_taken != l.alt_taken {
                    if provider_taken == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
            None => {
                let c = &mut self.base[l.base_idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }

        // Allocate a longer-history entry on misprediction.
        if mispredicted {
            let start = l.provider.map_or(0, |t| t + 1);
            if start < self.tables.len() {
                let r = self.next_rand() as usize;
                let mut allocated = false;
                for off in 0..(self.tables.len() - start) {
                    let t = start + (off + r) % (self.tables.len() - start);
                    let i = self.idx(t, pc, hist);
                    if self.tables[t][i].useful == 0 {
                        self.tables[t][i] = TaggedEntry {
                            tag: self.tag(t, pc, hist),
                            ctr: if taken { 0 } else { -1 },
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for t in start..self.tables.len() {
                        let i = self.idx(t, pc, hist);
                        if self.tables[t][i].useful > 0 {
                            self.tables[t][i].useful -= 1;
                        }
                    }
                }
            }
        }

        // Periodic usefulness aging.
        if self.updates.is_multiple_of(1 << 18) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern(tage: &mut Tage, pc: u64, pattern: &[bool], reps: usize) -> f64 {
        let mut hist = GlobalHistory::new();
        let (mut correct, mut total) = (0usize, 0usize);
        for _ in 0..reps {
            for &t in pattern {
                let p = tage.predict(pc, &hist);
                tage.update(pc, &hist, t);
                hist.push(t);
                if p == t {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_biased_branches() {
        let mut t = Tage::default_config();
        let acc = run_pattern(&mut t, 0x1000, &[true; 9], 300);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn learns_history_patterns_bimodal_cannot() {
        let mut t = Tage::default_config();
        let pattern = [true, true, false, true, false, false, true, false];
        let acc = run_pattern(&mut t, 0x2000, &pattern, 400);
        assert!(acc > 0.90, "pattern accuracy {acc}");
    }

    #[test]
    fn loop_table_nails_fixed_trip_counts() {
        let mut t = Tage::default_config();
        // Trip count 7: T,T,T,T,T,T,F repeating.
        let mut pattern = vec![true; 6];
        pattern.push(false);
        let acc = run_pattern(&mut t, 0x3000, &pattern, 300);
        assert!(acc > 0.97, "loop accuracy {acc}");
    }

    #[test]
    fn distinguishes_branches_with_shared_history() {
        let mut t = Tage::default_config();
        let mut hist = GlobalHistory::new();
        for _ in 0..2000 {
            t.update(0x100, &hist, true);
            hist.push(true);
            t.update(0x200, &hist, false);
            hist.push(false);
        }
        assert!(t.predict(0x100, &hist));
        assert!(!t.predict(0x200, &hist));
    }

    #[test]
    fn long_period_pattern_is_learned_via_long_history() {
        // A period-30 pattern needs more history than gshare-size
        // predictors track; TAGE's long-history tables memorize the
        // (pc, history-window) -> outcome mapping.
        let mut x: u32 = 98765;
        let pattern: Vec<bool> = (0..30)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) & 1 == 1
            })
            .collect();
        let mut t = Tage::default_config();
        let mut hist = GlobalHistory::new();
        let (mut correct, mut total) = (0usize, 0usize);
        for rep in 0..400 {
            for &b in &pattern {
                let p = t.predict(0x200, &hist);
                t.update(0x200, &hist, b);
                hist.push(b);
                if rep > 200 {
                    if p == b {
                        correct += 1;
                    }
                    total += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.90, "long-pattern accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "at least one tagged table")]
    fn empty_config_panics() {
        let _ = Tage::new(TageConfig { history_lengths: vec![], ..TageConfig::default() });
    }
}
