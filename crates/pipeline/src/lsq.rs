//! Split load/store queues with forwarding and disambiguation.

use atr_isa::InstSeq;

/// One store-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// Age of the store.
    pub seq: InstSeq,
    /// Effective address, known once the store's AGU ran.
    pub addr: Option<u64>,
    /// Cycle the address (and data) became available.
    pub ready_at: u64,
}

/// What a load's store-queue scan concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store conflicts: access the cache.
    GoToMemory,
    /// An older store to the same word can forward its data (available
    /// at the given cycle).
    Forward {
        /// Cycle the forwarded data is available at the store.
        data_ready: u64,
    },
    /// An older store's address is still unknown: wait (conservative
    /// disambiguation).
    Wait,
}

/// The split load/store queues (Table 1: 96-entry load buffer, 64-entry
/// store buffer).
#[derive(Debug, Default)]
pub struct Lsq {
    loads: Vec<InstSeq>,
    stores: Vec<StoreEntry>,
    load_capacity: usize,
    store_capacity: usize,
}

impl Lsq {
    /// Creates the queues.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(load_capacity: usize, store_capacity: usize) -> Self {
        assert!(load_capacity > 0 && store_capacity > 0, "LSQ capacities must be non-zero");
        Lsq { loads: Vec::new(), stores: Vec::new(), load_capacity, store_capacity }
    }

    /// Can a load be dispatched?
    #[must_use]
    pub fn has_load_space(&self) -> bool {
        self.loads.len() < self.load_capacity
    }

    /// Can a store be dispatched?
    #[must_use]
    pub fn has_store_space(&self) -> bool {
        self.stores.len() < self.store_capacity
    }

    /// Dispatches a load.
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn push_load(&mut self, seq: InstSeq) {
        assert!(self.has_load_space(), "load buffer overflow");
        self.loads.push(seq);
    }

    /// Dispatches a store (address unknown until it issues).
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn push_store(&mut self, seq: InstSeq) {
        assert!(self.has_store_space(), "store buffer overflow");
        self.stores.push(StoreEntry { seq, addr: None, ready_at: 0 });
    }

    /// Records a store's computed address.
    pub fn store_address_ready(&mut self, seq: InstSeq, addr: u64, cycle: u64) {
        if let Some(e) = self.stores.iter_mut().find(|e| e.seq == seq) {
            e.addr = Some(addr);
            e.ready_at = cycle;
        }
    }

    /// Scans older stores for a load at `addr` (word granularity).
    /// Disambiguation is conservative: an older store whose address is
    /// still unknown blocks the load.
    #[must_use]
    pub fn check_load(&self, seq: InstSeq, addr: u64) -> LoadCheck {
        let word = addr & !7;
        let mut best: Option<&StoreEntry> = None;
        for st in self.stores.iter().filter(|s| s.seq < seq) {
            let Some(a) = st.addr else { return LoadCheck::Wait };
            if a & !7 == word && best.is_none_or(|b| st.seq > b.seq) {
                best = Some(st);
            }
        }
        match best {
            Some(st) => LoadCheck::Forward { data_ready: st.ready_at },
            None => LoadCheck::GoToMemory,
        }
    }

    /// Retires a load (commit).
    pub fn retire_load(&mut self, seq: InstSeq) {
        self.loads.retain(|&s| s != seq);
    }

    /// Retires a store (commit; the data drains to the cache afterward).
    pub fn retire_store(&mut self, seq: InstSeq) {
        self.stores.retain(|s| s.seq != seq);
    }

    /// Drops all entries younger than `seq` (flush).
    pub fn squash_younger(&mut self, seq: InstSeq) {
        self.loads.retain(|&s| s <= seq);
        self.stores.retain(|s| s.seq <= seq);
    }

    /// Drops everything (exception flush).
    pub fn clear(&mut self) {
        self.loads.clear();
        self.stores.clear();
    }

    /// (loads, stores) currently queued.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.loads.len(), self.stores.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_picks_youngest_older_matching_store() {
        let mut lsq = Lsq::new(8, 8);
        lsq.push_store(1);
        lsq.push_store(3);
        lsq.store_address_ready(1, 0x1000, 10);
        lsq.store_address_ready(3, 0x1000, 20);
        match lsq.check_load(5, 0x1004) {
            LoadCheck::Forward { data_ready } => assert_eq!(data_ready, 20),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn younger_stores_do_not_forward() {
        let mut lsq = Lsq::new(8, 8);
        lsq.push_store(9);
        lsq.store_address_ready(9, 0x1000, 10);
        assert_eq!(lsq.check_load(5, 0x1000), LoadCheck::GoToMemory);
    }

    #[test]
    fn unknown_older_address_blocks_conservative_loads() {
        let mut lsq = Lsq::new(8, 8);
        lsq.push_store(1);
        assert_eq!(lsq.check_load(5, 0x2000), LoadCheck::Wait);
    }

    #[test]
    fn different_words_do_not_forward() {
        let mut lsq = Lsq::new(8, 8);
        lsq.push_store(1);
        lsq.store_address_ready(1, 0x1000, 10);
        assert_eq!(lsq.check_load(5, 0x1008), LoadCheck::GoToMemory);
    }

    #[test]
    fn squash_and_retire_maintain_occupancy() {
        let mut lsq = Lsq::new(4, 4);
        lsq.push_load(1);
        lsq.push_load(4);
        lsq.push_store(2);
        lsq.push_store(6);
        lsq.squash_younger(4);
        assert_eq!(lsq.occupancy(), (2, 1));
        lsq.retire_load(1);
        lsq.retire_store(2);
        assert_eq!(lsq.occupancy(), (1, 0));
    }

    #[test]
    #[should_panic(expected = "store buffer overflow")]
    fn store_overflow_panics() {
        let mut lsq = Lsq::new(1, 1);
        lsq.push_store(1);
        lsq.push_store(2);
    }
}
