//! Set-associative branch target buffer.

use atr_isa::OpClass;

/// One BTB entry: the branch's class and its (last) taken target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Full-PC tag (software model keeps the full PC).
    pub pc: u64,
    /// Most recent taken target.
    pub target: u64,
    /// Control-flow class (drives RAS/indirect handling at fetch).
    pub class: OpClass,
    /// LRU stamp.
    lru: u64,
}

/// Set-associative BTB (Table 1: 12K entries).
///
/// Sets start empty and grow on insert up to `ways` entries, as the
/// memory hierarchy's cache sets do.
///
/// In this simulator the frontend decodes instructions directly from the
/// static program, so the BTB's modeled role is *taken-branch target
/// latency*: a predicted-taken branch that misses in the BTB costs a
/// fetch bubble (the pipeline charges it), and indirect targets come
/// from the indirect predictor instead.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: Vec<Vec<BtbEntry>>,
    ways: usize,
    tick: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, `entries` is not a multiple of `ways`,
    /// or the set count is not a power of two.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0, "need at least one way");
        assert_eq!(entries % ways, 0, "entries must be a multiple of ways");
        let nsets = entries / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Btb { sets: vec![Vec::new(); nsets], ways, tick: 0 }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) & (self.sets.len() as u64 - 1)) as usize
    }

    /// Looks up `pc`, updating LRU.
    pub fn lookup(&mut self, pc: u64) -> Option<BtbEntry> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(pc);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.pc == pc) {
            e.lru = tick;
            return Some(*e);
        }
        None
    }

    /// Inserts or updates the entry for `pc` (called at decode/resolve).
    pub fn insert(&mut self, pc: u64, target: u64, class: OpClass) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(pc);
        let ways = self.ways;
        let set_vec = &mut self.sets[set];
        if let Some(e) = set_vec.iter_mut().find(|e| e.pc == pc) {
            e.target = target;
            e.class = class;
            e.lru = tick;
            return;
        }
        let entry = BtbEntry { pc, target, class, lru: tick };
        if set_vec.len() < ways {
            // A set's first insert reserves every way; later ones find room.
            set_vec.reserve_exact(ways - set_vec.len());
            set_vec.push(entry);
        } else {
            let victim = set_vec.iter_mut().min_by_key(|e| e.lru).expect("non-empty set");
            *victim = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_insert() {
        let mut b = Btb::new(1024, 4);
        assert!(b.lookup(0x1000).is_none());
        b.insert(0x1000, 0x2000, OpClass::CondBranch);
        let e = b.lookup(0x1000).unwrap();
        assert_eq!(e.target, 0x2000);
        assert_eq!(e.class, OpClass::CondBranch);
    }

    #[test]
    fn update_replaces_target() {
        let mut b = Btb::new(64, 2);
        b.insert(0x10, 0x100, OpClass::DirectJump);
        b.insert(0x10, 0x200, OpClass::DirectJump);
        assert_eq!(b.lookup(0x10).unwrap().target, 0x200);
    }

    #[test]
    fn lru_evicts_coldest_way() {
        let mut b = Btb::new(8, 2); // 4 sets x 2 ways
        let set_stride = 4 * 4; // pcs mapping to same set differ by nsets << 2
        let (a, c, d) = (0x0u64, set_stride as u64, 2 * set_stride as u64);
        b.insert(a, 1, OpClass::CondBranch);
        b.insert(c, 2, OpClass::CondBranch);
        let _ = b.lookup(a); // warm a
        b.insert(d, 3, OpClass::CondBranch); // evicts c
        assert!(b.lookup(a).is_some());
        assert!(b.lookup(c).is_none());
        assert!(b.lookup(d).is_some());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Btb::new(12, 4);
    }

    #[test]
    fn distinct_pcs_do_not_alias_within_capacity() {
        let mut b = Btb::new(4096, 4);
        for i in 0..512u64 {
            b.insert(0x1000 + i * 4, i, OpClass::CondBranch);
        }
        for i in 0..512u64 {
            assert_eq!(b.lookup(0x1000 + i * 4).unwrap().target, i);
        }
    }
}
