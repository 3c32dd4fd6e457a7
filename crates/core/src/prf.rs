//! The physical register file and its per-register release state.

use crate::events::EventHandle;
use crate::ptag::PTag;
use atr_isa::RegClass;

/// Per-physical-register state. The paper's hardware stores a 3-bit
/// consumer counter next to each register value (§4.2.2); the software
/// model additionally keeps the bookkeeping bits the release decision
/// depends on explicit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhysReg {
    /// Allocated (not on the free list).
    pub allocated: bool,
    /// Value produced (wakeup scoreboard bit).
    pub ready: bool,
    /// Live consumer count: incremented when a consumer renames,
    /// decremented when it issues (§4.2.3).
    pub count: u32,
    /// Marked no-early-release because a conditional branch or indirect
    /// jump was renamed while live.
    pub marked_branch: bool,
    /// Marked no-early-release because an exception-capable instruction
    /// was renamed while live.
    pub marked_exception: bool,
    /// The counter hit its width limit (reserved sentinel value, §4.2.2):
    /// no early release of any kind for this allocation.
    pub overflowed: bool,
    /// ATR claimed this register's release at the redefiner's rename
    /// (the redefiner's previous-ptag field was invalidated).
    pub atr_claimed: bool,
    /// The redefine signal has traversed the (pipelined) marking logic.
    pub redefined_effective: bool,
    /// Non-speculative ER: redefiner precommitted, waiting for count 0.
    pub armed_precommit: bool,
    /// Allocation generation, incremented on every allocation; used to
    /// drop stale redefine-delay queue entries after a flush reclaimed
    /// and re-allocated the register.
    pub generation: u64,
    /// Architectural references sharing this register (move
    /// elimination, §6): 1 at allocation, +1 per eliminated move
    /// aliasing it. The register returns to the free list only when the
    /// count reaches zero.
    pub refs: u32,
    /// Lifetime-log handle for this allocation, cleared at its release.
    pub event: Option<EventHandle>,
}

impl PhysReg {
    /// Is ATR early release blocked for this allocation (the sentinel
    /// `no-early-release` state of §4.2.2)?
    #[must_use]
    pub fn atr_blocked(&self) -> bool {
        self.marked_branch || self.marked_exception || self.overflowed
    }

    /// Is non-speculative ER blocked (count untrustworthy)?
    #[must_use]
    pub fn er_blocked(&self) -> bool {
        self.overflowed
    }
}

/// Allocation/occupancy statistics for one physical register file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrfStats {
    /// Total allocations performed.
    pub allocations: u64,
    /// Releases by the conventional commit path.
    pub released_commit: u64,
    /// Releases by non-speculative early release.
    pub released_precommit: u64,
    /// Releases by ATR (atomic commit regions).
    pub released_atomic: u64,
    /// Releases by the flush walk.
    pub released_flush: u64,
    /// Flush-walk entries skipped because ATR already released them
    /// (§4.2.4 double-free avoidance firing).
    pub flush_double_free_avoided: u64,
    /// Releases counted by the register file itself, independently of
    /// the renamer's per-kind classification above. The consistency
    /// audit checks `total_released() == releases`; a mismatch means a
    /// release path forgot (or double-counted) its kind counter.
    pub releases: u64,
}

impl PrfStats {
    /// Total releases of every kind, as classified by the renamer.
    #[must_use]
    pub fn total_released(&self) -> u64 {
        self.released_commit + self.released_precommit + self.released_atomic + self.released_flush
    }
}

/// The physical register file of one class.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    class: RegClass,
    regs: Vec<PhysReg>,
    /// Allocated registers, maintained by [`PhysRegFile::on_alloc`] and
    /// [`PhysRegFile::on_release`] (sampled every cycle, so never
    /// recounted on the hot path).
    occupied: usize,
    /// Maximum trackable consumers before overflow (2^w − 2 with the
    /// ATR sentinel reserved).
    max_count: u32,
    stats: PrfStats,
}

impl PhysRegFile {
    /// Creates a file of `size` registers; the first `premapped` are the
    /// initial architectural mappings (allocated and ready).
    ///
    /// # Panics
    ///
    /// Panics if `premapped > size`.
    #[must_use]
    pub fn new(class: RegClass, size: usize, premapped: usize, max_count: u32) -> Self {
        assert!(premapped <= size, "initial mappings exceed file size");
        let mut regs = vec![PhysReg::default(); size];
        for r in regs.iter_mut().take(premapped) {
            r.allocated = true;
            r.ready = true;
            r.refs = 1;
        }
        PhysRegFile { class, regs, occupied: premapped, max_count, stats: PrfStats::default() }
    }

    /// The register class of this file.
    #[must_use]
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Total physical registers.
    #[must_use]
    pub fn size(&self) -> usize {
        self.regs.len()
    }

    /// Currently allocated registers.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Allocated registers counted from the per-register state — the
    /// auditor's cross-check of [`PhysRegFile::occupancy`].
    #[must_use]
    pub fn recount_occupancy(&self) -> usize {
        self.regs.iter().filter(|r| r.allocated).count()
    }

    /// Release statistics.
    #[must_use]
    pub fn stats(&self) -> &PrfStats {
        &self.stats
    }

    /// Mutable statistics (renamer bookkeeping).
    pub(crate) fn stats_mut(&mut self) -> &mut PrfStats {
        &mut self.stats
    }

    /// Shared access to a register's state.
    ///
    /// # Panics
    ///
    /// Panics if `tag` belongs to another class.
    #[must_use]
    pub fn get(&self, tag: PTag) -> &PhysReg {
        assert_eq!(tag.class(), self.class, "ptag of wrong class");
        &self.regs[tag.index()]
    }

    /// Mutable access to a register's state.
    pub fn get_mut(&mut self, tag: PTag) -> &mut PhysReg {
        assert_eq!(tag.class(), self.class, "ptag of wrong class");
        &mut self.regs[tag.index()]
    }

    /// Resets the state of a freshly allocated register.
    pub fn on_alloc(&mut self, tag: PTag, event: Option<EventHandle>) {
        self.stats.allocations += 1;
        self.occupied += 1;
        let r = self.get_mut(tag);
        debug_assert!(!r.allocated, "allocating an already-allocated register");
        let generation = r.generation + 1;
        *r = PhysReg { allocated: true, event, generation, refs: 1, ..PhysReg::default() };
    }

    /// Marks a register released (free-list return is the caller's job).
    pub fn on_release(&mut self, tag: PTag) {
        self.stats.releases += 1;
        self.occupied -= 1;
        let r = self.get_mut(tag);
        debug_assert!(r.allocated, "releasing a non-allocated register");
        r.allocated = false;
        r.armed_precommit = false;
        r.redefined_effective = false;
        r.event = None;
    }

    /// Registers one consumer; returns `true` if the counter overflowed
    /// into the no-early-release sentinel.
    pub fn add_consumer(&mut self, tag: PTag) -> bool {
        let max = self.max_count;
        let r = self.get_mut(tag);
        if r.count >= max {
            r.overflowed = true;
        } else {
            r.count += 1;
        }
        r.overflowed
    }

    /// One consumer issued; returns the new count.
    pub fn consume(&mut self, tag: PTag) -> u32 {
        let r = self.get_mut(tag);
        if r.overflowed {
            // Real count unknown once the sentinel is reached; the
            // register is permanently ineligible for early release.
            return u32::MAX;
        }
        debug_assert!(r.count > 0, "consumer underflow on {tag}");
        r.count = r.count.saturating_sub(1);
        r.count
    }

    /// Every register's state, tagged — the auditor's full-file view.
    pub fn iter(&self) -> impl Iterator<Item = (PTag, &PhysReg)> {
        let class = self.class;
        self.regs.iter().enumerate().map(move |(i, r)| (PTag::new(class, i as u32), r))
    }

    /// Bulk no-early-release marking (§4.2.2) of one live register.
    pub fn mark_no_early_release(&mut self, tag: PTag, is_branch: bool) {
        let r = self.get_mut(tag);
        if is_branch {
            r.marked_branch = true;
        } else {
            r.marked_exception = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::LifetimeLog;

    fn file() -> PhysRegFile {
        PhysRegFile::new(RegClass::Int, 64, 16, 6)
    }

    fn tag(i: u32) -> PTag {
        PTag::new(RegClass::Int, i)
    }

    #[test]
    fn premapped_registers_are_ready() {
        let f = file();
        assert!(f.get(tag(0)).allocated);
        assert!(f.get(tag(0)).ready);
        assert!(!f.get(tag(16)).allocated);
        assert_eq!(f.occupancy(), 16);
    }

    #[test]
    fn alloc_resets_state() {
        let mut f = file();
        let t = tag(20);
        let event = LifetimeLog::new(true, false).on_alloc(RegClass::Int, 0, false);
        f.on_alloc(t, event);
        {
            let r = f.get_mut(t);
            r.count = 5;
            r.marked_branch = true;
        }
        assert_eq!(f.occupancy(), 17);
        f.on_release(t);
        assert_eq!((f.occupancy(), f.get(t).event), (16, None), "release clears the handle");
        f.on_alloc(t, None);
        assert_eq!((f.occupancy(), f.recount_occupancy()), (17, 17));
        let r = f.get(t);
        assert!(r.allocated);
        assert!(!r.ready);
        assert_eq!(r.count, 0);
        assert!(!r.marked_branch);
        assert_eq!(r.event, None);
    }

    #[test]
    fn counter_overflows_into_sentinel() {
        let mut f = file();
        let t = tag(20);
        f.on_alloc(t, None);
        for i in 0..6 {
            assert!(!f.add_consumer(t), "consumer {i} should fit");
        }
        assert_eq!(f.get(t).count, 6);
        assert!(f.add_consumer(t), "7th consumer overflows a 3-bit counter");
        assert!(f.get(t).atr_blocked());
        assert!(f.get(t).er_blocked());
        // Decrements on a sentinel register are ignored (§4.2.3).
        assert_eq!(f.consume(t), u32::MAX);
        assert_eq!(f.get(t).count, 6);
    }

    #[test]
    fn marking_blocks_atr_but_not_er() {
        let mut f = file();
        let t = tag(21);
        f.on_alloc(t, None);
        f.mark_no_early_release(t, true);
        assert!(f.get(t).atr_blocked());
        assert!(!f.get(t).er_blocked());
        f.mark_no_early_release(t, false);
        assert!(f.get(t).marked_exception);
    }

    #[test]
    fn consume_decrements() {
        let mut f = file();
        let t = tag(22);
        f.on_alloc(t, None);
        f.add_consumer(t);
        f.add_consumer(t);
        assert_eq!(f.consume(t), 1);
        assert_eq!(f.consume(t), 0);
    }

    #[test]
    #[should_panic(expected = "wrong class")]
    fn wrong_class_access_panics() {
        let f = file();
        let _ = f.get(PTag::new(RegClass::Fp, 0));
    }
}
