//! The reservation station (issue queue) and its tag-broadcast wakeup.

use crate::rob::RobId;
use atr_core::PTag;
use atr_isa::{InstSeq, RegClass};

/// An unissued entry, filed in its ROB slot.
#[derive(Debug, Clone, Copy)]
struct Filed {
    seq: InstSeq,
    /// Sources still being produced.
    outstanding: u32,
}

/// A wakeup-list registration. ROB ids are reused after a squash but
/// sequence numbers never are, so a broadcast skips a waiter whose slot
/// now holds another instruction, or none.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    id: RobId,
    seq: InstSeq,
}

/// A bounded, age-ordered reservation station with tag-broadcast
/// wakeup, addressed by ROB slot.
///
/// Dispatch files each instruction with the physical registers it still
/// waits on ([`IssueQueue::insert`]); writeback broadcasts each produced
/// register ([`IssueQueue::wake`]). An entry whose last outstanding
/// source arrives joins the age-ordered ready set, which is all the
/// issue stage ever walks — not-ready entries cost nothing per cycle.
/// Port, divider and memory-ordering checks stay with the core.
#[derive(Debug, Default)]
pub struct IssueQueue {
    /// Per ROB slot (`id & mask`, a ring of
    /// `rob_size.next_power_of_two()` slots, as the ROB's): the unissued
    /// entry filed there.
    slots: Box<[Option<Filed>]>,
    /// Ring size − 1.
    mask: u64,
    /// Occupied entries.
    len: usize,
    /// One past the youngest filed id, rewound by squashes: where a
    /// squash's walk over the slots ends.
    end: RobId,
    /// Entries with no outstanding source, oldest first.
    ready: Vec<RobId>,
    /// Per-register wakeup lists (indexed by [`wakeup_slot`], grown on
    /// first use; a broadcast empties a list but keeps its buffer).
    /// Squashed waiters are left behind and skipped when their register
    /// broadcasts.
    consumers: Vec<Vec<Waiter>>,
    capacity: usize,
}

/// Index of `tag`'s wakeup list: the two register classes interleave,
/// so the lists never need to know the file sizes.
fn wakeup_slot(tag: PTag) -> usize {
    tag.index() * 2 + usize::from(tag.class() == RegClass::Fp)
}

impl IssueQueue {
    /// Creates an issue queue with `capacity` entries in front of a
    /// `rob_size`-entry ROB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `rob_size` is zero.
    #[must_use]
    pub fn new(capacity: usize, rob_size: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be non-zero");
        assert!(rob_size > 0, "ROB capacity must be non-zero");
        let ring = rob_size.next_power_of_two();
        IssueQueue {
            capacity,
            slots: vec![None; ring].into(),
            mask: ring as u64 - 1,
            ..IssueQueue::default()
        }
    }

    fn slot(&self, id: RobId) -> usize {
        (id & self.mask) as usize
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is there room for another entry?
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Files the dispatched ROB entry `id` (instruction `seq`, the
    /// youngest so far) waiting on the not-yet-produced registers
    /// `pending` (one per source slot, so a register read twice is
    /// listed twice).
    ///
    /// # Panics
    ///
    /// Panics when full or out of age order.
    pub fn insert(&mut self, id: RobId, seq: InstSeq, pending: impl IntoIterator<Item = PTag>) {
        assert!(self.has_space(), "issue queue overflow");
        assert!(id >= self.end, "issue queue entries must be age-ordered");
        let mut outstanding = 0;
        for tag in pending {
            let list = wakeup_slot(tag);
            if list >= self.consumers.len() {
                self.consumers.resize_with(list + 1, Vec::new);
            }
            self.consumers[list].push(Waiter { id, seq });
            outstanding += 1;
        }
        let slot = self.slot(id);
        self.slots[slot] = Some(Filed { seq, outstanding });
        self.len += 1;
        self.end = id + 1;
        if outstanding == 0 {
            self.ready.push(id);
        }
    }

    /// Broadcasts that `tag` was produced: every entry waiting on it
    /// loses one outstanding source, and those left with none join the
    /// ready set in age order.
    pub fn wake(&mut self, tag: PTag) {
        let Some(waiters) = self.consumers.get_mut(wakeup_slot(tag)) else { return };
        for w in waiters.drain(..) {
            let Some(filed) = self.slots[(w.id & self.mask) as usize].as_mut() else { continue };
            if filed.seq != w.seq {
                continue;
            }
            filed.outstanding -= 1;
            if filed.outstanding == 0 {
                let at = self.ready.partition_point(|&r| r < w.id);
                self.ready.insert(at, w.id);
            }
        }
    }

    /// Entries whose sources are all produced, oldest first (selection
    /// order).
    #[must_use]
    pub fn ready(&self) -> &[RobId] {
        &self.ready
    }

    /// The instruction filed for ROB entry `id` and its count of
    /// outstanding sources, if `id` waits here (the auditor's
    /// cross-check).
    #[must_use]
    pub fn filed(&self, id: RobId) -> Option<(InstSeq, u32)> {
        self.slots[self.slot(id)].map(|f| (f.seq, f.outstanding))
    }

    /// Removes the `idx`-th ready entry (it issued) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn issue(&mut self, idx: usize) -> RobId {
        let id = self.ready.remove(idx);
        let slot = self.slot(id);
        self.slots[slot] = None;
        self.len -= 1;
        id
    }

    /// Removes every entry younger than `id` (flush).
    pub fn squash_younger(&mut self, id: RobId) {
        for squashed in id + 1..self.end {
            let slot = self.slot(squashed);
            if self.slots[slot].take().is_some() {
                self.len -= 1;
            }
        }
        self.end = self.end.min(id + 1);
        self.ready.truncate(self.ready.partition_point(|&r| r <= id));
    }

    /// Removes all entries (exception flush).
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.len = 0;
        self.end = 0;
        self.ready.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PTag {
        PTag::new(RegClass::Int, i)
    }

    #[test]
    fn entries_without_pending_sources_are_ready_in_age_order() {
        let mut iq = IssueQueue::new(4, 16);
        iq.insert(3, 30, []);
        iq.insert(7, 70, [p(40)]);
        iq.insert(9, 90, []);
        assert_eq!(iq.ready(), &[3, 9]);
        assert_eq!(
            [3, 7, 8, 9].map(|id| iq.filed(id)),
            [Some((30, 0)), Some((70, 1)), None, Some((90, 0))]
        );
    }

    #[test]
    fn wakeup_inserts_by_age_once_every_source_arrives() {
        let mut iq = IssueQueue::new(8, 8);
        iq.insert(1, 1, [p(40), PTag::new(RegClass::Fp, 40)]);
        iq.insert(2, 2, [p(41), p(41)]);
        iq.insert(5, 5, []);
        iq.wake(p(41));
        assert_eq!(iq.ready(), &[2, 5], "a register read twice wakes both slots");
        iq.wake(p(40));
        assert_eq!(iq.ready(), &[2, 5], "the FP source is still outstanding");
        iq.wake(PTag::new(RegClass::Fp, 40));
        assert_eq!(iq.ready(), &[1, 2, 5]);
        iq.wake(p(99)); // nobody waits: no-op
        assert_eq!(iq.len(), 3);
    }

    #[test]
    fn issue_removes_and_frees_capacity() {
        let mut iq = IssueQueue::new(2, 4);
        iq.insert(1, 1, []);
        iq.insert(2, 2, []);
        assert!(!iq.has_space());
        assert_eq!(iq.issue(0), 1);
        assert!(iq.has_space());
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.ready(), &[2]);
        assert_eq!(iq.filed(1), None);
    }

    #[test]
    fn squash_younger_drops_tail_and_stale_waiters() {
        let mut iq = IssueQueue::new(8, 16);
        for s in [1, 2, 5] {
            iq.insert(s, s, []);
        }
        iq.insert(8, 8, [p(50)]);
        iq.insert(9, 9, []);
        iq.squash_younger(5);
        assert_eq!(iq.ready(), &[1, 2, 5]);
        assert_eq!(iq.len(), 3);
        // The squashed waiter's registration is skipped on broadcast.
        iq.wake(p(50));
        assert_eq!(iq.ready(), &[1, 2, 5]);
        iq.clear();
        assert!(iq.is_empty() && iq.ready().is_empty());
    }

    #[test]
    fn a_reused_slot_ignores_the_squashed_instructions_waiters() {
        let mut iq = IssueQueue::new(8, 4);
        iq.insert(6, 60, [p(50)]);
        iq.squash_younger(5);
        // The squash rewound the ROB ids: id 6 now names another
        // instruction, in the same slot.
        iq.insert(6, 64, [p(51)]);
        iq.wake(p(50));
        assert_eq!(iq.filed(6), Some((64, 1)), "the stale waiter was skipped");
        iq.wake(p(51));
        assert_eq!(iq.ready(), &[6]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut iq = IssueQueue::new(1, 4);
        iq.insert(1, 1, []);
        iq.insert(2, 2, []);
    }

    #[test]
    #[should_panic(expected = "age-ordered")]
    fn out_of_order_insert_panics() {
        let mut iq = IssueQueue::new(4, 4);
        iq.insert(2, 2, []);
        iq.insert(1, 1, []);
    }
}
