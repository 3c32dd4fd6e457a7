//! The reservation station (issue queue) and its tag-broadcast wakeup.

use atr_core::PTag;
use atr_isa::{InstSeq, RegClass};
use std::collections::BTreeMap;

/// A bounded, age-ordered reservation station with tag-broadcast
/// wakeup.
///
/// Dispatch files each instruction with the physical registers it still
/// waits on ([`IssueQueue::insert`]); writeback broadcasts each produced
/// register ([`IssueQueue::wake`]). An entry whose last outstanding
/// source arrives joins the age-ordered ready set, which is all the
/// issue stage ever walks — not-ready entries cost nothing per cycle.
/// Port, divider and memory-ordering checks stay with the core.
#[derive(Debug, Default)]
pub struct IssueQueue {
    /// Every unissued entry, by age, with its count of sources still
    /// being produced.
    entries: BTreeMap<InstSeq, u32>,
    /// Entries with no outstanding source, oldest first.
    ready: Vec<InstSeq>,
    /// Per-register wakeup lists (indexed by [`wakeup_slot`], grown on
    /// first use). Squashed waiters are left behind and skipped when
    /// their register broadcasts.
    consumers: Vec<Vec<InstSeq>>,
    capacity: usize,
}

/// Index of `tag`'s wakeup list: the two register classes interleave,
/// so the lists never need to know the file sizes.
fn wakeup_slot(tag: PTag) -> usize {
    tag.index() * 2 + usize::from(tag.class() == RegClass::Fp)
}

impl IssueQueue {
    /// Creates an issue queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be non-zero");
        IssueQueue { capacity, ..IssueQueue::default() }
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is there room for another entry?
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Inserts a dispatched instruction (must be youngest) waiting on
    /// the not-yet-produced registers `pending` (one per source slot, so
    /// a register read twice is listed twice).
    ///
    /// # Panics
    ///
    /// Panics when full or out of age order.
    pub fn insert(&mut self, seq: InstSeq, pending: impl IntoIterator<Item = PTag>) {
        assert!(self.has_space(), "issue queue overflow");
        if let Some((&last, _)) = self.entries.last_key_value() {
            assert!(seq > last, "issue queue entries must be age-ordered");
        }
        let mut outstanding = 0;
        for tag in pending {
            let slot = wakeup_slot(tag);
            if slot >= self.consumers.len() {
                self.consumers.resize_with(slot + 1, Vec::new);
            }
            self.consumers[slot].push(seq);
            outstanding += 1;
        }
        self.entries.insert(seq, outstanding);
        if outstanding == 0 {
            self.ready.push(seq);
        }
    }

    /// Broadcasts that `tag` was produced: every entry waiting on it
    /// loses one outstanding source, and those left with none join the
    /// ready set in age order.
    pub fn wake(&mut self, tag: PTag) {
        let Some(waiters) = self.consumers.get_mut(wakeup_slot(tag)) else { return };
        for seq in waiters.drain(..) {
            let Some(outstanding) = self.entries.get_mut(&seq) else { continue };
            *outstanding -= 1;
            if *outstanding == 0 {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
        }
    }

    /// Entries whose sources are all produced, oldest first (selection
    /// order).
    #[must_use]
    pub fn ready(&self) -> &[InstSeq] {
        &self.ready
    }

    /// Every entry with its count of outstanding sources, oldest first
    /// (the auditor's cross-check of the ready set).
    pub fn entries(&self) -> impl Iterator<Item = (InstSeq, u32)> + '_ {
        self.entries.iter().map(|(&seq, &outstanding)| (seq, outstanding))
    }

    /// Removes the `idx`-th ready entry (it issued) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn issue(&mut self, idx: usize) -> InstSeq {
        let seq = self.ready.remove(idx);
        self.entries.remove(&seq);
        seq
    }

    /// Removes every entry younger than `seq` (flush).
    pub fn squash_younger(&mut self, seq: InstSeq) {
        self.entries.split_off(&(seq + 1));
        self.ready.truncate(self.ready.partition_point(|&s| s <= seq));
    }

    /// Removes all entries (exception flush).
    pub fn clear(&mut self) {
        self.entries.clear();
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
        let mut iq = IssueQueue::new(4);
        iq.insert(3, []);
        iq.insert(7, [p(40)]);
        iq.insert(9, []);
        assert_eq!(iq.ready(), &[3, 9]);
        assert_eq!(iq.entries().collect::<Vec<_>>(), vec![(3, 0), (7, 1), (9, 0)]);
    }

    #[test]
    fn wakeup_inserts_by_age_once_every_source_arrives() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, [p(40), PTag::new(RegClass::Fp, 40)]);
        iq.insert(2, [p(41), p(41)]);
        iq.insert(5, []);
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
        let mut iq = IssueQueue::new(2);
        iq.insert(1, []);
        iq.insert(2, []);
        assert!(!iq.has_space());
        assert_eq!(iq.issue(0), 1);
        assert!(iq.has_space());
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.ready(), &[2]);
    }

    #[test]
    fn squash_younger_drops_tail_and_stale_waiters() {
        let mut iq = IssueQueue::new(8);
        for s in [1, 2, 5] {
            iq.insert(s, []);
        }
        iq.insert(8, [p(50)]);
        iq.insert(9, []);
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
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut iq = IssueQueue::new(1);
        iq.insert(1, []);
        iq.insert(2, []);
    }
}
