//! The reorder buffer.

use atr_core::RenamedUop;
use atr_frontend::Prediction;
use atr_isa::DynInst;
use atr_mem::ServiceLevel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobState {
    /// Renamed, waiting in the reservation station.
    Dispatched,
    /// Issued to a functional unit; result pending.
    Issued,
    /// Result produced (branches: resolved).
    Completed,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// The dynamic instruction instance.
    pub inst: DynInst,
    /// Rename-stage output.
    pub uop: RenamedUop,
    /// Execution state.
    pub state: RobState,
    /// Cycle the result becomes available (valid once issued).
    pub complete_at: u64,
    /// Frontend prediction for control-flow instructions.
    pub prediction: Option<Prediction>,
    /// Direction/target misprediction, known to the simulator at fetch,
    /// enacted at resolve.
    pub mispredicted: bool,
    /// Cycle this entry was renamed (analysis).
    pub renamed_at: u64,
    /// For loads that went to memory: the hierarchy level servicing
    /// the access (telemetry's memory-bound classification).
    pub mem_level: Option<ServiceLevel>,
}

impl RobEntry {
    /// Has the instruction issued (or completed)?
    #[must_use]
    pub fn issued(&self) -> bool {
        !matches!(self.state, RobState::Dispatched)
    }

    /// Has the result been produced?
    #[must_use]
    pub fn completed(&self) -> bool {
        matches!(self.state, RobState::Completed)
    }
}

/// A ROB entry's dense identity: the value of the ROB's dispatch counter
/// when the entry was pushed. A squash rewinds the counter, so the live
/// entries always hold consecutive ids, ids order them as their sequence
/// numbers do, and the id's low bits (`id & (ring - 1)`, for a ring of
/// `capacity.next_power_of_two()` slots) are an entry's slot.
pub type RobId = u64;

/// The reorder buffer: a ring addressed by [`RobId`], so every lookup
/// is one mask and one index.
#[derive(Debug, Default)]
pub struct Rob {
    /// The ring of `capacity.next_power_of_two()` slots, grown on first
    /// fill (so construction touches no entry memory). A slot outside
    /// `head..tail` keeps its retired or squashed entry until the slot
    /// is reused.
    slots: Vec<RobEntry>,
    /// Ring size − 1: masks an id to its slot.
    mask: u64,
    /// Occupancy limit.
    capacity: usize,
    /// Id of the oldest entry.
    head: RobId,
    /// Id the next pushed entry gets.
    tail: RobId,
    /// Length of the precommitted prefix. The precommit pointer passes
    /// entries strictly in age order and flushes only remove the tail,
    /// so the precommitted entries always form a prefix of the ROB.
    precommitted: usize,
}

impl Rob {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be non-zero");
        let ring = capacity.next_power_of_two();
        Rob { slots: Vec::with_capacity(ring), mask: ring as u64 - 1, capacity, ..Rob::default() }
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Free entries.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    fn slot(&self, id: RobId) -> usize {
        (id & self.mask) as usize
    }

    /// Appends a renamed instruction and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when full or when `entry` is older than the tail.
    pub fn push(&mut self, entry: RobEntry) -> RobId {
        assert!(self.free() > 0, "ROB overflow");
        if let Some(tail) = self.youngest() {
            assert!(entry.inst.seq > tail.inst.seq, "ROB entries must be age-ordered");
        }
        let id = self.tail;
        let slot = self.slot(id);
        if slot == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[slot] = entry;
        }
        self.tail += 1;
        id
    }

    /// The oldest entry.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.get(self.head)
    }

    fn youngest(&self) -> Option<&RobEntry> {
        self.get(self.tail.checked_sub(1)?)
    }

    /// Retires the oldest entry (commit) and returns it; it stays in
    /// its slot until the slot is reused.
    pub fn pop_head(&mut self) -> Option<&RobEntry> {
        if self.is_empty() {
            return None;
        }
        let slot = self.slot(self.head);
        self.head += 1;
        self.precommitted = self.precommitted.saturating_sub(1);
        Some(&self.slots[slot])
    }

    /// The live entry `id`, if any.
    #[must_use]
    pub fn get(&self, id: RobId) -> Option<&RobEntry> {
        (self.head..self.tail).contains(&id).then(|| &self.slots[self.slot(id)])
    }

    /// Mutable access to the live entry `id`, if any.
    pub fn get_mut(&mut self, id: RobId) -> Option<&mut RobEntry> {
        let slot = self.slot(id);
        (self.head..self.tail).contains(&id).then(|| &mut self.slots[slot])
    }

    /// The id of the entry `idx` positions behind the head (which need
    /// not exist yet).
    #[must_use]
    pub fn id_at(&self, idx: usize) -> RobId {
        self.head + idx as u64
    }

    /// Entry `idx` positions behind the head.
    #[must_use]
    pub fn at(&self, idx: usize) -> Option<&RobEntry> {
        self.get(self.id_at(idx))
    }

    /// Length of the precommitted prefix.
    #[must_use]
    pub fn precommitted_len(&self) -> usize {
        self.precommitted
    }

    /// Moves the precommit pointer past the oldest entry not yet
    /// precommitted and returns that entry.
    ///
    /// # Panics
    ///
    /// Panics when every entry is already precommitted.
    pub fn precommit(&mut self) -> &mut RobEntry {
        let id = self.id_at(self.precommitted);
        self.precommitted += 1;
        self.get_mut(id).expect("precommit past the ROB tail")
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.iter_ids().map(|(_, e)| e)
    }

    /// Iterates `(id, entry)` oldest → youngest.
    pub fn iter_ids(&self) -> impl Iterator<Item = (RobId, &RobEntry)> {
        (self.head..self.tail).map(|id| (id, &self.slots[self.slot(id)]))
    }

    /// Removes every entry younger than the live entry `id`, handing
    /// each to `visit` youngest first (the flush walk order, in place),
    /// and returns how many it removed.
    pub fn squash_younger(&mut self, id: RobId, visit: impl FnMut(&RobEntry)) -> usize {
        debug_assert!(self.get(id).is_some(), "squash at a dead ROB id {id}");
        self.squash_to(id + 1, visit)
    }

    /// Removes every entry, youngest first (exception flush); see
    /// [`Rob::squash_younger`].
    pub fn squash_all(&mut self, visit: impl FnMut(&RobEntry)) -> usize {
        self.squash_to(self.head, visit)
    }

    fn squash_to(&mut self, keep: RobId, mut visit: impl FnMut(&RobEntry)) -> usize {
        let squashed = (self.tail - keep) as usize;
        while self.tail > keep {
            self.tail -= 1;
            visit(&self.slots[self.slot(self.tail)]);
        }
        self.precommitted = self.precommitted.min(self.len());
        squashed
    }
}

/// The issued, not yet completed ROB entries keyed by
/// `(complete_at, id)`, so writeback pops the due ones instead of
/// scanning the ROB, and the core can see its next completion.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    heap: BinaryHeap<Reverse<(u64, RobId)>>,
}

impl CompletionQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Issued entries awaiting completion.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Files an issued entry completing at `complete_at`.
    pub fn push(&mut self, complete_at: u64, id: RobId) {
        self.heap.push(Reverse((complete_at, id)));
    }

    /// The earliest pending completion cycle.
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Moves every entry due at or before `cycle` into `due` (cleared
    /// first), oldest first: predictor training and mispredict handling
    /// depend on processing completions in age order.
    pub fn pop_due(&mut self, cycle: u64, due: &mut Vec<RobId>) {
        due.clear();
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if at > cycle {
                break;
            }
            self.heap.pop();
            due.push(id);
        }
        due.sort_unstable();
    }

    /// Every queued id, in no particular order (auditor cross-check).
    pub fn ids(&self) -> impl Iterator<Item = RobId> + '_ {
        self.heap.iter().map(|Reverse((_, id))| *id)
    }

    /// Drops every entry younger than `id` (flush).
    pub fn squash_younger(&mut self, id: RobId) {
        self.heap.retain(|Reverse((_, i))| *i <= id);
    }

    /// Drops everything (exception flush).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::RenamedUop;
    use atr_isa::{ArchReg, DynOutcome, StaticInst, MAX_SRCS};

    fn entry(seq: u64) -> RobEntry {
        let sinst = StaticInst::alu(seq * 4, ArchReg::int(1), &[]);
        RobEntry {
            inst: DynInst {
                seq,
                sinst,
                outcome: DynOutcome::fallthrough(&sinst),
                on_wrong_path: false,
                oracle_idx: seq,
            },
            uop: RenamedUop {
                psrcs: [None; MAX_SRCS],
                pdst: None,
                dst_arch: None,
                prev_ptag: None,
                atr_freed_prev: false,
                prev_event: None,
                dst_event: None,
                alias: None,
            },
            state: RobState::Dispatched,
            complete_at: 0,
            prediction: None,
            mispredicted: false,
            renamed_at: 0,
            mem_level: None,
        }
    }

    #[test]
    fn push_pop_in_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.push(entry(1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.pop_head().unwrap().inst.seq, 0);
        assert_eq!(rob.head().unwrap().inst.seq, 1);
    }

    #[test]
    fn get_by_id_after_commits() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            assert_eq!(rob.push(entry(s * 3)), s);
        }
        rob.pop_head();
        rob.pop_head();
        assert_eq!(rob.get(3).unwrap().inst.seq, 9);
        assert!(rob.get(1).is_none());
        assert!(rob.get(99).is_none());
    }

    #[test]
    fn ids_wrap_around_the_ring() {
        let mut rob = Rob::new(3);
        for s in 0..10 {
            let id = rob.push(entry(s));
            assert_eq!(id, s);
            assert_eq!(rob.get(id).unwrap().inst.seq, s);
            if rob.free() == 0 {
                rob.pop_head();
            }
        }
        assert_eq!(
            rob.iter_ids().map(|(id, e)| (id, e.inst.seq)).collect::<Vec<_>>(),
            [(8, 8), (9, 9)]
        );
    }

    #[test]
    fn squash_younger_visits_youngest_first_and_rewinds_the_ids() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let mut seqs = Vec::new();
        assert_eq!(rob.squash_younger(2, |e| seqs.push(e.inst.seq)), 3);
        assert_eq!(seqs, vec![5, 4, 3]);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.push(entry(10)), 3, "the squash rewound the id counter");
        assert!(rob.squash_younger(3, |_| panic!("nothing is younger")) == 0);
        seqs.clear();
        assert_eq!(rob.squash_all(|e| seqs.push(e.inst.seq)), 4);
        assert_eq!(seqs, vec![10, 2, 1, 0]);
        assert!(rob.is_empty() && rob.head().is_none());
    }

    #[test]
    fn precommitted_prefix_and_positional_access() {
        let mut rob = Rob::new(8);
        for s in 0..4 {
            rob.push(entry(s));
        }
        assert_eq!(rob.precommitted_len(), 0);
        assert_eq!(rob.precommit().inst.seq, 0);
        assert_eq!(rob.precommit().inst.seq, 1);
        assert_eq!(rob.precommitted_len(), 2);
        assert_eq!(rob.at(2).unwrap().inst.seq, 2);
        rob.pop_head();
        assert_eq!(rob.precommitted_len(), 1);
        assert!(rob.at(3).is_none());
        rob.squash_younger(1, |_| {});
        assert_eq!(rob.precommitted_len(), 1, "the squash kept the precommitted prefix");
        rob.squash_all(|_| {});
        assert_eq!(rob.precommitted_len(), 0);
    }

    #[test]
    fn completion_queue_pops_due_entries_oldest_first() {
        let mut q = CompletionQueue::new();
        q.push(12, 9);
        q.push(10, 7);
        q.push(10, 3);
        q.push(11, 4);
        assert_eq!(q.next_at(), Some(10));
        let mut due = vec![99];
        q.pop_due(9, &mut due);
        assert!(due.is_empty());
        q.pop_due(11, &mut due);
        assert_eq!(due, vec![3, 4, 7], "due entries come out in age order");
        assert_eq!(q.ids().collect::<Vec<_>>(), vec![9]);
        q.push(20, 15);
        q.squash_younger(10);
        assert_eq!((q.len(), q.next_at()), (1, Some(12)));
        q.clear();
        assert!(q.is_empty() && q.next_at().is_none());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "age-ordered")]
    fn out_of_order_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }
}
