//! The reorder buffer.

use atr_core::{RenamedUop, SrtCheckpoint};
use atr_frontend::Prediction;
use atr_isa::{DynInst, InstSeq};
use atr_mem::ServiceLevel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
    /// SRT checkpoint (branches under `CheckpointPolicy::EveryBranch`).
    pub checkpoint: Option<SrtCheckpoint>,
    /// Passed by the precommit pointer (§2.3).
    pub precommitted: bool,
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

/// The reorder buffer: a bounded age-ordered queue indexed by sequence
/// number.
#[derive(Debug, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
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
        Rob { entries: VecDeque::with_capacity(capacity), capacity }
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

    /// Free entries.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Appends a renamed instruction.
    ///
    /// # Panics
    ///
    /// Panics when full or when `entry` is older than the tail.
    pub fn push(&mut self, entry: RobEntry) {
        assert!(self.entries.len() < self.capacity, "ROB overflow");
        if let Some(tail) = self.entries.back() {
            assert!(entry.inst.seq > tail.inst.seq, "ROB entries must be age-ordered");
        }
        self.entries.push_back(entry);
    }

    /// The oldest entry.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Pops the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
    }

    /// Entry by sequence number. Sequence numbers are age-ordered but
    /// not contiguous (flushes leave gaps), so this is a binary search.
    #[must_use]
    pub fn get(&self, seq: InstSeq) -> Option<&RobEntry> {
        let idx = self.entries.partition_point(|e| e.inst.seq < seq);
        self.entries.get(idx).filter(|e| e.inst.seq == seq)
    }

    /// Mutable entry by sequence number.
    pub fn get_mut(&mut self, seq: InstSeq) -> Option<&mut RobEntry> {
        let idx = self.entries.partition_point(|e| e.inst.seq < seq);
        self.entries.get_mut(idx).filter(|e| e.inst.seq == seq)
    }

    /// Entry `idx` positions behind the head.
    #[must_use]
    pub fn at(&self, idx: usize) -> Option<&RobEntry> {
        self.entries.get(idx)
    }

    /// Mutable entry `idx` positions behind the head.
    pub fn at_mut(&mut self, idx: usize) -> Option<&mut RobEntry> {
        self.entries.get_mut(idx)
    }

    /// Length of the precommitted prefix. The precommit pointer passes
    /// entries strictly in age order and flushes only remove the tail,
    /// so the precommitted entries always form a prefix of the ROB.
    #[must_use]
    pub fn precommitted_len(&self) -> usize {
        self.entries.partition_point(|e| e.precommitted)
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Mutable iteration oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// Removes and returns every entry younger than `seq`, youngest
    /// first (the flush squash set).
    pub fn squash_younger(&mut self, seq: InstSeq) -> Vec<RobEntry> {
        let keep = self.entries.iter().take_while(|e| e.inst.seq <= seq).count();
        let mut squashed: Vec<RobEntry> = self.entries.split_off(keep).into();
        squashed.reverse();
        squashed
    }

    /// Removes and returns every entry, youngest first (exception
    /// flush).
    pub fn squash_all(&mut self) -> Vec<RobEntry> {
        let mut all: Vec<RobEntry> = std::mem::take(&mut self.entries).into();
        all.reverse();
        all
    }
}

/// The issued, not yet completed ROB entries keyed by
/// `(complete_at, seq)`, so writeback pops the due ones instead of
/// scanning the ROB, and the core can see its next completion.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    heap: BinaryHeap<Reverse<(u64, InstSeq)>>,
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
    pub fn push(&mut self, complete_at: u64, seq: InstSeq) {
        self.heap.push(Reverse((complete_at, seq)));
    }

    /// The earliest pending completion cycle.
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Moves every entry due at or before `cycle` into `due` (cleared
    /// first), oldest first: predictor training and mispredict handling
    /// depend on processing completions in age order.
    pub fn pop_due(&mut self, cycle: u64, due: &mut Vec<InstSeq>) {
        due.clear();
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if at > cycle {
                break;
            }
            self.heap.pop();
            due.push(seq);
        }
        due.sort_unstable();
    }

    /// Every queued sequence number, in no particular order (auditor
    /// cross-check).
    pub fn seqs(&self) -> impl Iterator<Item = InstSeq> + '_ {
        self.heap.iter().map(|Reverse((_, seq))| *seq)
    }

    /// Drops every entry younger than `seq` (flush).
    pub fn squash_younger(&mut self, seq: InstSeq) {
        self.heap.retain(|Reverse((_, s))| *s <= seq);
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
            checkpoint: None,
            precommitted: false,
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
    fn get_by_seq_after_commits() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.push(entry(s));
        }
        rob.pop_head();
        rob.pop_head();
        assert_eq!(rob.get(3).unwrap().inst.seq, 3);
        assert!(rob.get(1).is_none());
        assert!(rob.get(99).is_none());
    }

    #[test]
    fn squash_younger_returns_youngest_first() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let squashed = rob.squash_younger(2);
        let seqs: Vec<u64> = squashed.iter().map(|e| e.inst.seq).collect();
        assert_eq!(seqs, vec![5, 4, 3]);
        assert_eq!(rob.len(), 3);
    }

    #[test]
    fn precommitted_prefix_and_positional_access() {
        let mut rob = Rob::new(8);
        for s in 0..4 {
            rob.push(entry(s));
        }
        assert_eq!(rob.precommitted_len(), 0);
        rob.at_mut(0).unwrap().precommitted = true;
        rob.at_mut(1).unwrap().precommitted = true;
        assert_eq!(rob.precommitted_len(), 2);
        assert_eq!(rob.at(2).unwrap().inst.seq, 2);
        rob.pop_head();
        assert_eq!(rob.precommitted_len(), 1);
        assert!(rob.at(3).is_none());
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
        assert_eq!(q.seqs().collect::<Vec<_>>(), vec![9]);
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
