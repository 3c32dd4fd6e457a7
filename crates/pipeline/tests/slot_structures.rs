//! The slot-addressed ROB ring and issue queue behave exactly like the
//! sequence-keyed structures they replaced.
//!
//! A seeded random sequence of dispatches (with sequence-number gaps),
//! wakeups, issues, precommits, commits, partial squashes and
//! exception clears drives a [`Rob`] and an [`IssueQueue`] side by side
//! with references: a `VecDeque` searched by sequence number with a
//! per-entry precommitted flag, and a `BTreeMap` issue queue whose
//! wakeup lists hold sequence numbers. After every step the two must
//! agree on lookups, positional access, the precommitted length, squash
//! order, the ready order and every outstanding count — which also
//! shows that a broadcast skips the waiters of squashed instructions
//! whose ROB ids were reused.

use atr_core::{PTag, RenamedUop};
use atr_isa::{ArchReg, DynInst, DynOutcome, InstSeq, RegClass, StaticInst, MAX_SRCS};
use atr_pipeline::iq::IssueQueue;
use atr_pipeline::rob::{Rob, RobId};
use atr_pipeline::{RobEntry, RobState};
use std::collections::{BTreeMap, HashMap, VecDeque};

const ROB_SIZE: usize = 12;
const IQ_SIZE: usize = 8;
const TAGS: u32 = 10;

fn entry(seq: InstSeq) -> RobEntry {
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

/// The sequence-keyed ROB: binary search by sequence number, and a
/// precommitted flag per entry whose prefix is the precommitted length.
#[derive(Default)]
struct RefRob {
    entries: VecDeque<(InstSeq, bool)>,
}

impl RefRob {
    fn get(&self, seq: InstSeq) -> Option<InstSeq> {
        let idx = self.entries.partition_point(|e| e.0 < seq);
        self.entries.get(idx).filter(|e| e.0 == seq).map(|e| e.0)
    }

    fn precommitted_len(&self) -> usize {
        self.entries.partition_point(|e| e.1)
    }

    fn squash_younger(&mut self, seq: InstSeq) -> Vec<InstSeq> {
        let keep = self.entries.iter().take_while(|e| e.0 <= seq).count();
        let mut squashed: Vec<InstSeq> = self.entries.split_off(keep).iter().map(|e| e.0).collect();
        squashed.reverse();
        squashed
    }
}

/// The sequence-keyed issue queue.
#[derive(Default)]
struct RefIq {
    entries: BTreeMap<InstSeq, u32>,
    ready: Vec<InstSeq>,
    consumers: HashMap<PTag, Vec<InstSeq>>,
}

impl RefIq {
    fn insert(&mut self, seq: InstSeq, pending: &[PTag]) {
        for &tag in pending {
            self.consumers.entry(tag).or_default().push(seq);
        }
        self.entries.insert(seq, pending.len() as u32);
        if pending.is_empty() {
            self.ready.push(seq);
        }
    }

    fn wake(&mut self, tag: PTag) {
        for seq in self.consumers.remove(&tag).unwrap_or_default() {
            let Some(outstanding) = self.entries.get_mut(&seq) else { continue };
            *outstanding -= 1;
            if *outstanding == 0 {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
        }
    }

    fn issue(&mut self, idx: usize) -> InstSeq {
        let seq = self.ready.remove(idx);
        self.entries.remove(&seq);
        seq
    }

    fn squash_younger(&mut self, seq: InstSeq) {
        self.entries.split_off(&(seq + 1));
        self.ready.truncate(self.ready.partition_point(|&s| s <= seq));
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.ready.clear();
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

struct Harness {
    rob: Rob,
    iq: IssueQueue,
    ref_rob: RefRob,
    ref_iq: RefIq,
    /// The id every dispatched sequence number got (kept after the
    /// entry leaves, so stale ids are looked up too).
    ids: HashMap<InstSeq, RobId>,
    next_seq: InstSeq,
    rng: Rng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        Harness {
            rob: Rob::new(ROB_SIZE),
            iq: IssueQueue::new(IQ_SIZE, ROB_SIZE),
            ref_rob: RefRob::default(),
            ref_iq: RefIq::default(),
            ids: HashMap::new(),
            next_seq: 0,
            rng: Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
        }
    }

    fn tag(&mut self) -> PTag {
        PTag::new(RegClass::Int, self.rng.below(u64::from(TAGS)) as u32)
    }

    fn dispatch(&mut self) {
        if self.rob.free() == 0 || !self.iq.has_space() {
            return;
        }
        let seq = self.next_seq + self.rng.below(3);
        self.next_seq = seq + 1;
        let id = self.rob.push(entry(seq));
        assert_eq!(id, self.rob.id_at(self.rob.len() - 1));
        self.ref_rob.entries.push_back((seq, false));
        self.ids.insert(seq, id);
        // One in ten completes at dispatch and skips the issue queue
        // (an eliminated move).
        if self.rng.below(10) > 0 {
            let pending: Vec<PTag> = (0..self.rng.below(4)).map(|_| self.tag()).collect();
            self.iq.insert(id, seq, pending.iter().copied());
            self.ref_iq.insert(seq, &pending);
        }
    }

    fn step(&mut self) -> &'static str {
        match self.rng.below(100) {
            0..30 => {
                self.dispatch();
                "dispatch"
            }
            30..45 => {
                let tag = self.tag();
                self.iq.wake(tag);
                self.ref_iq.wake(tag);
                "wake"
            }
            45..60 => {
                if !self.iq.ready().is_empty() {
                    let idx = self.rng.below(self.iq.ready().len() as u64) as usize;
                    let id = self.iq.issue(idx);
                    let seq = self.ref_iq.issue(idx);
                    assert_eq!(self.rob.get(id).map(|e| e.inst.seq), Some(seq), "issued entry");
                }
                "issue"
            }
            60..72 => {
                let idx = self.rob.precommitted_len();
                if idx < self.rob.len() {
                    assert_eq!(self.rob.precommit().inst.seq, self.ref_rob.entries[idx].0);
                    self.ref_rob.entries[idx].1 = true;
                }
                "precommit"
            }
            72..85 => {
                // Commit retires a precommitted head that has left the
                // issue queue.
                let head = self.ref_rob.entries.front().copied();
                if let Some((seq, true)) = head {
                    if !self.ref_iq.entries.contains_key(&seq) {
                        assert_eq!(self.rob.pop_head().map(|e| e.inst.seq), Some(seq));
                        self.ref_rob.entries.pop_front();
                    }
                }
                "commit"
            }
            85..97 => {
                if !self.rob.is_empty() {
                    let keep = self.rng.below(self.rob.len() as u64) as usize;
                    let id = self.rob.id_at(keep);
                    let seq = self.ref_rob.entries[keep].0;
                    let mut order = Vec::new();
                    let n = self.rob.squash_younger(id, |e| order.push(e.inst.seq));
                    assert_eq!(order, self.ref_rob.squash_younger(seq), "squash order");
                    assert_eq!(n, order.len());
                    self.iq.squash_younger(id);
                    self.ref_iq.squash_younger(seq);
                }
                "squash"
            }
            _ => {
                let mut order = Vec::new();
                self.rob.squash_all(|e| order.push(e.inst.seq));
                let mut expected: Vec<InstSeq> =
                    self.ref_rob.entries.drain(..).map(|e| e.0).collect();
                expected.reverse();
                assert_eq!(order, expected, "exception squash order");
                self.iq.clear();
                self.ref_iq.clear();
                "clear"
            }
        }
    }

    fn check(&mut self, at: &Step) {
        let (rob, r) = (&self.rob, &self.ref_rob);
        assert_eq!(rob.len(), r.entries.len(), "{at}: length");
        assert_eq!(rob.precommitted_len(), r.precommitted_len(), "{at}: precommitted length");
        for idx in 0..=rob.len() {
            assert_eq!(
                rob.at(idx).map(|e| e.inst.seq),
                r.entries.get(idx).map(|e| e.0),
                "{at}: at"
            );
        }
        assert_eq!(rob.head().map(|e| e.inst.seq), r.entries.front().map(|e| e.0), "{at}: head");
        // Lookups of live, retired, squashed and never-dispatched
        // sequence numbers.
        for _ in 0..8 {
            let seq = self.rng.below(self.next_seq + 2);
            let ring = self.ids.get(&seq).and_then(|&id| self.rob.get(id));
            let ring = ring.map(|e| e.inst.seq).filter(|&s| s == seq);
            assert_eq!(ring, self.ref_rob.get(seq), "{at}: get({seq})");
        }
        let (rob, iq, ref_iq) = (&self.rob, &self.iq, &self.ref_iq);
        assert_eq!(iq.len(), ref_iq.entries.len(), "{at}: issue-queue occupancy");
        let ready: Vec<InstSeq> =
            iq.ready().iter().map(|&id| rob.get(id).expect("ready entry").inst.seq).collect();
        assert_eq!(ready, ref_iq.ready, "{at}: ready order");
        for (id, e) in rob.iter_ids() {
            let seq = e.inst.seq;
            let expected = ref_iq.entries.get(&seq).map(|&outstanding| (seq, outstanding));
            assert_eq!(iq.filed(id), expected, "{at}: outstanding sources of {seq}");
        }
    }
}

/// Where a check failed: the seed, the step and its operation.
struct Step {
    seed: u64,
    step: usize,
    op: &'static str,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} step {} ({})", self.seed, self.step, self.op)
    }
}

#[test]
fn ring_rob_and_slot_issue_queue_match_the_sequence_keyed_references() {
    for seed in 0..8 {
        let mut h = Harness::new(seed);
        for step in 0..4_000 {
            let op = h.step();
            h.check(&Step { seed, step, op });
        }
    }
}
