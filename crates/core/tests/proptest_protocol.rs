//! Property-based fuzzing of the release schemes.
//!
//! Drives the renamer through randomized but *pipeline-legal* action
//! sequences (rename / issue / precommit / commit / branch-anchored
//! flush) under every scheme and checks the global invariants:
//!
//! * allocated + free == file size at every step (no leak, no double
//!   free — the free list panics on double frees);
//! * after draining, only the architectural mappings stay allocated;
//! * ATR never releases a register whose region saw a branch or
//!   exception-capable instruction.
//!
//! Randomness comes from the in-tree `atr-rng` (the container has no
//! registry access for proptest): every case is seeded deterministically,
//! so a failure message's seed reproduces the exact action sequence.

use atr_core::{FlushRecord, ReleaseScheme, RenameConfig, RenamedUop, Renamer};
use atr_isa::{ArchReg, OpClass, StaticInst};
use atr_rng::{RngExt, SeedableRng, SmallRng};

#[derive(Debug, Clone)]
enum Action {
    /// Rename an instruction of the given shape.
    Rename { kind: u8, dst: u8, src: u8 },
    /// Issue the oldest un-issued instruction.
    IssueOldest,
    /// Issue a random un-issued instruction (out of order).
    IssueAt(u8),
    /// Advance the precommit+commit window by one if legal.
    Retire,
    /// Flush at the youngest unresolved branch, if any.
    FlushAtBranch,
    /// Let cycles pass (drains the redefine-delay pipe).
    Tick(u8),
}

/// Weighted random action, mirroring the original proptest strategy
/// (weights 5/3/2/3/1/1).
fn random_action(rng: &mut SmallRng) -> Action {
    match rng.random_range(0..15u32) {
        0..=4 => Action::Rename {
            kind: rng.random_range(0..7u8),
            dst: rng.random_range(1..16u8),
            src: rng.random_range(1..16u8),
        },
        5..=7 => Action::IssueOldest,
        8..=9 => Action::IssueAt(rng.random_range(0..=255u8)),
        10..=12 => Action::Retire,
        13 => Action::FlushAtBranch,
        _ => Action::Tick(rng.random_range(1..8u8)),
    }
}

/// Runs `check` against `cases` random action sequences of 1..150
/// actions, reporting the failing seed for reproduction.
fn fuzz(name: &str, cases: u64, check: impl Fn(&[Action])) {
    for case in 0..cases {
        let seed = 0xA7B0_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.random_range(1..150usize);
        let actions: Vec<Action> = (0..len).map(|_| random_action(&mut rng)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&actions)));
        assert!(result.is_ok(), "{name}: case with seed {seed:#x} failed; actions: {actions:?}");
    }
}

struct Slot {
    inst: StaticInst,
    uop: RenamedUop,
    issued: bool,
    precommitted: bool,
}

struct Model {
    renamer: Renamer,
    rob: Vec<Slot>,
    cycle: u64,
    seq: u64,
}

impl Model {
    fn with_move_elim(scheme: ReleaseScheme, counter_width: u32, move_elimination: bool) -> Self {
        let cfg = RenameConfig {
            scheme,
            int_prf_size: 48,
            fp_prf_size: 48,
            counter_width,
            stall_threshold: 4,
            collect_events: true,
            move_elimination,
            // Run the randomized protocol fuzz with the release-path
            // audit asserts armed: every release the model drives must
            // also be legal by the auditor's book.
            audit: true,
        };
        Model { renamer: Renamer::new(&cfg), rob: Vec::new(), cycle: 1, seq: 0 }
    }

    fn build_inst(&self, kind: u8, dst: u8, src: u8) -> StaticInst {
        let pc = self.seq * 4;
        let d = ArchReg::int(dst % 16);
        let s = ArchReg::int(src % 16);
        match kind {
            0 | 1 => StaticInst::alu(pc, d, &[s]),
            2 => StaticInst::alu(pc, d, &[s, ArchReg::int((src.wrapping_add(3)) % 16)]),
            3 => StaticInst::load(pc, d, s),
            4 => StaticInst::cond_branch(pc, pc + 64, &[s]),
            5 => StaticInst::new(pc, OpClass::Mov, Some(d), &[s]),
            _ => StaticInst::new(pc, OpClass::IntDiv, Some(d), &[s, s]),
        }
    }

    fn apply(&mut self, action: &Action) {
        self.cycle += 1;
        self.renamer.tick(self.cycle);
        match action {
            Action::Rename { kind, dst, src } => {
                if !self.renamer.can_rename() || self.rob.len() > 24 {
                    return;
                }
                let inst = self.build_inst(*kind, *dst, *src);
                let uop = self.renamer.rename(&inst, self.seq, self.cycle, false);
                self.seq += 1;
                self.rob.push(Slot { inst, uop, issued: false, precommitted: false });
            }
            Action::IssueOldest => {
                if let Some(slot) = self.rob.iter_mut().find(|s| !s.issued) {
                    slot.issued = true;
                    let psrcs = slot.uop.psrcs;
                    self.renamer.on_issue(&psrcs, self.cycle);
                }
            }
            Action::IssueAt(i) => {
                let unissued: Vec<usize> = self
                    .rob
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.issued)
                    .map(|(i, _)| i)
                    .collect();
                if unissued.is_empty() {
                    return;
                }
                let idx = unissued[*i as usize % unissued.len()];
                self.rob[idx].issued = true;
                let psrcs = self.rob[idx].uop.psrcs;
                self.renamer.on_issue(&psrcs, self.cycle);
            }
            Action::Retire => self.retire_one(),
            Action::FlushAtBranch => {
                // Flush from the youngest un-precommitted branch: squash
                // everything younger than it (it resolves).
                let Some(bidx) =
                    self.rob.iter().rposition(|s| s.inst.class.is_conditional() && !s.precommitted)
                else {
                    return;
                };
                if bidx + 1 >= self.rob.len() {
                    return;
                }
                let squashed: Vec<Slot> = self.rob.split_off(bidx + 1);
                let records: Vec<FlushRecord> =
                    squashed.iter().rev().map(|s| s.uop.flush_record(&s.inst, s.issued)).collect();
                self.renamer.flush_walk(&records, self.cycle);
                // Retired slots are already removed: the rest survive.
                self.renamer.restore_after_flush(self.rob.iter().map(|s| &s.uop));
            }
            Action::Tick(n) => {
                self.cycle += u64::from(*n);
                self.renamer.tick(self.cycle);
            }
        }
        self.renamer.check_invariants();
    }

    /// Precommit+commit the oldest instruction if it (and hence all
    /// older) has issued — the in-order retirement constraint.
    fn retire_one(&mut self) {
        if self.rob.is_empty() || !self.rob[0].issued {
            return;
        }
        let mut slot = self.rob.remove(0);
        self.renamer.on_precommit(&mut slot.uop, self.cycle);
        self.renamer.on_commit(&slot.uop, self.cycle);
    }

    fn drain(&mut self) {
        // Issue everything, then retire in order.
        let pending: Vec<usize> = (0..self.rob.len()).filter(|&i| !self.rob[i].issued).collect();
        for i in pending {
            self.cycle += 1;
            self.rob[i].issued = true;
            let psrcs = self.rob[i].uop.psrcs;
            self.renamer.on_issue(&psrcs, self.cycle);
        }
        while !self.rob.is_empty() {
            self.cycle += 1;
            self.retire_one();
        }
        self.cycle += 64;
        self.renamer.tick(self.cycle);
    }
}

fn run_model(scheme: ReleaseScheme, counter_width: u32, actions: &[Action]) {
    run_model_full(scheme, counter_width, false, actions)
}

fn run_model_full(scheme: ReleaseScheme, counter_width: u32, move_elim: bool, actions: &[Action]) {
    let mut m = Model::with_move_elim(scheme, counter_width, move_elim);
    for a in actions {
        m.apply(a);
    }
    m.drain();
    m.renamer.check_invariants();
    // After draining, exactly the distinct live SRT mappings remain
    // allocated (move elimination lets several architectural registers
    // share one physical register, so this can be < NUM_ARCH_REGS).
    let distinct_live: std::collections::HashSet<_> =
        ArchReg::all().map(|a| m.renamer.current_mapping(a)).collect();
    assert_eq!(
        m.renamer.total_occupancy(),
        distinct_live.len(),
        "{scheme}: leaked registers after drain"
    );
    // ATR must never have released across a region hazard: every
    // atomically-released allocation's log record must be atomic.
    for r in m.renamer.log().records() {
        if r.release_kind == Some(atr_core::ReleaseKind::Atomic) {
            assert!(
                !r.saw_branch && !r.saw_exception && !r.overflowed,
                "atomic release of a non-atomic region: {r:?}"
            );
        }
    }
}

const CASES: u64 = 96;

#[test]
fn baseline_protocol_invariants() {
    fuzz("baseline", CASES, |a| run_model(ReleaseScheme::Baseline, 3, a));
}

#[test]
fn nonspec_er_protocol_invariants() {
    fuzz("nonspec-er", CASES, |a| run_model(ReleaseScheme::NonSpecEr, 8, a));
}

#[test]
fn atr_protocol_invariants() {
    fuzz("atr", CASES, |a| run_model(ReleaseScheme::Atr { redefine_delay: 0 }, 3, a));
}

#[test]
fn atr_delayed_protocol_invariants() {
    fuzz("atr-delayed", CASES, |a| run_model(ReleaseScheme::Atr { redefine_delay: 2 }, 3, a));
}

#[test]
fn combined_protocol_invariants() {
    fuzz("combined", CASES, |a| run_model(ReleaseScheme::Combined { redefine_delay: 1 }, 8, a));
}

#[test]
fn narrow_counter_protocol_invariants() {
    // 2-bit counter: overflow is common; must still be leak-free.
    fuzz("narrow-counter", CASES, |a| run_model(ReleaseScheme::Atr { redefine_delay: 0 }, 2, a));
}

#[test]
fn move_elimination_protocol_invariants() {
    // §6 extension: reference-counted registers with ATR claims.
    fuzz("move-elim", CASES, |a| {
        run_model_full(ReleaseScheme::Atr { redefine_delay: 0 }, 3, true, a);
    });
}

#[test]
fn move_elimination_combined_invariants() {
    fuzz("move-elim-combined", CASES, |a| {
        run_model_full(ReleaseScheme::Combined { redefine_delay: 1 }, 8, true, a);
    });
}
