//! Behavioral tests for the release schemes, driving the renamer through
//! the same protocol the pipeline uses. Each named scenario corresponds
//! to a figure or subsection of the paper.

use atr_core::{FlushRecord, LifetimeSummary, ReleaseScheme, RenameConfig, RenamedUop, Renamer};
use atr_isa::{ArchReg, OpClass, RegClass, StaticInst};

fn r(i: u8) -> ArchReg {
    ArchReg::int(i)
}

fn cfg(scheme: ReleaseScheme) -> RenameConfig {
    RenameConfig {
        scheme,
        int_prf_size: 64,
        fp_prf_size: 64,
        collect_events: true,
        ..RenameConfig::default()
    }
}

fn alu(pc: u64, dst: u8, srcs: &[u8]) -> StaticInst {
    let s: Vec<ArchReg> = srcs.iter().map(|&i| r(i)).collect();
    StaticInst::alu(pc, r(dst), &s)
}

fn branch(pc: u64) -> StaticInst {
    StaticInst::cond_branch(pc, pc + 0x100, &[r(0)])
}

fn load(pc: u64, dst: u8, base: u8) -> StaticInst {
    StaticInst::load(pc, r(dst), r(base))
}

/// Tracks a renamed instruction plus its issue state, like a ROB entry.
struct Entry {
    inst: StaticInst,
    uop: RenamedUop,
    issued: bool,
    /// `Driver::commit` keeps the entry; this marks it retired.
    committed: bool,
}

struct Driver {
    renamer: Renamer,
    rob: Vec<Entry>,
    cycle: u64,
}

impl Driver {
    fn new(scheme: ReleaseScheme) -> Self {
        Driver::from_config(&cfg(scheme))
    }

    fn from_config(cfg: &RenameConfig) -> Self {
        Driver { renamer: Renamer::new(cfg), rob: Vec::new(), cycle: 10 }
    }

    fn rename(&mut self, inst: StaticInst) -> usize {
        self.cycle += 1;
        self.renamer.tick(self.cycle);
        let uop = self.renamer.rename(&inst, self.cycle, false);
        self.rob.push(Entry { inst, uop, issued: false, committed: false });
        self.rob.len() - 1
    }

    fn issue(&mut self, idx: usize) {
        self.cycle += 1;
        self.renamer.tick(self.cycle);
        assert!(!self.rob[idx].issued, "double issue");
        self.rob[idx].issued = true;
        let psrcs = self.rob[idx].uop.psrcs;
        self.renamer.on_issue(&psrcs, self.cycle);
    }

    fn precommit(&mut self, idx: usize) {
        self.cycle += 1;
        let mut uop = self.rob[idx].uop;
        self.renamer.on_precommit(&mut uop, self.cycle);
        self.rob[idx].uop = uop;
    }

    fn commit(&mut self, idx: usize) {
        self.cycle += 1;
        self.renamer.tick(self.cycle);
        let uop = self.rob[idx].uop;
        self.renamer.on_commit(&uop, self.cycle);
        self.rob[idx].committed = true;
    }

    /// Flushes all instructions with index > `flush_point` (youngest
    /// first), then rebuilds the SRT from the committed RAT plus the
    /// uncommitted entries up to the flush point, as the pipeline does.
    fn flush_after(&mut self, flush_point: usize) {
        self.cycle += 1;
        let squashed: Vec<Entry> = self.rob.split_off(flush_point + 1);
        let records: Vec<FlushRecord> =
            squashed.iter().rev().map(|e| e.uop.flush_record(&e.inst, e.issued)).collect();
        self.renamer.flush_walk(&records, self.cycle);
        self.renamer.restore_after_flush(self.rob.iter().filter(|e| !e.committed).map(|e| &e.uop));
    }

    /// Renames a leading branch so the reset-state architectural
    /// mappings are marked no-early-release; most scenarios want to
    /// reason about the regions they construct, not the reset state.
    fn prologue(&mut self) -> usize {
        self.rename(branch(0xff00))
    }

    fn free_int(&self) -> usize {
        self.renamer.free_count(RegClass::Int)
    }
}

#[test]
fn baseline_releases_only_at_redefiner_commit() {
    let mut d = Driver::new(ReleaseScheme::Baseline);
    let b = d.prologue();
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 5, &[1, 2])); // alloc p_a for r5
    let i2 = d.rename(alu(0x04, 6, &[5])); // consume r5
    let i3 = d.rename(alu(0x08, 5, &[3])); // redefine r5
    assert_eq!(d.free_int(), free0 - 3);
    d.issue(i1);
    d.issue(i2);
    d.issue(i3);
    assert_eq!(d.free_int(), free0 - 3, "baseline must not early release");
    d.commit(b);
    d.commit(i1); // frees the initial mapping of r5
    d.commit(i2); // frees the initial mapping of r6
    assert_eq!(d.free_int(), free0 - 1);
    d.commit(i3); // redefiner commits: frees i1's allocation
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_commit, 3);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 0);
    d.renamer.check_invariants();
}

#[test]
fn atr_releases_inside_atomic_region_before_any_commit() {
    // Fig 8: branch I1; I2 renames r1; I3, I4 consume; I5 redefines.
    // ATR frees I2's register once I5 renames and I3/I4 issue — with I1
    // still unresolved and nothing committed.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let _b = d.rename(branch(0x00)); // older unresolved branch
    let free0 = d.free_int();
    let i2 = d.rename(alu(0x04, 1, &[2, 3]));
    let i3 = d.rename(alu(0x08, 2, &[1, 4]));
    let i4 = d.rename(alu(0x0c, 3, &[1, 5]));
    let _i5 = d.rename(alu(0x10, 1, &[4, 5]));
    let _ = i2;
    assert_eq!(d.free_int(), free0 - 4);
    d.issue(i3);
    assert_eq!(d.free_int(), free0 - 4, "one consumer still pending");
    d.issue(i4); // last consumer of I2's r1 issues -> ATR release
    assert_eq!(d.free_int(), free0 - 3, "ATR must release I2's register");
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 1);
    d.renamer.check_invariants();
}

#[test]
fn atr_blocked_by_branch_between_rename_and_redefine() {
    // Fig 2: a conditional branch inside the region makes early release
    // unsafe; ATR must fall back to commit release.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b0 = d.prologue();
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2, 3]));
    let i2 = d.rename(alu(0x04, 2, &[1, 3])); // consume
    let i3 = d.rename(branch(0x08)); // the hazard
    let i5 = d.rename(alu(0x0c, 1, &[3, 4])); // redefine r1
    d.issue(i1);
    d.issue(i2);
    d.issue(i3);
    d.issue(i5);
    assert_eq!(d.free_int(), free0 - 3, "no early release across a branch");
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 0);
    d.commit(b0);
    d.commit(i1); // frees r1's initial mapping
    d.commit(i2); // frees r2's initial mapping
    d.commit(i3);
    d.commit(i5); // frees i1's allocation
    assert_eq!(d.free_int(), free0, "everything transient reclaimed at commit");
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_commit, 3);
    d.renamer.check_invariants();
}

#[test]
fn atr_blocked_by_exception_capable_instructions() {
    for hazard in [load(0x04, 8, 0), StaticInst::store(0x04, r(0), r(9)), {
        StaticInst::new(0x04, OpClass::IntDiv, Some(r(8)), &[r(9), r(9)])
    }] {
        let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
        let _b0 = d.prologue();
        let i1 = d.rename(alu(0x00, 1, &[2]));
        let _h = d.rename(hazard);
        let i5 = d.rename(alu(0x08, 1, &[3]));
        d.issue(i1);
        d.issue(i5);
        assert_eq!(
            d.renamer.prf_stats(RegClass::Int).released_atomic,
            0,
            "{hazard:?} must block atomic release"
        );
    }
}

#[test]
fn atr_region_starting_at_a_load_is_not_atomic() {
    // §3.2 regions are endpoint-inclusive: a load's own destination is
    // ineligible.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let i1 = d.rename(load(0x00, 1, 0)); // load defines r1
    let i2 = d.rename(alu(0x04, 1, &[2])); // redefine immediately
    d.issue(i1);
    d.issue(i2);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 0);
}

#[test]
fn atr_no_double_free_at_commit() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b0 = d.prologue();
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let i2 = d.rename(alu(0x04, 2, &[1]));
    let i3 = d.rename(alu(0x08, 1, &[3])); // redefines; ATR claims prev
    d.issue(i1);
    d.issue(i2); // -> atomic release of i1's pdst
    d.issue(i3);
    assert_eq!(d.free_int(), free0 - 2);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 1);
    // Committing everything must not release the same register again
    // (the FreeList would panic on a double free).
    d.commit(b0);
    d.commit(i1); // frees r1's initial mapping
    d.commit(i2); // frees r2's initial mapping
    d.commit(i3); // prev invalidated by ATR: nothing to free
    assert_eq!(d.free_int(), free0, "exactly one release per allocation");
    d.renamer.check_invariants();
}

#[test]
fn flush_walk_skips_registers_atr_already_released() {
    // §4.2.4 case (3): the whole atomic region sits behind an unresolved
    // branch, ATR releases inside it, then the branch mispredicts and
    // everything flushes. The walk must not double free.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x04, 1, &[2])); // alloc p1
    let i2 = d.rename(alu(0x08, 2, &[1])); // consumer
    let _i3 = d.rename(alu(0x0c, 1, &[3])); // redefiner (ATR claims p1)
    d.issue(i1);
    d.issue(i2); // atomic release of p1
    assert_eq!(d.free_int(), free0 - 2);
    d.flush_after(b); // squash i1..i3
                      // All three squashed allocations reclaimed exactly once each.
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).flush_double_free_avoided, 1);
    d.renamer.check_invariants();
}

#[test]
fn flush_walk_frees_unreleased_atomic_region() {
    // Same region, but a consumer never issued: count > 0, so ATR never
    // released; the walk's consumed-bit clearing must free it.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let _i1 = d.rename(alu(0x04, 1, &[2]));
    let _i2 = d.rename(alu(0x08, 2, &[1])); // consumer, never issues
    let _i3 = d.rename(alu(0x0c, 1, &[3])); // redefiner claims prev
    assert_eq!(d.free_int(), free0 - 3);
    d.flush_after(b);
    assert_eq!(d.free_int(), free0, "walk must reclaim all three");
    assert_eq!(d.renamer.prf_stats(RegClass::Int).flush_double_free_avoided, 0);
    d.renamer.check_invariants();
}

#[test]
fn flush_walk_handles_multiple_generations() {
    // r1 redefined twice inside one squashed range; both generations
    // ATR-released; the walk must skip both and free the rest.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x04, 1, &[2]));
    let i2 = d.rename(alu(0x08, 1, &[1])); // redefine #1 (consumes too)
    let i3 = d.rename(alu(0x0c, 1, &[1])); // redefine #2
    d.issue(i1);
    d.issue(i2); // releases i1's pdst
    d.issue(i3); // releases i2's pdst
    assert_eq!(d.free_int(), free0 - 1);
    d.flush_after(b);
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).flush_double_free_avoided, 2);
    d.renamer.check_invariants();
}

#[test]
fn counter_overflow_blocks_early_release() {
    // 3-bit counter: the 7th consumer saturates into no-early-release.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let _b0 = d.prologue();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let mut consumers = Vec::new();
    for k in 0..7u8 {
        // Distinct destinations so the consumers themselves do not form
        // atomic regions of interest.
        consumers.push(d.rename(alu(0x04 + u64::from(k) * 4, 2 + k, &[1])));
    }
    let i9 = d.rename(alu(0x40, 1, &[3])); // redefine
    d.issue(i1);
    for c in consumers {
        d.issue(c);
    }
    d.issue(i9);
    assert_eq!(
        d.renamer.prf_stats(RegClass::Int).released_atomic,
        0,
        "overflowed counter must fall back to commit release"
    );
}

#[test]
fn six_consumers_fit_a_three_bit_counter() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let _b0 = d.prologue();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let mut consumers = Vec::new();
    for k in 0..6u8 {
        consumers.push(d.rename(alu(0x04 + u64::from(k) * 4, 2 + k, &[1])));
    }
    let i9 = d.rename(alu(0x40, 1, &[3]));
    d.issue(i1);
    for c in consumers {
        d.issue(c);
    }
    d.issue(i9);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 1);
}

#[test]
fn redefine_delay_postpones_atomic_release() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 3 });
    let _b0 = d.prologue();
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    d.issue(i1);
    let _i2 = d.rename(alu(0x04, 1, &[3])); // redefine at cycle T
    let t = d.cycle;
    assert_eq!(d.free_int(), free0 - 2, "release must wait for the delay pipe");
    d.renamer.tick(t + 2);
    assert_eq!(d.free_int(), free0 - 2);
    d.renamer.tick(t + 3);
    assert_eq!(d.free_int(), free0 - 1, "release fires when the delayed redefine lands");
}

#[test]
fn delayed_redefine_still_in_pipe_at_flush_releases_exactly_once() {
    // The redefine sits in the delay pipe when the region flushes, and
    // the register had no pending consumers: the walk's consumed bit
    // stays set, so the walk skips it; the pipe entry then releases it.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 8 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x04, 1, &[2]));
    d.issue(i1);
    let _i2 = d.rename(alu(0x08, 1, &[3])); // redefine enqueued, delay 8
    let t = d.cycle;
    d.flush_after(b);
    assert_eq!(d.free_int(), free0 - 1, "i1's register still waits in the pipe");
    d.renamer.tick(t + 20);
    assert_eq!(d.free_int(), free0, "pipe entry releases the squashed allocation");
    d.renamer.check_invariants();
}

#[test]
fn stale_delayed_redefine_is_dropped_after_walk_reclaim() {
    // Here the squashed region has an un-issued consumer, so the walk
    // itself reclaims the register; the delay-pipe entry then becomes
    // stale and must not fire (the generation changed / the register is
    // free).
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 8 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let _i1 = d.rename(alu(0x04, 1, &[2]));
    let _c1 = d.rename(alu(0x08, 2, &[1])); // consumer, never issues
    let _i2 = d.rename(alu(0x0c, 1, &[3])); // redefine enqueued
    let t = d.cycle;
    d.flush_after(b); // walk reclaims all three (consumed bit cleared)
    assert_eq!(d.free_int(), free0);
    d.renamer.tick(t + 20); // stale entry: a double free would panic
    assert_eq!(d.free_int(), free0);
    d.renamer.check_invariants();
}

#[test]
fn nonspec_er_releases_at_precommit_when_consumed() {
    let mut d = Driver::new(ReleaseScheme::NonSpecEr);
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let i2 = d.rename(alu(0x04, 2, &[1]));
    let i3 = d.rename(alu(0x08, 1, &[3])); // redefiner
    d.issue(i1);
    d.issue(i2);
    d.issue(i3);
    assert_eq!(d.free_int(), free0 - 3);
    // Each precommit releases the fully-consumed previous mapping: the
    // initial mappings of r1 and r2, then i1's allocation.
    d.precommit(i1);
    d.precommit(i2);
    d.precommit(i3);
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_precommit, 3);
    // Commit must not double free.
    d.commit(i1);
    d.commit(i2);
    d.commit(i3);
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_commit, 0);
}

#[test]
fn nonspec_er_arms_when_consumers_pending() {
    let mut d = Driver::new(ReleaseScheme::NonSpecEr);
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let i2 = d.rename(alu(0x04, 2, &[1])); // consumer
    let i3 = d.rename(alu(0x08, 1, &[3])); // redefiner
    d.issue(i1);
    d.issue(i3);
    d.precommit(i1); // releases r1's initial mapping (no consumers left)
    d.precommit(i2); // releases r2's initial mapping (i1 issued)
    d.precommit(i3); // i1's allocation still has i2 pending: arm
    assert_eq!(d.free_int(), free0 - 1, "armed register must stay allocated");
    d.issue(i2); // last consumer issues -> armed release
    assert_eq!(d.free_int(), free0);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_precommit, 3);
}

#[test]
fn combined_releases_atomic_and_precommit_paths() {
    let mut d = Driver::new(ReleaseScheme::Combined { redefine_delay: 0 });
    let b0 = d.prologue();
    // Atomic region -> ATR path.
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let i2 = d.rename(alu(0x04, 1, &[1])); // redefine+consume
    d.issue(i1);
    d.issue(i2);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 1);
    // Region with a branch -> ER path at precommit.
    let j1 = d.rename(alu(0x10, 3, &[2]));
    let jb = d.rename(branch(0x14));
    let j2 = d.rename(alu(0x18, 3, &[4])); // redefine r3, non-atomic
    d.issue(j1);
    d.issue(j2);
    d.precommit(b0);
    d.precommit(i1); // frees r1's initial mapping
    d.precommit(i2); // prev claimed by ATR: nothing
    d.precommit(j1); // frees r3's initial mapping
    d.precommit(jb);
    d.precommit(j2); // frees j1's allocation: the ER path
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_precommit, 3);
    assert_eq!(d.renamer.prf_stats(RegClass::Int).released_atomic, 1);
}

#[test]
fn er_count_restore_after_flush_keeps_counts_exact() {
    let mut d = Driver::new(ReleaseScheme::NonSpecEr);
    let free0 = d.free_int();
    let i1 = d.rename(alu(0x00, 1, &[2])); // p for r1
    d.issue(i1);
    let b = d.rename(branch(0x04));
    let _wp = d.rename(alu(0x08, 2, &[1])); // wrong-path consumer, never issues
    d.flush_after(b); // walk restores the count of i1's register
                      // Correct path: consume and redefine; precommit should release.
    let c1 = d.rename(alu(0x08, 2, &[1]));
    let i3 = d.rename(alu(0x0c, 1, &[3]));
    d.issue(c1);
    d.issue(i3);
    d.precommit(i1); // frees r1's initial mapping
    d.precommit(b);
    d.precommit(c1); // frees r2's initial mapping
    d.precommit(i3); // frees i1's allocation iff the count was restored
    assert_eq!(
        d.renamer.prf_stats(RegClass::Int).released_precommit,
        3,
        "restored count must reach zero and release at precommit"
    );
    // Net zero: four allocations (i1, wp, c1, i3) against four releases
    // (wp by the walk, both initial mappings, i1's allocation).
    assert_eq!(d.free_int(), free0);
    d.renamer.check_invariants();
}

#[test]
fn flush_restore_recovers_the_srt() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let r1 = ArchReg::int(1);
    let before = d.renamer.current_mapping(r1);
    let b = d.rename(branch(0x00));
    let _w = d.rename(alu(0x04, 1, &[2])); // wrong path remaps r1
    assert_ne!(d.renamer.current_mapping(r1), before);
    d.flush_after(b);
    assert_eq!(d.renamer.current_mapping(r1), before);
}

#[test]
fn walk_restore_rebuilds_from_committed_rat() {
    let mut d = Driver::new(ReleaseScheme::Baseline);
    // Commit one instruction so the committed RAT moves.
    let i1 = d.rename(alu(0x00, 1, &[2]));
    let p1 = d.rob[i1].uop.pdst.unwrap();
    d.issue(i1);
    d.commit(i1);
    // One surviving speculative instruction, then a squashed one.
    let i2 = d.rename(alu(0x04, 2, &[1]));
    let p2 = d.rob[i2].uop.pdst.unwrap();
    let _i3 = d.rename(alu(0x08, 1, &[3])); // will be squashed
    d.flush_after(i2);
    assert_eq!(d.renamer.current_mapping(ArchReg::int(1)), p1, "committed mapping");
    assert_eq!(d.renamer.current_mapping(ArchReg::int(2)), p2, "survivor mapping");
}

#[test]
fn surviving_eliminated_move_maps_to_its_alias_after_a_flush() {
    // The surviving move allocated nothing (`pdst` is `None`): a rebuild
    // that mapped survivors by `pdst` would skip it and leave r1 on its
    // committed mapping.
    let mut cfg = cfg(ReleaseScheme::Atr { redefine_delay: 0 });
    cfg.move_elimination = true;
    let mut d = Driver::from_config(&cfg);
    let p2 = d.renamer.current_mapping(r(2));
    let mv = d.rename(StaticInst::new(0x0, OpClass::Mov, Some(r(1)), &[r(2)]));
    assert_eq!(d.rob[mv].uop.pdst, None, "the move was eliminated");
    let b = d.rename(branch(0x04));
    let _w = d.rename(alu(0x08, 1, &[3])); // wrong path redefines r1
    assert_ne!(d.renamer.current_mapping(r(1)), p2);
    d.flush_after(b);
    assert_eq!(d.renamer.current_mapping(r(1)), p2, "r1 maps to the move's alias");
    d.renamer.check_invariants();
}

/// The integer class's lifetime summary of everything `d` renamed.
fn int_summary(d: &Driver) -> LifetimeSummary {
    d.renamer.log().totals().expect("events collected").summary(RegClass::Int)
}

#[test]
fn lifetime_summary_classifies_regions() {
    let mut d = Driver::new(ReleaseScheme::Baseline);
    let _i1 = d.rename(alu(0x00, 1, &[2])); // atomic region candidate
    let _i2 = d.rename(alu(0x04, 1, &[3])); // redefine, clean region
    let _j1 = d.rename(alu(0x08, 4, &[2]));
    let _jb = d.rename(load(0x0c, 5, 0));
    let _j2 = d.rename(alu(0x10, 4, &[3])); // redefine across a load

    // Five allocations, two of them redefined: i1's is atomic, j1's is
    // non-branch but neither non-except nor atomic.
    let s = int_summary(&d);
    assert_eq!((s.allocations, s.atomic_regions), (5, 1));
    assert_eq!([s.atomic, s.non_branch, s.non_except], [0.2, 0.4, 0.2]);
    assert_eq!(s.consumer_buckets[0], 1.0, "i1's region has no consumer");
}

#[test]
fn wrong_path_allocations_are_tagged_in_the_log() {
    // The same allocate-then-redefine schedule on each path: both
    // allocations count in Fig 6, only the correct-path one in Fig 4.
    for wrong_path in [false, true] {
        let mut d = Driver::new(ReleaseScheme::Baseline);
        d.cycle += 1;
        let _ = d.renamer.rename(&alu(0x00, 1, &[2]), d.cycle, wrong_path);
        let i2 = d.rename(alu(0x04, 1, &[3]));
        d.precommit(i2);
        d.commit(i2);
        let s = int_summary(&d);
        assert_eq!(s.allocations, 2, "wrong path {wrong_path}");
        assert_eq!(s.lifecycle_samples, u64::from(!wrong_path), "wrong path {wrong_path}");
    }
}

#[test]
fn quiescent_occupancy_returns_to_architectural_state() {
    // Rename/issue/precommit/commit a long stream; at the end only the
    // 32 architectural mappings may remain allocated.
    for scheme in ReleaseScheme::ALL {
        let mut d = Driver::new(scheme);
        let mut retired = 0usize;
        for k in 0..200u64 {
            let dst = 1 + (k % 10) as u8;
            let src = 1 + ((k + 3) % 10) as u8;
            assert!(d.renamer.can_rename(), "{scheme}: rename stalled at {k}");
            let idx = d.rename(alu(k * 4, dst, &[src]));
            d.issue(idx);
            // Retire with a sliding window so the free list never runs
            // dry, like a real ROB.
            while idx - retired >= 16 {
                d.precommit(retired);
                d.commit(retired);
                retired += 1;
            }
        }
        while retired < d.rob.len() {
            d.precommit(retired);
            d.commit(retired);
            retired += 1;
        }
        d.renamer.tick(d.cycle + 100);
        d.renamer.check_invariants();
        assert_eq!(
            d.renamer.total_occupancy(),
            atr_isa::NUM_ARCH_REGS,
            "{scheme}: all transient registers must be released"
        );
    }
}

#[test]
fn flush_walk_handles_self_consuming_redefiner() {
    // Minimized from property-based fuzzing: an instruction that both
    // reads and redefines the same register (Fig 5's `SHR RBX <- RBX`)
    // is squashed before issuing. Its pending read must prevent the
    // walk from treating the allocator's register as ATR-released.
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b = d.rename(branch(0x00));
    let free0 = d.free_int();
    let _i3 = d.rename(alu(0x04, 8, &[1])); // alloc pC for r8
    let _i4 = d.rename(alu(0x08, 8, &[8])); // self-consuming redefiner, claims pC
    d.flush_after(b);
    assert_eq!(d.free_int(), free0, "pC must be reclaimed by the walk, not leaked");
    d.renamer.check_invariants();
}

#[test]
fn move_elimination_aliases_instead_of_allocating() {
    let mut cfg = cfg(ReleaseScheme::Baseline);
    cfg.move_elimination = true;
    let mut rn = Renamer::new(&cfg);
    let free0 = rn.free_count(RegClass::Int);
    let mv = StaticInst::new(0x0, OpClass::Mov, Some(r(2)), &[r(4)]);
    let uop = rn.rename(&mv, 1, false);
    assert_eq!(rn.free_count(RegClass::Int), free0, "no allocation for an eliminated move");
    assert_eq!(uop.pdst, None);
    assert_eq!(uop.alias, Some(rn.current_mapping(r(4))));
    assert_eq!(rn.current_mapping(r(2)), rn.current_mapping(r(4)), "destination aliases source");
    assert_eq!(rn.eliminated_moves(), 1);
    // Committing the move frees r2's previous mapping.
    rn.on_commit(&uop, 2);
    assert_eq!(rn.free_count(RegClass::Int), free0 + 1);
    rn.check_invariants();
}

#[test]
fn shared_register_frees_only_after_both_aliases_redefined() {
    let mut cfg = cfg(ReleaseScheme::Baseline);
    cfg.move_elimination = true;
    let mut rn = Renamer::new(&cfg);
    // i1 allocates p for r1; mov r2 <- r1 shares p; then both are
    // redefined and committed.
    let i1 = StaticInst::alu(0x0, r(1), &[]);
    let mv = StaticInst::new(0x4, OpClass::Mov, Some(r(2)), &[r(1)]);
    let j1 = StaticInst::alu(0x8, r(1), &[]);
    let j2 = StaticInst::alu(0xc, r(2), &[]);
    let u1 = rn.rename(&i1, 1, false);
    let p = u1.pdst.unwrap();
    let um = rn.rename(&mv, 2, false);
    let uj1 = rn.rename(&j1, 3, false);
    let uj2 = rn.rename(&j2, 4, false);
    let free_after_renames = rn.free_count(RegClass::Int);
    rn.on_commit(&u1, 5); // frees r1's initial mapping
    rn.on_commit(&um, 6); // frees r2's initial mapping
    rn.on_commit(&uj1, 7); // drops r1's reference to p (refs 2 -> 1)
    assert_eq!(rn.free_count(RegClass::Int), free_after_renames + 2);
    rn.on_commit(&uj2, 8); // drops r2's reference -> p freed
    assert_eq!(rn.free_count(RegClass::Int), free_after_renames + 3);
    let _ = p;
    rn.check_invariants();
}

#[test]
fn open_claims_counter_tracks_inflight_regions() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let _b = d.prologue();
    assert_eq!(d.renamer.open_atr_claims(), 0);
    let _i1 = d.rename(alu(0x0, 1, &[2]));
    let i2 = d.rename(alu(0x4, 1, &[3])); // claims i1's register
    assert_eq!(d.renamer.open_atr_claims(), 1, "claim opened at the redefine");
    d.issue(i2);
    d.commit(i2); // out-of-order commit is fine for this bookkeeping test
    assert_eq!(d.renamer.open_atr_claims(), 0, "claim closes at the redefiner's commit");
}

#[test]
fn open_claims_counter_closes_on_flush() {
    let mut d = Driver::new(ReleaseScheme::Atr { redefine_delay: 0 });
    let b = d.rename(branch(0x0));
    let _i1 = d.rename(alu(0x4, 1, &[2]));
    let _i2 = d.rename(alu(0x8, 1, &[3]));
    assert_eq!(d.renamer.open_atr_claims(), 1);
    d.flush_after(b);
    assert_eq!(d.renamer.open_atr_claims(), 0, "squashed redefiner closes its claim");
}
