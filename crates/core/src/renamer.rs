//! The register renamer with pluggable out-of-order release schemes.
//!
//! The pipeline drives the renamer through a narrow protocol:
//!
//! 1. [`Renamer::rename`] per fetched instruction, in program order
//!    (including down wrong paths);
//! 2. [`Renamer::on_issue`] when an instruction issues (its source
//!    consumer counts decrement, §4.2.3);
//! 3. [`Renamer::on_precommit`] when the precommit pointer passes an
//!    instruction (non-speculative ER release point, §2.3);
//! 4. [`Renamer::on_commit`] at retirement (conventional release and
//!    committed-RAT update);
//! 5. [`Renamer::flush_walk`] over the squashed uops, then
//!    [`Renamer::restore_after_flush`] over the survivors, on every
//!    flush (misprediction, exception or interrupt);
//! 6. [`Renamer::tick`] once per cycle (drains the pipelined
//!    redefine-delay queue, §4.2.2).
//!
//! The ATR mechanics (bulk no-early-release marking, previous-ptag
//! invalidation, the two-bit flush-walk algorithm) live here; see the
//! crate docs for the paper mapping.

use crate::events::{EventHandle, LifetimeLog, ReleaseKind};
use crate::freelist::FreeList;
use crate::prf::{PhysRegFile, PrfStats};
use crate::ptag::{PTag, PerClass};
use crate::scheme::ReleaseScheme;
use crate::srt::RenameTable;
use atr_isa::{ArchReg, RegClass, StaticInst, MAX_SRCS, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// Renamer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameConfig {
    /// Release scheme under evaluation.
    pub scheme: ReleaseScheme,
    /// Scalar-integer physical register file size.
    pub int_prf_size: usize,
    /// Vector/FP physical register file size.
    pub fp_prf_size: usize,
    /// Consumer counter width in bits (3 in the paper; one value is
    /// reserved as the no-early-release sentinel, §4.2.2).
    pub counter_width: u32,
    /// Rename stalls when a free list drops below this watermark
    /// (`MAX_DEST × WIDTH_STAGE` in §4.2.1).
    pub stall_threshold: usize,
    /// Collect per-allocation lifetime events (analysis runs).
    pub collect_events: bool,
    /// Enable move elimination (§6): register-to-register moves rename
    /// the destination to the source's physical register instead of
    /// allocating, with per-register reference counts. ATR composes by
    /// decrementing instead of releasing.
    pub move_elimination: bool,
    /// Enable release-time legality checking ([`crate::audit`]): every
    /// `release` validates the mechanism-specific preconditions (claim
    /// present, counts at zero, region not blocked) and panics on the
    /// first violation. The pipeline additionally runs the cycle-level
    /// [`crate::audit::RenameAuditor`] when this is set.
    pub audit: bool,
}

impl Default for RenameConfig {
    fn default() -> Self {
        RenameConfig {
            scheme: ReleaseScheme::Baseline,
            int_prf_size: 224,
            fp_prf_size: 224,
            counter_width: 3,
            stall_threshold: 8,
            collect_events: false,
            move_elimination: false,
            audit: false,
        }
    }
}

/// The rename-stage output for one instruction: what the pipeline keeps
/// in the ROB entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenamedUop {
    /// Physical sources, slot-aligned with the static instruction's
    /// `srcs`.
    pub psrcs: [Option<PTag>; MAX_SRCS],
    /// Newly allocated destination.
    pub pdst: Option<PTag>,
    /// Destination architectural register.
    pub dst_arch: Option<ArchReg>,
    /// The previous mapping of the destination, if still valid: the
    /// register freed at commit (or precommit). `None` when there is no
    /// destination — or when ATR invalidated it at rename (§4.2.4).
    pub prev_ptag: Option<PTag>,
    /// True when ATR claimed the previous mapping at rename (its release
    /// happens out of order; the flush walk must skip it).
    pub atr_freed_prev: bool,
    /// Lifetime-log handle of the *previous* allocation (for recording
    /// the redefiner's precommit/commit timestamps).
    pub prev_event: Option<EventHandle>,
    /// Lifetime-log handle of the new allocation.
    pub dst_event: Option<EventHandle>,
    /// Move elimination (§6): the uop allocated no register; its
    /// destination aliases this (source) physical register, whose
    /// reference count was incremented at rename.
    pub alias: Option<PTag>,
}

impl RenamedUop {
    /// The physical register holding this uop's result: the allocated
    /// destination, or the aliased source for an eliminated move. This
    /// is the register the uop's `dst_arch` maps to while it is in
    /// flight and after it commits — an eliminated move allocated
    /// nothing, so its `pdst` is `None`.
    #[must_use]
    pub fn result_ptag(&self) -> Option<PTag> {
        self.pdst.or(self.alias)
    }

    /// Builds the flush-walk record for this uop. `inst` must be the
    /// static instruction it renamed; `issued` whether it issued before
    /// the flush.
    #[must_use]
    pub fn flush_record(&self, inst: &StaticInst, issued: bool) -> FlushRecord {
        let mut srcs = [None; MAX_SRCS];
        for (slot, (sa, sp)) in srcs.iter_mut().zip(inst.srcs.iter().zip(self.psrcs.iter())) {
            if let (Some(a), Some(p)) = (sa, sp) {
                *slot = Some((*a, *p));
            }
        }
        FlushRecord {
            dst_arch: self.dst_arch,
            pdst: self.pdst,
            atr_freed_prev: self.atr_freed_prev,
            alias: self.alias,
            srcs,
            issued,
        }
    }
}

/// One squashed instruction as seen by the flush walk, youngest first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushRecord {
    /// Architectural destination.
    pub dst_arch: Option<ArchReg>,
    /// Allocated physical destination (returned to the free list by the
    /// walk unless ATR already released it).
    pub pdst: Option<PTag>,
    /// The uop's previous ptag was invalidated by ATR at rename.
    pub atr_freed_prev: bool,
    /// Eliminated move: the reference this squashed uop added must be
    /// dropped by the walk (§6's modified flush walk).
    pub alias: Option<PTag>,
    /// `(arch, ptag)` source pairs.
    pub srcs: [Option<(ArchReg, PTag)>; MAX_SRCS],
    /// Had the instruction issued before the flush?
    pub issued: bool,
}

/// The register renamer. See the [module docs](self) for the driving
/// protocol.
#[derive(Debug, Clone)]
pub struct Renamer {
    scheme: ReleaseScheme,
    stall_threshold: usize,
    srt: RenameTable,
    committed: RenameTable,
    prf: PerClass<PhysRegFile>,
    free: PerClass<FreeList>,
    /// Redefine-delay pipeline: (effective cycle, ptag, generation).
    pending_redefines: VecDeque<(u64, PTag, u64)>,
    redefine_delay: u32,
    log: LifetimeLog,
    /// Bulk no-early-release marking events (diagnostics, §4.2.2).
    markings: u64,
    /// ATR claims whose redefining instruction has neither committed nor
    /// been squashed — the §4.1 interrupt-flush counter: flushing the
    /// ROB is only safe when this is zero.
    open_claims: u64,
    move_elimination: bool,
    /// Moves eliminated (no allocation performed).
    eliminated_moves: u64,
    /// Release-time legality checking enabled (see [`RenameConfig::audit`]).
    audit: bool,
}

impl Renamer {
    /// Creates a renamer in the architectural reset state.
    ///
    /// # Panics
    ///
    /// Panics if a physical register file is smaller than its
    /// architectural register count plus the stall threshold (the core
    /// could never rename).
    #[must_use]
    pub fn new(cfg: &RenameConfig) -> Self {
        let max_count = (1u32 << cfg.counter_width) - 2;
        let sizes = PerClass { int: cfg.int_prf_size, fp: cfg.fp_prf_size };
        for (class, &size) in sizes.iter() {
            assert!(
                size > class.arch_reg_count() + cfg.stall_threshold,
                "{class} PRF of {size} cannot cover {} architectural registers plus the {} stall watermark",
                class.arch_reg_count(),
                cfg.stall_threshold
            );
        }
        Renamer {
            scheme: cfg.scheme,
            stall_threshold: cfg.stall_threshold,
            srt: RenameTable::identity(),
            committed: RenameTable::identity(),
            prf: PerClass::from_fn(|class| {
                PhysRegFile::new(class, *sizes.get(class), class.arch_reg_count(), max_count)
            }),
            free: PerClass::from_fn(|class| {
                FreeList::new(class, class.arch_reg_count(), *sizes.get(class))
            }),
            pending_redefines: VecDeque::new(),
            redefine_delay: cfg.scheme.redefine_delay(),
            log: if cfg.collect_events { LifetimeLog::enabled() } else { LifetimeLog::disabled() },
            markings: 0,
            open_claims: 0,
            move_elimination: cfg.move_elimination,
            eliminated_moves: 0,
            audit: cfg.audit,
        }
    }

    /// The configured scheme.
    #[must_use]
    pub fn scheme(&self) -> ReleaseScheme {
        self.scheme
    }

    /// Can the rename stage accept instructions this cycle (free lists
    /// above the watermark)?
    #[must_use]
    pub fn can_rename(&self) -> bool {
        self.free.int.len() > self.stall_threshold && self.free.fp.len() > self.stall_threshold
    }

    /// Free registers of `class`.
    #[must_use]
    pub fn free_count(&self, class: RegClass) -> usize {
        self.free.get(class).len()
    }

    /// Allocated registers of `class`.
    #[must_use]
    pub fn occupancy(&self, class: RegClass) -> usize {
        self.prf.get(class).occupancy()
    }

    /// Release statistics of `class`.
    #[must_use]
    pub fn prf_stats(&self, class: RegClass) -> &PrfStats {
        self.prf.get(class).stats()
    }

    /// Bulk no-early-release marking operations performed.
    #[must_use]
    pub fn markings(&self) -> u64 {
        self.markings
    }

    /// ATR claims whose redefiner is still in flight (§4.1): the ROB may
    /// be flushed for an interrupt only when this is zero, because a
    /// flushed redefiner's already-released register cannot be restored.
    #[must_use]
    pub fn open_atr_claims(&self) -> u64 {
        self.open_claims
    }

    /// The lifetime event log.
    #[must_use]
    pub fn log(&self) -> &LifetimeLog {
        &self.log
    }

    /// Is the value behind `tag` produced (wakeup scoreboard)?
    #[must_use]
    pub fn is_ready(&self, tag: PTag) -> bool {
        self.prf.get(tag.class()).get(tag).ready
    }

    /// Marks `tag` produced (writeback).
    pub fn set_ready(&mut self, tag: PTag) {
        self.prf.get_mut(tag.class()).get_mut(tag).ready = true;
    }

    /// Current speculative mapping of `reg` (diagnostics and tests).
    #[must_use]
    pub fn current_mapping(&self, reg: ArchReg) -> PTag {
        self.srt.get(reg)
    }

    /// Is release-time legality checking on ([`RenameConfig::audit`])?
    #[must_use]
    pub fn audit_enabled(&self) -> bool {
        self.audit
    }

    /// The speculative rename table (auditor view).
    #[must_use]
    pub fn srt(&self) -> &RenameTable {
        &self.srt
    }

    /// The committed (retirement) rename table (auditor view).
    #[must_use]
    pub fn committed_table(&self) -> &RenameTable {
        &self.committed
    }

    /// The free list of `class` (auditor view).
    #[must_use]
    pub fn free_list(&self, class: RegClass) -> &FreeList {
        self.free.get(class)
    }

    /// The physical register file of `class` (auditor view).
    #[must_use]
    pub fn prf_file(&self, class: RegClass) -> &PhysRegFile {
        self.prf.get(class)
    }

    /// Claimed registers still waiting in the redefine-delay pipeline
    /// whose allocation generation is still current — the only way an
    /// allocated register may transiently be unreachable from any
    /// rename table or in-flight uop (a squashed redefiner's claim that
    /// survives the flush, §4.2.4).
    pub fn pending_claim_tags(&self) -> impl Iterator<Item = PTag> + '_ {
        self.pending_redefines.iter().filter_map(move |&(_, p, generation)| {
            let state = self.prf.get(p.class()).get(p);
            (state.allocated && state.generation == generation).then_some(p)
        })
    }

    /// Test-only fault injection: frees `p` unconditionally, bypassing
    /// every eligibility check and the lifetime log — the "released one
    /// cycle too early" bug class [`crate::audit`] exists to catch.
    /// Never call this outside auditor tests.
    #[doc(hidden)]
    pub fn inject_early_release(&mut self, p: PTag) {
        self.prf.get_mut(p.class()).on_release(p);
        self.free.get_mut(p.class()).release(p);
    }

    /// Renames one instruction in program order. `wrong_path` tags the
    /// allocation for analysis only — the renamer itself cannot know
    /// (and hardware does not know) whether fetch is on the wrong path.
    ///
    /// # Panics
    ///
    /// Panics if a destination is needed and the free list is empty; the
    /// pipeline must check [`Renamer::can_rename`] first.
    pub fn rename(
        &mut self,
        inst: &StaticInst,
        seq: u64,
        cycle: u64,
        wrong_path: bool,
    ) -> RenamedUop {
        let tracks = self.scheme.tracks_consumers();

        // Move elimination (§6): a register-to-register move renames its
        // destination onto the source's physical register and bumps the
        // reference count — no allocation, no execution. The move does
        // not *read* the value, so it registers no consumer.
        if self.move_elimination && inst.class == atr_isa::OpClass::Mov {
            if let (Some(dst), Some(src)) = (inst.dst, inst.srcs[0]) {
                if dst.class() == src.class() {
                    return self.rename_eliminated_move(dst, src, cycle);
                }
            }
        }

        // 1. Source lookup + consumer registration (§4.2.2).
        let mut psrcs = [None; MAX_SRCS];
        for (slot, src) in psrcs.iter_mut().zip(inst.srcs.iter()) {
            if let Some(a) = src {
                let p = self.srt.get(*a);
                *slot = Some(p);
                let mut overflowed = false;
                if tracks {
                    overflowed = self.prf.get_mut(a.class()).add_consumer(p);
                }
                let ev = self.prf.get(a.class()).get(p).event;
                self.log.update(ev, |r| {
                    r.consumers += 1;
                    r.overflowed |= overflowed;
                });
            }
        }

        // 2. Bulk no-early-release marking: a branch or exception-capable
        //    instruction makes every currently live ptag ineligible
        //    (§4.2.2). Runs before the destination is renamed so the
        //    previous mapping of this instruction's own destination is
        //    covered.
        let breaks = inst.class.breaks_atomic_region();
        let excepts = inst.class.may_raise_exception();
        if (breaks || excepts) && (self.scheme.atr_enabled() || self.log.is_enabled()) {
            self.mark_all_live(breaks);
        }

        // 3. Destination allocation and redefine processing.
        let mut uop = RenamedUop {
            psrcs,
            pdst: None,
            dst_arch: inst.dst,
            prev_ptag: None,
            atr_freed_prev: false,
            prev_event: None,
            dst_event: None,
            alias: None,
        };
        if let Some(a) = inst.dst {
            let class = a.class();
            let pdst = self
                .free
                .get_mut(class)
                .allocate()
                .expect("rename with empty free list: pipeline must check can_rename()");
            let dst_event = self.log.on_alloc(class, cycle, seq, wrong_path);
            self.prf.get_mut(class).on_alloc(pdst, dst_event);
            let prev = self.srt.set(a, pdst);
            let prev_event = self.prf.get(class).get(prev).event;
            self.log.update(prev_event, |r| r.redefine_cycle = Some(cycle));
            uop.pdst = Some(pdst);
            uop.dst_event = dst_event;
            uop.prev_event = prev_event;
            self.claim_or_keep_prev(&mut uop, prev, cycle);

            // A branch or exception-capable instruction also makes its
            // *own* destination ineligible: the region starting at this
            // instruction contains it (§3.2 regions are
            // endpoint-inclusive).
            if (breaks || excepts) && (self.scheme.atr_enabled() || self.log.is_enabled()) {
                self.prf.get_mut(class).mark_no_early_release(pdst, breaks);
                self.log.update(dst_event, |r| {
                    if breaks {
                        r.saw_branch = true;
                    } else {
                        r.saw_exception = true;
                    }
                });
            }
        }
        uop
    }

    fn rename_eliminated_move(&mut self, dst: ArchReg, src: ArchReg, cycle: u64) -> RenamedUop {
        self.eliminated_moves += 1;
        let class = dst.class();
        let p = self.srt.get(src);
        self.prf.get_mut(class).get_mut(p).refs += 1;
        let prev = self.srt.set(dst, p);
        let prev_event = self.prf.get(class).get(prev).event;
        self.log.update(prev_event, |r| r.redefine_cycle = Some(cycle));
        let mut uop = RenamedUop {
            psrcs: [None; MAX_SRCS],
            pdst: None,
            dst_arch: Some(dst),
            prev_ptag: None,
            atr_freed_prev: false,
            prev_event,
            dst_event: None,
            alias: Some(p),
        };
        // The redefinition of `dst` releases the previous mapping
        // through the usual paths; ATR may claim it (decrementing
        // instead of freeing happens inside `release`). A self-move
        // (prev == p) is never claimed: the increment above left the
        // register with at least two references.
        self.claim_or_keep_prev(&mut uop, prev, cycle);
        uop
    }

    /// Settles the previous mapping `prev` of `uop`'s destination. If it
    /// lived in an atomic commit region, ATR claims its release and the
    /// previous-ptag field stays invalid so commit cannot double free
    /// (§4.2.4); otherwise `uop` keeps it as `prev_ptag` for the
    /// commit/precommit paths. With move elimination, only
    /// sole-reference registers are claimable: a shared register stays
    /// in the SRT through its other aliases, where later marking or
    /// wrong-path consumers could strand the claim (see DESIGN.md) —
    /// shared previous mappings fall back to the commit/precommit
    /// paths, which decrement the reference count (§6).
    fn claim_or_keep_prev(&mut self, uop: &mut RenamedUop, prev: PTag, cycle: u64) {
        let state = *self.prf.get(prev.class()).get(prev);
        if !self.scheme.atr_enabled() || state.atr_blocked() || state.refs != 1 {
            uop.prev_ptag = Some(prev);
            return;
        }
        uop.atr_freed_prev = true;
        self.open_claims += 1;
        self.prf.get_mut(prev.class()).get_mut(prev).atr_claimed = true;
        if self.redefine_delay == 0 {
            self.apply_effective_redefine(prev, cycle);
        } else {
            self.pending_redefines.push_back((
                cycle + u64::from(self.redefine_delay),
                prev,
                state.generation,
            ));
        }
    }

    /// Moves eliminated so far (§6 extension).
    #[must_use]
    pub fn eliminated_moves(&self) -> u64 {
        self.eliminated_moves
    }

    fn mark_all_live(&mut self, is_branch: bool) {
        // Only ATR needs the marking; other schemes run it solely to
        // fill the lifetime log, which must not move a reported counter.
        if self.scheme.atr_enabled() {
            self.markings += 1;
        }
        for (a, p) in self.srt.live() {
            let prf = self.prf.get_mut(a.class());
            prf.mark_no_early_release(p, is_branch);
            let ev = prf.get(p).event;
            self.log.update(ev, |r| {
                if is_branch {
                    r.saw_branch = true;
                } else {
                    r.saw_exception = true;
                }
            });
        }
    }

    /// Drains redefine-delay pipeline entries that become effective at
    /// `cycle` (§4.2.2's N-stage pipelined marking). Returns whether any
    /// entry drained.
    pub fn tick(&mut self, cycle: u64) -> bool {
        let mut drained = false;
        while let Some(&(effective, p, generation)) = self.pending_redefines.front() {
            if effective > cycle {
                break;
            }
            self.pending_redefines.pop_front();
            drained = true;
            let state = self.prf.get(p.class()).get(p);
            if state.allocated && state.generation == generation {
                self.apply_effective_redefine(p, cycle);
            }
        }
        drained
    }

    /// The cycle the oldest pending redefine becomes effective — the
    /// next cycle at which [`Renamer::tick`] has work.
    #[must_use]
    pub fn next_redefine_at(&self) -> Option<u64> {
        self.pending_redefines.front().map(|&(effective, _, _)| effective)
    }

    fn apply_effective_redefine(&mut self, p: PTag, cycle: u64) {
        let prf = self.prf.get_mut(p.class());
        prf.get_mut(p).redefined_effective = true;
        let state = *prf.get(p);
        if state.count == 0 && !state.atr_blocked() {
            self.release(p, ReleaseKind::Atomic, cycle);
        }
    }

    /// An instruction issued: decrement the consumer counts of its
    /// sources and fire any release that now qualifies (§4.2.3).
    pub fn on_issue(&mut self, psrcs: &[Option<PTag>; MAX_SRCS], cycle: u64) {
        let tracks = self.scheme.tracks_consumers();
        for p in psrcs.iter().flatten().copied() {
            let prf = self.prf.get_mut(p.class());
            debug_assert!(prf.get(p).allocated, "issued consumer of a freed register {p}");
            let ev = prf.get(p).event;
            self.log.update(ev, |r| {
                r.last_consume_cycle = Some(r.last_consume_cycle.unwrap_or(0).max(cycle));
            });
            if !tracks {
                continue;
            }
            let new_count = self.prf.get_mut(p.class()).consume(p);
            if new_count == 0 {
                self.maybe_release_on_zero(p, cycle);
            }
        }
    }

    fn maybe_release_on_zero(&mut self, p: PTag, cycle: u64) {
        let state = *self.prf.get(p.class()).get(p);
        if !state.allocated || state.count != 0 {
            return;
        }
        if state.redefined_effective && !state.atr_blocked() {
            self.release(p, ReleaseKind::Atomic, cycle);
        } else if state.armed_precommit && !state.er_blocked() {
            self.release(p, ReleaseKind::Precommit, cycle);
        }
    }

    /// The precommit pointer passed this uop (§2.3): record the
    /// timestamp and, for precommit-enabled schemes, release or arm the
    /// previous ptag.
    pub fn on_precommit(&mut self, uop: &mut RenamedUop, cycle: u64) {
        self.log.update(uop.prev_event, |r| {
            r.redefiner_precommit_cycle =
                Some(r.redefiner_precommit_cycle.unwrap_or(cycle).min(cycle));
        });
        if !self.scheme.precommit_enabled() {
            return;
        }
        let Some(prev) = uop.prev_ptag else { return };
        let state = *self.prf.get(prev.class()).get(prev);
        if state.er_blocked() || (state.count > 0 && state.armed_precommit) {
            // Leave the release for the commit path: an overflowed
            // count is untrustworthy, and a register some *other*
            // precommitted redefiner already armed (two aliases of one
            // register redefined in flight, §6) has a single armed bit
            // that can fire only one reference drop — booking a second
            // deferred drop on it would leak the register.
            return;
        }
        uop.prev_ptag = None;
        if state.count == 0 {
            self.release(prev, ReleaseKind::Precommit, cycle);
        } else {
            self.prf.get_mut(prev.class()).get_mut(prev).armed_precommit = true;
        }
    }

    /// The uop committed: free the previous ptag if still valid and
    /// update the committed RAT.
    pub fn on_commit(&mut self, uop: &RenamedUop, cycle: u64) {
        if uop.atr_freed_prev {
            debug_assert!(self.open_claims > 0, "claim imbalance at commit");
            self.open_claims -= 1;
        }
        self.log.update(uop.prev_event, |r| r.redefiner_commit_cycle = Some(cycle));
        if let Some(prev) = uop.prev_ptag {
            self.release(prev, ReleaseKind::RedefinerCommit, cycle);
        }
        if let (Some(a), Some(p)) = (uop.dst_arch, uop.result_ptag()) {
            self.committed.set(a, p);
        }
    }

    /// Release-time legality: each mechanism may only fire with its
    /// paper-mandated preconditions met. These are the point checks the
    /// cycle-level [`crate::audit::RenameAuditor`] cannot see (it only
    /// observes end-of-cycle state), so they live on the release path
    /// itself, behind the same flag.
    fn audit_release(&self, p: PTag, kind: ReleaseKind) {
        let state = self.prf.get(p.class()).get(p);
        assert!(state.allocated, "audit: {kind:?} release of non-allocated register {p}");
        match kind {
            ReleaseKind::Atomic => {
                assert!(state.atr_claimed, "audit: atomic release of {p}, which ATR never claimed");
                assert!(
                    state.redefined_effective,
                    "audit: atomic release of {p} before its redefine signal became effective"
                );
                assert!(
                    !state.atr_blocked(),
                    "audit: atomic release of {p} in a non-atomic region \
                     (branch={}, exception={}, overflowed={})",
                    state.marked_branch,
                    state.marked_exception,
                    state.overflowed
                );
                assert_eq!(
                    state.count, 0,
                    "audit: atomic release of {p} with mapped consumers outstanding"
                );
            }
            ReleaseKind::Precommit => {
                assert!(
                    !state.er_blocked(),
                    "audit: precommit release of {p} with an untrustworthy (overflowed) count"
                );
                assert_eq!(
                    state.count, 0,
                    "audit: precommit release of {p} with mapped consumers outstanding"
                );
            }
            // RedefinerCommit needs no count (the baseline scheme does
            // not track consumers); FlushWalk reclaims squashed state
            // whose counts are legitimately stale under ATR-only runs.
            ReleaseKind::RedefinerCommit | ReleaseKind::FlushWalk => {}
        }
    }

    fn release(&mut self, p: PTag, kind: ReleaseKind, cycle: u64) {
        if self.audit {
            self.audit_release(p, kind);
        }
        let prf = self.prf.get_mut(p.class());
        // Move elimination: drop one architectural reference; the
        // register stays allocated while other aliases live (§6:
        // "decrement instead of release").
        let r = prf.get_mut(p);
        debug_assert!(r.refs > 0, "release with zero references on {p}");
        r.refs -= 1;
        if r.refs > 0 {
            // Each early-release trigger (armed precommit, effective
            // redefine) is consumed by the one reference drop it fires,
            // and only that drop may clear it. A drop arriving through
            // another channel — a different alias's committing
            // redefiner, or the flush walk reclaiming a squashed
            // eliminated move — must leave a pending trigger armed: the
            // precommitted redefiner it belongs to already relinquished
            // its previous-ptag, so clearing the trigger loses that
            // deferred drop and leaks the register (caught by the
            // reachability check of [`crate::audit`]).
            match kind {
                ReleaseKind::Precommit => r.armed_precommit = false,
                ReleaseKind::Atomic => r.redefined_effective = false,
                ReleaseKind::RedefinerCommit | ReleaseKind::FlushWalk => {}
            }
            return;
        }
        let ev = prf.get(p).event;
        prf.on_release(p);
        match kind {
            ReleaseKind::RedefinerCommit => prf.stats_mut().released_commit += 1,
            ReleaseKind::Precommit => prf.stats_mut().released_precommit += 1,
            ReleaseKind::Atomic => prf.stats_mut().released_atomic += 1,
            ReleaseKind::FlushWalk => prf.stats_mut().released_flush += 1,
        }
        self.free.get_mut(p.class()).release(p);
        self.log.update(ev, |r| {
            r.release_cycle = Some(cycle);
            r.release_kind = Some(kind);
        });
    }

    /// Reclaims the physical destinations of squashed instructions.
    ///
    /// `records` must be ordered youngest → oldest (ROB tail to the
    /// flush point), matching the baseline walk of §4.2.1. Implements
    /// the §4.2.4 `redefined`/`consumed` two-bit algorithm so registers
    /// ATR already released are not double freed, and (for
    /// precommit-enabled schemes) restores consumer counts of squashed,
    /// un-issued consumers.
    pub fn flush_walk(&mut self, records: &[FlushRecord], cycle: u64) {
        let mut redefined = [false; NUM_ARCH_REGS];
        let mut consumed = [false; NUM_ARCH_REGS];
        let restore_counts = self.scheme.restores_counts_on_flush();

        for rec in records {
            if rec.atr_freed_prev {
                debug_assert!(self.open_claims > 0, "claim imbalance at flush");
                self.open_claims -= 1;
            }
            // (1) Decide whether this instruction's pdst was already
            //     ATR-released, then clear the flags.
            let mut skip_pdst = false;
            if let Some(d) = rec.dst_arch {
                let di = d.flat_index();
                if redefined[di] && consumed[di] {
                    skip_pdst = true;
                }
                redefined[di] = false;
                consumed[di] = false;
            }

            // (2) This instruction redefined a register ATR claimed:
            //     announce it to older walk entries. This must happen
            //     before the consumed-bit clearing of step (3) so a
            //     *self-consuming redefiner* (e.g. Fig 5's
            //     `SHR RBX <- RBX, ZPS`) clears the bit it just set when
            //     its own read never issued — the paper states the
            //     opposite order, which loses exactly that case (see
            //     DESIGN.md, paper-fidelity notes).
            if rec.atr_freed_prev {
                let d = rec.dst_arch.expect("ATR-freed prev implies a destination");
                redefined[d.flat_index()] = true;
                consumed[d.flat_index()] = true;
            }

            // (3) A squashed consumer that never issued means the
            //     producer's count never hit zero: clear the consumed
            //     bit; for ER schemes also repair the live count.
            for (a, p) in rec.srcs.iter().flatten().copied() {
                if !rec.issued {
                    if redefined[a.flat_index()] {
                        consumed[a.flat_index()] = false;
                    }
                    if restore_counts {
                        let prf = self.prf.get_mut(p.class());
                        if prf.get(p).allocated {
                            let new_count = prf.consume(p);
                            // Only the armed-precommit release may fire
                            // here: a zero reached through squashed
                            // consumers of an ATR-claimed register is
                            // handled by the two-bit algorithm (the
                            // squashed allocator's own record frees it).
                            if new_count == 0 {
                                let state = *self.prf.get(p.class()).get(p);
                                if state.armed_precommit && !state.er_blocked() {
                                    self.release(p, ReleaseKind::Precommit, cycle);
                                }
                            }
                        }
                    }
                }
            }

            // §6's modified walk: a squashed eliminated move drops the
            // reference it added — unless ATR already dropped it (a
            // younger squashed redefiner claimed this alias), which the
            // same redefined/consumed skip detects.
            if let Some(alias) = rec.alias {
                if skip_pdst {
                    self.prf.get_mut(alias.class()).stats_mut().flush_double_free_avoided += 1;
                } else {
                    self.release(alias, ReleaseKind::FlushWalk, cycle);
                }
            }

            // Reclaim the squashed allocation.
            if let Some(pdst) = rec.pdst {
                if skip_pdst {
                    self.prf.get_mut(pdst.class()).stats_mut().flush_double_free_avoided += 1;
                    // The skipped register is either already free or
                    // still waiting in the redefine-delay pipe, which
                    // will release it (its claim survives the flush
                    // because the whole atomic region flushed together).
                    debug_assert!(
                        !self.prf.get(pdst.class()).get(pdst).allocated
                            || self.prf.get(pdst.class()).get(pdst).atr_claimed,
                        "flush walk skipped a register ATR never claimed"
                    );
                } else {
                    self.release(pdst, ReleaseKind::FlushWalk, cycle);
                }
            }
        }
        debug_assert!(
            !redefined.iter().any(|&b| b),
            "dangling redefined bits: an ATR-released register's allocator was not squashed"
        );
    }

    /// Rebuilds the SRT after a [`Renamer::flush_walk`]: the committed
    /// RAT, then each surviving (renamed, not yet committed, not
    /// squashed) uop's destination mapped to its
    /// [`RenamedUop::result_ptag`], oldest first — the §4.2.1 ROB walk.
    /// An eliminated move's destination maps to its alias, not to its
    /// (empty) `pdst`.
    pub fn restore_after_flush<'a>(&mut self, survivors: impl IntoIterator<Item = &'a RenamedUop>) {
        self.srt.clone_from(&self.committed);
        for uop in survivors {
            if let (Some(a), Some(p)) = (uop.dst_arch, uop.result_ptag()) {
                self.srt.set(a, p);
            }
        }
    }

    /// Sum of allocated registers across both files (diagnostics).
    #[must_use]
    pub fn total_occupancy(&self) -> usize {
        self.occupancy(RegClass::Int) + self.occupancy(RegClass::Fp)
    }

    /// Invariant check used by tests and debug builds: every physical
    /// register is either allocated or on the free list, never both.
    pub fn check_invariants(&self) {
        for (class, prf) in self.prf.iter() {
            let free = self.free.get(class);
            assert_eq!(
                prf.occupancy() + free.len(),
                prf.size(),
                "{class}: allocated + free != total"
            );
        }
    }
}
