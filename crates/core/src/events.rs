//! Register lifetime records and their Fig 4/6/12/14 summary.
//!
//! One record per physical-register allocation captures every timestamp
//! of the §3.1 life-of-a-register analysis plus the §3.2 region hazard
//! bits. A record exists only while something can still update it: the
//! register file entry holds it from allocation to the final release,
//! and each in-flight redefiner that took it as its previous mapping
//! holds it until it commits or is squashed. When the last holder lets
//! go, the [`LifetimeLog`] folds the record into [`LifetimeTotals`] and
//! reuses its slot, so the log holds at most one record per physical
//! register plus one per in-flight instruction, however long the run.

use crate::ptag::PerClass;
use atr_isa::RegClass;
use atr_telemetry::Log2Hist;

/// The saturating last consumer bucket of Fig 12: the paper's 3-bit
/// counter reserves 7, so `>= 7` consumers force no-early-release.
pub const CONSUMER_OVERFLOW: usize = 7;

/// Which mechanism released a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleaseKind {
    /// Conventional release at commit of the redefining instruction.
    RedefinerCommit,
    /// Non-speculative early release at/after precommit of the redefiner.
    Precommit,
    /// ATR out-of-order release inside an atomic commit region.
    Atomic,
    /// Reclaimed by the flush walk (squashed allocator).
    FlushWalk,
}

/// The lifetime of one physical-register allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RegLifetime {
    /// Register class (scalar vs vector file).
    pub class: RegClass,
    /// Cycle the allocating instruction renamed.
    pub alloc_cycle: u64,
    /// Allocating instruction was on the wrong path.
    pub wrong_path: bool,
    /// Total consumers renamed against this allocation.
    pub consumers: u32,
    /// Cycle the last consumer issued, if any consumer issued.
    pub last_consume_cycle: Option<u64>,
    /// Cycle the redefining instruction renamed.
    pub redefine_cycle: Option<u64>,
    /// Cycle the redefining instruction precommitted.
    pub redefiner_precommit_cycle: Option<u64>,
    /// Cycle the redefining instruction committed.
    pub redefiner_commit_cycle: Option<u64>,
    /// Cycle the register was returned to the free list.
    pub release_cycle: Option<u64>,
    /// The mechanism that released it.
    pub release_kind: Option<ReleaseKind>,
    /// A conditional branch or indirect jump was renamed while live
    /// (breaks the *non-branch* region property of Fig 6).
    pub saw_branch: bool,
    /// An exception-capable instruction (load/store/div) was renamed
    /// while live (breaks the *non-except* region property of Fig 6).
    pub saw_exception: bool,
    /// The consumer counter overflowed its width (§5.4).
    pub overflowed: bool,
    /// Holders that can still update the record; 0 once it is folded.
    holders: u32,
}

/// Handle to a live record of a [`LifetimeLog`], minted only by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle(u32);

/// Everything Figs 4, 6, 12 and 14 read from one register class's
/// lifetime records.
///
/// Each statistic keeps its own population:
///
/// * Fig 6 counts *every* allocation, wrong-path ones included (regions
///   are detected at rename, which cannot know the path), and those
///   never redefined before the run ended (they count as non-atomic);
/// * Fig 12 counts every atomic allocation, wrong-path ones included;
/// * Figs 4 and 14 count only correct-path allocations whose redefiner
///   committed — the paper's Oracle filtering (squashed registers have
///   no commit-relative lifetime).
///
/// Every ratio and mean has a denominator of at least one, so a class
/// without allocations yields zeros, and no field is ever NaN or
/// negative zero.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSummary {
    /// Fig 4: fraction of lifetime cycles the register was genuinely
    /// live — until it has no pending consumers *and* has been
    /// redefined.
    pub in_use: f64,
    /// Fig 4: fraction from then until the redefiner precommits,
    /// recoverable only by speculative early release.
    pub unused: f64,
    /// Fig 4: fraction from precommit to the redefiner's commit,
    /// recoverable by non-speculative early release.
    pub verified_unused: f64,
    /// Fig 4: correct-path allocations whose redefiner precommitted
    /// and committed.
    pub lifecycle_samples: u64,
    /// Fig 6: fraction of allocations with no conditional branch or
    /// indirect jump in their region.
    pub non_branch: f64,
    /// Fig 6: fraction with no load, store or division in the region.
    pub non_except: f64,
    /// Fig 6: fraction in atomic commit regions (both properties).
    pub atomic: f64,
    /// Fig 6: every allocation of the class.
    pub allocations: u64,
    /// Fig 12: fraction of atomic regions per consumer count; the last
    /// bucket is `>= CONSUMER_OVERFLOW`.
    pub consumer_buckets: [f64; CONSUMER_OVERFLOW + 1],
    /// Fig 12: mean consumers per atomic region.
    pub mean_consumers: f64,
    /// Fig 12: atomic regions counted.
    pub atomic_regions: u64,
    /// Fig 14: mean cycles from rename to redefinition.
    pub rename_to_redefine: f64,
    /// Fig 14: mean cycles from rename to the last consumption.
    pub rename_to_consume: f64,
    /// Fig 14: mean cycles from rename to the redefiner's commit.
    pub rename_to_commit: f64,
    /// Fig 14: correct-path atomic regions whose redefiner committed.
    pub committed_regions: u64,
}

/// One class's folded records: every statistic of [`LifetimeSummary`]
/// as an integer sum, so the fold order cannot change a bit of the
/// final division.
#[derive(Debug, Clone, Copy, Default)]
struct ClassTotals {
    in_use: u64,
    unused: u64,
    verified: u64,
    lifecycle_samples: u64,
    non_branch: u64,
    non_except: u64,
    atomic: u64,
    allocations: u64,
    buckets: [u64; CONSUMER_OVERFLOW + 1],
    consumers: u64,
    to_redefine: u64,
    to_consume: u64,
    to_commit: u64,
    committed: u64,
}

impl ClassTotals {
    fn fold(&mut self, r: &RegLifetime) {
        // Fig 6's region properties: redefined with no branch, no
        // exception-capable instruction, or neither (an *atomic commit
        // region*) renamed while live.
        let non_branch = r.redefine_cycle.is_some() && !r.saw_branch;
        let non_except = r.redefine_cycle.is_some() && !r.saw_exception;
        let atomic = non_branch && non_except;
        self.allocations += 1;
        self.non_branch += u64::from(non_branch);
        self.non_except += u64::from(non_except);
        if atomic {
            self.atomic += 1;
            self.buckets[(r.consumers as usize).min(CONSUMER_OVERFLOW)] += 1;
            self.consumers += u64::from(r.consumers);
        }
        let (false, Some(commit)) = (r.wrong_path, r.redefiner_commit_cycle) else {
            return;
        };
        if atomic {
            self.to_redefine += r.redefine_cycle.expect("atomic implies redefined") - r.alloc_cycle;
            self.to_consume +=
                r.last_consume_cycle.unwrap_or(r.alloc_cycle).saturating_sub(r.alloc_cycle);
            self.to_commit += commit - r.alloc_cycle;
            self.committed += 1;
        }
        let (Some(redefine), Some(precommit)) = (r.redefine_cycle, r.redefiner_precommit_cycle)
        else {
            return;
        };
        let last_use = r.last_consume_cycle.unwrap_or(r.alloc_cycle).max(redefine);
        // Clamp against out-of-order timestamp quirks (a consumer can
        // issue after the redefiner precommits).
        let last_use = last_use.min(commit);
        let precommit = precommit.clamp(last_use, commit);
        self.in_use += last_use - r.alloc_cycle;
        self.unused += precommit - last_use;
        self.verified += commit - precommit;
        self.lifecycle_samples += 1;
    }

    fn summary(&self) -> LifetimeSummary {
        let cycles = (self.in_use + self.unused + self.verified).max(1) as f64;
        let per_alloc = self.allocations.max(1) as f64;
        let per_region = self.atomic.max(1) as f64;
        let per_committed = self.committed.max(1) as f64;
        LifetimeSummary {
            in_use: self.in_use as f64 / cycles,
            unused: self.unused as f64 / cycles,
            verified_unused: self.verified as f64 / cycles,
            lifecycle_samples: self.lifecycle_samples,
            non_branch: self.non_branch as f64 / per_alloc,
            non_except: self.non_except as f64 / per_alloc,
            atomic: self.atomic as f64 / per_alloc,
            allocations: self.allocations,
            consumer_buckets: self.buckets.map(|b| b as f64 / per_region),
            mean_consumers: self.consumers as f64 / per_region,
            atomic_regions: self.atomic,
            rename_to_redefine: self.to_redefine as f64 / per_committed,
            rename_to_consume: self.to_consume as f64 / per_committed,
            rename_to_commit: self.to_commit as f64 / per_committed,
            committed_regions: self.committed,
        }
    }
}

/// Folded lifetime records: both classes' summaries and two histograms.
#[derive(Debug, Clone, Default)]
pub struct LifetimeTotals {
    classes: PerClass<ClassTotals>,
    /// Cycles from allocation to release of every released register.
    pub reg_lifetime: Log2Hist,
    /// Cycles from redefinition to release of every register ATR
    /// released.
    pub claim_duration: Log2Hist,
}

impl LifetimeTotals {
    /// Figs 4/6/12/14 of `class`.
    #[must_use]
    pub fn summary(&self, class: RegClass) -> LifetimeSummary {
        self.classes.get(class).summary()
    }

    fn fold(&mut self, r: &RegLifetime) {
        self.classes.get_mut(r.class).fold(r);
        let Some(released) = r.release_cycle else { return };
        self.reg_lifetime.record(released.saturating_sub(r.alloc_cycle));
        if let (Some(ReleaseKind::Atomic), Some(redefined)) = (r.release_kind, r.redefine_cycle) {
            self.claim_duration.record(released.saturating_sub(redefined));
        }
    }
}

/// The live lifetime records and the totals of the folded ones.
///
/// Disabled logs ([`LifetimeLog::new`] with `enabled` false) make every
/// operation a no-op so performance runs pay nothing.
#[derive(Debug, Clone, Default)]
pub struct LifetimeLog {
    enabled: bool,
    /// Check each folded record's release against its region (see
    /// [`crate::RenameConfig::audit`]).
    audit: bool,
    /// Live records; a slot without holders is folded and on `free`.
    slots: Vec<RegLifetime>,
    free: Vec<u32>,
    folded: LifetimeTotals,
}

impl LifetimeLog {
    /// Creates a log that collects when `enabled` and, when `audit` is
    /// set, asserts that no atomic release crossed a region hazard.
    #[must_use]
    pub fn new(enabled: bool, audit: bool) -> Self {
        LifetimeLog { enabled, audit, ..LifetimeLog::default() }
    }

    /// Is the log collecting?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records currently live (not yet folded).
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The totals of every record, the live ones folded into a copy
    /// (`None` when disabled).
    #[must_use]
    pub fn totals(&self) -> Option<LifetimeTotals> {
        let mut totals = self.enabled.then(|| self.folded.clone())?;
        self.slots.iter().filter(|r| r.holders > 0).for_each(|r| totals.fold(r));
        Some(totals)
    }

    /// Records an allocation, held by its register file entry; returns
    /// its handle (`None` when disabled).
    pub(crate) fn on_alloc(
        &mut self,
        class: RegClass,
        cycle: u64,
        wrong_path: bool,
    ) -> Option<EventHandle> {
        if !self.enabled {
            return None;
        }
        let record = RegLifetime {
            class,
            alloc_cycle: cycle,
            wrong_path,
            consumers: 0,
            last_consume_cycle: None,
            redefine_cycle: None,
            redefiner_precommit_cycle: None,
            redefiner_commit_cycle: None,
            release_cycle: None,
            release_kind: None,
            saw_branch: false,
            saw_exception: false,
            overflowed: false,
            holders: 1,
        };
        let index = self.free.pop().map_or(self.slots.len(), |i| i as usize);
        if index == self.slots.len() {
            self.slots.push(record)
        } else {
            self.slots[index] = record
        }
        Some(EventHandle(u32::try_from(index).expect("live records fit a u32")))
    }

    /// The live record behind `handle`; panics if it was folded.
    fn record(&mut self, handle: EventHandle) -> &mut RegLifetime {
        let r = &mut self.slots[handle.0 as usize];
        assert!(r.holders > 0, "lifetime record {} used after it was folded", handle.0);
        r
    }

    /// Adds a holder to the record behind `handle` (no-op for `None`).
    pub(crate) fn hold(&mut self, handle: Option<EventHandle>) {
        if let Some(h) = handle {
            self.record(h).holders += 1;
        }
    }

    /// Applies `f` to the record behind `handle` (no-op for `None`).
    pub(crate) fn update(&mut self, handle: Option<EventHandle>, f: impl FnOnce(&mut RegLifetime)) {
        if let Some(h) = handle {
            f(self.record(h));
        }
    }

    /// One holder of the record behind `handle` lets go (no-op for
    /// `None`); the last one folds the record and frees its slot.
    pub(crate) fn drop_hold(&mut self, handle: Option<EventHandle>) {
        let Some(h) = handle else { return };
        let r = self.record(h);
        r.holders -= 1;
        if r.holders > 0 {
            return;
        }
        let r = *r;
        if self.audit && r.release_kind == Some(ReleaseKind::Atomic) {
            assert!(
                !r.saw_branch && !r.saw_exception && !r.overflowed,
                "audit: atomic release of a non-atomic region: {r:?}"
            );
        }
        self.folded.fold(&r);
        self.free.push(h.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RenameConfig, Renamer};
    use atr_isa::{ArchReg, StaticInst};

    fn event_renamer() -> Renamer {
        Renamer::new(&RenameConfig { collect_events: true, ..RenameConfig::default() })
    }

    fn int_summary(rn: &Renamer) -> LifetimeSummary {
        rn.log().totals().expect("events collected").summary(RegClass::Int)
    }

    /// Drives a real renamer through a tiny schedule: i1 allocates at
    /// 10, its consumer issues at 20, i2 redefines it at 30, precommits
    /// at 40 and commits at 50.
    fn sample_schedule() -> Renamer {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let i1 = StaticInst::alu(0, r1, &[]);
        let c1 = StaticInst::alu(4, r2, &[r1]);
        let i2 = StaticInst::alu(8, r1, &[]);
        let u1 = rn.rename(&i1, 10, false);
        let uc = rn.rename(&c1, 12, false);
        let mut u2 = rn.rename(&i2, 30, false);
        rn.on_issue(&uc.psrcs, 20);
        rn.on_precommit(&mut u2, 40);
        rn.on_commit(&u1, 45);
        rn.on_commit(&uc, 46);
        rn.on_commit(&u2, 50);
        rn
    }

    #[test]
    fn disabled_log_is_noop() {
        let mut log = LifetimeLog::new(false, false);
        assert_eq!(log.on_alloc(RegClass::Int, 1, false), None);
        log.update(None, |_| panic!("must not run"));
        assert_eq!(log.live(), 0);
        assert!(log.totals().is_none());
    }

    #[test]
    fn the_last_holder_folds_the_record_and_frees_its_slot() {
        let mut log = LifetimeLog::new(true, false);
        let h = log.on_alloc(RegClass::Int, 10, false);
        log.hold(h);
        log.update(h, |r| r.redefine_cycle = Some(20));
        log.drop_hold(h);
        assert_eq!(log.live(), 1, "one holder left");
        log.drop_hold(h);
        assert_eq!(log.live(), 0);
        let reused = log.on_alloc(RegClass::Fp, 30, false);
        assert_eq!(reused, h, "the folded slot is reused");
        let totals = log.totals().unwrap();
        let [int, fp] = RegClass::ALL.map(|class| totals.summary(class));
        assert_eq!((int.allocations, fp.allocations, int.atomic_regions), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "used after it was folded")]
    fn updating_a_folded_record_panics() {
        let mut log = LifetimeLog::new(true, false);
        let h = log.on_alloc(RegClass::Int, 10, false);
        log.drop_hold(h);
        log.update(h, |r| r.consumers += 1);
    }

    #[test]
    #[should_panic(expected = "atomic release of a non-atomic region")]
    fn audit_rejects_an_atomic_release_across_a_hazard() {
        let mut log = LifetimeLog::new(true, true);
        let h = log.on_alloc(RegClass::Int, 10, false);
        log.update(h, |r| {
            r.saw_branch = true;
            r.release_kind = Some(ReleaseKind::Atomic);
        });
        log.drop_hold(h);
    }

    #[test]
    fn breakdown_for_the_known_schedule() {
        // For i1's allocation: alloc 10, in-use until max(consume 20,
        // redefine 30) = 30, unused 30..40, verified 40..50. It is the
        // only correct-path allocation whose redefiner committed, so it
        // alone makes up Figs 4 and 14.
        let s = int_summary(&sample_schedule());
        assert_eq!((s.lifecycle_samples, s.committed_regions), (1, 1));
        assert_eq!([s.in_use, s.unused, s.verified_unused], [0.5, 0.25, 0.25]);
        let gaps = [s.rename_to_redefine, s.rename_to_consume, s.rename_to_commit];
        assert_eq!(gaps, [20.0, 10.0, 40.0]);
    }

    #[test]
    fn the_totals_fold_live_records_too() {
        // After the schedule, i1's register is released and folded, and
        // the allocations of c1 and i2 are still mapped and live.
        let rn = sample_schedule();
        assert_eq!(rn.log().live(), 2);
        let s = int_summary(&rn);
        assert_eq!(s.allocations, 3);
        let totals = rn.log().totals().unwrap();
        assert_eq!(totals.reg_lifetime.count, 1, "only i1's register was released");
        assert_eq!(totals.reg_lifetime.sum, 40);
        assert_eq!(totals.claim_duration.count, 0, "the baseline scheme never claims");
    }

    #[test]
    fn empty_input_is_well_defined() {
        let s = event_renamer().log().totals().unwrap().summary(RegClass::Fp);
        assert_eq!(
            [s.lifecycle_samples, s.allocations, s.atomic_regions, s.committed_regions],
            [0; 4]
        );
        assert_eq!([s.in_use, s.atomic, s.mean_consumers, s.rename_to_commit], [0.0; 4]);
        assert_eq!(s.consumer_buckets, [0.0; CONSUMER_OVERFLOW + 1]);
    }

    #[test]
    fn ratios_reflect_region_hazards() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let mut cycle = 0;
        let mut rename = |rn: &mut Renamer, i: &StaticInst| {
            cycle += 1;
            rn.rename(i, cycle, false)
        };
        // Atomic region on r1: define, redefine, nothing between.
        let _ = rename(&mut rn, &StaticInst::alu(0, r1, &[]));
        let _ = rename(&mut rn, &StaticInst::alu(4, r1, &[]));
        // Non-branch but excepting region on r2: define, load, redefine.
        let _ = rename(&mut rn, &StaticInst::alu(8, r2, &[]));
        let _ = rename(&mut rn, &StaticInst::load(12, ArchReg::int(3), ArchReg::int(0)));
        let _ = rename(&mut rn, &StaticInst::alu(16, r2, &[]));
        let s = int_summary(&rn);
        // Five allocations; of the two redefined ones, r1's is atomic
        // and r2's is non-branch only.
        assert_eq!(s.allocations, 5);
        assert_eq!([s.atomic, s.non_branch, s.non_except], [0.2, 0.4, 0.2]);
    }

    #[test]
    fn wrong_path_allocations_count_in_figs_6_and_12_only() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 1, true);
        let mut u = rn.rename(&StaticInst::alu(4, r1, &[]), 2, true);
        rn.on_precommit(&mut u, 3);
        rn.on_commit(&u, 4);
        let s = int_summary(&rn);
        assert_eq!(s.allocations, 2);
        assert!(s.atomic_regions >= 1, "the wrong-path region is still atomic: {s:?}");
        assert_eq!((s.lifecycle_samples, s.committed_regions), (0, 0));
    }

    #[test]
    fn histogram_counts_consumers_of_atomic_regions() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        // Region with exactly 2 consumers.
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 1, false);
        let _ = rn.rename(&StaticInst::alu(4, ArchReg::int(2), &[r1]), 2, false);
        let _ = rn.rename(&StaticInst::alu(8, ArchReg::int(3), &[r1]), 3, false);
        let _ = rn.rename(&StaticInst::alu(12, r1, &[]), 4, false);
        let s = int_summary(&rn);
        assert!(s.atomic_regions > 0);
        assert!(s.consumer_buckets[2] > 0.0, "the two-consumer region must appear: {s:?}");
        let total: f64 = s.consumer_buckets.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 1, false);
        for k in 0..9u64 {
            let _ = rn.rename(
                &StaticInst::alu(4 + k * 4, ArchReg::int(2 + (k % 6) as u8), &[r1]),
                2 + k,
                false,
            );
        }
        let _ = rn.rename(&StaticInst::alu(64, r1, &[]), 30, false);
        let s = int_summary(&rn);
        assert!(s.consumer_buckets[CONSUMER_OVERFLOW] > 0.0, "9 consumers must land in >=7");
    }
}
