//! One pass over a lifetime log: the §3.1 life-of-a-register accounting
//! (Fig 4, Fig 14) and the §3.2 region classification (Fig 6, Fig 12).

use atr_core::RegLifetime;
use atr_isa::RegClass;

/// The saturating last consumer bucket of Fig 12: the paper's 3-bit
/// counter reserves 7, so `>= 7` consumers force no-early-release.
pub const CONSUMER_OVERFLOW: usize = 7;

/// Everything Figs 4, 6, 12 and 14 read from one register class's
/// lifetime log, reduced in a single pass by [`LifetimeSummary::of`].
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
/// Every ratio and mean has a denominator of at least one, so an empty
/// log yields zeros, and no field is ever NaN or negative zero.
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

impl LifetimeSummary {
    /// Reduces the records of `class` in one pass.
    #[must_use]
    pub fn of(records: &[RegLifetime], class: RegClass) -> Self {
        let (mut in_use, mut unused, mut verified, mut lifecycle_samples) = (0u64, 0, 0, 0u64);
        let (mut non_branch, mut non_except, mut atomic, mut allocations) = (0u64, 0u64, 0, 0u64);
        let mut buckets = [0u64; CONSUMER_OVERFLOW + 1];
        let mut consumers = 0u64;
        let (mut to_redefine, mut to_consume, mut to_commit, mut committed) = (0u64, 0, 0, 0u64);
        for r in records.iter().filter(|r| r.class == class) {
            allocations += 1;
            non_branch += u64::from(r.is_non_branch());
            non_except += u64::from(r.is_non_except());
            if r.is_atomic() {
                atomic += 1;
                buckets[(r.consumers as usize).min(CONSUMER_OVERFLOW)] += 1;
                consumers += u64::from(r.consumers);
            }
            let (false, Some(commit)) = (r.wrong_path, r.redefiner_commit_cycle) else {
                continue;
            };
            if r.is_atomic() {
                to_redefine += r.redefine_cycle.expect("atomic implies redefined") - r.alloc_cycle;
                to_consume +=
                    r.last_consume_cycle.unwrap_or(r.alloc_cycle).saturating_sub(r.alloc_cycle);
                to_commit += commit - r.alloc_cycle;
                committed += 1;
            }
            let (Some(redefine), Some(precommit)) = (r.redefine_cycle, r.redefiner_precommit_cycle)
            else {
                continue;
            };
            let last_use = r.last_consume_cycle.unwrap_or(r.alloc_cycle).max(redefine);
            // Clamp against out-of-order timestamp quirks (a consumer can
            // issue after the redefiner precommits).
            let last_use = last_use.min(commit);
            let precommit = precommit.clamp(last_use, commit);
            in_use += last_use - r.alloc_cycle;
            unused += precommit - last_use;
            verified += commit - precommit;
            lifecycle_samples += 1;
        }
        let cycles = (in_use + unused + verified).max(1) as f64;
        let per_alloc = allocations.max(1) as f64;
        let per_region = atomic.max(1) as f64;
        let per_committed = committed.max(1) as f64;
        LifetimeSummary {
            in_use: in_use as f64 / cycles,
            unused: unused as f64 / cycles,
            verified_unused: verified as f64 / cycles,
            lifecycle_samples,
            non_branch: non_branch as f64 / per_alloc,
            non_except: non_except as f64 / per_alloc,
            atomic: atomic as f64 / per_alloc,
            allocations,
            consumer_buckets: buckets.map(|b| b as f64 / per_region),
            mean_consumers: consumers as f64 / per_region,
            atomic_regions: atomic,
            rename_to_redefine: to_redefine as f64 / per_committed,
            rename_to_consume: to_consume as f64 / per_committed,
            rename_to_commit: to_commit as f64 / per_committed,
            committed_regions: committed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::{RenameConfig, Renamer};
    use atr_isa::{ArchReg, StaticInst};

    fn event_renamer() -> Renamer {
        Renamer::new(&RenameConfig { collect_events: true, ..RenameConfig::default() })
    }

    /// Builds lifetime records by driving a real renamer through a tiny
    /// schedule.
    fn sample_records() -> Vec<RegLifetime> {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        // alloc at 10, consumed at 20, redefined at 30 (rename of i2),
        // redefiner precommits 40, commits 50.
        let i1 = StaticInst::alu(0, r1, &[]);
        let c1 = StaticInst::alu(4, r2, &[r1]);
        let i2 = StaticInst::alu(8, r1, &[]);
        let u1 = rn.rename(&i1, 0, 10, false);
        let uc = rn.rename(&c1, 1, 12, false);
        let mut u2 = rn.rename(&i2, 2, 30, false);
        rn.on_issue(&uc.psrcs, 20);
        rn.on_precommit(&mut u2, 40);
        rn.on_commit(&u1, 45);
        rn.on_commit(&uc, 46);
        rn.on_commit(&u2, 50);
        rn.log().records().to_vec()
    }

    #[test]
    fn breakdown_partitions_lifetime() {
        let s = LifetimeSummary::of(&sample_records(), RegClass::Int);
        assert!(s.lifecycle_samples >= 1);
        assert!((s.in_use + s.unused + s.verified_unused - 1.0).abs() < 1e-9);
        assert!(s.in_use > 0.0);
    }

    #[test]
    fn breakdown_for_the_known_schedule() {
        // For i1's allocation: alloc 10, in-use until max(consume 20,
        // redefine 30) = 30, unused 30..40, verified 40..50.
        let recs = sample_records();
        // Find the record allocated at cycle 10.
        let r = recs.iter().find(|r| r.alloc_cycle == 10).unwrap();
        assert_eq!(r.redefine_cycle, Some(30));
        assert_eq!(r.redefiner_precommit_cycle, Some(40));
        assert_eq!(r.redefiner_commit_cycle, Some(50));
        // It is the only correct-path allocation whose redefiner
        // committed, so it alone makes up Figs 4 and 14.
        let s = LifetimeSummary::of(&recs, RegClass::Int);
        assert_eq!((s.lifecycle_samples, s.committed_regions), (1, 1));
        assert_eq!([s.in_use, s.unused, s.verified_unused], [0.5, 0.25, 0.25]);
        let gaps = [s.rename_to_redefine, s.rename_to_consume, s.rename_to_commit];
        assert_eq!(gaps, [20.0, 10.0, 40.0]);
    }

    #[test]
    fn gaps_require_atomic_regions() {
        let s = LifetimeSummary::of(&sample_records(), RegClass::Int);
        // The schedule has no branches or memory ops, so the region is
        // atomic.
        assert!(s.committed_regions >= 1);
        assert!(s.rename_to_commit >= s.rename_to_redefine);
    }

    #[test]
    fn empty_input_is_well_defined() {
        let s = LifetimeSummary::of(&[], RegClass::Fp);
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
        let mut seq = 0;
        let mut cycle = 0;
        let mut rename = |rn: &mut Renamer, i: &StaticInst| {
            seq += 1;
            cycle += 1;
            rn.rename(i, seq, cycle, false)
        };
        // Atomic region on r1: define, redefine, nothing between.
        let _ = rename(&mut rn, &StaticInst::alu(0, r1, &[]));
        let _ = rename(&mut rn, &StaticInst::alu(4, r1, &[]));
        // Non-branch but excepting region on r2: define, load, redefine.
        let _ = rename(&mut rn, &StaticInst::alu(8, r2, &[]));
        let _ = rename(&mut rn, &StaticInst::load(12, ArchReg::int(3), ArchReg::int(0)));
        let _ = rename(&mut rn, &StaticInst::alu(16, r2, &[]));
        let s = LifetimeSummary::of(rn.log().records(), RegClass::Int);
        // Redefined allocations: r1 gen1 (atomic), r2 gen1 (non-branch
        // only), plus initial mappings of r1/r2/r3 (redefined, with
        // hazards in between for some). At minimum the atomic count and
        // the ordering non_branch >= atomic must hold.
        assert!(s.allocations > 0);
        assert!(s.non_branch >= s.atomic);
        assert!(s.non_except >= s.atomic);
        assert!(s.atomic > 0.0);
    }

    #[test]
    fn wrong_path_allocations_count_in_figs_6_and_12_only() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 0, 1, true);
        let mut u = rn.rename(&StaticInst::alu(4, r1, &[]), 1, 2, true);
        rn.on_precommit(&mut u, 3);
        rn.on_commit(&u, 4);
        let s = LifetimeSummary::of(rn.log().records(), RegClass::Int);
        assert_eq!(s.allocations, 2);
        assert!(s.atomic_regions >= 1, "the wrong-path region is still atomic: {s:?}");
        assert_eq!((s.lifecycle_samples, s.committed_regions), (0, 0));
    }

    #[test]
    fn histogram_counts_consumers_of_atomic_regions() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        // Region with exactly 2 consumers.
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 0, 1, false);
        let _ = rn.rename(&StaticInst::alu(4, ArchReg::int(2), &[r1]), 1, 2, false);
        let _ = rn.rename(&StaticInst::alu(8, ArchReg::int(3), &[r1]), 2, 3, false);
        let _ = rn.rename(&StaticInst::alu(12, r1, &[]), 3, 4, false);
        let s = LifetimeSummary::of(rn.log().records(), RegClass::Int);
        assert!(s.atomic_regions > 0);
        assert!(s.consumer_buckets[2] > 0.0, "the two-consumer region must appear: {s:?}");
        let total: f64 = s.consumer_buckets.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut rn = event_renamer();
        let r1 = ArchReg::int(1);
        let _ = rn.rename(&StaticInst::alu(0, r1, &[]), 0, 1, false);
        for k in 0..9u64 {
            let _ = rn.rename(
                &StaticInst::alu(4 + k * 4, ArchReg::int(2 + (k % 6) as u8), &[r1]),
                1 + k,
                2 + k,
                false,
            );
        }
        let _ = rn.rename(&StaticInst::alu(64, r1, &[]), 20, 30, false);
        let s = LifetimeSummary::of(rn.log().records(), RegClass::Int);
        assert!(s.consumer_buckets[CONSUMER_OVERFLOW] > 0.0, "9 consumers must land in >=7");
    }
}
