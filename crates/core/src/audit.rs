//! Cycle-level invariant auditing of the rename/release machinery.
//!
//! The paper's contribution lives entirely in release *timing*: a
//! physical register freed one cycle too early under ATR or Combined
//! silently corrupts every downstream figure while still producing
//! plausible IPC numbers. The [`RenameAuditor`] is the end-to-end
//! oracle over that machinery — attached to the pipeline behind
//! [`crate::RenameConfig::audit`], it re-derives the global release
//! invariants from scratch every cycle and reports any state the
//! schemes could only have reached through an illegal release:
//!
//! 1. **Partition** — the free set and the allocated set partition each
//!    physical register file: no overlap (a freed register still marked
//!    allocated) and no gap (`occupancy + free == size`); the file's
//!    maintained occupancy counter equals a full recount.
//! 2. **Liveness** — every speculative-RAT mapping points at an
//!    allocated register; under the baseline scheme the committed RAT
//!    does too (early-release schemes legitimately free registers the
//!    committed RAT still names — that is the point of the paper).
//! 3. **Pending releases** — every in-flight `prev_ptag` (a release the
//!    redefiner will perform at precommit/commit) targets an allocated
//!    register; releasing it early would double-free at commit.
//! 4. **Consumer mapping** — no un-issued in-flight instruction has a
//!    source on the free list (the "released while a mapped consumer
//!    count is nonzero" failure).
//! 5. **Claim accounting** — the renamer's §4.1 interrupt counter
//!    equals the number of in-flight uops holding an ATR claim.
//! 6. **Reachability (no leak)** — every allocated register is
//!    referenced by the SRT, the committed RAT, an in-flight uop
//!    (destination, alias, or pending previous-ptag), or a surviving
//!    redefine-delay claim; an unreachable allocated register can never
//!    be freed again.
//! 7. **Reference balance** — a register's speculative-RAT slot count
//!    never exceeds its move-elimination reference count.
//!
//! Release-*time* legality (an atomic release must carry a claim, an
//! effective redefine, a zero count, and an unblocked region; a
//! precommit release a trustworthy zero count) is checked on the
//! release path itself by the renamer under the same flag, because
//! end-of-cycle state cannot reconstruct the order of intra-cycle
//! events. Flush recovery is cross-validated by
//! [`RenameAuditor::check_flush_restore`]: after every flush the
//! restored SRT must equal the walk-based reconstruction from the
//! committed RAT — checkpoint restores and ROB walks must agree.
//!
//! The auditor only reads renamer state; it never perturbs timing, so
//! audited runs retire the bit-identical instruction stream of
//! unaudited ones (pinned by `atr-sim`'s differential tests).

use crate::ptag::PTag;
use crate::renamer::{RenamedUop, Renamer};
use crate::scheme::ReleaseScheme;
use atr_isa::{ArchReg, RegClass};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One invariant violation: the cycle it was observed and a
/// human-readable description naming the register and the broken rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Cycle the violating state was observed (at most one cycle after
    /// the illegal release that caused it).
    pub cycle: u64,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}", self.cycle, self.message)
    }
}

/// An in-flight instruction as the auditor sees it: its rename-stage
/// output plus whether it has issued (sources of un-issued instructions
/// must still be allocated).
pub type InflightUop<'a> = (&'a RenamedUop, bool);

/// The cycle-attached rename/release auditor. See the [module
/// docs](self) for the invariant catalogue.
///
/// Construct one per core, call [`RenameAuditor::check_cycle`] (or the
/// panicking [`RenameAuditor::enforce_cycle`]) once per simulated cycle
/// with the current ROB contents, and
/// [`RenameAuditor::check_flush_restore`] after every SRT recovery.
#[derive(Debug, Clone, Default)]
pub struct RenameAuditor {
    cycles_checked: u64,
    flushes_checked: u64,
    violations_found: u64,
}

impl RenameAuditor {
    /// A fresh auditor with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        RenameAuditor::default()
    }

    /// Cycles audited so far.
    #[must_use]
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }

    /// Flush restores audited so far.
    #[must_use]
    pub fn flushes_checked(&self) -> u64 {
        self.flushes_checked
    }

    /// Credits `n` cycles whose state is identical to the cycle just
    /// audited (the pipeline's quiet-cycle skip-ahead): every invariant
    /// that held then holds for each of them.
    pub fn credit_cycles(&mut self, n: u64) {
        self.cycles_checked += n;
    }

    /// Total violations reported so far.
    #[must_use]
    pub fn violations_found(&self) -> u64 {
        self.violations_found
    }

    /// Audits one end-of-cycle state. `inflight` is every un-squashed,
    /// un-committed instruction currently in the ROB (any order).
    /// Returns all violations found this cycle; an empty vector means
    /// every invariant held.
    pub fn check_cycle<'a>(
        &mut self,
        renamer: &Renamer,
        inflight: impl IntoIterator<Item = InflightUop<'a>>,
        cycle: u64,
    ) -> Vec<AuditViolation> {
        let uops: Vec<InflightUop<'a>> = inflight.into_iter().collect();
        let mut violations: Vec<AuditViolation> = Vec::new();
        let mut report = |message: String| violations.push(AuditViolation { cycle, message });

        // (1) Partition: free ⊎ allocated covers each file exactly.
        for class in RegClass::ALL {
            let prf = renamer.prf_file(class);
            let free = renamer.free_list(class);
            if prf.occupancy() != prf.recount_occupancy() {
                report(format!(
                    "{class}: occupancy counter ({}) != allocated registers ({})",
                    prf.occupancy(),
                    prf.recount_occupancy()
                ));
            }
            if prf.occupancy() + free.len() != prf.size() {
                report(format!(
                    "{class}: allocated ({}) + free ({}) != file size ({}) — a register \
                     leaked or was double-freed",
                    prf.occupancy(),
                    free.len(),
                    prf.size()
                ));
            }
            for tag in free.iter() {
                if prf.get(tag).allocated {
                    report(format!(
                        "{class}: register {tag} is on the free list but still marked allocated"
                    ));
                }
            }
        }

        // (2) Liveness: SRT mappings (and, for the baseline scheme,
        //     committed-RAT mappings) point at allocated registers.
        let mut srt_slots: HashMap<PTag, u32> = HashMap::new();
        for (a, p) in renamer.srt().live() {
            *srt_slots.entry(p).or_insert(0) += 1;
            if !renamer.prf_file(p.class()).get(p).allocated {
                report(format!(
                    "SRT maps {a} to {p}, but {p} is on the free list — an early release \
                     freed a live architectural mapping"
                ));
            }
        }
        if renamer.scheme() == ReleaseScheme::Baseline {
            for (a, p) in renamer.committed_table().live() {
                if !renamer.prf_file(p.class()).get(p).allocated {
                    report(format!(
                        "baseline: committed RAT maps {a} to {p}, but {p} is free — \
                         conventional release may only free at the redefiner's commit"
                    ));
                }
            }
        }

        // (7) Reference balance: a register cannot be named by more SRT
        //     slots than it has references (move elimination gives it
        //     one per alias; otherwise exactly one).
        for (&p, &slots) in &srt_slots {
            let state = renamer.prf_file(p.class()).get(p);
            if state.allocated && slots > state.refs {
                report(format!(
                    "{p} is named by {slots} SRT slots but holds only {} reference(s) — \
                     a future release will double-free it",
                    state.refs
                ));
            }
        }

        // (3)–(5) In-flight state: pending previous-ptag releases,
        //     un-issued consumer sources, and claim accounting.
        let mut open_claims = 0u64;
        for &(uop, issued) in &uops {
            if uop.atr_freed_prev {
                open_claims += 1;
            }
            if let Some(prev) = uop.prev_ptag {
                if !renamer.prf_file(prev.class()).get(prev).allocated {
                    report(format!(
                        "in-flight uop holds pending release of {prev}, but {prev} is already \
                         free — its commit would double-free"
                    ));
                }
            }
            if !issued {
                for p in uop.psrcs.iter().flatten() {
                    if !renamer.prf_file(p.class()).get(*p).allocated {
                        report(format!(
                            "un-issued in-flight uop sources {p}, but {p} is on the free \
                             list — released while its mapped consumer count was nonzero"
                        ));
                    }
                }
            }
        }
        if renamer.open_atr_claims() != open_claims {
            report(format!(
                "claim accounting diverged: renamer counts {} open ATR claims, the ROB \
                 holds {open_claims}",
                renamer.open_atr_claims()
            ));
        }

        // (6) Reachability: every allocated register is named somewhere
        //     that can eventually release it.
        let mut referenced: HashSet<PTag> = HashSet::new();
        referenced.extend(renamer.srt().live().map(|(_, p)| p));
        referenced.extend(renamer.committed_table().live().map(|(_, p)| p));
        for &(uop, _) in &uops {
            referenced.extend(uop.pdst);
            referenced.extend(uop.alias);
            referenced.extend(uop.prev_ptag);
        }
        referenced.extend(renamer.pending_claim_tags());
        for class in RegClass::ALL {
            for (tag, state) in renamer.prf_file(class).iter() {
                if state.allocated && !referenced.contains(&tag) {
                    report(format!(
                        "{tag} is allocated but unreachable from the SRT, the committed RAT, \
                         any in-flight uop, or the redefine-delay pipe — leaked \
                         (refs={}, count={}, armed={}, claimed={}, effective={}, overflowed={})",
                        state.refs,
                        state.count,
                        state.armed_precommit,
                        state.atr_claimed,
                        state.redefined_effective,
                        state.overflowed
                    ));
                }
            }
        }

        self.cycles_checked += 1;
        self.violations_found += violations.len() as u64;
        violations
    }

    /// [`RenameAuditor::check_cycle`], panicking on the first violating
    /// cycle with the full violation list — the mode the pipeline runs
    /// under `ATR_AUDIT=1`.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn enforce_cycle<'a>(
        &mut self,
        renamer: &Renamer,
        inflight: impl IntoIterator<Item = InflightUop<'a>>,
        cycle: u64,
    ) {
        let violations = self.check_cycle(renamer, inflight, cycle);
        assert!(violations.is_empty(), "rename audit failed:\n{}", render(&violations));
    }

    /// Cross-validates a completed flush recovery: the restored SRT
    /// must equal the walk reconstruction (committed RAT + surviving
    /// ROB mappings, oldest first) regardless of which recovery policy
    /// produced it. Catches checkpoint/walk divergence — a checkpoint
    /// restored at the wrong branch, a survivor map missing an
    /// eliminated move's alias, a walk that freed a surviving mapping.
    pub fn check_flush_restore(
        &mut self,
        renamer: &Renamer,
        survivors: impl Iterator<Item = (ArchReg, PTag)>,
        cycle: u64,
    ) -> Vec<AuditViolation> {
        let expected = renamer.rebuild_from_committed(survivors);
        let mut violations = Vec::new();
        for ((a, restored), (_, walked)) in renamer.srt().live().zip(expected.live()) {
            if restored != walked {
                violations.push(AuditViolation {
                    cycle,
                    message: format!(
                        "flush restore diverged at {a}: restored SRT maps it to {restored}, \
                         the committed-RAT walk rebuilds {walked}"
                    ),
                });
            }
        }
        self.flushes_checked += 1;
        self.violations_found += violations.len() as u64;
        violations
    }

    /// [`RenameAuditor::check_flush_restore`], panicking on divergence.
    ///
    /// # Panics
    ///
    /// Panics if the restored SRT differs from the walk reconstruction.
    pub fn enforce_flush_restore(
        &mut self,
        renamer: &Renamer,
        survivors: impl Iterator<Item = (ArchReg, PTag)>,
        cycle: u64,
    ) {
        let violations = self.check_flush_restore(renamer, survivors, cycle);
        assert!(violations.is_empty(), "flush-restore audit failed:\n{}", render(&violations));
    }
}

fn render(violations: &[AuditViolation]) -> String {
    violations.iter().map(|v| format!("  {v}\n")).collect()
}
