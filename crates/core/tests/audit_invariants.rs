//! The cycle-level auditor against the renamer driven by hand: a clean
//! rename→issue→precommit→commit stream reports nothing, and an
//! injected too-early release — the bug class the whole module exists
//! for — is reported on the very next check.

use atr_core::{ReleaseScheme, RenameAuditor, RenameConfig, RenamedUop, Renamer};
use atr_isa::{ArchReg, StaticInst};

fn config(scheme: ReleaseScheme) -> RenameConfig {
    RenameConfig {
        scheme,
        audit: true,
        int_prf_size: 48,
        fp_prf_size: 48,
        ..RenameConfig::default()
    }
}

/// Drives `n` dependent ALU instructions through a full lifetime each,
/// auditing after every pipeline step.
fn drive_clean(scheme: ReleaseScheme, n: usize) -> RenameAuditor {
    let mut renamer = Renamer::new(&config(scheme));
    let mut auditor = RenameAuditor::new();
    let mut cycle = 1u64;
    // A small in-flight window so commit trails rename by a few
    // instructions, keeping claims and previous-ptags live across
    // checks.
    let mut window: Vec<(RenamedUop, bool)> = Vec::new();
    for i in 0..n {
        renamer.tick(cycle);
        let dst = ArchReg::int((i % 7) as u8);
        let src = ArchReg::int(((i + 3) % 7) as u8);
        let inst = StaticInst::alu(0x1000 + 4 * i as u64, dst, &[src]);
        let uop = renamer.rename(&inst, cycle, false);
        window.push((uop, false));
        let violations = auditor.check_cycle(&renamer, window.iter().map(|(u, s)| (u, *s)), cycle);
        assert!(violations.is_empty(), "after rename {i}: {violations:?}");
        cycle += 1;

        renamer.tick(cycle);
        // Issue the oldest un-issued instruction.
        if let Some((uop, issued)) = window.iter_mut().find(|(_, s)| !*s) {
            renamer.on_issue(&uop.psrcs, cycle);
            *issued = true;
        }
        // Precommit + commit the head once the window is deep enough.
        if window.len() > 3 {
            let (mut head, issued) = window.remove(0);
            assert!(issued, "window head issued before commit");
            renamer.on_precommit(&mut head, cycle);
            renamer.on_commit(&head, cycle);
        }
        let violations = auditor.check_cycle(&renamer, window.iter().map(|(u, s)| (u, *s)), cycle);
        assert!(violations.is_empty(), "after issue/commit {i}: {violations:?}");
        cycle += 1;
    }
    // Drain the window.
    while !window.is_empty() {
        let (mut head, issued) = window.remove(0);
        renamer.tick(cycle);
        if !issued {
            renamer.on_issue(&head.psrcs, cycle);
        }
        renamer.on_precommit(&mut head, cycle);
        renamer.on_commit(&head, cycle);
        let violations = auditor.check_cycle(&renamer, window.iter().map(|(u, s)| (u, *s)), cycle);
        assert!(violations.is_empty(), "during drain: {violations:?}");
        cycle += 1;
    }
    auditor
}

#[test]
fn clean_streams_have_no_violations_under_every_scheme() {
    for scheme in ReleaseScheme::ALL {
        let auditor = drive_clean(scheme, 200);
        assert!(auditor.cycles_checked() >= 400, "{scheme:?}: auditor barely ran");
        assert_eq!(auditor.violations_found(), 0, "{scheme:?}");
    }
}

#[test]
fn injected_early_release_is_caught_on_the_next_check() {
    let mut renamer = Renamer::new(&config(ReleaseScheme::Atr { redefine_delay: 0 }));
    let mut auditor = RenameAuditor::new();
    let i0 = StaticInst::alu(0x1000, ArchReg::int(1), &[ArchReg::int(2)]);
    let i1 = StaticInst::alu(0x1004, ArchReg::int(3), &[ArchReg::int(1)]);
    let u0 = renamer.rename(&i0, 1, false);
    let u1 = renamer.rename(&i1, 1, false);
    let window = [(u0, false), (u1, false)];
    let clean = auditor.check_cycle(&renamer, window.iter().map(|(u, s)| (u, *s)), 1);
    assert!(clean.is_empty(), "pre-injection state must be clean: {clean:?}");

    // The bug under test: i0's destination freed while i1 (un-issued)
    // still sources it and the SRT still maps r1 to it.
    let victim = u0.pdst.expect("ALU op allocates");
    renamer.inject_early_release(victim);

    let violations = auditor.check_cycle(&renamer, window.iter().map(|(u, s)| (u, *s)), 2);
    assert!(!violations.is_empty(), "auditor missed the injected early release");
    let all = violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n");
    assert!(all.contains(&victim.to_string()), "violations must name {victim}: {all}");
    // Both the SRT-liveness and the consumer-mapping invariants see it.
    assert!(all.contains("SRT maps"), "expected an SRT liveness violation: {all}");
    assert!(all.contains("un-issued"), "expected a consumer-mapping violation: {all}");
    assert_eq!(auditor.violations_found(), violations.len() as u64);
}
