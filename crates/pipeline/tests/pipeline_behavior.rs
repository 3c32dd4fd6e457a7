//! End-to-end behavioral tests of the assembled core: wrong-path
//! execution, scheme orderings, precise exceptions, interrupts, and
//! determinism.

use atr_core::ReleaseScheme;
use atr_isa::RegClass;
use atr_pipeline::{CoreConfig, InterruptMode, OooCore};
use atr_workload::{spec, Oracle, ProfileParams};

fn quick_cfg() -> CoreConfig {
    CoreConfig::default()
}

fn run_ipc(cfg: &CoreConfig, seed: u64, insts: u64) -> f64 {
    let program = ProfileParams { seed, ..ProfileParams::default() }.build();
    let mut core = OooCore::new(cfg.clone(), Oracle::new(program));
    core.run(insts).ipc()
}

#[test]
fn ipc_is_in_a_plausible_band() {
    let ipc = run_ipc(&quick_cfg(), 3, 30_000);
    assert!(ipc > 0.05 && ipc < 6.0, "ipc {ipc}");
}

#[test]
fn runs_are_bit_deterministic() {
    let cfg = quick_cfg().with_rf_size(96);
    let program = ProfileParams { seed: 9, ..ProfileParams::default() }.build();
    let a = OooCore::new(cfg.clone(), Oracle::new(program.clone())).run(20_000);
    let b = OooCore::new(cfg, Oracle::new(program)).run(20_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.flushes, b.flushes);
    assert_eq!(a.int_prf, b.int_prf);
    assert_eq!(a.fetched, b.fetched);
}

#[test]
fn wrong_path_execution_happens_and_is_squashed() {
    let program = spec::find_profile("deepsjeng").unwrap().build();
    let mut core = OooCore::new(quick_cfg(), Oracle::new(program));
    let stats = core.run(30_000);
    assert!(stats.flushes > 10, "branchy profile must flush: {}", stats.flushes);
    assert!(stats.wrong_path_fetched > 100);
    assert!(stats.wrong_path_renamed > 0, "wrong-path instructions must allocate registers");
    assert!(stats.retired >= 30_000);
}

#[test]
fn atr_scheme_survives_heavy_misprediction_with_double_free_checks() {
    // The FreeList panics on any double free, so simply running a
    // branchy workload under ATR exercises §4.2.4 end to end.
    let cfg = quick_cfg().with_rf_size(64).with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
    let program = spec::find_profile("leela").unwrap().build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let stats = core.run(40_000);
    assert!(stats.int_prf.released_atomic > 100, "ATR must actually release");
    core.renamer().check_invariants();
}

#[test]
fn flush_walk_double_free_avoidance_fires_in_real_runs() {
    // Squashed regions that were already ATR-released must appear.
    let cfg = quick_cfg().with_rf_size(96).with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
    let program = spec::find_profile("deepsjeng").unwrap().build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let stats = core.run(60_000);
    assert!(
        stats.int_prf.flush_double_free_avoided > 0,
        "no §4.2.4 skip fired in a branchy ATR run"
    );
}

#[test]
fn schemes_rank_as_the_paper_reports_at_small_rf() {
    let program = spec::find_profile("exchange2").unwrap().build();
    let ipc_of = |scheme: ReleaseScheme| {
        let cfg = quick_cfg().with_rf_size(64).with_scheme(scheme);
        OooCore::new(cfg, Oracle::new(program.clone())).run(60_000).ipc()
    };
    let baseline = ipc_of(ReleaseScheme::Baseline);
    let atomic = ipc_of(ReleaseScheme::Atr { redefine_delay: 0 });
    let er = ipc_of(ReleaseScheme::NonSpecEr);
    let combined = ipc_of(ReleaseScheme::Combined { redefine_delay: 0 });
    assert!(atomic > baseline * 1.005, "atomic {atomic} vs baseline {baseline}");
    assert!(er > baseline * 1.005, "nonspec-ER {er} vs baseline {baseline}");
    assert!(combined >= er * 0.99, "combined {combined} must not lose to ER {er}");
    assert!(combined > baseline * 1.01);
}

#[test]
fn schemes_converge_at_large_rf() {
    let program = spec::find_profile("x264").unwrap().build();
    let ipc_of = |scheme: ReleaseScheme| {
        let cfg = quick_cfg().with_rf_size(512).with_scheme(scheme);
        OooCore::new(cfg, Oracle::new(program.clone())).run(40_000).ipc()
    };
    let baseline = ipc_of(ReleaseScheme::Baseline);
    let combined = ipc_of(ReleaseScheme::Combined { redefine_delay: 0 });
    let rel = combined / baseline;
    assert!((0.97..1.06).contains(&rel), "no pressure -> no effect, got {rel}");
}

#[test]
fn atr_lowers_average_register_occupancy() {
    let program = spec::find_profile("exchange2").unwrap().build();
    let occupancy_of = |scheme: ReleaseScheme| {
        let cfg = quick_cfg().with_rf_size(280).with_scheme(scheme);
        let stats = OooCore::new(cfg, Oracle::new(program.clone())).run(40_000);
        stats.avg_int_prf_occupancy()
    };
    let baseline = occupancy_of(ReleaseScheme::Baseline);
    let atomic = occupancy_of(ReleaseScheme::Atr { redefine_delay: 0 });
    assert!(
        atomic < baseline * 0.97,
        "ATR must hold registers shorter: {atomic:.1} vs {baseline:.1}"
    );
}

#[test]
fn precise_exceptions_are_serviced_and_reexecuted() {
    for scheme in ReleaseScheme::ALL {
        let cfg = quick_cfg().with_rf_size(96).with_scheme(scheme);
        let program = ProfileParams { seed: 21, ..ProfileParams::default() }.build();
        let oracle = Oracle::with_exception_rate(program, 0.001);
        let mut core = OooCore::new(cfg, oracle);
        let stats = core.run(40_000);
        assert!(stats.exceptions > 0, "{scheme}: no exception was injected");
        assert!(stats.retired >= 40_000, "{scheme}: must retire past the faults");
        core.renamer().check_invariants();
    }
}

#[test]
fn exceptions_are_deterministic_across_schemes_count() {
    // The injected fault pattern is oracle-side, so every scheme sees
    // the same faulting instructions.
    let program = ProfileParams { seed: 21, ..ProfileParams::default() }.build();
    let count = |scheme: ReleaseScheme| {
        let cfg = quick_cfg().with_rf_size(512).with_scheme(scheme);
        OooCore::new(cfg, Oracle::with_exception_rate(program.clone(), 0.001))
            .run(30_000)
            .exceptions
    };
    let base = count(ReleaseScheme::Baseline);
    assert_eq!(base, count(ReleaseScheme::Atr { redefine_delay: 0 }));
    assert_eq!(base, count(ReleaseScheme::Combined { redefine_delay: 1 }));
}

#[test]
fn drain_interrupt_services_after_rob_empties() {
    let cfg = quick_cfg().with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
    let program = ProfileParams { seed: 5, ..ProfileParams::default() }.build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let _ = core.run(5_000);
    core.request_interrupt(InterruptMode::Drain);
    let stats = core.run(10_000);
    assert_eq!(stats.interrupts, 1, "drain interrupt must be serviced");
    assert!(!core.interrupt_pending());
    assert!(stats.retired >= 15_000, "execution must continue after the handler");
    core.renamer().check_invariants();
}

#[test]
fn flush_interrupt_waits_for_open_atomic_claims() {
    let cfg = quick_cfg().with_rf_size(64).with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
    let program = spec::find_profile("exchange2").unwrap().build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let _ = core.run(5_000);
    core.request_interrupt(InterruptMode::FlushAtRegionBoundary);
    let stats = core.run(10_000);
    assert_eq!(stats.interrupts, 1, "flush interrupt must be serviced");
    assert!(stats.retired >= 15_000);
    core.renamer().check_invariants();
}

#[test]
fn interrupt_modes_do_not_corrupt_register_state() {
    // Fire interrupts repeatedly under ATR; the free-list double-free
    // panics and invariant checks validate the §4.1 claim.
    let cfg =
        quick_cfg().with_rf_size(72).with_scheme(ReleaseScheme::Combined { redefine_delay: 1 });
    let program = spec::find_profile("leela").unwrap().build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    for i in 0..6 {
        let _ = core.run(3_000);
        let mode =
            if i % 2 == 0 { InterruptMode::FlushAtRegionBoundary } else { InterruptMode::Drain };
        core.request_interrupt(mode);
    }
    let stats = core.run(5_000);
    assert!(stats.interrupts >= 5);
    core.renamer().check_invariants();
}

#[test]
fn walk_only_checkpoint_policy_matches_checkpointing_results() {
    // SRT recovery via committed-RAT walk must produce an
    // architecturally identical run (same retired count trajectory).
    let program = spec::find_profile("deepsjeng").unwrap().build();
    let mut cfg_a = quick_cfg().with_rf_size(96);
    cfg_a.rename.checkpoint_policy = atr_core::CheckpointPolicy::EveryBranch;
    let mut cfg_b = quick_cfg().with_rf_size(96);
    cfg_b.rename.checkpoint_policy = atr_core::CheckpointPolicy::WalkOnly;
    let a = OooCore::new(cfg_a, Oracle::new(program.clone())).run(30_000);
    let b = OooCore::new(cfg_b, Oracle::new(program)).run(30_000);
    // Timing is identical in this model (restore latency is not charged
    // differently); at minimum the architectural stream must match.
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.flushes, b.flushes);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn fp_pressure_is_exercised_by_fp_profiles() {
    let program = spec::find_profile("namd").unwrap().build();
    let cfg = quick_cfg().with_rf_size(64);
    let stats = OooCore::new(cfg, Oracle::new(program)).run(20_000);
    assert!(
        stats.avg_fp_prf_occupancy() > 32.0,
        "fp profile must pressure the vector file: {:.1}",
        stats.avg_fp_prf_occupancy()
    );
    assert!(stats.fp_prf.allocations > 1_000);
}

#[test]
fn register_class_split_is_respected() {
    // Int profile barely touches the FP file.
    let program = spec::find_profile("mcf").unwrap().build();
    let stats = OooCore::new(quick_cfg(), Oracle::new(program)).run(20_000);
    assert!(stats.int_prf.allocations > 10 * stats.fp_prf.allocations.max(1));
    let _ = RegClass::Fp;
}

#[test]
fn move_elimination_reduces_allocations_and_keeps_correctness() {
    let program = spec::find_profile("perlbench").unwrap().build();
    let run_with = |elim: bool| {
        let mut cfg =
            quick_cfg().with_rf_size(64).with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
        cfg.rename.move_elimination = elim;
        let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
        let stats = core.run(40_000);
        core.renamer().check_invariants();
        (stats, core.renamer().eliminated_moves())
    };
    let (base, elim0) = run_with(false);
    let (with, elim1) = run_with(true);
    assert_eq!(elim0, 0);
    assert!(elim1 > 100, "the mix contains moves to eliminate: {elim1}");
    assert!(
        with.int_prf.allocations < base.int_prf.allocations,
        "move elimination must cut allocations: {} vs {}",
        with.int_prf.allocations,
        base.int_prf.allocations
    );
    assert!(
        with.ipc() > base.ipc() * 0.98,
        "move elimination must not slow the core: {} vs {}",
        with.ipc(),
        base.ipc()
    );
}

#[test]
fn move_elimination_survives_flush_storms_under_all_schemes() {
    // Heavy mispredictions + aliased registers: the §6-modified flush
    // walk must keep reference counts exact (free-list panics otherwise).
    let program = spec::find_profile("deepsjeng").unwrap().build();
    for scheme in ReleaseScheme::ALL {
        let mut cfg = quick_cfg().with_rf_size(72).with_scheme(scheme);
        cfg.rename.move_elimination = true;
        let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
        let stats = core.run(40_000);
        assert!(stats.retired >= 40_000, "{scheme}");
        core.renamer().check_invariants();
    }
}

/// A run can stop with a resolved, mispredicted conditional branch still
/// in flight. Branches and their mispredicts are both counted as they
/// resolve on the correct path, so the audited relation
/// `cond_mispredicts <= cond_branches` holds exactly at any stopping
/// point, even 40 + 160 instructions in, where a cold predictor has
/// mispredicted branches that have not retired yet.
#[test]
fn branch_counters_agree_at_any_stopping_point() {
    let mut failures = Vec::new();
    for profile in spec::all_profiles() {
        let program = profile.build();
        for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Combined { redefine_delay: 0 }] {
            for rf in [64, 280] {
                let cfg = quick_cfg().with_rf_size(rf).with_scheme(scheme).with_audit(true);
                let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    core.run(40);
                    core.run(160)
                }));
                match run {
                    Ok(stats) => assert!(stats.cond_mispredicts <= stats.cond_branches),
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                            .unwrap_or_default();
                        failures.push(format!("{} {scheme:?} rf{rf}: {msg}", profile.name));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} audited runs failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
