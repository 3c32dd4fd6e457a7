//! Quiet-cycle skip-ahead is invisible in every result.
//!
//! [`OooCore::run`] jumps over cycles that would only repeat the
//! previous one and credits them in bulk; `run_without_skip` steps every
//! cycle. For each configuration below both drive the same program
//! through the same sequence of runs and interrupt requests, with the
//! rename auditor attached and telemetry at `stats`, and must agree on
//! every counter, the CPI stack, every histogram, the audited-cycle
//! count and the retired stream.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, CoreStats, InterruptMode, OooCore};
use atr_telemetry::{TelemetryConfig, TelemetryLevel};
use atr_workload::{spec, Oracle, ProfileParams};

/// One run segment: retire this many instructions, then optionally
/// request an interrupt before the next segment.
type Segment = (u64, Option<InterruptMode>);

struct Case {
    name: &'static str,
    profile: ProfileParams,
    cfg: CoreConfig,
    exception_rate: f64,
    segments: Vec<Segment>,
}

fn observed_cfg(scheme: ReleaseScheme, rf_size: usize) -> CoreConfig {
    CoreConfig::default()
        .with_rf_size(rf_size)
        .with_scheme(scheme)
        .with_audit(true)
        .with_telemetry(TelemetryConfig { level: TelemetryLevel::Stats })
}

fn case(name: &'static str, profile: &str, cfg: CoreConfig) -> Case {
    let profile = spec::find_profile(profile).expect("profile").params;
    Case { name, profile, cfg, exception_rate: 0.0, segments: vec![(1_500, None)] }
}

/// Everything a run reports, rendered for comparison, plus the final
/// statistics.
fn drive(c: &Case, skip: bool) -> (String, CoreStats) {
    let oracle = Oracle::with_exception_rate(c.profile.build(), c.exception_rate);
    let mut core = OooCore::new(c.cfg.clone(), oracle);
    core.enable_retire_log();
    let mut stats = Vec::new();
    for &(insts, interrupt) in &c.segments {
        stats.push(if skip { core.run(insts) } else { core.run_without_skip(insts) });
        if let Some(mode) = interrupt {
            core.request_interrupt(mode);
        }
    }
    let t = core.telemetry().expect("telemetry at stats");
    let report = format!(
        "{stats:?}\ncpi {:?}\nrob {:?}\nint {:?}\nfp {:?}\nflush {:?}\nbranch {:?}\n\
         audited {}\nretired {:?}",
        t.cpi,
        t.rob_occupancy,
        t.int_prf_occupancy,
        t.fp_prf_occupancy,
        t.flush_walk_len,
        t.branch_resolution,
        core.auditor().expect("auditor attached").cycles_checked(),
        core.retire_log(),
    );
    (report, stats.pop().expect("at least one segment"))
}

/// Checks every case and returns each one's final statistics.
fn check(cases: &[Case]) -> Vec<CoreStats> {
    let mut finals = Vec::new();
    for c in cases {
        let (skipped, stats) = drive(c, true);
        let (stepped, _) = drive(c, false);
        assert!(stats.retired > 0, "{}: nothing retired", c.name);
        if skipped != stepped {
            let (line, (a, b)) = skipped
                .lines()
                .zip(stepped.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .expect("reports differ somewhere");
            panic!(
                "{}: skip-ahead diverged (report line {line}):\n  skip: {a}\n  step: {b}",
                c.name
            );
        }
        finals.push(stats);
    }
    finals
}

#[test]
fn every_scheme_matches_the_stepwise_reference() {
    let mut cases = Vec::new();
    for scheme in [
        ReleaseScheme::Baseline,
        ReleaseScheme::NonSpecEr,
        ReleaseScheme::Atr { redefine_delay: 0 },
        ReleaseScheme::Combined { redefine_delay: 0 },
    ] {
        cases.push(case("mcf rf280", "505.mcf_r", observed_cfg(scheme, 280)));
        cases.push(case("x264 rf64", "525.x264_r", observed_cfg(scheme, 64)));
    }
    check(&cases);
}

#[test]
fn redefine_delay_and_move_elimination_match() {
    let mut moves = observed_cfg(ReleaseScheme::Combined { redefine_delay: 2 }, 64);
    moves.rename.move_elimination = true;
    check(&[
        case(
            "atr delay 6",
            "531.deepsjeng_r",
            observed_cfg(ReleaseScheme::Atr { redefine_delay: 6 }, 64),
        ),
        case("move elimination", "502.gcc_r", moves),
    ]);
}

#[test]
fn a_squashed_divide_still_bounds_the_skip() {
    // A divide squashed in flight leaves the divider busy with nothing
    // left in the completion queue: only `div_busy_until` stops a skip
    // from jumping past the cycle an older ready divide may issue.
    let divides =
        ProfileParams { seed: 2, div_frac: 0.25, branch_entropy: 0.5, ..ProfileParams::default() };
    check(&[Case {
        profile: divides,
        segments: vec![(3_000, None)],
        ..case("divide storm", "505.mcf_r", observed_cfg(ReleaseScheme::Baseline, 64))
    }]);
}

#[test]
fn interrupts_and_exceptions_match() {
    let scheme = ReleaseScheme::Combined { redefine_delay: 1 };
    let finals = check(&[
        Case {
            segments: vec![
                (600, Some(InterruptMode::Drain)),
                (600, Some(InterruptMode::FlushAtRegionBoundary)),
                (600, Some(InterruptMode::Drain)),
                (600, None),
            ],
            ..case("interrupts", "505.mcf_r", observed_cfg(scheme, 72))
        },
        Case {
            segments: vec![(500, Some(InterruptMode::FlushAtRegionBoundary)), (4_000, None)],
            ..case("flush interrupt", "548.exchange2_r", observed_cfg(scheme, 64))
        },
        Case { exception_rate: 0.01, ..case("exceptions", "519.lbm_r", observed_cfg(scheme, 96)) },
    ]);
    assert_eq!(finals[0].interrupts, 3, "every requested interrupt is serviced");
    assert_eq!(finals[1].interrupts, 1);
    assert!(finals[2].exceptions > 0, "the exception case must take exceptions");
}

#[test]
fn memory_bound_runs_skip_most_cycles() {
    // Without skipping, every tick advances one cycle; with it, a
    // DRAM-bound core spends most cycles waiting and must cover them in
    // far fewer ticks — otherwise the equivalence above is vacuous.
    let program = spec::find_profile("505.mcf_r").unwrap().build();
    let cfg = CoreConfig::default().with_rf_size(280);
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let mut ticks = 0u64;
    while core.snapshot_stats().retired < 2_000 {
        core.tick();
        ticks += 1;
    }
    let cycles = core.cycles();
    assert!(ticks * 2 < cycles, "{ticks} ticks covered only {cycles} cycles");
}
