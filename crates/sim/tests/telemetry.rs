//! Integration tests for the observability layer: CPI-stack validity
//! across every scheme and profile, scheme sensitivity of the
//! freelist-stall bucket, and the zero-perturbation guarantee.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, CoreTelemetry, OooCore};
use atr_sim::run;
use atr_telemetry::{CpiBucket, TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;
use atr_workload::Oracle;

/// The paper's four schemes (Fig 10's three plus the baseline).
const SCHEMES: [ReleaseScheme; 4] = [
    ReleaseScheme::Baseline,
    ReleaseScheme::NonSpecEr,
    ReleaseScheme::Atr { redefine_delay: 0 },
    ReleaseScheme::Combined { redefine_delay: 0 },
];

/// A stats-level core at `rf` registers under `scheme`.
fn stats_core(scheme: ReleaseScheme, rf: usize) -> CoreConfig {
    CoreConfig::default()
        .with_rf_size(rf)
        .with_scheme(scheme)
        .with_telemetry(TelemetryConfig { level: TelemetryLevel::Stats })
}

/// The `Σ slots == width × cycles` invariant must hold for every scheme
/// on every SPEC profile — the explicit tiny budget keeps this a
/// seconds-scale sweep while still crossing every attribution path.
#[test]
fn cpi_invariant_holds_for_all_schemes_and_profiles() {
    for profile in &all_profiles() {
        for scheme in SCHEMES {
            let r = run(stats_core(scheme, 64), profile.build(), 500, 2_000);
            let cpi = &r.cpi;
            cpi.check().unwrap_or_else(|e| {
                panic!("{} {}: CPI invariant broken: {e}", profile.name, scheme.label())
            });
            assert!(
                cpi.get(CpiBucket::Retiring) > 0,
                "{} {}: nothing retired into the stack",
                profile.name,
                scheme.label()
            );
        }
    }
}

/// The CPI stack must be scheme-sensitive where the paper says the
/// schemes differ: under freelist pressure, ATR's early releases must
/// strictly shrink the freelist-stall bucket relative to the baseline.
#[test]
fn freelist_stall_bucket_shrinks_under_atr() {
    let profiles = all_profiles();
    let pressured = profiles.iter().find(|p| p.name == "548.exchange2_r").expect("profile exists");
    let stalls = |scheme: ReleaseScheme| {
        let r = run(stats_core(scheme, 64), pressured.build(), 2_000, 20_000);
        r.cpi.get(CpiBucket::FreelistStall)
    };
    let baseline = stalls(ReleaseScheme::Baseline);
    let atr = stalls(ReleaseScheme::Atr { redefine_delay: 0 });
    assert!(baseline > 0, "the pressured point must actually stall the baseline's freelist");
    assert!(
        baseline > atr,
        "ATR must attribute strictly fewer freelist-stall slots \
         (baseline {baseline} vs atr {atr})"
    );
}

/// Telemetry is a pure observer, and `off` records nothing but the CPI
/// stack. The whole `CoreStats` block — every counter, `markings`
/// included — must be identical at `off` and `stats`, and the CPI stack
/// both levels account must be the same stack. The `off` core's
/// observer must hold no histogram sample and its lifetime log must
/// hold no totals, so the disabled path did none of the work it gates; the
/// `stats` core must have recorded samples, flush walks and branch
/// resolutions included, so that check can fail. The cores are driven
/// directly: `sim::run` drops the observer's samples below `stats`, so
/// its result cannot show the gating.
#[test]
fn telemetry_levels_never_perturb_core_stats() {
    let profiles = all_profiles();
    let profile = profiles.iter().find(|p| p.name == "505.mcf_r").expect("profile exists");
    let program = profile.build();
    for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Combined { redefine_delay: 0 }] {
        let run_at = |level: TelemetryLevel| {
            let mut cfg = stats_core(scheme, 96);
            cfg.telemetry.level = level;
            let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
            core.run(500);
            let stats = core.run(4_000);
            let lifetime = core.renamer().log().totals();
            (stats, lifetime, core.into_telemetry())
        };
        let (off, off_lifetime, off_t) = run_at(TelemetryLevel::Off);
        let (stats, _, stats_t) = run_at(TelemetryLevel::Stats);
        let label = scheme.label();
        assert_eq!(format!("{off:?}"), format!("{stats:?}"), "{label}");
        assert_eq!(off_t.cpi, stats_t.cpi, "{label}: off and stats CPI stacks");

        assert_eq!(recorded_samples(&off_t), 0, "{label}: off recorded samples");
        assert!(off_lifetime.is_none(), "{label}: off collected a lifetime log");
        // Non-zero counts also show that the budget covers flushes, so
        // the zero-sample check above can fail.
        assert!(stats_t.flush_walk_len.count > 0, "{label}: stats recorded no flush walk");
        assert!(stats_t.branch_resolution.count > 0, "{label}: stats recorded no branch");
    }
}

/// Every sample an observer holds beyond its CPI stack: the histograms.
fn recorded_samples(t: &CoreTelemetry) -> u64 {
    let hists = [
        &t.rob_occupancy,
        &t.int_prf_occupancy,
        &t.fp_prf_occupancy,
        &t.flush_walk_len,
        &t.branch_resolution,
    ];
    hists.iter().map(|h| h.count).sum()
}
