//! Integration tests for the observability layer: CPI-stack validity
//! across every scheme and profile, scheme sensitivity of the
//! freelist-stall bucket, and the zero-perturbation guarantee.

use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use atr_sim::run;
use atr_telemetry::{CpiBucket, TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;

/// The paper's four schemes (Fig 10's three plus the baseline).
const SCHEMES: [ReleaseScheme; 4] = [
    ReleaseScheme::Baseline,
    ReleaseScheme::NonSpecEr,
    ReleaseScheme::Atr { redefine_delay: 0 },
    ReleaseScheme::Combined { redefine_delay: 0 },
];

/// A stats-level core at `rf` registers under `scheme`.
fn stats_core(scheme: ReleaseScheme, rf: usize) -> CoreConfig {
    CoreConfig::default().with_rf_size(rf).with_scheme(scheme).with_telemetry(TelemetryConfig {
        level: TelemetryLevel::Stats,
        ..TelemetryConfig::default()
    })
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

/// Telemetry is a pure observer: the whole `CoreStats` block — every
/// counter, `markings` included — must be identical across off, stats
/// and trace levels, and the CPI stack every level accounts must be the
/// same stack.
#[test]
fn telemetry_levels_never_perturb_core_stats() {
    let profiles = all_profiles();
    let profile = profiles.iter().find(|p| p.name == "505.mcf_r").expect("profile exists");
    let program = profile.build();
    for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Combined { redefine_delay: 0 }] {
        let run_at = |level: TelemetryLevel| {
            let mut cfg = stats_core(scheme, 96);
            cfg.telemetry.level = level;
            run(cfg, program.clone(), 500, 4_000)
        };
        let off = run_at(TelemetryLevel::Off);
        let stats = run_at(TelemetryLevel::Stats);
        let trace = run_at(TelemetryLevel::Trace);
        let fingerprint = |r: &atr_sim::RunResult| format!("{:?} {:?}", r.ipc.to_bits(), r.stats);
        assert_eq!(fingerprint(&off), fingerprint(&stats), "{}", scheme.label());
        assert_eq!(fingerprint(&off), fingerprint(&trace), "{}", scheme.label());
        assert_eq!(off.cpi.slots, stats.cpi.slots, "{}: off and stats CPI slots", scheme.label());
        assert_eq!(
            off.cpi.cycles,
            stats.cpi.cycles,
            "{}: off and stats CPI cycles",
            scheme.label()
        );
        assert_eq!(off.cpi, trace.cpi, "{}", scheme.label());
        assert!(off.telemetry.is_empty());
        assert!(!stats.telemetry.is_empty());
    }
}
