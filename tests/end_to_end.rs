//! Cross-crate integration tests: workload → frontend → memory → core →
//! pipeline → analysis, through the umbrella crate's public API.

use atr::core::ReleaseScheme;
use atr::isa::RegClass;
use atr::pipeline::{CoreConfig, OooCore};
use atr::sim::experiments::events_points;
use atr::sim::{run, RunMatrix, Session, SimConfig};
use atr::workload::{spec, Oracle, ProfileParams};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 15_000;

fn quick(scheme: ReleaseScheme, rf: usize) -> CoreConfig {
    CoreConfig::default().with_rf_size(rf).with_scheme(scheme)
}

/// A baseline core at 280 registers that collects lifetime records.
fn with_events() -> CoreConfig {
    let mut cfg = quick(ReleaseScheme::Baseline, 280);
    cfg.rename.collect_events = true;
    cfg
}

#[test]
fn umbrella_crate_exposes_the_full_stack() {
    let program = spec::spec2017_int()[0].build();
    let result = run(quick(ReleaseScheme::Baseline, 128), program, WARMUP, MEASURE);
    assert!(result.ipc > 0.05);
    assert!(result.stats.retired >= 15_000);
}

#[test]
fn fig6_pipeline_agrees_with_paper_band() {
    // The calibrated suite averages must stay near the paper's numbers
    // even at a small measurement budget: atomic ratio 17.04% int /
    // 13.14% fp, within a generous band.
    let mut int_sum = 0.0;
    let mut n = 0.0;
    for p in spec::spec2017_int().iter().take(4) {
        let r = run(with_events(), p.build(), WARMUP, MEASURE);
        int_sum += r.lifetime.expect("events run").int.atomic;
        n += 1.0;
    }
    let avg = int_sum / n;
    assert!((0.05..0.45).contains(&avg), "int atomic ratio {avg} out of band");
}

#[test]
fn scheme_ordering_holds_under_pressure_across_profiles() {
    for name in ["perlbench", "cactu"] {
        let program = spec::find_profile(name).unwrap().build();
        let base = run(quick(ReleaseScheme::Baseline, 64), program.clone(), WARMUP, MEASURE).ipc;
        let combined =
            run(quick(ReleaseScheme::Combined { redefine_delay: 0 }, 64), program, WARMUP, MEASURE)
                .ipc;
        assert!(
            combined >= base * 0.995,
            "{name}: combined {combined} must not lose to baseline {base}"
        );
    }
}

#[test]
fn lifetime_analysis_composes_with_simulation() {
    let program = ProfileParams { seed: 77, ..ProfileParams::default() }.build();
    let r = run(with_events(), program, WARMUP, MEASURE);
    let life = r.lifetime.expect("events run").int;
    assert!(life.lifecycle_samples > 500);
    let total = life.in_use + life.unused + life.verified_unused;
    assert!((total - 1.0).abs() < 1e-9, "fractions must partition: {total}");
    assert!(
        life.rename_to_commit > life.rename_to_redefine,
        "commit must come after redefinition on average"
    );
}

#[test]
fn events_point_summary_is_the_summary_of_the_core_log() {
    // The matrix keeps only the summaries; each must be exactly the
    // summary a directly driven core of the same point reports.
    let sim = SimConfig { core: CoreConfig::default(), warmup: WARMUP, measure: MEASURE };
    let point = events_points(&sim).into_iter().find(|p| p.profile == "508.namd_r").unwrap();
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&Session::default().quiet(), &sim.core, std::slice::from_ref(&point));
    let summary = matrix.get(&point).lifetime.as_ref().expect("events points are summarized");

    let program = spec::find_profile(point.profile).unwrap().build();
    let mut core = OooCore::new(with_events(), Oracle::new(program));
    let _ = core.run(WARMUP);
    let _ = core.run(MEASURE);
    let totals = core.renamer().log().totals().expect("events collected");
    for class in [RegClass::Int, RegClass::Fp] {
        let direct = totals.summary(class);
        assert!(direct.allocations > 0 && direct.atomic_regions > 0, "{class:?}: {direct:?}");
        // `{:?}` prints each f64 in its shortest round-trip form.
        assert_eq!(format!("{:?}", summary.get(class)), format!("{direct:?}"), "{class:?}");
    }
}

#[test]
fn lifetime_records_are_bounded_by_the_machine() {
    // A record lives only while its register or an in-flight redefiner
    // holds it, so however long the run, the live records never exceed
    // one per physical register plus one per ROB entry.
    let cfg = with_events();
    let bound = cfg.rename.int_prf_size + cfg.rename.fp_prf_size + cfg.rob_size;
    let program = spec::find_profile("508.namd_r").unwrap().build();
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let mut peak = 0;
    for _ in 0..20 {
        let _ = core.run(10_000);
        peak = peak.max(core.renamer().log().live());
        assert!(peak <= bound, "{peak} live lifetime records exceed the machine's {bound}");
    }
    let totals = core.renamer().log().totals().expect("events collected");
    let allocations: u64 = RegClass::ALL.map(|c| totals.summary(c).allocations).iter().sum();
    assert!(allocations > 100 * bound as u64, "only {allocations} allocations over the run");
}

#[test]
fn consumer_width_sensitivity_matches_s5_4() {
    // §5.4: a 3-bit counter performs like a wide one because atomic
    // regions rarely have >6 consumers.
    let program = spec::find_profile("exchange2").unwrap().build();
    let ipc_with_width = |width: u32| {
        let mut cfg = CoreConfig::default()
            .with_rf_size(64)
            .with_scheme(ReleaseScheme::Atr { redefine_delay: 0 });
        cfg.rename.counter_width = width;
        let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
        core.run(40_000).ipc()
    };
    let w3 = ipc_with_width(3);
    let w8 = ipc_with_width(8);
    assert!((w3 / w8 - 1.0).abs() < 0.02, "3-bit counter should match a wide one: {w3} vs {w8}");
    // A 1-bit-counter-equivalent (width 2: max one consumer) must lose
    // release opportunities.
    let w2 = ipc_with_width(2);
    assert!(w2 <= w8 * 1.005, "narrower counters cannot be faster");
}

#[test]
fn redefine_delay_sensitivity_matches_fig13() {
    let program = spec::find_profile("imagick").unwrap().build();
    let ipc_with_delay = |delay: u32| {
        let cfg = CoreConfig::default()
            .with_rf_size(64)
            .with_scheme(ReleaseScheme::Atr { redefine_delay: delay });
        OooCore::new(cfg, Oracle::new(program.clone())).run(40_000).ipc()
    };
    let d0 = ipc_with_delay(0);
    let d2 = ipc_with_delay(2);
    assert!(d2 > d0 * 0.97, "a 2-cycle marking pipeline must cost almost nothing: {d0} vs {d2}");
}

#[test]
fn hardware_models_reproduce_s4_4_claims() {
    let logic = atr::analysis::BulkReleaseLogic::default().report();
    assert!(logic.gates > 1_500 && logic.gates < 5_000);
    assert!(logic.max_frequency_ghz(3) > 4.0, "pipelined marking must exceed 4 GHz");

    let power = atr::analysis::CorePowerModel::default();
    let saving = power.estimate(204, 204).power_saving_vs(&power.estimate(280, 280));
    assert!((0.02..0.10).contains(&saving), "power saving {saving}");
}

#[test]
fn table1_and_table2_are_live() {
    let rows = atr::sim::table1(&CoreConfig::default());
    assert!(rows.iter().any(|(k, v)| k.contains("ROB") && v.contains("512")));
    assert_eq!(spec::all_profiles().len(), 23);
}
