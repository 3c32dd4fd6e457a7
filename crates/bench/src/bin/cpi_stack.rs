//! Per-scheme CPI stacks: where do the retire slots go?
//!
//! Runs every SPEC profile under each release scheme at a
//! freelist-pressured register file (64 regs, where the schemes differ
//! most), merges the per-run CPI stacks per scheme, and prints the
//! top-down comparison table. The freelist-stall column shrinking from
//! Baseline to ATR/Combined is the paper's mechanism made visible.
//!
//! Telemetry is forced to `stats` level internally — no `ATR_TELEMETRY`
//! needed — but budget (`ATR_SIM_WARMUP`/`ATR_SIM_INSTS`) and `ATR_LOG`
//! behave as everywhere else.

use atr_core::ReleaseScheme;
use atr_sim::config::budget_from_env;
use atr_sim::report::cpi_table;
use atr_sim::{run, SimConfig};
use atr_telemetry::{RunTelemetry, TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;

/// The paper's four schemes at the pressured design point.
const SCHEMES: [ReleaseScheme; 4] = [
    ReleaseScheme::Baseline,
    ReleaseScheme::NonSpecEr,
    ReleaseScheme::Atr { redefine_delay: 0 },
    ReleaseScheme::Combined { redefine_delay: 0 },
];
const RF_SIZE: usize = 64;

fn main() {
    let (warmup, measure) = budget_from_env();
    let sim = SimConfig { warmup, measure, ..SimConfig::golden_cove() };
    let profiles = all_profiles();
    atr_telemetry::info!(
        "cpi_stack: {} profiles x {} schemes @{} regs (warmup {}, measure {})",
        profiles.len(),
        SCHEMES.len(),
        RF_SIZE,
        sim.warmup,
        sim.measure
    );

    // One aggregate stack per scheme; schemes run on parallel threads,
    // profiles serially within each (results are order-independent
    // because merged CPI stacks commute).
    let merged: Vec<(String, RunTelemetry)> = std::thread::scope(|scope| {
        let handles: Vec<_> = SCHEMES
            .map(|scheme| {
                let sim = &sim;
                let profiles = &profiles;
                scope.spawn(move || {
                    let stats = TelemetryConfig {
                        level: TelemetryLevel::Stats,
                        ..TelemetryConfig::default()
                    };
                    let cfg = sim
                        .core
                        .clone()
                        .with_rf_size(RF_SIZE)
                        .with_scheme(scheme)
                        .with_telemetry(stats);
                    let mut total = RunTelemetry::default();
                    for profile in profiles {
                        let result = run(cfg.clone(), profile.build(), sim.warmup, sim.measure);
                        total.merge(&result.telemetry);
                        atr_telemetry::debug!("{} {} done", profile.name, scheme.label());
                    }
                    (format!("{}@{RF_SIZE}", scheme.label()), total)
                })
            })
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().expect("scheme worker panicked")).collect()
    });

    let columns: Vec<(String, &atr_telemetry::CpiStack)> = merged
        .iter()
        .map(|(name, t)| (name.clone(), t.cpi.as_ref().expect("stats level fills the stack")))
        .collect();
    for (name, stack) in &columns {
        stack.check().unwrap_or_else(|e| panic!("CPI invariant broken for {name}: {e}"));
    }
    println!("CPI stacks, SPEC aggregate (fraction of retire slots)\n");
    print!("{}", cpi_table(&columns));
}
