//! Per-scheme CPI stacks: where do the retire slots go?
//!
//! Runs Fig 10's points at a freelist-pressured register file (every
//! SPEC profile under each release scheme at 64 regs, where the schemes
//! differ most) on the shared run-matrix executor, merges the per-run
//! CPI stacks per scheme, and prints the top-down comparison table. The
//! freelist-stall row shrinking from Baseline to ATR/Combined is the
//! paper's mechanism made visible.
//!
//! Every run accounts its CPI stack, whatever `ATR_TELEMETRY` says. A
//! stack spans warmup plus the measured window (`cpi.cycles + 1 ==
//! stats.cycles`), unlike the figures' IPC, which covers the measured
//! window only.
//!
//! Budget (`ATR_SIM_WARMUP`/`ATR_SIM_INSTS`) and every runtime knob
//! (`ATR_SIM_THREADS`, `ATR_AUDIT`, `ATR_TELEMETRY`, `ATR_LOG`, …)
//! behave as in `all_experiments`, and none of the knobs changes the
//! table. At `ATR_TELEMETRY=stats`, set `ATR_TELEMETRY_OUT` to keep the
//! JSONL records off stdout. Exits 1 (after printing the table over the
//! surviving points) if a point failed.

use atr_core::ReleaseScheme;
use atr_sim::config::budget_from_env;
use atr_sim::experiments::fig10_points;
use atr_sim::report::{coverage_marker, cpi_table};
use atr_sim::{RunMatrix, Session, SimConfig};
use atr_telemetry::CpiStack;
use std::process::ExitCode;

/// The pressured design point.
const RF_SIZE: usize = 64;

fn main() -> ExitCode {
    let (warmup, measure) = budget_from_env();
    let sim = SimConfig { warmup, measure, ..SimConfig::golden_cove() };
    let session = Session::from_env();
    let points = fig10_points(&sim, &[RF_SIZE]);
    atr_telemetry::info!(
        "cpi_stack: {} points @{RF_SIZE} regs (warmup {warmup}, measure {measure}); session: {}",
        points.len(),
        session.describe()
    );
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&session, &sim.core, &points);

    // One aggregate stack per scheme, in the order the points list the
    // schemes (baseline first).
    let width = sim.core.retire_width as u64;
    let mut merged: Vec<(ReleaseScheme, CpiStack)> = Vec::new();
    for point in &points {
        let column = match merged.iter().position(|(scheme, _)| *scheme == point.scheme) {
            Some(i) => i,
            None => {
                merged.push((point.scheme, CpiStack::new(width)));
                merged.len() - 1
            }
        };
        if let Some(result) = matrix.try_get(point) {
            merged[column].1.merge(&result.cpi);
        }
    }
    let columns: Vec<(String, &CpiStack)> = merged
        .iter()
        .map(|(scheme, stack)| (format!("{}@{RF_SIZE}", scheme.label()), stack))
        .collect();
    for (name, stack) in &columns {
        stack.check().unwrap_or_else(|e| panic!("CPI invariant broken for {name}: {e}"));
    }
    println!("CPI stacks, SPEC aggregate (fraction of retire slots)\n");
    print!("{}", cpi_table(&columns));

    match coverage_marker(matrix.failed(), matrix.executed(), &[]) {
        None => ExitCode::SUCCESS,
        Some(marker) => {
            for (_, failure) in matrix.failures() {
                atr_telemetry::warn!("failed point {failure}");
            }
            atr_telemetry::warn!("{marker}");
            ExitCode::FAILURE
        }
    }
}
