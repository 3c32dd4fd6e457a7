//! Regenerates the paper's evaluation: every entry of
//! [`atr_sim::experiments::FIGURES`], or those named by
//! `--only fig10,fig11`. Each entry writes `<name>.txt` (its titled
//! table and headlines) and, if it simulates, `<name>.json` (its rows)
//! under `ATR_RESULTS_DIR` (default `results/`); the union of the
//! selected entries' points simulates once, on `ATR_SIM_THREADS`
//! workers.
//!
//! Budget: `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` per point. A full pass at
//! the default 40k + 160k takes about 150 s on two workers of a 2-vCPU
//! VM. Narrative goes to stderr (`ATR_LOG`), so with `ATR_TELEMETRY=stats`
//! stdout is pure JSONL, one run-telemetry record per simulated point.
//! Exits 1 when an entry could not be written, 2 on a bad argument.

use atr_sim::config::budget_from_env;
use atr_sim::experiments::{run_figures, select, FIGURES};
use atr_sim::{Session, SimConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match args.as_slice() {
        [] => Ok(FIGURES.iter().collect()),
        [flag, list] if flag == "--only" => select(list),
        _ => Err(format!("unexpected arguments {args:?}")),
    };
    let figures = match figures {
        Ok(figures) => figures,
        Err(msg) => {
            eprintln!("all_experiments: {msg}\nusage: all_experiments [--only NAME[,NAME...]]");
            return ExitCode::from(2);
        }
    };
    // The budget and every ATR_* runtime knob, resolved exactly once.
    let (warmup, measure) = budget_from_env();
    let sim = SimConfig { warmup, measure, ..SimConfig::golden_cove() };
    let session = Session::from_env();
    let dir = atr_sim::report::results_dir();
    atr_telemetry::info!(
        "running {} experiment(s) (warmup {warmup}, measure {measure}) ...",
        figures.len()
    );
    atr_telemetry::info!("session: {}", session.describe());

    let t0 = std::time::Instant::now();
    let run = run_figures(&session, &sim, &figures, &dir);
    let summary = run.matrix.summary();
    atr_telemetry::info!("done in {:?}; {summary}; results in {}", t0.elapsed(), dir.display());
    if run.unwritten.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
