//! Regenerates the paper's evaluation: every entry of
//! [`atr_sim::experiments::FIGURES`], or those named by
//! `--only fig10,fig11`. Each entry writes `<name>.txt` (its titled
//! table and headlines) and, if it simulates, `<name>.json` (its rows)
//! under `ATR_RESULTS_DIR` (default `results/`); the union of the
//! selected entries' points simulates once, on `ATR_SIM_THREADS`
//! workers.
//!
//! Budget: `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` per point. A full pass at
//! the default 40k + 160k takes about 74 s on two workers of a 2-vCPU
//! VM. Narrative goes to stderr (`ATR_LOG`), so with `ATR_TELEMETRY=stats`
//! stdout is pure JSONL, one run-telemetry record per simulated point.
//!
//! Exits 0 only on full coverage. A point that failed or an entry that
//! could not be written exits 1 (the surviving figures are still
//! written, and the closing coverage marker names what is missing); a
//! bad argument exits 2.
//!
//! `--check-jsonl FILE...` simulates nothing: it validates the
//! run-telemetry JSONL such a pass wrote (see [`check_jsonl`]).

use atr_sim::config::budget_from_env;
use atr_sim::experiments::{run_figures, select, FIGURES};
use atr_sim::{Session, SimConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: all_experiments [--only NAME[,NAME...]] | --check-jsonl FILE...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match args.as_slice() {
        [] => Ok(FIGURES.iter().collect()),
        [flag, list] if flag == "--only" => select(list),
        [flag, files @ ..] if flag == "--check-jsonl" && !files.is_empty() => {
            return check_jsonl(files)
        }
        _ => Err(format!("unexpected arguments {args:?}")),
    };
    let figures = match figures {
        Ok(figures) => figures,
        Err(msg) => {
            eprintln!("all_experiments: {msg}\n{USAGE}");
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
    if run.coverage_marker().is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks every non-empty line of `paths` with
/// [`atr_sim::telemetry::validate_record`] — parseable JSON, current
/// schema tag, required fields, CPI-slot sum == width × cycles. Exits 1
/// on an unreadable file, on the first bad line (named `file:line`) or
/// when the files hold no record at all.
fn check_jsonl(paths: &[String]) -> ExitCode {
    let mut records = 0usize;
    for path in paths {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(e) => {
                atr_telemetry::warn!("could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (lineno, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = atr_sim::telemetry::validate_record(line) {
                atr_telemetry::warn!("{path}:{}: invalid telemetry record: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
            records += 1;
        }
    }
    if records == 0 {
        atr_telemetry::warn!("no telemetry records found (is ATR_TELEMETRY=stats set?)");
        return ExitCode::FAILURE;
    }
    atr_telemetry::info!("check-jsonl: {records} valid telemetry records");
    ExitCode::SUCCESS
}
