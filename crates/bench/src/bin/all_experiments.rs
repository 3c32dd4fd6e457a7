//! Runs every experiment in DESIGN.md's index and writes
//! `results/*.json` plus a combined summary to stdout.
//!
//! This is the run-matrix engine's showcase pass: the union of every
//! figure's points is ensured **once** on a shared
//! [`atr_sim::RunMatrix`], so the baselines that fig01/fig10/fig11/
//! fig15 and the analysis figures share simulate exactly once, in
//! parallel (`ATR_SIM_THREADS` workers), and each figure is then
//! assembled from the cache for free.
//!
//! Budget control: `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` (per measured
//! window). A full pass at the default budget takes tens of minutes.
//!
//! All narrative goes to **stderr** (via the `ATR_LOG` leveled logger),
//! so with `ATR_TELEMETRY=stats` and `ATR_TELEMETRY_OUT` unset, stdout
//! is pure JSONL: one run-telemetry record per simulated point.

use atr_analysis::{BulkReleaseLogic, CorePowerModel};
use atr_bench::driver;
use atr_sim::experiments as exp;
use atr_sim::report::{coverage_marker, gain, pct, save_json};
use atr_sim::RunMatrix;

fn main() {
    let sim = driver::sim();
    // Every ATR_* runtime knob, resolved exactly once.
    let session = driver::session();
    atr_telemetry::info!(
        "running all experiments (warmup {}, measure {}) ...",
        sim.warmup,
        sim.measure
    );
    atr_telemetry::info!("session: {}", session.describe());

    let t0 = std::time::Instant::now();

    // One shared matrix: declare everything, simulate the unique subset.
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&session, &sim.core, &exp::full_pass_points(&sim));
    atr_telemetry::info!("[{:>5.0?}] matrix: {}", t0.elapsed(), matrix.summary());

    let fig01 = exp::fig01_assemble(&sim, &matrix);
    let _ = save_json("fig01", &fig01);
    atr_telemetry::info!(
        "[{:>5.0?}] fig01: avg normalized IPC @64 = {} (paper 37.7%)",
        t0.elapsed(),
        pct(exp::fig01_average(&fig01, 64))
    );

    let fig04 = exp::fig04_assemble(&sim, &matrix);
    let _ = save_json("fig04", &fig04);
    for r in fig04.iter().filter(|r| r.benchmark.starts_with("average")) {
        atr_telemetry::info!(
            "[{:>5.0?}] fig04 {}: in-use {} unused {} verified {} (paper int 53.5/41.0/5.1, fp 78.3/18.9/2.8)",
            t0.elapsed(),
            r.benchmark,
            pct(r.in_use),
            pct(r.unused),
            pct(r.verified_unused)
        );
    }

    let fig06 = exp::fig06_assemble(&sim, &matrix);
    let _ = save_json("fig06", &fig06);
    for r in fig06.iter().filter(|r| r.benchmark.starts_with("average")) {
        atr_telemetry::info!(
            "[{:>5.0?}] fig06 {}: atomic {} (paper int 17.04%, fp 13.14%)",
            t0.elapsed(),
            r.benchmark,
            pct(r.atomic)
        );
    }

    let fig10 = exp::fig10_assemble(&sim, &matrix, &[64, 224]);
    let _ = save_json("fig10", &fig10);
    for r in fig10.iter().filter(|r| r.benchmark.starts_with("average")) {
        atr_telemetry::info!(
            "[{:>5.0?}] fig10 {} @{} {}: {}",
            t0.elapsed(),
            r.benchmark,
            r.rf_size,
            r.scheme,
            gain(r.speedup)
        );
    }

    let fig11 = exp::fig11_assemble(&sim, &matrix);
    let _ = save_json("fig11", &fig11);
    for r in &fig11 {
        atr_telemetry::info!(
            "[{:>5.0?}] fig11 {} @{}: {}",
            t0.elapsed(),
            r.class,
            r.rf_size,
            gain(r.speedup)
        );
    }

    let fig12 = exp::fig12_assemble(&sim, &matrix);
    let _ = save_json("fig12", &fig12);
    let mean_all: f64 = fig12.iter().map(|r| r.mean).sum::<f64>() / fig12.len() as f64;
    let namd = fig12.iter().find(|r| r.benchmark.contains("namd"));
    atr_telemetry::info!(
        "[{:>5.0?}] fig12: mean consumers/region {:.2}; namd mean {:.2} (paper: 1-2 typical, namd up to 5)",
        t0.elapsed(),
        mean_all,
        namd.map_or(0.0, |r| r.mean)
    );

    let fig13 = exp::fig13_assemble(&sim, &matrix);
    let _ = save_json("fig13", &fig13);
    for r in &fig13 {
        atr_telemetry::info!(
            "[{:>5.0?}] fig13 {} delay={}: {}",
            t0.elapsed(),
            r.class,
            r.delay,
            gain(r.speedup)
        );
    }

    let fig14 = exp::fig14_assemble(&sim, &matrix);
    let _ = save_json("fig14", &fig14);
    let avg = |f: fn(&exp::Fig14Row) -> f64| fig14.iter().map(f).sum::<f64>() / fig14.len() as f64;
    atr_telemetry::info!(
        "[{:>5.0?}] fig14: redefine {:.1}cy, consume {:.1}cy, commit {:.1}cy after rename",
        t0.elapsed(),
        avg(|r| r.rename_to_redefine),
        avg(|r| r.rename_to_consume),
        avg(|r| r.rename_to_commit)
    );

    let fig15 = exp::fig15_assemble(&sim, &matrix, 0.03, 8);
    let _ = save_json("fig15", &fig15);
    let model = CorePowerModel::default();
    let base = model.estimate(280, 280);
    for r in &fig15 {
        let est = model.estimate(r.required_rf, r.required_rf);
        atr_telemetry::info!(
            "[{:>5.0?}] fig15 {}: {} regs ({} reduction, {} power, {} area)",
            t0.elapsed(),
            r.scheme,
            r.required_rf,
            pct(r.reduction),
            pct(est.power_saving_vs(&base)),
            pct(est.area_saving_vs(&base)),
        );
    }

    let mut ablations = exp::ablation_move_elimination_assemble(&sim, &matrix);
    ablations.extend(exp::ablation_counter_width_assemble(&sim, &matrix));
    let _ = save_json("ablations", &ablations);
    for r in &ablations {
        atr_telemetry::info!(
            "[{:>5.0?}] ablation {} {}: {:+.2}%",
            t0.elapsed(),
            r.study,
            r.variant,
            (r.relative_ipc - 1.0) * 100.0
        );
    }

    let logic = BulkReleaseLogic::default().report();
    atr_telemetry::info!(
        "[{:>5.0?}] §4.4: {} gates, {} levels, {:.1} GHz combinational (paper 2,960 / 42 / 2.6)",
        t0.elapsed(),
        logic.gates,
        logic.levels,
        logic.max_frequency_ghz(1)
    );

    if let Some(marker) = coverage_marker(matrix.failed(), matrix.executed() + matrix.served()) {
        for (point, failure) in matrix.failures() {
            atr_telemetry::warn!("failed point {}: {failure}", point.label());
        }
        atr_telemetry::warn!("{marker}");
    }
    atr_telemetry::info!("done in {:?}; {}; JSON in results/", t0.elapsed(), matrix.summary());
}
