//! One function per evaluation artifact (figure) of the paper, built on
//! the run-matrix engine.
//!
//! Every figure is expressed as a pure `points → assemble` pair:
//! `figNN_points` declares the exact [`SimPoint`]s the figure needs and
//! `figNN_assemble` folds cached results into rows. The one-shot
//! `figNN(sim)` wrappers run a private [`RunMatrix`]; a shared matrix
//! (see `all_experiments`) deduplicates across figures — fig01, fig10,
//! fig11, and fig15 all request overlapping `Baseline` points that then
//! simulate exactly once.
//!
//! Every function returns plain serializable rows; the `atr-bench`
//! binaries print them (and `report::render_table` formats them as
//! aligned tables). Budgets come from the [`SimConfig`] argument, which
//! `SimConfig::golden_cove()` populates from the `ATR_SIM_WARMUP` /
//! `ATR_SIM_INSTS` environment variables.

use crate::config::SimConfig;
use crate::matrix::{CoreTweak, RunMatrix, SimPoint};
use crate::runner::geomean;
use crate::session::Session;
use atr_core::ReleaseScheme;
use atr_json::json_record;
use atr_workload::spec::{all_profiles, spec2017_fp, spec2017_int, SpecProfile, WorkloadClass};

/// RF sizes swept by Fig 1 / Fig 11 (the paper's 64…280 plus a
/// practically infinite point for normalization).
pub const RF_SWEEP: [usize; 8] = [64, 96, 128, 160, 192, 224, 256, 280];
/// "Infinite" register file used as the normalization baseline.
pub const RF_INFINITE: usize = 2048;

/// The three early-release schemes Fig 10 compares against the baseline.
const FIG10_SCHEMES: [ReleaseScheme; 3] = [
    ReleaseScheme::NonSpecEr,
    ReleaseScheme::Atr { redefine_delay: 0 },
    ReleaseScheme::Combined { redefine_delay: 0 },
];

fn pt(sim: &SimConfig, profile: &'static str, scheme: ReleaseScheme, rf: usize) -> SimPoint {
    SimPoint::new(profile, scheme, rf, sim.warmup, sim.measure)
}

/// The lifetime-log point shared by every analysis figure (4/6/12/14):
/// the baseline scheme at the paper's 280-register design point.
fn events_point(sim: &SimConfig, profile: &'static str) -> SimPoint {
    pt(sim, profile, ReleaseScheme::Baseline, 280).with_events()
}

fn class_of(p: &SpecProfile) -> &'static str {
    match p.class {
        WorkloadClass::Int => "int",
        WorkloadClass::Fp => "fp",
    }
}

fn reg_class_of(p: &SpecProfile) -> atr_isa::RegClass {
    match p.class {
        WorkloadClass::Int => atr_isa::RegClass::Int,
        WorkloadClass::Fp => atr_isa::RegClass::Fp,
    }
}

/// Runs one figure's `points → assemble` pair on a private matrix,
/// under the session the environment describes.
fn solo<R>(sim: &SimConfig, points: Vec<SimPoint>, assemble: impl FnOnce(&RunMatrix) -> R) -> R {
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&Session::from_env(), &sim.core, &points);
    assemble(&matrix)
}

// ------------------------------------------------------------- Fig 1

/// One point of Fig 1: baseline IPC at a given RF size, normalized to
/// the infinite-RF IPC of the same benchmark.
#[derive(Debug, Clone)]
pub struct Fig01Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Physical register file size.
    pub rf_size: usize,
    /// IPC / IPC(infinite registers).
    pub normalized_ipc: f64,
}
json_record!(Fig01Row { benchmark, rf_size, normalized_ipc });

/// The simulation points Fig 1 needs.
#[must_use]
pub fn fig01_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in spec2017_int() {
        points.push(pt(sim, p.name, ReleaseScheme::Baseline, RF_INFINITE));
        for &rf in &RF_SWEEP {
            points.push(pt(sim, p.name, ReleaseScheme::Baseline, rf));
        }
    }
    points
}

/// Assembles Fig 1 rows from an ensured matrix. A failed point drops
/// its rows (the normalization reference drops the whole benchmark);
/// the pass-level coverage marker reports the loss.
#[must_use]
pub fn fig01_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig01Row> {
    let mut rows = Vec::new();
    for p in spec2017_int() {
        let Some(ideal) = matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, RF_INFINITE))
        else {
            continue;
        };
        for &rf in &RF_SWEEP {
            let Some(ipc) = matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, rf)) else {
                continue;
            };
            rows.push(Fig01Row {
                benchmark: p.name.to_owned(),
                rf_size: rf,
                normalized_ipc: ipc / ideal.max(1e-9),
            });
        }
        rows.push(Fig01Row {
            benchmark: p.name.to_owned(),
            rf_size: RF_INFINITE,
            normalized_ipc: 1.0,
        });
    }
    rows
}

/// Fig 1: normalized baseline IPC across register file sizes
/// (SPEC2017int).
#[must_use]
pub fn fig01(sim: &SimConfig) -> Vec<Fig01Row> {
    solo(sim, fig01_points(sim), |m| fig01_assemble(sim, m))
}

/// Average of Fig 1 rows at one RF size.
#[must_use]
pub fn fig01_average(rows: &[Fig01Row], rf: usize) -> f64 {
    geomean(rows.iter().filter(|r| r.rf_size == rf).map(|r| r.normalized_ipc))
}

// ------------------------------------------------------------- Fig 4

/// One suite's lifecycle breakdown (Fig 4).
#[derive(Debug, Clone)]
pub struct Fig04Row {
    /// Benchmark (or suite-average) name.
    pub benchmark: String,
    /// Suite ("int"/"fp").
    pub class: String,
    /// Fraction of register-lifetime cycles in use.
    pub in_use: f64,
    /// Fraction unused (speculative-release opportunity).
    pub unused: f64,
    /// Fraction verified-unused (non-speculative opportunity).
    pub verified_unused: f64,
}
json_record!(Fig04Row { benchmark, class, in_use, unused, verified_unused });

/// The simulation points Fig 4 needs (shared with Figs 6/12/14).
#[must_use]
pub fn fig04_points(sim: &SimConfig) -> Vec<SimPoint> {
    all_profiles().iter().map(|p| events_point(sim, p.name)).collect()
}

/// Assembles Fig 4 rows from an ensured matrix.
#[must_use]
pub fn fig04_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig04Row> {
    let mut rows = Vec::new();
    for p in all_profiles() {
        let Some(r) = matrix.try_get(&events_point(sim, p.name)) else {
            continue;
        };
        let b = atr_analysis::lifecycle_breakdown(&r.lifetimes, reg_class_of(&p));
        rows.push(Fig04Row {
            benchmark: p.name.to_owned(),
            class: class_of(&p).to_owned(),
            in_use: b.in_use,
            unused: b.unused,
            verified_unused: b.verified_unused,
        });
    }
    for class in ["int", "fp"] {
        let members: Vec<&Fig04Row> = rows.iter().filter(|r| r.class == class).collect();
        let n = members.len().max(1) as f64;
        let avg = Fig04Row {
            benchmark: format!("average-{class}"),
            class: class.to_owned(),
            in_use: members.iter().map(|r| r.in_use).sum::<f64>() / n,
            unused: members.iter().map(|r| r.unused).sum::<f64>() / n,
            verified_unused: members.iter().map(|r| r.verified_unused).sum::<f64>() / n,
        };
        rows.push(avg);
    }
    rows
}

/// Fig 4: register lifecycle cycle distribution under the baseline
/// scheme, per benchmark plus suite averages.
#[must_use]
pub fn fig04(sim: &SimConfig) -> Vec<Fig04Row> {
    solo(sim, fig04_points(sim), |m| fig04_assemble(sim, m))
}

// ------------------------------------------------------------- Fig 6

/// One benchmark's region ratios (Fig 6).
#[derive(Debug, Clone)]
pub struct Fig06Row {
    /// Benchmark (or suite-average) name.
    pub benchmark: String,
    /// Suite ("int"/"fp").
    pub class: String,
    /// Fraction of allocations in non-branch regions.
    pub non_branch: f64,
    /// Fraction in non-except regions.
    pub non_except: f64,
    /// Fraction in atomic commit regions.
    pub atomic: f64,
}
json_record!(Fig06Row { benchmark, class, non_branch, non_except, atomic });

/// The simulation points Fig 6 needs (shared with Figs 4/12/14).
#[must_use]
pub fn fig06_points(sim: &SimConfig) -> Vec<SimPoint> {
    fig04_points(sim)
}

/// Assembles Fig 6 rows from an ensured matrix.
#[must_use]
pub fn fig06_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig06Row> {
    let mut rows = Vec::new();
    for p in all_profiles() {
        let Some(r) = matrix.try_get(&events_point(sim, p.name)) else {
            continue;
        };
        let ratios = atr_analysis::region_ratios(&r.lifetimes, reg_class_of(&p), true);
        rows.push(Fig06Row {
            benchmark: p.name.to_owned(),
            class: class_of(&p).to_owned(),
            non_branch: ratios.non_branch,
            non_except: ratios.non_except,
            atomic: ratios.atomic,
        });
    }
    for class in ["int", "fp"] {
        let members: Vec<&Fig06Row> = rows.iter().filter(|r| r.class == class).collect();
        let n = members.len().max(1) as f64;
        rows.push(Fig06Row {
            benchmark: format!("average-{class}"),
            class: class.to_owned(),
            non_branch: members.iter().map(|r| r.non_branch).sum::<f64>() / n,
            non_except: members.iter().map(|r| r.non_except).sum::<f64>() / n,
            atomic: members.iter().map(|r| r.atomic).sum::<f64>() / n,
        });
    }
    rows
}

/// Fig 6: atomic register ratios per benchmark plus suite averages.
#[must_use]
pub fn fig06(sim: &SimConfig) -> Vec<Fig06Row> {
    solo(sim, fig06_points(sim), |m| fig06_assemble(sim, m))
}

// ------------------------------------------------------------ Fig 10

/// One benchmark × RF size × scheme speedup (Fig 10).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark (or suite-average) name.
    pub benchmark: String,
    /// Suite ("int"/"fp").
    pub class: String,
    /// Register file size (64 or 224 in the paper).
    pub rf_size: usize,
    /// Scheme label ("nonspec-ER"/"atomic"/"combined").
    pub scheme: String,
    /// IPC / IPC(baseline at the same RF size).
    pub speedup: f64,
}
json_record!(Fig10Row { benchmark, class, rf_size, scheme, speedup });

/// The simulation points Fig 10 needs at the given RF sizes.
#[must_use]
pub fn fig10_points(sim: &SimConfig, rf_sizes: &[usize]) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in all_profiles() {
        for &rf in rf_sizes {
            points.push(pt(sim, p.name, ReleaseScheme::Baseline, rf));
            for scheme in FIG10_SCHEMES {
                points.push(pt(sim, p.name, scheme, rf));
            }
        }
    }
    points
}

/// Assembles Fig 10 rows from an ensured matrix.
#[must_use]
pub fn fig10_assemble(sim: &SimConfig, matrix: &RunMatrix, rf_sizes: &[usize]) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for p in all_profiles() {
        for &rf in rf_sizes {
            let Some(baseline) = matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, rf))
            else {
                continue;
            };
            for scheme in FIG10_SCHEMES {
                let Some(ipc) = matrix.try_ipc(&pt(sim, p.name, scheme, rf)) else {
                    continue;
                };
                rows.push(Fig10Row {
                    benchmark: p.name.to_owned(),
                    class: class_of(&p).to_owned(),
                    rf_size: rf,
                    scheme: scheme.label().to_owned(),
                    speedup: ipc / baseline.max(1e-9),
                });
            }
        }
    }
    // Suite averages.
    let mut averages = Vec::new();
    for class in ["int", "fp"] {
        for &rf in rf_sizes {
            for scheme in FIG10_SCHEMES {
                let member_speedups: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.class == class && r.rf_size == rf && r.scheme == scheme.label())
                    .map(|r| r.speedup)
                    .collect();
                averages.push(Fig10Row {
                    benchmark: format!("average-{class}"),
                    class: class.to_owned(),
                    rf_size: rf,
                    scheme: scheme.label().to_owned(),
                    speedup: geomean(member_speedups),
                });
            }
        }
    }
    rows.extend(averages);
    rows
}

/// Fig 10: speedup of each early-release scheme over the baseline at 64
/// and 224 physical registers.
#[must_use]
pub fn fig10(sim: &SimConfig) -> Vec<Fig10Row> {
    fig10_at(sim, &[64, 224])
}

/// Fig 10 at caller-chosen RF sizes.
#[must_use]
pub fn fig10_at(sim: &SimConfig, rf_sizes: &[usize]) -> Vec<Fig10Row> {
    solo(sim, fig10_points(sim, rf_sizes), |m| fig10_assemble(sim, m, rf_sizes))
}

// ------------------------------------------------------------ Fig 11

/// One suite-average point of Fig 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Suite ("int"/"fp").
    pub class: String,
    /// Register file size.
    pub rf_size: usize,
    /// Geomean speedup of the atomic scheme over the baseline.
    pub speedup: f64,
}
json_record!(Fig11Row { class, rf_size, speedup });

/// The simulation points Fig 11 needs.
#[must_use]
pub fn fig11_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in all_profiles() {
        for &rf in &RF_SWEEP {
            points.push(pt(sim, p.name, ReleaseScheme::Baseline, rf));
            points.push(pt(sim, p.name, ReleaseScheme::Atr { redefine_delay: 0 }, rf));
        }
    }
    points
}

/// Assembles Fig 11 rows from an ensured matrix.
#[must_use]
pub fn fig11_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig11Row> {
    let mut rows = Vec::new();
    for (class, profiles) in [("int", spec2017_int()), ("fp", spec2017_fp())] {
        for &rf in &RF_SWEEP {
            let mut speedups = Vec::new();
            for p in &profiles {
                let (Some(b), Some(a)) = (
                    matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, rf)),
                    matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Atr { redefine_delay: 0 }, rf)),
                ) else {
                    continue;
                };
                speedups.push(a / b.max(1e-9));
            }
            rows.push(Fig11Row {
                class: class.to_owned(),
                rf_size: rf,
                speedup: geomean(speedups),
            });
        }
    }
    rows
}

/// Fig 11: atomic-scheme speedup over the baseline across RF sizes.
#[must_use]
pub fn fig11(sim: &SimConfig) -> Vec<Fig11Row> {
    solo(sim, fig11_points(sim), |m| fig11_assemble(sim, m))
}

// ------------------------------------------------------------ Fig 12

/// One benchmark's consumer distribution (Fig 12).
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Suite ("int"/"fp").
    pub class: String,
    /// Fraction of atomic regions per consumer count (last bucket ≥7).
    pub buckets: Vec<f64>,
    /// Mean consumers per atomic region.
    pub mean: f64,
}
json_record!(Fig12Row { benchmark, class, buckets, mean });

/// The simulation points Fig 12 needs (shared with Figs 4/6/14).
#[must_use]
pub fn fig12_points(sim: &SimConfig) -> Vec<SimPoint> {
    fig04_points(sim)
}

/// Assembles Fig 12 rows from an ensured matrix.
#[must_use]
pub fn fig12_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    for p in all_profiles() {
        let Some(r) = matrix.try_get(&events_point(sim, p.name)) else {
            continue;
        };
        let h = atr_analysis::consumer_histogram(&r.lifetimes, reg_class_of(&p), 7);
        rows.push(Fig12Row {
            benchmark: p.name.to_owned(),
            class: class_of(&p).to_owned(),
            buckets: h.buckets,
            mean: h.mean,
        });
    }
    rows
}

/// Fig 12: consumers per atomic region, per benchmark.
#[must_use]
pub fn fig12(sim: &SimConfig) -> Vec<Fig12Row> {
    solo(sim, fig12_points(sim), |m| fig12_assemble(sim, m))
}

// ------------------------------------------------------------ Fig 13

/// One suite × delay point of Fig 13.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Suite ("int"/"fp").
    pub class: String,
    /// Redefine-pipeline delay in cycles.
    pub delay: u32,
    /// Geomean speedup of the (delayed) atomic scheme over the baseline
    /// at 64 registers.
    pub speedup: f64,
}
json_record!(Fig13Row { class, delay, speedup });

/// The simulation points Fig 13 needs — one entry per simulator
/// invocation the naive serial implementation performed (it re-ran
/// every profile's baseline once *per delay*); the matrix collapses
/// the repeats.
#[must_use]
pub fn fig13_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in all_profiles() {
        for delay in [0u32, 1, 2] {
            points.push(pt(sim, p.name, ReleaseScheme::Baseline, 64));
            points.push(pt(sim, p.name, ReleaseScheme::Atr { redefine_delay: delay }, 64));
        }
    }
    points
}

/// Assembles Fig 13 rows from an ensured matrix.
#[must_use]
pub fn fig13_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig13Row> {
    let mut rows = Vec::new();
    for (class, profiles) in [("int", spec2017_int()), ("fp", spec2017_fp())] {
        for delay in [0u32, 1, 2] {
            let mut speedups = Vec::new();
            for p in &profiles {
                let (Some(b), Some(a)) = (
                    matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, 64)),
                    matrix.try_ipc(&pt(
                        sim,
                        p.name,
                        ReleaseScheme::Atr { redefine_delay: delay },
                        64,
                    )),
                ) else {
                    continue;
                };
                speedups.push(a / b.max(1e-9));
            }
            rows.push(Fig13Row { class: class.to_owned(), delay, speedup: geomean(speedups) });
        }
    }
    rows
}

/// Fig 13: sensitivity of the atomic scheme to pipelining the marking
/// logic by 0/1/2 cycles.
#[must_use]
pub fn fig13(sim: &SimConfig) -> Vec<Fig13Row> {
    solo(sim, fig13_points(sim), |m| fig13_assemble(sim, m))
}

// ------------------------------------------------------------ Fig 14

/// One benchmark's region cycle gaps (Fig 14).
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Suite ("int"/"fp").
    pub class: String,
    /// Mean cycles rename → redefine.
    pub rename_to_redefine: f64,
    /// Mean cycles rename → last consume.
    pub rename_to_consume: f64,
    /// Mean cycles rename → redefiner commit.
    pub rename_to_commit: f64,
}
json_record!(Fig14Row {
    benchmark,
    class,
    rename_to_redefine,
    rename_to_consume,
    rename_to_commit,
});

/// The simulation points Fig 14 needs (shared with Figs 4/6/12).
#[must_use]
pub fn fig14_points(sim: &SimConfig) -> Vec<SimPoint> {
    fig04_points(sim)
}

/// Assembles Fig 14 rows from an ensured matrix.
#[must_use]
pub fn fig14_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for p in all_profiles() {
        let Some(r) = matrix.try_get(&events_point(sim, p.name)) else {
            continue;
        };
        let g = atr_analysis::atomic_region_gaps(&r.lifetimes, reg_class_of(&p));
        rows.push(Fig14Row {
            benchmark: p.name.to_owned(),
            class: class_of(&p).to_owned(),
            rename_to_redefine: g.rename_to_redefine,
            rename_to_consume: g.rename_to_consume,
            rename_to_commit: g.rename_to_commit,
        });
    }
    rows
}

/// Fig 14: average cycle gaps within atomic commit regions.
#[must_use]
pub fn fig14(sim: &SimConfig) -> Vec<Fig14Row> {
    solo(sim, fig14_points(sim), |m| fig14_assemble(sim, m))
}

// ------------------------------------------------------------ Fig 15

/// One scheme's register-requirement result (Fig 15).
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Scheme label.
    pub scheme: String,
    /// Smallest RF size keeping IPC within the tolerance of the
    /// 280-register baseline.
    pub required_rf: usize,
    /// Relative reduction versus 280 registers.
    pub reduction: f64,
}
json_record!(Fig15Row { scheme, required_rf, reduction });

/// The simulation points Fig 15 needs: every scheme on the fixed
/// [`RF_SWEEP`] grid, plus the 280-register baseline references (which
/// the grid already contains — the matrix deduplicates them).
#[must_use]
pub fn fig15_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in all_profiles() {
        points.push(pt(sim, p.name, ReleaseScheme::Baseline, 280));
        for scheme in ReleaseScheme::ALL {
            for &rf in &RF_SWEEP {
                points.push(pt(sim, p.name, scheme, rf));
            }
        }
    }
    points
}

/// Assembles Fig 15 rows from an ensured matrix.
#[must_use]
pub fn fig15_assemble(
    sim: &SimConfig,
    matrix: &RunMatrix,
    tolerance: f64,
    step: usize,
) -> Vec<Fig15Row> {
    let profiles = all_profiles();
    // Benchmarks whose 280-register reference failed drop out of the
    // study; the survivors' geomean still defines every curve.
    let reference: Vec<(&'static str, f64)> = profiles
        .iter()
        .filter_map(|p| {
            matrix.try_ipc(&pt(sim, p.name, ReleaseScheme::Baseline, 280)).map(|ipc| (p.name, ipc))
        })
        .collect();

    let mean_rel = |scheme: ReleaseScheme, rf: usize| -> f64 {
        geomean(reference.iter().filter_map(|&(name, r0)| {
            matrix.try_ipc(&pt(sim, name, scheme, rf)).map(|ipc| ipc / r0.max(1e-9))
        }))
    };

    let threshold = 1.0 - tolerance;
    ReleaseScheme::ALL
        .into_iter()
        .map(|scheme| {
            let curve: Vec<(usize, f64)> =
                RF_SWEEP.iter().map(|&rf| (rf, mean_rel(scheme, rf))).collect();
            // Find the smallest grid point meeting the threshold, then
            // interpolate toward its smaller neighbour.
            let mut required = 280usize;
            for (i, &(rf, rel)) in curve.iter().enumerate() {
                if rel >= threshold {
                    required = rf;
                    if i > 0 {
                        let (lo_rf, lo_rel) = curve[i - 1];
                        if lo_rel < threshold && rel > lo_rel {
                            let t = (threshold - lo_rel) / (rel - lo_rel);
                            let exact = lo_rf as f64 + t * (rf - lo_rf) as f64;
                            required = (exact / step as f64).ceil() as usize * step;
                        }
                    } else {
                        // Meets the threshold at the smallest grid point.
                        required = rf;
                    }
                    break;
                }
            }
            Fig15Row {
                scheme: scheme.label().to_owned(),
                required_rf: required.min(280),
                reduction: 1.0 - required.min(280) as f64 / 280.0,
            }
        })
        .collect()
}

/// Fig 15: the smallest register file for which each scheme's mean IPC
/// stays within `tolerance` (paper: 3%) of the 280-register baseline.
///
/// Measures each scheme once on the fixed [`RF_SWEEP`] grid and
/// interpolates the crossing point linearly between grid neighbours
/// (rounded outward to `step` entries), which bounds the cost at
/// `4 schemes × 8 sizes × 23 profiles` regardless of where the
/// crossings fall — and the matrix cache means the whole grid is
/// simulated once, not once per scheme query.
#[must_use]
pub fn fig15(sim: &SimConfig, tolerance: f64, step: usize) -> Vec<Fig15Row> {
    solo(sim, fig15_points(sim), |m| fig15_assemble(sim, m, tolerance, step))
}

// -------------------------------------------------------- Ablations

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which ablation ("move-elim", "counter-width", "checkpoint").
    pub study: String,
    /// Variant label.
    pub variant: String,
    /// Geomean IPC relative to the study's reference variant.
    pub relative_ipc: f64,
}
json_record!(AblationRow { study, variant, relative_ipc });

fn move_elim_point(sim: &SimConfig, profile: &'static str, elim: bool) -> SimPoint {
    pt(sim, profile, ReleaseScheme::Atr { redefine_delay: 0 }, 64)
        .with_tweak(CoreTweak { move_elimination: Some(elim), ..CoreTweak::default() })
}

/// The simulation points the §6 move-elimination ablation needs.
#[must_use]
pub fn ablation_move_elimination_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in spec2017_int() {
        for elim in [false, true] {
            points.push(move_elim_point(sim, p.name, elim));
        }
    }
    points
}

/// Assembles the move-elimination ablation from an ensured matrix.
#[must_use]
pub fn ablation_move_elimination_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<AblationRow> {
    let run_with = |elim: bool| -> f64 {
        geomean(
            spec2017_int()
                .iter()
                .filter_map(|p| matrix.try_ipc(&move_elim_point(sim, p.name, elim))),
        )
    };
    let off = run_with(false);
    let on = run_with(true);
    vec![
        AblationRow { study: "move-elim".into(), variant: "off".into(), relative_ipc: 1.0 },
        AblationRow { study: "move-elim".into(), variant: "on".into(), relative_ipc: on / off },
    ]
}

/// §6 move-elimination ablation: ATR at 64 registers with and without
/// move elimination (the paper argues they compose synergistically).
#[must_use]
pub fn ablation_move_elimination(sim: &SimConfig) -> Vec<AblationRow> {
    solo(sim, ablation_move_elimination_points(sim), |m| ablation_move_elimination_assemble(sim, m))
}

/// Counter widths the §5.4 ablation sweeps (8 is the reference).
const COUNTER_WIDTHS: [u32; 4] = [2, 3, 4, 8];

fn counter_width_point(sim: &SimConfig, profile: &'static str, width: u32) -> SimPoint {
    pt(sim, profile, ReleaseScheme::Atr { redefine_delay: 0 }, 64)
        .with_tweak(CoreTweak { counter_width: Some(width), ..CoreTweak::default() })
}

/// The simulation points the §5.4 counter-width ablation needs — one
/// entry per simulator invocation the naive serial implementation
/// performed (it ran the 8-bit reference separately *and* as a sweep
/// member); the matrix collapses the repeat, and the sweep's
/// default-width member canonicalizes onto the untweaked ATR point.
#[must_use]
pub fn ablation_counter_width_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for p in spec2017_int() {
        points.push(counter_width_point(sim, p.name, 8));
        for width in COUNTER_WIDTHS {
            points.push(counter_width_point(sim, p.name, width));
        }
    }
    points
}

/// Assembles the counter-width ablation from an ensured matrix.
#[must_use]
pub fn ablation_counter_width_assemble(sim: &SimConfig, matrix: &RunMatrix) -> Vec<AblationRow> {
    let run_width = |width: u32| -> f64 {
        geomean(
            spec2017_int()
                .iter()
                .filter_map(|p| matrix.try_ipc(&counter_width_point(sim, p.name, width))),
        )
    };
    let reference = run_width(8);
    COUNTER_WIDTHS
        .into_iter()
        .map(|w| AblationRow {
            study: "counter-width".into(),
            variant: format!("{w}-bit"),
            relative_ipc: run_width(w) / reference,
        })
        .collect()
}

/// §5.4 consumer-counter-width ablation: ATR with 2/3/4/8-bit counters
/// at 64 registers (the paper: 3 bits lose nothing vs infinite).
#[must_use]
pub fn ablation_counter_width(sim: &SimConfig) -> Vec<AblationRow> {
    solo(sim, ablation_counter_width_points(sim), |m| ablation_counter_width_assemble(sim, m))
}

// ------------------------------------------------- Full-pass support

/// Every point of a full experiment pass (the union the
/// `all_experiments` binary ensures once, before any assembly): the
/// global-dedup factor reported by [`RunMatrix::summary`] measures
/// exactly how much cross-figure overlap the engine removes.
#[must_use]
pub fn full_pass_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = fig01_points(sim);
    points.extend(fig04_points(sim));
    points.extend(fig06_points(sim));
    points.extend(fig10_points(sim, &[64, 224]));
    points.extend(fig11_points(sim));
    points.extend(fig12_points(sim));
    points.extend(fig13_points(sim));
    points.extend(fig14_points(sim));
    points.extend(fig15_points(sim));
    points.extend(ablation_move_elimination_points(sim));
    points.extend(ablation_counter_width_points(sim));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_pipeline::CoreConfig;

    fn tiny(warmup: u64, measure: u64) -> SimConfig {
        SimConfig { core: CoreConfig::default(), warmup, measure }
    }

    #[test]
    fn fig10_rows_cover_schemes_and_sizes() {
        // A tiny budget keeps CI fast; one RF size.
        let rows = fig10_at(&tiny(1_000, 4_000), &[64]);
        // 23 benchmarks x 3 schemes + 2 averages x 3 schemes.
        assert_eq!(rows.len(), 23 * 3 + 6);
        assert!(
            rows.iter().all(|r| r.speedup > 0.1 && r.speedup < 10.0),
            "speedups out of sanity band"
        );
        let avg_int =
            rows.iter().find(|r| r.benchmark == "average-int" && r.scheme == "combined").unwrap();
        assert!(avg_int.speedup > 0.95, "combined should not slow down: {}", avg_int.speedup);
    }

    #[test]
    fn fig15_requires_less_for_early_release() {
        let rows = fig15(&tiny(500, 2_000), 0.10, 64);
        let get = |label: &str| rows.iter().find(|r| r.scheme == label).unwrap().required_rf;
        assert!(get("combined") <= get("baseline"));
        assert!(rows.iter().all(|r| r.required_rf <= 280));
    }

    #[test]
    fn shared_matrix_reproduces_solo_rows() {
        // A figure assembled from a shared (over-provisioned) matrix
        // must produce exactly the rows of its solo wrapper: results
        // are keyed, not positional.
        let sim = tiny(500, 2_000);
        let session = Session::default().quiet();
        let mut matrix = RunMatrix::new();
        matrix.ensure_with(&session, &sim.core, &fig13_points(&sim));
        matrix.ensure_with(&session, &sim.core, &fig11_points(&sim));
        let shared = fig13_assemble(&sim, &matrix);
        let solo_rows = fig13(&sim);
        assert_eq!(shared.len(), solo_rows.len());
        for (a, b) in shared.iter().zip(&solo_rows) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.delay, b.delay);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "rows must be bit-identical");
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use atr_pipeline::CoreConfig;

    #[test]
    fn counter_width_three_bits_suffice() {
        let sim = SimConfig { core: CoreConfig::default(), warmup: 1_000, measure: 6_000 };
        let rows = ablation_counter_width(&sim);
        let three = rows.iter().find(|r| r.variant == "3-bit").unwrap();
        assert!(
            three.relative_ipc > 0.98,
            "§5.4: a 3-bit counter must track a wide one, got {}",
            three.relative_ipc
        );
    }
}
