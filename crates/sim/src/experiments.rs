//! The paper's evaluation, one record per artifact: [`FIGURES`].
//!
//! Every figure is a pure `points → assemble` pair: `figNN_points`
//! declares the exact [`SimPoint`]s the figure needs and
//! `figNN_assemble` folds cached results into rows. A [`Figure`] entry
//! adds the table layout and the headlines beside the paper's values,
//! and the tables and the §4.4 analysis join the registry as entries
//! without points. [`run_figures`] ensures the union of the selected
//! entries' points on one shared [`RunMatrix`] — fig01, fig10, fig11
//! and fig15 request overlapping `Baseline` points that then simulate
//! exactly once — and writes each entry's files.
//!
//! Budgets come from the [`SimConfig`] argument; nothing here reads the
//! environment.

use crate::config::{table1, SimConfig};
use crate::matrix::{CoreTweak, RunMatrix, SimPoint};
use crate::report::{coverage_marker, gain, pct, render_table};
use crate::runner::geomean;
use crate::session::Session;
use atr_analysis::{BulkReleaseLogic, CorePowerModel};
use atr_core::ReleaseScheme;
use atr_json::{json_record, Json, ToJson};
use atr_workload::spec::{all_profiles, spec2017_fp, spec2017_int, SpecProfile, WorkloadClass};
use std::path::Path;
use std::time::Instant;

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

/// Assembles Fig 15 rows from an ensured matrix: the smallest register
/// file for which each scheme's mean IPC stays within `tolerance`
/// (paper: 3%) of the 280-register baseline.
///
/// Each scheme is measured once on the fixed [`RF_SWEEP`] grid, and the
/// crossing point is interpolated linearly between grid neighbours
/// (rounded outward to `step` entries), which bounds the cost at
/// `4 schemes × 8 sizes × 23 profiles` regardless of where the
/// crossings fall.
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

// -------------------------------------------------------- Ablations

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which ablation ("move-elim" or "counter-width").
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

// ---------------------------------------------------------- Registry

/// A measured quantity beside the paper's value for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// What is measured.
    pub label: String,
    /// This pass's value, formatted.
    pub measured: String,
    /// The paper's value, as the paper states it.
    pub paper: &'static str,
}

impl std::fmt::Display for Headline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} (paper {})", self.label, self.measured, self.paper)
    }
}

/// Headlines labelled `"{prefix}{what}"`, pairing each measured value
/// with the paper's.
fn paired<const N: usize>(
    prefix: &str,
    measured: [(&str, String); N],
    paper: [&'static str; N],
) -> Vec<Headline> {
    measured
        .into_iter()
        .zip(paper)
        .map(|((what, measured), paper)| Headline {
            label: format!("{prefix}{what}"),
            measured,
            paper,
        })
        .collect()
}

/// What a [`Figure`] assembles from an ensured matrix.
#[derive(Debug, Clone)]
pub struct Output {
    /// The rows, written as `<name>.json`; `None` for the entries
    /// without points, which write only their table.
    pub json: Option<Json>,
    /// The table cells, one row each, under [`Figure::headers`].
    pub cells: Vec<Vec<String>>,
    /// The headlines beside the paper's values.
    pub headlines: Vec<Headline>,
}

fn rows_output<R: ToJson>(
    rows: &[R],
    headlines: Vec<Headline>,
    cells: impl Fn(&R) -> Vec<String>,
) -> Output {
    Output { json: Some(rows.to_json()), cells: rows.iter().map(cells).collect(), headlines }
}

/// One evaluation artifact of the paper — a figure, a table, the §4.4
/// analysis or the ablations — in one record.
#[derive(Debug)]
pub struct Figure {
    /// File stem of `<name>.json` / `<name>.txt`, and the name
    /// `all_experiments --only` selects it by.
    pub name: &'static str,
    /// The table's title.
    pub title: &'static str,
    /// The table's column headers.
    pub headers: &'static [&'static str],
    /// The simulation points the entry needs (none for the tables).
    pub points: fn(&SimConfig) -> Vec<SimPoint>,
    /// Turns a matrix holding the entry's points into its output.
    pub assemble: fn(&SimConfig, &RunMatrix) -> Output,
}

impl Figure {
    /// The titled table followed by the headlines: `<name>.txt`.
    #[must_use]
    pub fn render(&self, out: &Output) -> String {
        let table = render_table(self.headers, &out.cells);
        let headlines: String = out.headlines.iter().map(|h| format!("{h}\n")).collect();
        let gap = if headlines.is_empty() { "" } else { "\n" };
        format!("{}\n\n{table}{gap}{headlines}", self.title)
    }
}

/// Every evaluation artifact, in paper order.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        title: "Table 1: Processor Configuration (simulated)",
        headers: &["Parameter", "Value"],
        points: no_points,
        assemble: table1_output,
    },
    Figure {
        name: "table2",
        title: "Table 2: SPEC CPU 2017 Benchmarks (synthetic stand-in profiles)",
        headers: &["benchmark", "suite", "loads", "branch entropy", "footprint", "burst frac"],
        points: no_points,
        assemble: table2_output,
    },
    Figure {
        name: "fig01",
        title: "Fig 1: Normalized baseline IPC vs RF size",
        headers: &["benchmark", "rf", "ipc/ideal"],
        points: fig01_points,
        assemble: fig01_output,
    },
    Figure {
        name: "fig04",
        title: "Fig 4: Register lifecycle distribution",
        headers: &["benchmark", "suite", "in-use", "unused", "verified-unused"],
        points: fig04_points,
        assemble: fig04_output,
    },
    Figure {
        name: "fig06",
        title: "Fig 6: Atomic register ratio",
        headers: &["benchmark", "suite", "non-branch", "non-except", "atomic"],
        points: fig06_points,
        assemble: fig06_output,
    },
    Figure {
        name: "hw_overhead",
        title: "§4.4 Hardware overheads",
        headers: &["quantity", "value"],
        points: no_points,
        assemble: hw_overhead_output,
    },
    Figure {
        name: "fig10",
        title: "Fig 10: Scheme speedups over baseline @64/@224 registers",
        headers: &["benchmark", "suite", "rf", "scheme", "speedup"],
        points: |sim| fig10_points(sim, &FIG10_RF_SIZES),
        assemble: fig10_output,
    },
    Figure {
        name: "fig11",
        title: "Fig 11: Atomic speedup vs RF size",
        headers: &["suite", "rf", "speedup"],
        points: fig11_points,
        assemble: fig11_output,
    },
    Figure {
        name: "fig12",
        title: "Fig 12: Consumers per atomic region",
        headers: &["benchmark", "suite", "mean", "0", "1", "2", "3", "4", "5", "6", ">=7"],
        points: fig12_points,
        assemble: fig12_output,
    },
    Figure {
        name: "fig13",
        title: "Fig 13: Redefine-pipeline delay sensitivity @64 registers",
        headers: &["suite", "delay", "speedup vs baseline"],
        points: fig13_points,
        assemble: fig13_output,
    },
    Figure {
        name: "fig14",
        title: "Fig 14: Mean cycles from rename within atomic regions",
        headers: &["benchmark", "suite", "to redefine", "to last consume", "to redefiner commit"],
        points: fig14_points,
        assemble: fig14_output,
    },
    Figure {
        name: "fig15",
        title: "Fig 15: RF size for <=3% slowdown vs baseline@280",
        headers: &["scheme", "required rf", "reduction", "power saving", "area saving"],
        points: fig15_points,
        assemble: fig15_output,
    },
    Figure {
        name: "ablations",
        title: "Ablations (ATR @64 registers, int suite)",
        headers: &["study", "variant", "relative IPC"],
        points: |sim| {
            let mut points = ablation_move_elimination_points(sim);
            points.extend(ablation_counter_width_points(sim));
            points
        },
        assemble: ablations_output,
    },
];

/// The entries named in the comma-separated `list`, in registry order.
///
/// # Errors
///
/// An unknown name or an empty list, with every valid name listed.
pub fn select(list: &str) -> Result<Vec<&'static Figure>, String> {
    let names: Vec<&str> = list.split(',').map(str::trim).filter(|n| !n.is_empty()).collect();
    let unknown = names.iter().find(|n| FIGURES.iter().all(|f| f.name != **n));
    if names.is_empty() || unknown.is_some() {
        let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let what =
            unknown.map_or("no figure named".to_owned(), |n| format!("unknown figure `{n}`"));
        return Err(format!("{what}; valid names: {}", valid.join(", ")));
    }
    Ok(FIGURES.iter().filter(|f| names.contains(&f.name)).collect())
}

/// Every point of a full experiment pass: the registry's points in
/// order, duplicates included, so [`RunMatrix::summary`]'s dedup factor
/// measures exactly how much cross-figure overlap the engine removes.
#[must_use]
pub fn full_pass_points(sim: &SimConfig) -> Vec<SimPoint> {
    FIGURES.iter().flat_map(|f| (f.points)(sim)).collect()
}

/// What one [`run_figures`] call produced.
#[derive(Debug)]
pub struct FiguresRun {
    /// The matrix holding every selected entry's points.
    pub matrix: RunMatrix,
    /// Entries whose JSON or table could not be written, with the error.
    pub unwritten: Vec<(&'static str, String)>,
}

impl FiguresRun {
    /// The pass's [`coverage_marker`]: `None` when every point
    /// simulated and every file was written.
    #[must_use]
    pub fn coverage_marker(&self) -> Option<String> {
        let unwritten: Vec<&str> = self.unwritten.iter().map(|(name, _)| *name).collect();
        let m = &self.matrix;
        coverage_marker(m.failed(), m.executed(), &unwritten)
    }
}

/// Ensures the union of `figures`' points once on a shared matrix, then
/// assembles each entry, logs its headlines to stderr and writes
/// `<dir>/<name>.json` (entries with points) and `<dir>/<name>.txt`
/// (every entry). An entry that cannot be written is named on stderr
/// and in [`FiguresRun::unwritten`]; the others are still written. A
/// partial pass ends by logging its failed points and coverage marker.
pub fn run_figures(
    session: &Session,
    sim: &SimConfig,
    figures: &[&Figure],
    dir: &Path,
) -> FiguresRun {
    let t0 = Instant::now();
    let points: Vec<SimPoint> = figures.iter().flat_map(|f| (f.points)(sim)).collect();
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(session, &sim.core, &points);
    atr_telemetry::info!("[{:>5.0?}] matrix: {}", t0.elapsed(), matrix.summary());

    let mut unwritten = Vec::new();
    for figure in figures {
        let out = (figure.assemble)(sim, &matrix);
        for h in &out.headlines {
            atr_telemetry::info!("[{:>5.0?}] {} {h}", t0.elapsed(), figure.name);
        }
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            if let Some(json) = &out.json {
                std::fs::write(dir.join(format!("{}.json", figure.name)), json.pretty())?;
            }
            std::fs::write(dir.join(format!("{}.txt", figure.name)), figure.render(&out))
        };
        if let Err(e) = write() {
            atr_telemetry::warn!("could not write {} to {}: {e}", figure.name, dir.display());
            unwritten.push((figure.name, e.to_string()));
        }
    }
    let run = FiguresRun { matrix, unwritten };
    if let Some(marker) = run.coverage_marker() {
        for (_, failure) in run.matrix.failures() {
            atr_telemetry::warn!("failed point {failure}");
        }
        atr_telemetry::warn!("{marker}");
    }
    run
}

fn no_points(_: &SimConfig) -> Vec<SimPoint> {
    Vec::new()
}

fn table1_output(sim: &SimConfig, _: &RunMatrix) -> Output {
    let cells = table1(&sim.core).into_iter().map(|(k, v)| vec![k, v]).collect();
    Output { json: None, cells, headlines: Vec::new() }
}

fn table2_output(_: &SimConfig, _: &RunMatrix) -> Output {
    let share = |x: f64| format!("{:.0}%", x * 100.0);
    let cells = all_profiles()
        .iter()
        .map(|p| {
            vec![
                p.name.to_owned(),
                p.class.to_string(),
                share(p.params.load_frac),
                share(p.params.branch_entropy),
                format!("{} MiB", p.params.mem_footprint >> 20),
                share(p.params.burst_frac),
            ]
        })
        .collect();
    Output { json: None, cells, headlines: Vec::new() }
}

fn fig01_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig01_assemble(sim, matrix);
    let within_5pct = RF_SWEEP.iter().find(|&&rf| fig01_average(&rows, rf) >= 0.95);
    let headlines = paired(
        "",
        [
            ("average @64", pct(fig01_average(&rows, 64))),
            ("smallest RF within 5% of ideal", within_5pct.map_or("none".into(), usize::to_string)),
        ],
        ["37.7%", "~280"],
    );
    rows_output(&rows, headlines, |r| {
        vec![r.benchmark.clone(), r.rf_size.to_string(), pct(r.normalized_ipc)]
    })
}

fn fig04_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig04_assemble(sim, matrix);
    let paper = [["53.52%", "41.03%", "5.05%"], ["78.27%", "18.91%", "2.81%"]];
    let mut headlines = Vec::new();
    let averages = rows.iter().filter(|r| r.benchmark.starts_with("average-"));
    for (r, paper) in averages.zip(paper) {
        let measured =
            [("in-use", r.in_use), ("unused", r.unused), ("verified-unused", r.verified_unused)];
        headlines.extend(paired(
            &format!("{} ", r.benchmark),
            measured.map(|(w, v)| (w, pct(v))),
            paper,
        ));
    }
    rows_output(&rows, headlines, |r| {
        vec![
            r.benchmark.clone(),
            r.class.clone(),
            pct(r.in_use),
            pct(r.unused),
            pct(r.verified_unused),
        ]
    })
}

fn fig06_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig06_assemble(sim, matrix);
    let mut headlines = Vec::new();
    let averages = rows.iter().filter(|r| r.benchmark.starts_with("average-"));
    for (r, paper) in averages.zip(["17.04%", "13.14%"]) {
        headlines.extend(paired(&r.benchmark, [(" atomic", pct(r.atomic))], [paper]));
    }
    rows_output(&rows, headlines, |r| {
        vec![
            r.benchmark.clone(),
            r.class.clone(),
            pct(r.non_branch),
            pct(r.non_except),
            pct(r.atomic),
        ]
    })
}

fn hw_overhead_output(_: &SimConfig, _: &RunMatrix) -> Output {
    let logic = BulkReleaseLogic::default().report();
    let ghz = |stages: u32| format!("{:.1} GHz", logic.max_frequency_ghz(stages));
    let counter = |class: atr_isa::RegClass| {
        let bits = class.bit_width();
        let share = 3.0 / f64::from(bits) * 100.0;
        (format!("{class} consumer counter"), format!("3 bits / {bits} -> {share:.1}%"))
    };
    let [(int, int_share), (fp, fp_share)] = atr_isa::RegClass::ALL.map(counter);
    // (quantity, value, the paper's value where it gives one)
    let quantities = [
        (int.as_str(), int_share, Some("4.6%")),
        (fp.as_str(), fp_share, Some("1.1%")),
        ("mark signals (16 SRT + width-1)", logic.mark_signals.to_string(), None),
        ("gates (2-input equivalent)", logic.gates.to_string(), Some("2,960")),
        ("logic levels", logic.levels.to_string(), Some("42")),
        ("delay (ps, FO4=4.5ps, 100% margin)", format!("{:.0}", logic.delay_ps), None),
        ("combinational fmax", ghz(1), Some("2.6 GHz")),
        ("3-stage pipelined fmax", ghz(3), Some(">4 GHz")),
    ];
    let headlines = quantities
        .iter()
        .filter_map(|(label, measured, paper)| {
            Some(Headline {
                label: (*label).to_owned(),
                measured: measured.clone(),
                paper: (*paper)?,
            })
        })
        .collect();
    let cells =
        quantities.into_iter().map(|(label, value, _)| vec![label.to_owned(), value]).collect();
    Output { json: None, cells, headlines }
}

/// Fig 10's register file sizes.
const FIG10_RF_SIZES: [usize; 2] = [64, 224];

/// The paper's atomic-scheme speedup at 64 registers (int, fp), which
/// both Fig 10 and Fig 11 report.
const PAPER_ATOMIC_AT_64: [&str; 2] = ["+5.70%", "+4.69%"];

fn fig10_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig10_assemble(sim, matrix, &FIG10_RF_SIZES);
    let paper = [
        ("int", ["+13.91%", PAPER_ATOMIC_AT_64[0], "+3.23%", "+1.48%", "+0.37%"]),
        ("fp", ["+14.43%", PAPER_ATOMIC_AT_64[1], "+3.27%", "+1.11%", "+0.46%"]),
    ];
    let mut headlines = Vec::new();
    for (class, paper) in paper {
        let average = format!("average-{class}");
        let speedup = |rf: usize, scheme: &str| {
            let r = rows
                .iter()
                .find(|r| r.benchmark == average && r.rf_size == rf && r.scheme == scheme);
            r.map_or(f64::NAN, |r| r.speedup)
        };
        let measured = [
            ("@64 nonspec-ER", speedup(64, "nonspec-ER")),
            ("@64 atomic", speedup(64, "atomic")),
            ("@64 combined over nonspec-ER", speedup(64, "combined") / speedup(64, "nonspec-ER")),
            ("@224 atomic", speedup(224, "atomic")),
            ("@224 atomic over nonspec-ER", speedup(224, "atomic") / speedup(224, "nonspec-ER")),
        ];
        headlines.extend(paired(
            &format!("{average} "),
            measured.map(|(w, s)| (w, gain(s))),
            paper,
        ));
    }
    rows_output(&rows, headlines, |r| {
        vec![
            r.benchmark.clone(),
            r.class.clone(),
            r.rf_size.to_string(),
            r.scheme.clone(),
            gain(r.speedup),
        ]
    })
}

fn fig11_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig11_assemble(sim, matrix);
    let paper =
        [("int", [PAPER_ATOMIC_AT_64[0], "+0.93%"]), ("fp", [PAPER_ATOMIC_AT_64[1], "+0.53%"])];
    let mut headlines = Vec::new();
    for (class, paper) in paper {
        let at = |rf: usize| {
            let r = rows.iter().find(|r| r.class == class && r.rf_size == rf);
            gain(r.map_or(f64::NAN, |r| r.speedup))
        };
        headlines.extend(paired(&format!("{class} "), [("@64", at(64)), ("@280", at(280))], paper));
    }
    rows_output(&rows, headlines, |r| vec![r.class.clone(), r.rf_size.to_string(), gain(r.speedup)])
}

fn fig12_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig12_assemble(sim, matrix);
    let mean = rows.iter().map(|r| r.mean).sum::<f64>() / rows.len() as f64;
    let namd = rows.iter().find(|r| r.benchmark.contains("namd")).map_or(0.0, |r| r.mean);
    let measured = [("all", format!("{mean:.2}")), ("namd", format!("{namd:.2}"))];
    let headlines =
        paired("mean consumers per atomic region, ", measured, ["1-2 typical", "up to 5"]);
    rows_output(&rows, headlines, |r| {
        let mut cells = vec![r.benchmark.clone(), r.class.clone(), format!("{:.2}", r.mean)];
        cells.extend(r.buckets.iter().map(|b| pct(*b)));
        cells
    })
}

fn fig13_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig13_assemble(sim, matrix);
    let mut headlines = Vec::new();
    for class in ["int", "fp"] {
        let at = |delay: u32| {
            rows.iter()
                .find(|r| r.class == class && r.delay == delay)
                .map_or(f64::NAN, |r| r.speedup)
        };
        headlines.extend(paired(
            class,
            [(" delay=2 vs delay=0", gain(at(2) / at(0)))],
            ["negligible"],
        ));
    }
    rows_output(&rows, headlines, |r| vec![r.class.clone(), r.delay.to_string(), gain(r.speedup)])
}

fn fig14_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let rows = fig14_assemble(sim, matrix);
    let mean = |f: fn(&Fig14Row) -> f64| {
        format!("{:.1}", rows.iter().map(f).sum::<f64>() / rows.len() as f64)
    };
    let headlines = paired(
        "mean cycles rename -> ",
        [
            ("redefine", mean(|r| r.rename_to_redefine)),
            ("last consume", mean(|r| r.rename_to_consume)),
            ("redefiner commit", mean(|r| r.rename_to_commit)),
        ],
        ["a few cycles", "significantly later", "much later still"],
    );
    let cycles = |x: f64| format!("{x:.1}");
    rows_output(&rows, headlines, |r| {
        vec![
            r.benchmark.clone(),
            r.class.clone(),
            cycles(r.rename_to_redefine),
            cycles(r.rename_to_consume),
            cycles(r.rename_to_commit),
        ]
    })
}

fn fig15_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    // Within 3% of the 280-register baseline, rounded up to 8 entries.
    const TOLERANCE: f64 = 0.03;
    const STEP: usize = 8;
    let rows = fig15_assemble(sim, matrix, TOLERANCE, STEP);
    let model = CorePowerModel::default();
    let baseline = model.estimate(280, 280);
    let cells = |r: &Fig15Row| {
        let est = model.estimate(r.required_rf, r.required_rf);
        let (power, area) = (est.power_saving_vs(&baseline), est.area_saving_vs(&baseline));
        vec![r.scheme.clone(), r.required_rf.to_string(), pct(r.reduction), pct(power), pct(area)]
    };
    let headlines = rows
        .iter()
        .filter_map(|r| {
            let paper = match r.scheme.as_str() {
                "nonspec-ER" => "212 regs (24.3% reduction)",
                "atomic" => "204 regs (27.1% reduction), ~5.5% power, ~2.7-2.9% area",
                "combined" => "196 regs (30% reduction)",
                _ => return None,
            };
            let c = cells(r);
            let measured =
                format!("{} regs ({} reduction), {} power, {} area", c[1], c[2], c[3], c[4]);
            Some(Headline { label: r.scheme.clone(), measured, paper })
        })
        .collect();
    rows_output(&rows, headlines, cells)
}

fn ablations_output(sim: &SimConfig, matrix: &RunMatrix) -> Output {
    let mut rows = ablation_move_elimination_assemble(sim, matrix);
    rows.extend(ablation_counter_width_assemble(sim, matrix));
    let relative = |r: &AblationRow| format!("{:+.2}%", (r.relative_ipc - 1.0) * 100.0);
    let at = |study: &str, variant: &str| {
        rows.iter()
            .find(|r| r.study == study && r.variant == variant)
            .map_or_else(String::new, relative)
    };
    let headlines = paired(
        "",
        [
            ("move-elim on", at("move-elim", "on")),
            ("counter-width 3-bit", at("counter-width", "3-bit")),
        ],
        ["composes with ATR, §6", "no loss, §5.4"],
    );
    rows_output(&rows, headlines, |r| vec![r.study.clone(), r.variant.clone(), relative(r)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_pipeline::CoreConfig;

    fn tiny(warmup: u64, measure: u64) -> SimConfig {
        SimConfig { core: CoreConfig::default(), warmup, measure }
    }

    /// A private matrix holding `points`.
    fn ensured(sim: &SimConfig, points: &[SimPoint]) -> RunMatrix {
        let mut matrix = RunMatrix::new();
        matrix.ensure_with(&Session::default().quiet(), &sim.core, points);
        matrix
    }

    #[test]
    fn fig10_rows_cover_schemes_and_sizes() {
        // A tiny budget keeps CI fast; one RF size.
        let sim = tiny(1_000, 4_000);
        let rows = fig10_assemble(&sim, &ensured(&sim, &fig10_points(&sim, &[64])), &[64]);
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
        let sim = tiny(500, 2_000);
        let rows = fig15_assemble(&sim, &ensured(&sim, &fig15_points(&sim)), 0.10, 64);
        let get = |label: &str| rows.iter().find(|r| r.scheme == label).unwrap().required_rf;
        assert!(get("combined") <= get("baseline"));
        assert!(rows.iter().all(|r| r.required_rf <= 280));
    }

    #[test]
    fn shared_matrix_reproduces_private_matrix_output() {
        // An entry assembled from a shared (over-provisioned) matrix
        // must produce exactly the output of a matrix holding only its
        // own points: results are keyed, not positional.
        let sim = tiny(500, 2_000);
        let [fig11, fig13] = [select("fig11").unwrap()[0], select("fig13").unwrap()[0]];
        let mut points = (fig13.points)(&sim);
        points.extend((fig11.points)(&sim));
        let shared = (fig13.assemble)(&sim, &ensured(&sim, &points));
        let private = (fig13.assemble)(&sim, &ensured(&sim, &(fig13.points)(&sim)));
        assert_eq!(fig13.render(&shared), fig13.render(&private));
        let pretty = |out: &Output| out.json.as_ref().expect("fig13 has rows").pretty();
        assert_eq!(pretty(&shared), pretty(&private), "rows must be bit-identical");
    }

    #[test]
    fn full_pass_is_the_registry_walk_in_figure_order() {
        // perfbench's sim_digest hashes this plan in order.
        let sim = tiny(1, 2);
        let mut expected = fig01_points(&sim);
        expected.extend(fig04_points(&sim));
        expected.extend(fig06_points(&sim));
        expected.extend(fig10_points(&sim, &[64, 224]));
        expected.extend(fig11_points(&sim));
        expected.extend(fig12_points(&sim));
        expected.extend(fig13_points(&sim));
        expected.extend(fig14_points(&sim));
        expected.extend(fig15_points(&sim));
        expected.extend(ablation_move_elimination_points(&sim));
        expected.extend(ablation_counter_width_points(&sim));
        assert_eq!(full_pass_points(&sim), expected);
        assert_eq!(expected.len(), 1701);
    }

    #[test]
    fn full_pass_labels_name_one_point_each() {
        // Failure lines and progress output name points by label, so two
        // points may share one only if they are the same point.
        let sim = tiny(1, 2);
        let mut by_label: std::collections::HashMap<String, SimPoint> =
            std::collections::HashMap::new();
        for p in full_pass_points(&sim) {
            if let Some(seen) = by_label.insert(p.label(), p.clone()) {
                assert_eq!(seen, p, "two points share the label `{}`", p.label());
            }
        }
        let fig13: Vec<String> = (select("fig13").unwrap()[0].points)(&sim)
            .iter()
            .map(SimPoint::label)
            .filter(|l| l.starts_with("505.mcf_r atomic@64"))
            .collect();
        assert_eq!(
            fig13,
            ["505.mcf_r atomic@64", "505.mcf_r atomic@64 delay=1", "505.mcf_r atomic@64 delay=2"]
        );
    }

    #[test]
    fn select_takes_registry_order_and_rejects_unknown_names() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(select(&names.join(",")).unwrap().len(), 13, "every name selects once");
        let picked: Vec<&str> = select(" fig11,fig10 ").unwrap().iter().map(|f| f.name).collect();
        assert_eq!(picked, ["fig10", "fig11"]);
        let err = select("fig10,nope").unwrap_err();
        assert!(err.contains("`nope`") && names.iter().all(|n| err.contains(n)), "{err}");
        assert!(select(",").is_err());
    }

    #[test]
    fn counter_width_three_bits_suffice() {
        let sim = tiny(1_000, 6_000);
        let matrix = ensured(&sim, &ablation_counter_width_points(&sim));
        let three = ablation_counter_width_assemble(&sim, &matrix)
            .into_iter()
            .find(|r| r.variant == "3-bit")
            .unwrap();
        assert!(
            three.relative_ipc > 0.98,
            "§5.4: a 3-bit counter must track a wide one, got {}",
            three.relative_ipc
        );
    }
}
