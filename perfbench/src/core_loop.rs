//! The core-loop workloads: `deep_window` and `rename_pressure` drive
//! `OooCore` directly (no run matrix), so per-tick host time and the
//! pipeline's own model counts are visible from outside.
//!
//! The figure pass reuses [`run_round`] over its unique points for its
//! traced per-tick and model-count passes.

use crate::spans::Tracer;
use crate::{check_point, mix_seed, Digest, Round};
use atr_core::ReleaseScheme;
use atr_json::Json;
use atr_pipeline::{CoreConfig, CoreStats, OooCore};
use atr_telemetry::{CpiBucket, CpiStack, TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;
use atr_workload::{Oracle, Program, SpecProfile};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// Memory-bound profiles: large footprints, pointer chasing and
/// streaming, so the window fills behind DRAM misses.
pub const DEEP_PROFILES: [&str; 4] = ["505.mcf_r", "502.gcc_r", "519.lbm_r", "549.fotonik3d_r"];
/// `deep_window` register file size (the paper's Golden Cove size).
pub const DEEP_RF: usize = 280;
/// `deep_window` programs per profile and seed, alternating baseline
/// and combined. A seed changes a program's cycle count by 30–45%
/// (the caches start cold, so the footprint decides), so a round
/// averages many short programs. Across ten seeds the total cycles of
/// a round spread (IQR/median) by 0.11 with 4 longer programs per
/// profile, each under both schemes, and by 0.06 with 16 at this
/// budget; 12 keep a round near 8 s.
pub const DEEP_PROGRAMS: u64 = 12;
/// `deep_window` warmup and measured instructions per point. The
/// warmup fills the window; the caches stay mostly cold, which only
/// adds DRAM misses.
pub const DEEP_BUDGET: (u64, u64) = (2_500, 2_000);

/// ILP-rich profiles whose rename stalls on the free list at RF 64.
pub const RENAME_PROFILES: [&str; 4] =
    ["548.exchange2_r", "525.x264_r", "508.namd_r", "541.leela_r"];
/// `rename_pressure` register file size (the paper's most starved).
pub const RENAME_RF: usize = 64;
/// `rename_pressure` programs per profile and seed, each under one of
/// the four schemes in turn (see [`DEEP_PROGRAMS`]). With 8 longer
/// programs per profile, each under all four schemes, the total cycles
/// of a round spread by 0.06 across ten seeds; with 32 by 0.02.
pub const RENAME_PROGRAMS: u64 = 32;
/// `rename_pressure` warmup and measured instructions per point.
pub const RENAME_BUDGET: (u64, u64) = (2_000, 6_000);

/// Ticks between retired-count checks in a per-tick timed run.
const TICK_CHUNK: u64 = 64;

/// One directly driven simulation point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Progress/report label.
    pub label: String,
    /// The (seeded) profile whose program the point runs.
    pub profile: SpecProfile,
    /// The complete core configuration.
    pub core: CoreConfig,
    /// Warmup instructions (simulated, not in the window counts).
    pub warmup: u64,
    /// Measured-window instructions.
    pub measure: u64,
}

/// A paper profile with `seed` mixed into its generator seed.
///
/// # Panics
///
/// Panics if `name` is not a Table 2 profile (a bug in this file).
#[must_use]
pub fn seeded_profile(name: &str, seed: u64) -> SpecProfile {
    let mut profile = all_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown profile {name}"));
    profile.params.seed = mix_seed(profile.params.seed, seed);
    profile
}

/// Every profile × `programs` programs, program `k` under scheme
/// `schemes[k % schemes.len()]`, so every program is a sample of its
/// own and each scheme runs an equal share. Seed `s` runs programs
/// `programs·s … programs·s + programs − 1` of each profile; program 0
/// is the paper's.
fn grid(
    profiles: &[&str],
    programs: u64,
    schemes: &[ReleaseScheme],
    rf: usize,
    (warmup, measure): (u64, u64),
    seed: u64,
) -> Vec<Point> {
    let mut points = Vec::new();
    for name in profiles {
        for k in 0..programs {
            let profile = seeded_profile(name, seed.wrapping_mul(programs).wrapping_add(k));
            let scheme = schemes[k as usize % schemes.len()];
            points.push(Point {
                label: format!("{name}~{k} {}@{rf}", scheme.label()),
                profile,
                core: CoreConfig::default().with_rf_size(rf).with_scheme(scheme),
                warmup,
                measure,
            });
        }
    }
    points
}

/// The `deep_window` points: memory-bound profiles × programs ×
/// {baseline, combined} at RF 280. Seed 0's first program per profile
/// is the paper's.
#[must_use]
pub fn deep_window_points(seed: u64) -> Vec<Point> {
    let schemes = [ReleaseScheme::Baseline, ReleaseScheme::Combined { redefine_delay: 0 }];
    grid(&DEEP_PROFILES, DEEP_PROGRAMS, &schemes, DEEP_RF, DEEP_BUDGET, seed)
}

/// The `rename_pressure` points: ILP-rich profiles × programs × all
/// four schemes at RF 64.
#[must_use]
pub fn rename_pressure_points(seed: u64) -> Vec<Point> {
    grid(&RENAME_PROFILES, RENAME_PROGRAMS, &ReleaseScheme::ALL, RENAME_RF, RENAME_BUDGET, seed)
}

/// How a round drives the cores.
#[derive(Debug)]
pub enum Mode<'a> {
    /// `OooCore::run`, nothing observed: the measured configuration.
    Plain,
    /// Every tick timed individually (ns appended to the vector).
    TimedTicks(&'a mut Vec<u32>),
    /// Telemetry observer at `stats`, for the CPI stack and ROB
    /// occupancy. Observation only: results are bit-identical.
    Telemetry,
}

/// Model counts over one point's measured window (warmup excluded).
/// Deterministic: a speed-only change must leave every one unchanged.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Retired instructions.
    pub retired: u64,
    /// Cycles.
    pub cycles: u64,
    /// Mispredict flushes.
    pub flushes: u64,
    /// Direction plus target mispredictions.
    pub mispredicts: u64,
    /// Cycles rename stalled on a free list.
    pub freelist_stalls: u64,
    /// Σ allocated integer registers per cycle.
    pub int_occupancy: u128,
    /// Register releases of every kind (int + fp).
    pub releases: u64,
    /// Releases before commit: precommit and atomic (int + fp).
    pub early_releases: u64,
    /// L1D demand misses.
    pub l1d_misses: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
    /// CPI stack (telemetry mode only).
    pub cpi: Option<CpiStack>,
    /// Σ and count of per-cycle ROB occupancy samples (telemetry mode).
    pub rob_occupancy: (u128, u64),
}

impl Window {
    fn between(a: &CoreStats, b: &CoreStats) -> Window {
        let releases = |s: &CoreStats| s.int_prf.total_released() + s.fp_prf.total_released();
        let early = |s: &CoreStats| {
            s.int_prf.released_precommit
                + s.int_prf.released_atomic
                + s.fp_prf.released_precommit
                + s.fp_prf.released_atomic
        };
        Window {
            retired: b.retired - a.retired,
            cycles: b.cycles - a.cycles,
            flushes: b.flushes - a.flushes,
            mispredicts: (b.cond_mispredicts + b.target_mispredicts)
                - (a.cond_mispredicts + a.target_mispredicts),
            freelist_stalls: b.rename_freelist_stalls - a.rename_freelist_stalls,
            int_occupancy: b.int_prf_occupancy_sum - a.int_prf_occupancy_sum,
            releases: releases(b) - releases(a),
            early_releases: early(b) - early(a),
            l1d_misses: b.caches.1.misses - a.caches.1.misses,
            llc_misses: b.caches.3.misses - a.caches.3.misses,
            cpi: None,
            rob_occupancy: (0, 0),
        }
    }

    /// Accumulates another window.
    pub fn add(&mut self, o: &Window) {
        self.retired += o.retired;
        self.cycles += o.cycles;
        self.flushes += o.flushes;
        self.mispredicts += o.mispredicts;
        self.freelist_stalls += o.freelist_stalls;
        self.int_occupancy += o.int_occupancy;
        self.releases += o.releases;
        self.early_releases += o.early_releases;
        self.l1d_misses += o.l1d_misses;
        self.llc_misses += o.llc_misses;
        if let Some(c) = &o.cpi {
            match &mut self.cpi {
                Some(acc) => acc.merge(c),
                None => self.cpi = Some(c.clone()),
            }
        }
        self.rob_occupancy.0 += o.rob_occupancy.0;
        self.rob_occupancy.1 += o.rob_occupancy.1;
    }

    /// Per-kilo-instruction rate of `count`.
    #[must_use]
    pub fn pki(&self, count: u64) -> f64 {
        count as f64 * 1e3 / self.retired as f64
    }

    /// Share of the CPI stack's slots in `bucket` (0 without telemetry).
    #[must_use]
    pub fn cpi_share(&self, bucket: CpiBucket) -> f64 {
        self.cpi.as_ref().map_or(0.0, |c| c.fraction(bucket))
    }
}

/// One point's outcome.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point's label.
    pub label: String,
    /// The (seeded) profile the point ran.
    pub profile: SpecProfile,
    /// Cumulative statistics at the end (warmup included).
    pub stats: CoreStats,
    /// The measured window.
    pub window: Window,
}

/// Runs `core` until `n` more instructions retire, exactly as
/// `OooCore::run(n)` would. With `ticks`, every tick that provably
/// cannot reach the target (at most `width` instructions retire per
/// tick) is timed individually; the last `width` instructions run
/// through `OooCore::run` itself, so the stopping cycle (and every
/// result) is identical to an untimed run.
fn advance(core: &mut OooCore, n: u64, width: u64, ticks: Option<&mut Vec<u32>>) -> CoreStats {
    let Some(ticks) = ticks else {
        return core.run(n);
    };
    let target = core.snapshot_stats().retired + n;
    loop {
        let remaining = target.saturating_sub(core.snapshot_stats().retired);
        // Before the k-th of these ticks at most (k - 1) * width more
        // instructions have retired, which stays below `remaining`.
        let safe = (remaining.saturating_sub(1) / width).min(TICK_CHUNK);
        if safe == 0 {
            return core.run(remaining);
        }
        for _ in 0..safe {
            let t = Instant::now();
            core.tick();
            ticks.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
    }
}

fn observed(core: &OooCore) -> (Option<CpiStack>, (u128, u64)) {
    core.telemetry().map_or((None, (0, 0)), |t| {
        (Some(t.cpi.clone()), (t.rob_occupancy.sum, t.rob_occupancy.count))
    })
}

fn simulate(core: &mut OooCore, point: &Point, mut ticks: Option<&mut Vec<u32>>) -> PointRun {
    let width = point.core.retire_width as u64;
    let s0 = advance(core, point.warmup, width, ticks.as_deref_mut());
    let (cpi0, rob0) = observed(core);
    let s1 = advance(core, point.measure, width, ticks);
    let (cpi1, rob1) = observed(core);
    let mut window = Window::between(&s0, &s1);
    if let (Some(mut c1), Some(c0)) = (cpi1, cpi0) {
        for (slot, before) in c1.slots.iter_mut().zip(c0.slots) {
            *slot -= before;
        }
        c1.cycles -= c0.cycles;
        window.cpi = Some(c1);
        window.rob_occupancy = (rob1.0 - rob0.0, rob1.1 - rob0.1);
    }
    PointRun { label: point.label.clone(), profile: point.profile.clone(), stats: s1, window }
}

/// Builds each distinct program of `points` once, in name order.
fn build_programs(points: &[Point], tracer: &mut Tracer) -> BTreeMap<String, Arc<Program>> {
    let mut programs = BTreeMap::new();
    for p in points {
        programs.entry(program_key(&p.profile)).or_insert_with(|| {
            tracer.span("workload.build", p.profile.name, |_| p.profile.build())
        });
    }
    programs
}

fn program_key(profile: &SpecProfile) -> String {
    format!("{}#{}", profile.name, profile.params.seed)
}

/// Plans the points and generates each distinct program once.
fn plan_and_build(
    plan: &dyn Fn() -> Vec<Point>,
    tracer: &mut Tracer,
) -> (Vec<Point>, BTreeMap<String, Arc<Program>>) {
    let points = tracer.span("sim.plan", "", |_| plan());
    let programs = build_programs(&points, tracer);
    (points, programs)
}

/// Constructs a point's core (with the telemetry observer at `stats`
/// when `telemetry`).
fn construct(
    point: &Point,
    programs: &BTreeMap<String, Arc<Program>>,
    tracer: &mut Tracer,
    telemetry: bool,
) -> OooCore {
    let mut cfg = point.core.clone();
    if telemetry {
        cfg.telemetry = TelemetryConfig { level: TelemetryLevel::Stats, ..cfg.telemetry };
    }
    let program = programs[&program_key(&point.profile)].clone();
    tracer.span("pipeline.construct", &point.label, |_| OooCore::new(cfg, Oracle::new(program)))
}

/// Host seconds of set-up alone: plan, program generation, and the
/// construction (and drop) of every point's core.
#[must_use]
pub fn setup_only(plan: &dyn Fn() -> Vec<Point>) -> f64 {
    let t0 = Instant::now();
    let mut tracer = Tracer::new(false);
    let (points, programs) = plan_and_build(plan, &mut tracer);
    for p in &points {
        drop(std::hint::black_box(construct(p, &programs, &mut tracer, false)));
    }
    t0.elapsed().as_secs_f64()
}

/// One round over the points `plan` yields: set up (plan, program
/// generation, core construction), simulate every point, check and
/// digest the outcomes, and write them as JSON rows (named `rows`)
/// into the results directory. Each core is constructed, simulated and
/// dropped in turn, as the run-matrix executor does, so set-up time is
/// the plan, the programs and the sum of the constructions.
pub fn run_round(
    plan: &dyn Fn() -> Vec<Point>,
    rows: &str,
    tracer: &mut Tracer,
    mut mode: Mode<'_>,
) -> (Round, Vec<PointRun>) {
    let mut round = Round::default();
    let t0 = Instant::now();
    let (points, programs) = plan_and_build(plan, tracer);
    let telemetry = matches!(mode, Mode::Telemetry);
    let mut runs: Vec<Result<PointRun, String>> = Vec::with_capacity(points.len());
    let mut setup = t0.elapsed();
    let mut sim = std::time::Duration::ZERO;
    for point in &points {
        let t = Instant::now();
        let mut core = construct(point, &programs, tracer, telemetry);
        setup += t.elapsed();
        let ticks = match &mut mode {
            Mode::TimedTicks(v) => Some(&mut **v),
            _ => None,
        };
        let t = Instant::now();
        let run = tracer.span("pipeline.simulate", &point.label, |_| {
            std::panic::catch_unwind(AssertUnwindSafe(|| simulate(&mut core, point, ticks)))
        });
        sim += t.elapsed();
        runs.push(run.map_err(|e| panic_message(&point.label, e.as_ref())));
    }
    round.setup_s = setup.as_secs_f64();
    round.sim_s = sim.as_secs_f64();

    let ok = tracer.span("sim.assemble", rows, |_| {
        let mut digest = Digest::default();
        let mut ok = Vec::new();
        for (point, run) in points.iter().zip(runs) {
            round.points += 1;
            let checked = run.and_then(|r| {
                let ipc = r.window.retired as f64 / r.window.cycles.max(1) as f64;
                let budget = point.warmup + point.measure;
                check_point(&r.label, &r.stats, ipc, budget, point.core.retire_width)?;
                Ok(r)
            });
            match checked {
                Ok(r) => {
                    digest.point(&r.label, &r.stats);
                    round.retired += r.stats.retired;
                    round.cycles += r.stats.cycles;
                    ok.push(r);
                }
                Err(problem) => {
                    digest.bytes(problem.as_bytes());
                    round.fail(problem);
                }
            }
        }
        round.digest = digest.finish();
        ok
    });
    tracer.span("sim.write", rows, |_| {
        if let Err(e) = atr_sim::report::save_json(rows, &rows_json(&ok)) {
            round.fail(format!("writing {rows}: {e}"));
        }
    });
    round.wall_s = t0.elapsed().as_secs_f64();
    (round, ok)
}

fn rows_json(runs: &[PointRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("point".to_owned(), Json::Str(r.label.clone())),
                    ("cycles".to_owned(), Json::Int(r.stats.cycles as i64)),
                    ("retired".to_owned(), Json::Int(r.stats.retired as i64)),
                    ("flushes".to_owned(), Json::Int(r.stats.flushes as i64)),
                    (
                        "window_ipc".to_owned(),
                        Json::Num(r.window.retired as f64 / r.window.cycles.max(1) as f64),
                    ),
                ])
            })
            .collect(),
    )
}

fn panic_message(label: &str, payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("{label}: panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_insts(profile: &SpecProfile) -> Vec<(u64, Option<u64>)> {
        let mut oracle = Oracle::new(profile.build());
        (0..256)
            .map(|i| {
                let d = oracle.get(i);
                (d.sinst.pc, d.outcome.mem_addr)
            })
            .collect()
    }

    #[test]
    fn held_out_seed_changes_programs_not_point_count() {
        for points in [deep_window_points, rename_pressure_points] {
            let paper = points(0);
            let held_out = points(7_777);
            assert_eq!(paper.len(), held_out.len());
            for (a, b) in paper.iter().zip(&held_out) {
                assert_eq!(a.label, b.label);
                assert_ne!(first_insts(&a.profile), first_insts(&b.profile), "{}", a.label);
            }
        }
        // Seed 0 is exactly the paper's profile.
        let paper = all_profiles().into_iter().find(|p| p.name == DEEP_PROFILES[0]).unwrap();
        assert_eq!(deep_window_points(0)[0].profile.params.seed, paper.params.seed);
    }

    #[test]
    fn timed_ticks_and_telemetry_do_not_change_results() {
        let plan = || {
            let mut points = rename_pressure_points(3);
            points.truncate(2);
            for p in &mut points {
                p.warmup = 500;
                p.measure = 1_500;
            }
            points
        };
        // The only test in this binary that writes result rows.
        let dir = std::env::temp_dir().join(format!("atr_perfbench_core_{}", std::process::id()));
        std::env::set_var("ATR_RESULTS_DIR", &dir);
        let mut tracer = Tracer::new(true);
        let (plain, _) = run_round(&plan, "t", &mut Tracer::new(false), Mode::Plain);
        let mut ticks = Vec::new();
        let (timed, _) = run_round(&plan, "t", &mut tracer, Mode::TimedTicks(&mut ticks));
        let (observed, runs) = run_round(&plan, "t", &mut Tracer::new(false), Mode::Telemetry);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain.digest, timed.digest);
        assert_eq!(plain.digest, observed.digest);
        assert!(!ticks.is_empty());
        assert_eq!(tracer.durations("pipeline.simulate").len(), 2);
        assert!(runs.iter().all(|r| r.window.cpi.is_some()));
    }
}
