//! The `figures_tiny` workload: the paper's full figure matrix through
//! the `atr-sim` run-matrix engine, every figure assembled, every JSON
//! written — what `all_experiments` does, on one worker, at a budget
//! small enough to repeat a few times per run.
//!
//! At this budget the modelled caches and predictors start nearly
//! empty: each point is mostly cold-start, so the figure headlines are
//! indicative only.

use crate::core_loop::{seeded_profile, Point};
use crate::spans::Tracer;
use crate::{check_point, Digest, Round};
use atr_json::{Json, ToJson};
use atr_pipeline::CoreConfig;
use atr_sim::experiments as exp;
use atr_sim::{RunMatrix, Session, SimConfig, SimPoint};
use std::collections::HashSet;
use std::time::Instant;

/// Warmup and measured instructions per point.
pub const BUDGET: (u64, u64) = (80, 320);

/// The paper values `all_experiments` quotes next to its headlines.
pub const PAPER_FIG01_AVG_AT_64: f64 = 0.377;
/// Fig 6 atomic-region share, SPECint average.
pub const PAPER_FIG06_INT: f64 = 0.1704;
/// Fig 6 atomic-region share, SPECfp average.
pub const PAPER_FIG06_FP: f64 = 0.1314;

/// The Table 1 core at the benchmark budget, built without reading the
/// environment (`SimConfig::golden_cove` reads `ATR_SIM_*`).
#[must_use]
pub fn sim_config((warmup, measure): (u64, u64)) -> SimConfig {
    SimConfig { core: CoreConfig::default(), warmup, measure }
}

/// An environment-free session: `threads` workers, quiet, no journal,
/// no trace cache, no audit, telemetry off.
#[must_use]
pub fn session(threads: usize) -> Session {
    Session::default().with_threads(threads).quiet().with_audit(false)
}

/// The points the matrix actually simulates for `plan`, in first-seen
/// order: tweaks canonicalized, and a non-events point folded onto its
/// events twin when the plan has one (the `RunMatrix` dedup rules).
#[must_use]
pub fn unique_points(core: &CoreConfig, plan: &[SimPoint]) -> Vec<SimPoint> {
    let canon: Vec<SimPoint> = plan.iter().map(|p| p.canonical(core)).collect();
    let events: HashSet<SimPoint> = canon.iter().filter(|p| p.collect_events).cloned().collect();
    let mut seen = HashSet::new();
    let mut unique = Vec::new();
    for mut key in canon {
        if !key.collect_events && events.contains(&key.clone().with_events()) {
            key = key.with_events();
        }
        if seen.insert(key.clone()) {
            unique.push(key);
        }
    }
    unique
}

/// `unique` as directly driven points, configured exactly as the
/// executor configures them.
#[must_use]
pub fn direct_points(sim: &SimConfig, unique: &[SimPoint]) -> Vec<Point> {
    unique
        .iter()
        .map(|p| {
            let mut core = sim.core.clone().with_rf_size(p.rf_size).with_scheme(p.scheme);
            p.tweak.apply(&mut core);
            core.rename.collect_events = p.collect_events;
            Point {
                label: p.label(),
                profile: seeded_profile(p.profile, 0),
                core,
                warmup: p.warmup,
                measure: p.measure,
            }
        })
        .collect()
}

/// Every point the pass simulates, as directly driven points. Planning,
/// generating and constructing these (`core_loop::setup_only`) times
/// the set-up steps the pass performs inside `RunMatrix::ensure_with`.
#[must_use]
pub fn plan_points(sim: &SimConfig) -> Vec<Point> {
    direct_points(sim, &unique_points(&sim.core, &exp::full_pass_points(sim)))
}

/// A figure headline next to the paper's value.
#[derive(Debug, Clone)]
pub struct Headline {
    /// What is measured.
    pub name: &'static str,
    /// This pass's value.
    pub value: f64,
    /// The paper's value.
    pub paper: f64,
}

/// One figure pass's outcome.
#[derive(Debug)]
pub struct Pass {
    /// Timings, counts, checks and digest.
    pub round: Round,
    /// The matrix the pass filled.
    pub matrix: RunMatrix,
    /// Points the plan requested (duplicates included).
    pub requested: usize,
    /// The unique points simulated, in first-seen order.
    pub unique: Vec<SimPoint>,
    /// Figure headlines beside the paper's values.
    pub headlines: Vec<Headline>,
}

/// One full figure pass: plan, `RunMatrix::ensure_with`, every
/// `figNN_assemble`, `report::save_json` per figure.
pub fn pass(sim: &SimConfig, session: &Session, tracer: &mut Tracer) -> Pass {
    let mut round = Round::default();
    let t0 = Instant::now();
    let plan = tracer.span("sim.plan", "", |_| exp::full_pass_points(sim));
    let unique = unique_points(&sim.core, &plan);
    let mut matrix = RunMatrix::new();
    let t1 = Instant::now();
    tracer.span("sim.execute", "", |_| matrix.ensure_with(session, &sim.core, &plan));
    round.sim_s = t1.elapsed().as_secs_f64();

    let m = &matrix;
    let mut figures: Vec<(&'static str, Json)> = Vec::new();
    let mut assemble = |name: &'static str, tracer: &mut Tracer, f: &dyn Fn() -> Json| {
        let json = tracer.span("sim.assemble", name, |_| f());
        figures.push((name, json));
    };
    let fig01 = tracer.span("sim.assemble", "fig01", |_| exp::fig01_assemble(sim, m));
    let fig06 = tracer.span("sim.assemble", "fig06", |_| exp::fig06_assemble(sim, m));
    assemble("fig01", tracer, &|| fig01.to_json());
    assemble("fig04", tracer, &|| exp::fig04_assemble(sim, m).to_json());
    assemble("fig06", tracer, &|| fig06.to_json());
    assemble("fig10", tracer, &|| exp::fig10_assemble(sim, m, &[64, 224]).to_json());
    assemble("fig11", tracer, &|| exp::fig11_assemble(sim, m).to_json());
    assemble("fig12", tracer, &|| exp::fig12_assemble(sim, m).to_json());
    assemble("fig13", tracer, &|| exp::fig13_assemble(sim, m).to_json());
    assemble("fig14", tracer, &|| exp::fig14_assemble(sim, m).to_json());
    assemble("fig15", tracer, &|| exp::fig15_assemble(sim, m, 0.03, 8).to_json());
    assemble("ablations", tracer, &|| {
        let mut rows = exp::ablation_move_elimination_assemble(sim, m);
        rows.extend(exp::ablation_counter_width_assemble(sim, m));
        rows.to_json()
    });
    for (name, json) in &figures {
        if let Err(e) = tracer.span("sim.write", name, |_| atr_sim::report::save_json(name, json)) {
            round.fail(format!("writing {name}: {e}"));
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();

    // Checks and digest, outside the timed pass.
    let width = sim.core.retire_width;
    for p in &unique {
        round.points += 1;
        match matrix.try_get(p) {
            Some(r) => {
                round.retired += r.stats.retired;
                round.cycles += r.stats.cycles;
                if let Err(e) =
                    check_point(&p.label(), &r.stats, r.ipc, p.warmup + p.measure, width)
                {
                    round.fail(e);
                }
            }
            None => round.fail(format!("{}: no result", p.label())),
        }
    }
    for (point, failure) in matrix.failures() {
        round.problems.push(format!("{}: {failure}", point.label()));
    }
    let mut digest = Digest::default();
    for p in &plan {
        match matrix.try_get(p) {
            Some(r) => digest.point(&p.label(), &r.stats),
            None => digest.bytes(b"failed"),
        }
    }
    for (name, json) in &figures {
        digest.bytes(name.as_bytes());
        digest.bytes(json.pretty().as_bytes());
    }
    round.digest = digest.finish();

    let suite_atomic =
        |suite: &str| fig06.iter().find(|r| r.benchmark == suite).map_or(f64::NAN, |r| r.atomic);
    let headlines = vec![
        Headline {
            name: "fig01 avg normalized IPC @64",
            value: exp::fig01_average(&fig01, 64),
            paper: PAPER_FIG01_AVG_AT_64,
        },
        Headline {
            name: "fig06 atomic share, SPECint",
            value: suite_atomic("average-int"),
            paper: PAPER_FIG06_INT,
        },
        Headline {
            name: "fig06 atomic share, SPECfp",
            value: suite_atomic("average-fp"),
            paper: PAPER_FIG06_FP,
        },
    ];
    Pass { round, matrix, requested: plan.len(), unique, headlines }
}

/// Simulates the unique points of `pass` again, one
/// `RunMatrix::ensure_with` call (so one `execute_session`) per point,
/// each in a `sim.point` span, for the per-point host-time
/// distribution. Each point's set-up (its program build and core
/// construction) is inside its span. Returns one problem per point
/// whose result differs from the pass's.
pub fn per_point(
    sim: &SimConfig,
    session: &Session,
    pass: &Pass,
    tracer: &mut Tracer,
) -> Vec<String> {
    let mut matrix = RunMatrix::new();
    let mut problems = Vec::new();
    for p in &pass.unique {
        tracer.span("sim.point", &p.label(), |_| {
            matrix.ensure_with(session, &sim.core, std::slice::from_ref(p));
        });
        let same = match (matrix.try_get(p), pass.matrix.try_get(p)) {
            (Some(a), Some(b)) => {
                (a.stats.cycles, a.stats.retired) == (b.stats.cycles, b.stats.retired)
            }
            _ => false,
        };
        if !same {
            problems.push(format!("{}: per-point result differs from the pass", p.label()));
        }
    }
    problems
}
