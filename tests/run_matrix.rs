//! Integration tests of the run-matrix engine: parallel execution must
//! be bit-identical to serial, and a shared matrix must deduplicate the
//! overlapping points of the figure experiments.

use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use atr_sim::experiments::{fig01_points, fig10_points, fig11_points};
use atr_sim::{execute_session, RunMatrix, RunResult, Session, SimConfig, SimPoint};
use std::collections::HashSet;

fn tiny() -> SimConfig {
    SimConfig { core: CoreConfig::default(), warmup: 500, measure: 2_000 }
}

/// Runs `points` on an env-free session with `threads` workers,
/// panicking on any failed point.
fn execute(sim: &SimConfig, points: &[SimPoint], threads: usize) -> Vec<RunResult> {
    let session = Session::default().quiet().with_threads(threads);
    let run = execute_session(&session, &sim.core, points);
    run.outcomes.into_iter().map(|o| o.unwrap_or_else(|f| panic!("{f}"))).collect()
}

/// A small mixed batch: several profiles × schemes × RF sizes, one
/// point with event collection.
fn mixed_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for profile in ["505.mcf_r", "548.exchange2_r", "508.namd_r"] {
        for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Atr { redefine_delay: 0 }] {
            for rf in [64usize, 224] {
                points.push(SimPoint::new(profile, scheme, rf, sim.warmup, sim.measure));
            }
        }
    }
    points.push(
        SimPoint::new("525.x264_r", ReleaseScheme::Baseline, 280, sim.warmup, sim.measure)
            .with_events(),
    );
    points
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let sim = tiny();
    let points = mixed_points(&sim);
    let serial = execute(&sim, &points, 1);
    let parallel = execute(&sim, &points, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.ipc.to_bits(),
            p.ipc.to_bits(),
            "ipc differs at point {i} ({})",
            points[i].label()
        );
        assert_eq!(s.avg_int_occupancy.to_bits(), p.avg_int_occupancy.to_bits());
        assert_eq!(s.avg_fp_occupancy.to_bits(), p.avg_fp_occupancy.to_bits());
        // Whole-run stats and the lifetime log must agree field by field.
        assert_eq!(format!("{:?}", s.stats), format!("{:?}", p.stats));
        assert_eq!(s.lifetimes.len(), p.lifetimes.len());
    }
}

#[test]
fn shared_matrix_deduplicates_figure_overlap() {
    let sim = tiny();
    let mut points = fig01_points(&sim);
    points.extend(fig10_points(&sim, &[64, 224]));
    points.extend(fig11_points(&sim));

    let unique: HashSet<&SimPoint> = points.iter().collect();
    assert!(unique.len() < points.len(), "fig01/fig10/fig11 must overlap on baseline points");

    let session = Session::default().quiet();
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&session, &sim.core, &points);
    assert_eq!(matrix.requested(), points.len());
    assert_eq!(matrix.executed(), unique.len(), "each unique point must simulate exactly once");

    // Re-ensuring any subset must hit the cache, not the simulator.
    matrix.ensure_with(&session, &sim.core, &fig11_points(&sim));
    assert_eq!(matrix.executed(), unique.len(), "re-ensure must not re-execute");

    // And every declared point must be readable back.
    for p in &points {
        assert!(matrix.ipc(p) > 0.0);
    }
}
