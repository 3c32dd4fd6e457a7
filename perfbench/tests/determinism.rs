//! The benchmark measures speed only: its `sim_digest` must not depend
//! on worker count, tracing, or repetition. The figure tests run the
//! benchmark's own budget; the core-loop test shortens its points, as
//! the property does not depend on the budget.

use atr_perfbench::core_loop::{self, Mode};
use atr_perfbench::figures;
use atr_perfbench::spans::Tracer;
use std::process::Command;
use std::sync::Once;

/// Every test in this binary writes result JSON into the same scratch
/// directory, set once, so no test observes another's environment.
fn scratch_results_dir() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        let dir = std::env::temp_dir().join(format!("atr_perfbench_tests_{}", std::process::id()));
        std::env::set_var("ATR_RESULTS_DIR", dir);
    });
}

#[test]
fn figure_digest_is_identical_across_workers_tracing_and_repeats() {
    scratch_results_dir();
    let sim = figures::sim_config(figures::BUDGET);
    let run = |threads: usize, traced: bool| {
        let mut tracer = Tracer::new(traced);
        let pass = figures::pass(&sim, &figures::session(threads), &mut tracer);
        assert!(pass.round.problems.is_empty(), "{:?}", pass.round.problems);
        if traced {
            assert_eq!(tracer.durations("sim.execute").len(), 1);
        }
        (pass.round.digest, pass.requested, pass.matrix.executed())
    };
    let serial = run(1, false);
    assert_eq!(serial.1, 1701, "the full figure plan");
    assert_eq!(serial.2, 832, "unique points simulated");
    assert_eq!(run(2, false), serial, "1 vs 2 workers");
    let traced = run(1, true);
    assert_eq!(traced.0, serial.0, "traced vs untraced");
    assert_eq!(run(1, false), serial, "repeat");
}

#[test]
fn figure_points_driven_directly_or_one_at_a_time_match_the_run_matrix() {
    scratch_results_dir();
    let sim = figures::sim_config(figures::BUDGET);
    let pass = figures::pass(&sim, &figures::session(1), &mut Tracer::new(false));
    let points = figures::direct_points(&sim, &pass.unique);
    let plan = || points.clone();
    let (round, runs) = core_loop::run_round(&plan, "direct", &mut Tracer::new(false), Mode::Plain);
    assert!(round.problems.is_empty(), "{:?}", round.problems);
    for (p, r) in pass.unique.iter().zip(&runs) {
        let cached = &pass.matrix.get(p).stats;
        assert_eq!(
            (cached.cycles, cached.retired),
            (r.stats.cycles, r.stats.retired),
            "{}",
            p.label()
        );
    }
    let mut tracer = Tracer::new(true);
    let problems = figures::per_point(&sim, &figures::session(1), &pass, &mut tracer);
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(tracer.durations("sim.point").len(), pass.unique.len());
}

#[test]
fn core_loop_digest_is_identical_traced_and_repeated() {
    scratch_results_dir();
    for points in [core_loop::deep_window_points, core_loop::rename_pressure_points] {
        let plan = || {
            let mut v = points(11);
            for p in &mut v {
                p.warmup = 300;
                p.measure = 700;
            }
            v
        };
        let (plain, _) = core_loop::run_round(&plan, "plain", &mut Tracer::new(false), Mode::Plain);
        let (again, _) = core_loop::run_round(&plan, "plain", &mut Tracer::new(false), Mode::Plain);
        let mut ticks = Vec::new();
        let mut tracer = Tracer::new(true);
        let (traced, _) =
            core_loop::run_round(&plan, "traced", &mut tracer, Mode::TimedTicks(&mut ticks));
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain.digest, again.digest);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(tracer.durations("pipeline.simulate").len(), plain.points);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&[][..], &["--workload", "nope"], &["--workload", "deep_window", "--trace", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_atr-perfbench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
