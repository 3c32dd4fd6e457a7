//! Parallel execution of simulation points with per-point panic
//! isolation.
//!
//! Points are independent deterministic simulations, so they can run on
//! any worker in any order; results are returned index-aligned with the
//! input slice, which keeps the output bit-identical to a serial pass.
//! Uses only `std::thread::scope` — no external dependencies.
//!
//! [`crate::RunMatrix::ensure_with`] is the one public way in: every
//! runtime knob comes from one resolved [`Session`] (see
//! [`crate::session`]), every point is simulated, and each point yields
//! a `PointOutcome` instead of a bare result. A point that panics —
//! an injected fault, a broken invariant, a profile `atr_workload::spec`
//! does not know — is surfaced as a [`PointFailure`] carrying the panic
//! payload, and the other points' results survive (points are
//! deterministic, so a retry would only panic again).
//!
//! Each progress line and each telemetry record carries the point's
//! wall time, so a slow point is visible in the pass's own output.

use crate::matrix::SimPoint;
use crate::runner::{run, RunResult};
use crate::session::Session;
use atr_pipeline::CoreConfig;
use atr_workload::spec::all_profiles;
use atr_workload::Program;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point that panicked: the pass continues, the caller decides (the
/// matrix records it, reports degrade to the surviving points, and
/// [`crate::RunMatrix::get`] panics on it).
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// [`SimPoint::label`] of the failed point.
    pub label: String,
    /// The panic payload.
    pub payload: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} panicked: {}", self.label, self.payload)
    }
}

/// One point's outcome under [`execute_session`].
pub(crate) type PointOutcome = Result<RunResult, PointFailure>;

/// Executes every point, in parallel, against the base core config,
/// with every runtime knob taken from `session` (the environment is
/// *not* consulted — resolve a session first with
/// [`Session::from_env`]). The outcomes are index-aligned with
/// `points`; equal results are bit-identical no matter the thread
/// count or telemetry level.
#[must_use]
pub(crate) fn execute_session(
    session: &Session,
    core: &CoreConfig,
    points: &[SimPoint],
) -> Vec<PointOutcome> {
    if points.is_empty() {
        return Vec::new();
    }
    // Generate each profile the points name once up front: points
    // overwhelmingly share profiles, and generation is pure, so
    // prebuilding changes nothing but the wall clock. A profile
    // `atr_workload::spec` does not know gets no program, and its points
    // panic in their own guard.
    let programs: HashMap<&'static str, Arc<Program>> = all_profiles()
        .into_iter()
        .filter(|profile| points.iter().any(|p| p.profile == profile.name))
        .map(|profile| (profile.name, profile.build()))
        .collect();

    let mut outcomes: Vec<Option<PointOutcome>> = Vec::new();
    outcomes.resize_with(points.len(), || None);
    // Per-point wall time, index-aligned with `points`.
    let mut walls = vec![Duration::ZERO; points.len()];
    let workers = session.threads.clamp(1, points.len());
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let worker = || {
        let mut produced: Vec<(usize, PointOutcome, Duration)> = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(point) = points.get(idx) else { break };
            let started = Instant::now();
            let outcome = run_point_guarded(session, core, programs.get(point.profile), point);
            let wall = started.elapsed();
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            match &outcome {
                Ok(_) if session.progress => atr_telemetry::info!(
                    "[matrix {:>4}/{:<4} {:>7.1?}] {} ({:.0?})",
                    finished,
                    points.len(),
                    t0.elapsed(),
                    point.label(),
                    wall,
                ),
                Ok(_) => {}
                Err(failure) => atr_telemetry::warn!(
                    "[matrix {:>4}/{:<4}] FAILED {failure}",
                    finished,
                    points.len(),
                ),
            }
            produced.push((idx, outcome, wall));
        }
        produced
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            // Workers cannot panic — run_point_guarded catches — so a
            // join failure here is a harness bug, not a bad point.
            for (idx, outcome, wall) in handle.join().expect("executor worker died") {
                walls[idx] = wall;
                outcomes[idx] = Some(outcome);
            }
        }
    });
    let outcomes: Vec<PointOutcome> =
        outcomes.into_iter().map(|o| o.expect("every point resolved by a worker")).collect();

    // One JSONL record per simulated point, in input order — stable no
    // matter which worker ran what.
    if session.telemetry.stats_enabled() {
        let lines: Vec<String> = points
            .iter()
            .zip(&outcomes)
            .zip(&walls)
            .filter_map(|((point, outcome), wall)| {
                let result = outcome.as_ref().ok()?;
                Some(crate::telemetry::record(point, result, *wall).compact())
            })
            .collect();
        crate::telemetry::emit_lines(&lines, session.telemetry_out.as_deref());
    }
    outcomes
}

/// Runs one point with panic isolation. The closure is unwind-safe in
/// the only sense that matters here: the simulator owns all its state
/// per run, and a panicking run leaves nothing behind but its payload.
fn run_point_guarded(
    session: &Session,
    core: &CoreConfig,
    program: Option<&Arc<Program>>,
    point: &SimPoint,
) -> PointOutcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(needle) = &session.fault_injection {
            if point.label().contains(needle.as_str()) {
                panic!("injected fault for {}", point.label());
            }
        }
        let program =
            program.unwrap_or_else(|| panic!("unknown profile in SimPoint: {}", point.profile));
        run_point(session, core, Arc::clone(program), point)
    }))
    .map_err(|panic| PointFailure { label: point.label(), payload: panic_message(panic.as_ref()) })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn run_point(
    session: &Session,
    core: &CoreConfig,
    program: Arc<Program>,
    point: &SimPoint,
) -> RunResult {
    let mut cfg = core
        .clone()
        .with_rf_size(point.rf_size)
        .with_scheme(point.scheme)
        .with_audit(session.audit)
        .with_telemetry(session.telemetry.clone());
    cfg.rename.collect_events = point.collect_events;
    point.tweak.apply(&mut cfg);
    run(cfg, program, point.warmup, point.measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::ReleaseScheme;

    /// Runs `points` serially on an env-free session, panicking on any
    /// failed point.
    fn results(points: &[SimPoint]) -> Vec<RunResult> {
        let session = Session::default().quiet().with_threads(1);
        execute_session(&session, &CoreConfig::default(), points)
            .into_iter()
            .map(|o| o.unwrap_or_else(|f| panic!("{f}")))
            .collect()
    }

    #[test]
    fn results_align_with_input_order() {
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 224, 50, 200),
        ];
        let serial = results(&points);
        assert_eq!(serial.len(), 2);
        // exchange2 at 224 registers must comfortably out-run mcf at 64:
        // order inversion here would mean results got shuffled.
        assert!(serial[1].ipc > serial[0].ipc);
    }

    /// An unknown profile panics in its point's guard like any other
    /// fault; its siblings still simulate.
    #[test]
    fn unknown_profile_fails_its_point_without_sinking_the_pass() {
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("999.not_a_profile", ReleaseScheme::Baseline, 64, 50, 200),
        ];
        let session = Session::default().quiet().with_threads(1);
        let outcomes = execute_session(&session, &CoreConfig::default(), &points);
        assert!(outcomes[0].is_ok(), "the healthy sibling must survive");
        let failure = outcomes[1].as_ref().expect_err("unknown profile must fail");
        assert_eq!(failure.payload, "unknown profile in SimPoint: 999.not_a_profile");
        assert_eq!(
            failure.to_string(),
            "999.not_a_profile baseline@64 panicked: unknown profile in SimPoint: 999.not_a_profile"
        );
    }

    /// With `telemetry_out` set, a stats-level pass appends exactly one
    /// schema-valid record per simulated point to that file, in input
    /// order; a point that failed emits nothing.
    #[test]
    fn telemetry_records_go_to_the_session_file() {
        use atr_telemetry::{TelemetryConfig, TelemetryLevel};
        let out =
            std::env::temp_dir().join(format!("atr_telemetry_out_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&out);
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("999.not_a_profile", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 64, 50, 200),
        ];
        let telemetry = TelemetryConfig { level: TelemetryLevel::Stats };
        let session = Session {
            telemetry_out: Some(out.clone()),
            ..Session::default().quiet().with_threads(2).with_telemetry(telemetry)
        };
        let outcomes = execute_session(&session, &CoreConfig::default(), &points);
        assert!(outcomes[0].is_ok() && outcomes[1].is_err() && outcomes[2].is_ok());

        let body = std::fs::read_to_string(&out).expect("records written to the session file");
        let _ = std::fs::remove_file(&out);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "one record per simulated point:\n{body}");
        for (line, point) in lines.iter().zip([&points[0], &points[2]]) {
            crate::telemetry::validate_record(line).unwrap();
            let record = atr_json::Json::parse(line).unwrap();
            assert_eq!(
                record.get("label").and_then(atr_json::Json::as_str),
                Some(point.label().as_str())
            );
        }
    }

    /// Event collection is observation-only: the lifetime log records
    /// what the renamer does but feeds nothing back into scheduling or
    /// into any reported counter, so every `CoreStats` field is
    /// bit-identical with and without it, under every scheme. This is
    /// what lets `RunMatrix::ensure_with` serve a non-events point from
    /// its `.with_events()` twin.
    #[test]
    fn event_collection_does_not_change_timing() {
        for scheme in ReleaseScheme::ALL {
            let plain = SimPoint::new("505.mcf_r", scheme, 64, 50, 200);
            let events = plain.clone().with_events();
            let r = results(&[plain, events]);
            assert_eq!(r[0].ipc.to_bits(), r[1].ipc.to_bits());
            assert_eq!(format!("{:?}", r[0].stats), format!("{:?}", r[1].stats), "{scheme:?}");
            assert!(r[0].lifetime.is_none() && r[1].lifetime.is_some());
        }
    }
}
