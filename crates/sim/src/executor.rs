//! Fault-tolerant parallel execution of simulation points.
//!
//! Points are independent deterministic simulations, so they can run on
//! any worker in any order; results are returned index-aligned with the
//! input slice, which keeps the output bit-identical to a serial pass.
//! Uses only `std::thread::scope` — no external dependencies.
//!
//! The one entry point is [`execute_session`]: every runtime knob
//! comes from one resolved [`Session`] (see [`crate::session`]), and
//! each point yields a [`PointOutcome`] instead of a bare result:
//!
//! * a point that **panics** is surfaced as a structured
//!   [`PointFailure`] carrying the panic payload — the other points'
//!   results survive (points are deterministic, so a retry would only
//!   panic again);
//! * a point naming an **unknown profile** fails the same structured
//!   way during prebuild instead of sinking the pass;
//! * with a [`crate::journal::RunJournal`] configured, completed points
//!   are appended as they finish and an interrupted pass **resumes**:
//!   journaled points are served without re-simulation, bit-identical
//!   to an uninterrupted run;
//! * a **straggler supervisor** warns when a point exceeds a
//!   budget-scaled soft deadline (it never kills the point — the
//!   simulator is deterministic, slow points are just slow).

use crate::journal::RunJournal;
use crate::matrix::SimPoint;
use crate::runner::{run, RunResult, RunSpec};
use crate::session::Session;
use atr_pipeline::CoreConfig;
use atr_workload::spec::all_profiles;
use atr_workload::Program;
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fixed part of the straggler soft deadline.
const STRAGGLER_BASE: Duration = Duration::from_secs(10);

/// Budget-scaled part of the straggler soft deadline: the tiny-budget
/// CI pass simulates well under 1 µs/instruction, so 50 µs/instruction
/// flags a point only when it is pathologically slower than its peers.
const STRAGGLER_MICROS_PER_INST: u64 = 50;

/// How often the straggler supervisor scans the in-flight set.
const STRAGGLER_SCAN: Duration = Duration::from_millis(200);

/// Why a point produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point names a profile `atr_workload::spec` does not know.
    UnknownProfile,
    /// The point panicked.
    Panic,
}

/// A structured per-point failure: the pass continues, the caller
/// decides (the matrix records it, reports degrade, shims panic).
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// [`SimPoint::label`] of the failed point.
    pub label: String,
    /// What went wrong.
    pub kind: FailureKind,
    /// The panic payload (or prebuild diagnostic).
    pub payload: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FailureKind::UnknownProfile => write!(f, "{}: {}", self.label, self.payload),
            FailureKind::Panic => write!(f, "{} panicked: {}", self.label, self.payload),
        }
    }
}

/// One point's outcome under [`execute_session`].
pub type PointOutcome = Result<RunResult, PointFailure>;

/// What one [`execute_session`] call produced.
#[derive(Debug)]
pub struct Execution {
    /// One outcome per input point, index-aligned with the input.
    pub outcomes: Vec<PointOutcome>,
    /// How many of those outcomes the run journal served without
    /// simulating; the rest were simulated (or failed) in this call.
    pub served: usize,
}

/// Executes every point, in parallel, against the base core config,
/// with every runtime knob taken from `session` (the environment is
/// *not* consulted — resolve a session first with
/// [`Session::from_env`]). The outcomes are index-aligned with
/// `points`; equal results are bit-identical no matter the thread
/// count, journal state, or telemetry level.
#[must_use]
pub fn execute_session(session: &Session, core: &CoreConfig, points: &[SimPoint]) -> Execution {
    let mut served = 0usize;
    if points.is_empty() {
        return Execution { outcomes: Vec::new(), served };
    }
    let mut outcomes: Vec<Option<PointOutcome>> = Vec::new();
    outcomes.resize_with(points.len(), || None);

    // Generate each distinct known profile's static program once up
    // front: points overwhelmingly share profiles, and generation is
    // pure, so prebuilding changes nothing but the wall clock. A point
    // naming an unknown profile becomes a structured failure here
    // instead of a panic — one typo'd point must not sink a pass.
    let known: HashMap<&'static str, _> = all_profiles().into_iter().map(|p| (p.name, p)).collect();
    let mut programs: HashMap<&'static str, Arc<Program>> = HashMap::new();
    for point in points {
        if !programs.contains_key(point.profile) {
            if let Some(profile) = known.get(point.profile) {
                programs.insert(point.profile, profile.build());
            }
        }
    }
    let mut unknown_warned: HashSet<&'static str> = HashSet::new();
    for (idx, point) in points.iter().enumerate() {
        if !programs.contains_key(point.profile) {
            if unknown_warned.insert(point.profile) {
                atr_telemetry::warn!(
                    "unknown profile in SimPoint: {} — failing its point(s), continuing the pass",
                    point.profile
                );
            }
            outcomes[idx] = Some(Err(PointFailure {
                label: point.label(),
                kind: FailureKind::UnknownProfile,
                payload: format!("unknown profile in SimPoint: {}", point.profile),
            }));
        }
    }

    // Resume: serve everything the journal already holds for this core
    // configuration. The "[journal] N of M" line is load-bearing — the
    // CI interrupt-resume gate greps it to prove journaled points were
    // not re-simulated.
    let mut journal: Option<RunJournal> = None;
    if let Some(dir) = &session.journal {
        match RunJournal::open(dir, core) {
            Ok(j) => journal = Some(j),
            Err(e) => atr_telemetry::warn!(
                "run journal at {} is unusable ({e}); continuing without resume",
                dir.display()
            ),
        }
    }
    if let Some(j) = &journal {
        for (idx, point) in points.iter().enumerate() {
            if outcomes[idx].is_none() {
                if let Some(result) = j.lookup(point) {
                    outcomes[idx] = Some(Ok(result.clone()));
                    served += 1;
                }
            }
        }
        atr_telemetry::info!(
            "[journal] {served} of {} points served from {}",
            points.len(),
            j.path().display()
        );
    }

    let todo: Vec<usize> = (0..points.len()).filter(|&i| outcomes[i].is_none()).collect();

    let mut walls: HashMap<usize, Duration> = HashMap::new();
    if !todo.is_empty() {
        let workers = session.threads.clamp(1, todo.len());
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let journal_cell: Option<Mutex<RunJournal>> = journal.map(Mutex::new);
        // Straggler bookkeeping: point index → (start, soft deadline).
        let inflight: Mutex<HashMap<usize, (Instant, Duration)>> = Mutex::new(HashMap::new());
        let stop = (Mutex::new(false), Condvar::new());

        std::thread::scope(|scope| {
            // Supervisor: scans the in-flight set on a condvar timeout
            // (not a naked sleep loop — shutdown is immediate once the
            // workers drain, so short passes pay no scan latency).
            let supervisor = {
                let inflight = &inflight;
                let stop = &stop;
                scope.spawn(move || {
                    let (lock, cvar) = stop;
                    let mut warned: HashSet<usize> = HashSet::new();
                    let mut stopped = lock.lock().unwrap();
                    while !*stopped {
                        stopped = cvar.wait_timeout(stopped, STRAGGLER_SCAN).unwrap().0;
                        if *stopped {
                            return;
                        }
                        let now = Instant::now();
                        for (&idx, &(start, deadline)) in inflight.lock().unwrap().iter() {
                            let running = now.duration_since(start);
                            if running > deadline && warned.insert(idx) {
                                atr_telemetry::warn!(
                                    "[straggler] {} running {running:.1?}, past its soft deadline {deadline:.1?}",
                                    points[idx].label()
                                );
                            }
                        }
                    }
                })
            };

            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                let done = &done;
                let todo = &todo;
                let programs = &programs;
                let inflight = &inflight;
                let journal_cell = &journal_cell;
                handles.push(scope.spawn(move || {
                    let mut produced: Vec<(usize, PointOutcome, Duration)> = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = todo.get(slot) else {
                            return produced;
                        };
                        let point = &points[idx];
                        let started = Instant::now();
                        inflight.lock().unwrap().insert(idx, (started, straggler_deadline(point)));
                        let outcome = run_point_guarded(
                            session,
                            core,
                            programs[point.profile].clone(),
                            point,
                        );
                        inflight.lock().unwrap().remove(&idx);
                        let wall = started.elapsed();
                        if let (Some(cell), Ok(result)) = (journal_cell, &outcome) {
                            cell.lock().unwrap().append(point, result);
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        match &outcome {
                            Ok(_) if session.progress => atr_telemetry::info!(
                                "[matrix {:>4}/{:<4} {:>7.1?}] {} ({:.0?})",
                                finished,
                                todo.len(),
                                t0.elapsed(),
                                point.label(),
                                wall,
                            ),
                            Ok(_) => {}
                            Err(failure) => atr_telemetry::warn!(
                                "[matrix {:>4}/{:<4}] FAILED {failure}",
                                finished,
                                todo.len(),
                            ),
                        }
                        produced.push((idx, outcome, wall));
                    }
                }));
            }
            for handle in handles {
                // Workers cannot panic — run_point_guarded catches — so
                // a join failure here is a harness bug, not a bad point.
                for (idx, outcome, wall) in handle.join().expect("executor worker died") {
                    walls.insert(idx, wall);
                    outcomes[idx] = Some(outcome);
                }
            }
            *stop.0.lock().unwrap() = true;
            stop.1.notify_all();
            supervisor.join().expect("straggler supervisor died");
        });
    }

    let outcomes: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every point resolved by prebuild, journal, or a worker"))
        .collect();

    // One JSONL record per *freshly simulated* point, in input order —
    // stable no matter which worker ran what. Journal-served points
    // emit nothing: their observer state was not recorded (telemetry is
    // excluded from the journal by design), and an empty record would
    // be indistinguishable from a telemetry-off run.
    if session.telemetry.stats_enabled() {
        let lines: Vec<String> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(idx, outcome)| match (outcome, walls.get(&idx)) {
                (Ok(result), Some(wall)) => {
                    Some(crate::telemetry::record(&points[idx], result, *wall).compact())
                }
                _ => None,
            })
            .collect();
        crate::telemetry::emit_lines(&lines);
    }

    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    if failed > 0 {
        atr_telemetry::warn!(
            "[matrix] {failed} of {} point(s) failed; downstream reports degrade to the surviving set",
            points.len()
        );
    }
    Execution { outcomes, served }
}

/// The soft deadline after which a running point is flagged as a
/// straggler: a fixed base plus a budget-scaled term, so a 10M-inst
/// full-budget point gets proportionally more headroom than a tiny CI
/// point.
fn straggler_deadline(point: &SimPoint) -> Duration {
    STRAGGLER_BASE
        + Duration::from_micros(
            (point.warmup + point.measure).saturating_mul(STRAGGLER_MICROS_PER_INST),
        )
}

/// Runs one point with panic isolation. The closure is unwind-safe in
/// the only sense that matters here: the simulator owns all its state
/// per run, and a panicking run leaves nothing behind but its payload.
fn run_point_guarded(
    session: &Session,
    core: &CoreConfig,
    program: Arc<Program>,
    point: &SimPoint,
) -> PointOutcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(needle) = &session.fault_injection {
            if point.label().contains(needle.as_str()) {
                panic!("injected fault for {}", point.label());
            }
        }
        run_point(session, core, program, point)
    }))
    .map_err(|panic| PointFailure {
        label: point.label(),
        kind: FailureKind::Panic,
        payload: panic_message(panic.as_ref()),
    })
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
    let mut cfg = core.clone();
    point.tweak.apply(&mut cfg);
    let spec = RunSpec {
        scheme: point.scheme,
        rf_size: point.rf_size,
        warmup: point.warmup,
        measure: point.measure,
        collect_events: point.collect_events,
        audit: session.audit,
        telemetry: session.telemetry.clone(),
    };
    run(&cfg, program, &spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::ReleaseScheme;

    /// Runs `points` serially on an env-free session, panicking on any
    /// failed point.
    fn results(points: &[SimPoint]) -> Vec<RunResult> {
        let session = Session::default().quiet().with_threads(1);
        let run = execute_session(&session, &CoreConfig::default(), points);
        run.outcomes.into_iter().map(|o| o.unwrap_or_else(|f| panic!("{f}"))).collect()
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

    /// An unknown profile becomes a structured failure; its siblings
    /// still simulate. Regression for the old prebuild panic.
    #[test]
    fn unknown_profile_fails_its_point_without_sinking_the_pass() {
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("999.not_a_profile", ReleaseScheme::Baseline, 64, 50, 200),
        ];
        let session = Session::default().quiet().with_threads(1);
        let outcomes = execute_session(&session, &CoreConfig::default(), &points).outcomes;
        assert!(outcomes[0].is_ok(), "the healthy sibling must survive");
        let failure = outcomes[1].as_ref().expect_err("unknown profile must fail");
        assert_eq!(failure.kind, FailureKind::UnknownProfile);
        assert!(failure.payload.contains("999.not_a_profile"), "{}", failure.payload);
    }

    /// Event collection is observation-only: the lifetime log records
    /// what the renamer does but feeds nothing back into scheduling, so
    /// timing is bit-identical with and without it. (`stats.markings`
    /// may differ — the log enables region marking under schemes that
    /// would otherwise skip it — but no timed quantity does.) This is
    /// what lets `RunMatrix::ensure_with` serve a non-events point from its
    /// `.with_events()` twin.
    #[test]
    fn event_collection_does_not_change_timing() {
        for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Atr { redefine_delay: 0 }] {
            let plain = SimPoint::new("505.mcf_r", scheme, 64, 50, 200);
            let events = plain.clone().with_events();
            let r = results(&[plain, events]);
            assert_eq!(r[0].ipc.to_bits(), r[1].ipc.to_bits());
            assert_eq!(r[0].stats.cycles, r[1].stats.cycles);
            assert_eq!(r[0].stats.retired, r[1].stats.retired);
            assert_eq!(r[0].stats.flushes, r[1].stats.flushes);
            assert_eq!(r[0].avg_int_occupancy.to_bits(), r[1].avg_int_occupancy.to_bits());
            assert_eq!(r[0].avg_fp_occupancy.to_bits(), r[1].avg_fp_occupancy.to_bits());
            assert!(r[0].lifetimes.is_empty() && !r[1].lifetimes.is_empty());
        }
    }
}
