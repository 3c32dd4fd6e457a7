//! Fault-tolerance and resume integration tests: panic isolation,
//! journaled kill/resume with bit-identical fingerprints, and journal
//! hygiene against torn tails and configuration drift.
//!
//! Every session here is built with [`Session::default`] plus explicit
//! builders — zero environment reads — so these tests cannot race other
//! tests on transient env state.

use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use atr_sim::executor::{execute_session, FailureKind};
use atr_sim::journal::JOURNAL_FILE;
use atr_sim::{RunMatrix, RunResult, Session, SimPoint};
use std::io::Write as _;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mcf(scheme: ReleaseScheme, rf: usize) -> SimPoint {
    SimPoint::new("505.mcf_r", scheme, rf, 50, 200)
}

fn points() -> Vec<SimPoint> {
    vec![
        mcf(ReleaseScheme::Baseline, 64),
        mcf(ReleaseScheme::Atr { redefine_delay: 0 }, 64),
        SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 64, 50, 200),
    ]
}

/// Asserts two results are bit-identical in every journaled quantity.
fn assert_bit_identical(context: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{context}: IPC diverged");
    assert_eq!(
        a.avg_int_occupancy.to_bits(),
        b.avg_int_occupancy.to_bits(),
        "{context}: int occupancy diverged"
    );
    assert_eq!(
        a.avg_fp_occupancy.to_bits(),
        b.avg_fp_occupancy.to_bits(),
        "{context}: fp occupancy diverged"
    );
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "{context}: stats diverged");
    assert_eq!(
        format!("{:?}", a.lifetimes),
        format!("{:?}", b.lifetimes),
        "{context}: lifetimes diverged"
    );
}

/// A poisoned point fails with the panic payload; its siblings'
/// results survive the pass.
#[test]
fn injected_panic_is_isolated_and_carries_its_payload() {
    let core = CoreConfig::default();
    let session = Session::default().quiet().with_threads(2).with_fault_injection("505.mcf_r");
    let outcomes = execute_session(&session, &core, &points()).outcomes;

    for idx in [0usize, 1] {
        let failure = outcomes[idx].as_ref().expect_err("poisoned mcf point must fail");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.payload.contains("injected fault"), "{}", failure.payload);
        assert!(failure.label.contains("505.mcf_r"), "{}", failure.label);
        let shown = failure.to_string();
        assert!(shown.contains("panicked: injected fault for 505.mcf_r"), "{shown}");
    }
    let survivor = outcomes[2].as_ref().expect("the healthy sibling must survive");
    assert!(survivor.ipc > 0.0);

    // Isolation is per point, not per profile position: poisoning the
    // last point fails only it, and the payload names that point.
    let last = Session::default().quiet().with_fault_injection("548.exchange2_r");
    let outcomes = execute_session(&last, &core, &points()).outcomes;
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok());
    let failure = outcomes[2].as_ref().unwrap_err();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert_eq!(failure.payload, format!("injected fault for {}", points()[2].label()));
}

/// The same isolation through the matrix: failures land in the failure
/// set, `try_*` degrades, `get` of a healthy point still works.
#[test]
fn matrix_survives_a_poisoned_point() {
    let core = CoreConfig::default();
    let session = Session::default().quiet().with_fault_injection("505.mcf_r");
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(&session, &core, &points());
    assert_eq!(matrix.failed(), 2, "both mcf points are poisoned");
    assert_eq!(matrix.try_ipc(&points()[0]), None);
    assert!(matrix.try_get(&points()[2]).is_some());
    assert!(matrix.summary().contains("2 FAILED"), "{}", matrix.summary());
}

/// Kill/resume: a partial journaled pass, resumed, yields bit-identical
/// results to an uninterrupted journal-less pass — and the journaled
/// points are *not* re-simulated, proven by poisoning them with fault
/// injection on the resume (a served point never enters the worker, so
/// it cannot panic).
#[test]
fn killed_pass_resumes_bit_identical_without_resimulating() {
    let core = CoreConfig::default();
    let all = points();
    let dir = tmp_dir("journal_resume");

    // The uninterrupted, journal-less reference pass.
    let clean: Vec<RunResult> = execute_session(&Session::default().quiet(), &core, &all)
        .outcomes
        .into_iter()
        .map(|o| o.expect("reference pass is healthy"))
        .collect();

    // "Killed" pass: only the two mcf points completed before the kill.
    let journaled = Session::default().quiet().with_journal(&dir);
    let partial = execute_session(&journaled, &core, &all[..2]);
    assert!(partial.outcomes.iter().all(Result::is_ok));
    assert_eq!(partial.served, 0, "an empty journal serves nothing");
    let journal_path = dir.join(JOURNAL_FILE);
    let lines = std::fs::read_to_string(&journal_path).unwrap().lines().count();
    assert_eq!(lines, 2, "one journal record per completed point");

    // Resume with the mcf points poisoned: if they were re-simulated
    // they would fail, so an all-Ok resume proves journal serving.
    let resume = journaled.clone().with_fault_injection("505.mcf_r");
    let resumed = execute_session(&resume, &core, &all);
    assert_eq!(resumed.served, 2, "the two journaled points are served");
    for (idx, (outcome, reference)) in resumed.outcomes.iter().zip(&clean).enumerate() {
        let result = outcome
            .as_ref()
            .unwrap_or_else(|f| panic!("resume re-simulated or failed journaled point {idx}: {f}"));
        assert_bit_identical(&format!("resume point {idx}"), result, reference);
    }
    let lines = std::fs::read_to_string(&journal_path).unwrap().lines().count();
    assert_eq!(lines, 3, "the resume appended exactly the missing point");

    // A second resume serves everything — still bit-identical.
    let served = execute_session(&resume, &core, &all);
    assert_eq!(served.served, all.len());
    for (idx, (outcome, reference)) in served.outcomes.iter().zip(&clean).enumerate() {
        assert_bit_identical(
            &format!("fully-served point {idx}"),
            outcome.as_ref().unwrap(),
            reference,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The matrix counts journal-served points apart from simulated ones:
/// a second pass over a fully journaled set simulates nothing.
#[test]
fn fully_journaled_pass_reports_zero_simulated() {
    let core = CoreConfig::default();
    let all = points();
    let dir = tmp_dir("journal_counts");
    let journaled = Session::default().quiet().with_journal(&dir);

    let mut first = RunMatrix::new();
    first.ensure_with(&journaled, &core, &all);
    assert_eq!(first.executed(), all.len());

    let mut second = RunMatrix::new();
    second.ensure_with(&journaled, &core, &all);
    assert_eq!(second.executed(), 0, "every point came from the journal: {}", second.summary());
    assert_eq!(second.served(), all.len());
    assert!(
        second.summary().starts_with("3 points requested, 0 simulated, 3 served from the journal"),
        "{}",
        second.summary()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal hygiene: a torn trailing record (SIGKILL mid-append) is
/// ignored and compacted away; a journal written under a different core
/// configuration serves nothing.
#[test]
fn journal_tolerates_torn_tails_and_ignores_foreign_configs() {
    let core = CoreConfig::default();
    let all = points();
    let dir = tmp_dir("journal_hygiene");
    let journaled = Session::default().quiet().with_journal(&dir);

    let first = execute_session(&journaled, &core, &all).outcomes;
    assert!(first.iter().all(Result::is_ok));
    let journal_path = dir.join(JOURNAL_FILE);

    // Tear the tail the way a kill mid-append would.
    let mut f = std::fs::OpenOptions::new().append(true).open(&journal_path).unwrap();
    f.write_all(b"{\"schema\":\"atr-run-journal-v1\",\"digest\":\"tr").unwrap();
    drop(f);

    // Poisoned resume: all served despite the torn tail ⇒ the intact
    // records survived and the garbage was ignored.
    let poisoned = journaled.clone().with_fault_injection("505.mcf_r");
    let resumed = execute_session(&poisoned, &core, &all).outcomes;
    for (idx, (outcome, reference)) in resumed.iter().zip(&first).enumerate() {
        assert_bit_identical(
            &format!("post-torn-tail point {idx}"),
            outcome.as_ref().expect("torn tail must not block serving"),
            reference.as_ref().unwrap(),
        );
    }
    let body = std::fs::read_to_string(&journal_path).unwrap();
    assert_eq!(body.lines().count(), 3, "compaction dropped the torn tail");
    assert!(body.lines().all(|l| l.ends_with('}')), "only intact records remain");

    // A different core configuration must not be served stale results:
    // with the journal digest mismatched, every point re-simulates (the
    // poisoned session now fails its mcf points — proof of a live run).
    let mut other_core = core.clone();
    other_core.rob_size = 64;
    let foreign = execute_session(&poisoned, &other_core, &all).outcomes;
    assert!(foreign[0].is_err() && foreign[1].is_err(), "foreign config must re-simulate");
    assert!(foreign[2].is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
