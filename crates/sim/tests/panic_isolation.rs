//! Panic-isolation integration tests: a point that panics fails alone,
//! with its payload, through the executor and through the matrix.
//!
//! Every session here is built with [`Session::default`] plus explicit
//! builders — zero environment reads — so these tests cannot race other
//! tests on transient env state.

use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use atr_sim::executor::{execute_session, FailureKind};
use atr_sim::{RunMatrix, Session, SimPoint};

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

/// A poisoned point fails with the panic payload; its siblings'
/// results survive the pass.
#[test]
fn injected_panic_is_isolated_and_carries_its_payload() {
    let core = CoreConfig::default();
    let session = Session::default().quiet().with_threads(2).with_fault_injection("505.mcf_r");
    let outcomes = execute_session(&session, &core, &points());

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
    let outcomes = execute_session(&last, &core, &points());
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
