//! Panic-isolation integration tests: a point that panics fails alone,
//! with its payload, and the matrix keeps its siblings' results.
//!
//! Every session here is built with [`Session::default`] plus explicit
//! builders — zero environment reads — so these tests cannot race other
//! tests on transient env state.

use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use atr_sim::{PointFailure, RunMatrix, Session, SimPoint};

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

/// Ensures `points()` on a fresh matrix under `session`.
fn ensure(session: &Session) -> RunMatrix {
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(session, &CoreConfig::default(), &points());
    matrix
}

/// The failure record of `point`.
fn failure<'m>(matrix: &'m RunMatrix, point: &SimPoint) -> &'m PointFailure {
    let found = matrix.failures().find(|(key, _)| *key == point);
    found.map(|(_, f)| f).unwrap_or_else(|| panic!("{} did not fail", point.label()))
}

/// A poisoned point fails with the panic payload; its siblings'
/// results survive the pass, `try_*` degrades and the summary counts
/// the failures.
#[test]
fn injected_panic_is_isolated_and_carries_its_payload() {
    let session = Session::default().quiet().with_threads(2).with_fault_injection("505.mcf_r");
    let matrix = ensure(&session);
    assert_eq!(matrix.failed(), 2, "both mcf points are poisoned");
    assert_eq!(matrix.try_ipc(&points()[0]), None);
    assert!(matrix.summary().contains("2 FAILED"), "{}", matrix.summary());

    for point in &points()[..2] {
        let failure = failure(&matrix, point);
        assert!(failure.payload.contains("injected fault"), "{}", failure.payload);
        assert_eq!(failure.label, point.label());
        let shown = failure.to_string();
        assert!(shown.contains("panicked: injected fault for 505.mcf_r"), "{shown}");
    }
    assert!(matrix.get(&points()[2]).ipc > 0.0, "the healthy sibling must survive");

    // Isolation is per point, not per profile position: poisoning the
    // last point fails only it, and the payload names that point.
    let last = Session::default().quiet().with_fault_injection("548.exchange2_r");
    let matrix = ensure(&last);
    assert_eq!(matrix.failed(), 1);
    assert!(matrix.try_get(&points()[0]).is_some() && matrix.try_get(&points()[1]).is_some());
    let failure = failure(&matrix, &points()[2]);
    assert_eq!(failure.payload, format!("injected fault for {}", points()[2].label()));
}
