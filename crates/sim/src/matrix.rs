//! The run-matrix engine: declarative simulation points, global
//! deduplication, and a memoizing result cache.
//!
//! Every experiment in [`crate::experiments`] is a pure function of a
//! set of simulation points. A [`SimPoint`] is the complete key of one
//! measured run — `profile × scheme × rf_size × collect_events ×
//! budget × core tweaks` — and a [`RunMatrix`] memoizes [`RunResult`]s
//! by that key. Figures declare the points they need (`figNN_points`),
//! the matrix executes the *unique* ones (in parallel, see
//! [`crate::executor`]), and assembly reads results back by key — so
//! rows are bit-identical to the old serial loops while shared points
//! (the baselines that fig01/fig10/fig11/fig15 all re-ran) simulate
//! exactly once per pass.

use crate::executor::{self, PointFailure};
use crate::runner::RunResult;
use crate::session::Session;
use atr_core::ReleaseScheme;
use atr_pipeline::CoreConfig;
use std::collections::HashMap;

/// Optional overrides a point applies to the base [`CoreConfig`] —
/// the knobs the ablation studies sweep. `None` keeps the base value,
/// so tweaked and untweaked points hash to different keys only when
/// they genuinely differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreTweak {
    /// Override `rename.move_elimination` (§6 ablation).
    pub move_elimination: Option<bool>,
    /// Override `rename.counter_width` (§5.4 ablation).
    pub counter_width: Option<u32>,
}

impl CoreTweak {
    /// Is this the identity tweak?
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        *self == CoreTweak::default()
    }

    /// Applies the overrides to a core configuration.
    pub fn apply(&self, cfg: &mut CoreConfig) {
        if let Some(me) = self.move_elimination {
            cfg.rename.move_elimination = me;
        }
        if let Some(w) = self.counter_width {
            cfg.rename.counter_width = w;
        }
    }
}

/// The complete key of one measured simulation run.
///
/// Two points with equal keys produce bit-identical [`RunResult`]s
/// (the simulator is deterministic), which is what makes global
/// memoization sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimPoint {
    /// SPEC profile name (resolved via `atr_workload::spec`).
    pub profile: &'static str,
    /// Release scheme under test.
    pub scheme: ReleaseScheme,
    /// Physical register file size.
    pub rf_size: usize,
    /// Collect the per-allocation lifetime log.
    pub collect_events: bool,
    /// Warmup instructions (not measured).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Ablation overrides applied on top of the base core config.
    pub tweak: CoreTweak,
}

impl SimPoint {
    /// A point with the given run parameters and no tweaks or events.
    #[must_use]
    pub fn new(
        profile: &'static str,
        scheme: ReleaseScheme,
        rf_size: usize,
        warmup: u64,
        measure: u64,
    ) -> Self {
        SimPoint {
            profile,
            scheme,
            rf_size,
            collect_events: false,
            warmup,
            measure,
            tweak: CoreTweak::default(),
        }
    }

    /// Enables lifetime-event collection.
    #[must_use]
    pub fn with_events(mut self) -> Self {
        self.collect_events = true;
        self
    }

    /// Attaches ablation overrides.
    #[must_use]
    pub fn with_tweak(mut self, tweak: CoreTweak) -> Self {
        self.tweak = tweak;
        self
    }

    /// The canonical form of this point against a base configuration:
    /// tweak overrides equal to the base value are the identity and are
    /// dropped, so e.g. the counter-width ablation's default-width
    /// variant shares a key with the untweaked sweep point it
    /// duplicates.
    #[must_use]
    pub fn canonical(&self, core: &CoreConfig) -> SimPoint {
        let mut p = self.clone();
        if p.tweak.move_elimination == Some(core.rename.move_elimination) {
            p.tweak.move_elimination = None;
        }
        if p.tweak.counter_width == Some(core.rename.counter_width) {
            p.tweak.counter_width = None;
        }
        p
    }

    /// One-line human label for progress output.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = format!("{} {}@{}", self.profile, self.scheme.label(), self.rf_size);
        let delay = self.scheme.redefine_delay();
        if delay != 0 {
            s.push_str(&format!(" delay={delay}"));
        }
        if self.collect_events {
            s.push_str(" +events");
        }
        if let Some(me) = self.tweak.move_elimination {
            s.push_str(if me { " +move-elim" } else { " -move-elim" });
        }
        if let Some(w) = self.tweak.counter_width {
            s.push_str(&format!(" ctr={w}"));
        }
        s
    }
}

/// A memoizing, deduplicating executor of simulation points.
///
/// Feed it point sets with [`RunMatrix::ensure_with`]; read results back by
/// key with [`RunMatrix::get`] / [`RunMatrix::ipc`]. A matrix shared
/// across figures (as `all_experiments` does) deduplicates globally:
/// a baseline point requested by four figures simulates once.
#[derive(Debug, Default)]
pub struct RunMatrix {
    /// Every attempted point's outcome: its result, or the failure of a
    /// point that panicked (an unknown profile panics too), kept so
    /// assemblies can degrade to the surviving set and reports can say
    /// `n/m failed`.
    outcomes: HashMap<SimPoint, Result<RunResult, PointFailure>>,
    /// Requested keys served by a different cached key (canonicalized
    /// tweaks, events-superset runs).
    alias: HashMap<SimPoint, SimPoint>,
    requested: usize,
    executed: usize,
}

impl RunMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> Self {
        RunMatrix::default()
    }

    /// Makes every point in `points` available in the outcome map,
    /// executing the not-yet-attempted unique subset in parallel under `session` (the
    /// environment is consulted exactly zero times; drivers resolve
    /// `Session::from_env()` once at entry). Results are stored by key,
    /// so the outcome is independent of execution order and of the
    /// worker count.
    ///
    /// Two requested keys that cannot produce different results are
    /// collapsed onto one simulation:
    ///
    /// * tweaks are canonicalized against `core` (see
    ///   [`SimPoint::canonical`]);
    /// * a non-events point whose `.with_events()` twin is also in the
    ///   matrix is served by the twin — event collection is
    ///   observation-only and never perturbs timing (pinned by
    ///   `executor::tests::event_collection_does_not_change_timing`).
    ///
    /// A point that panics (an unknown profile panics too) is recorded
    /// as a failed outcome instead of aborting the batch; it is not
    /// retried by later `ensure_with` calls in the same process (the
    /// simulator is deterministic — it would fail again).
    pub fn ensure_with(&mut self, session: &Session, core: &CoreConfig, points: &[SimPoint]) {
        self.requested += points.len();
        // Events-enabled keys that will exist after this call, from the
        // outcome map and from this batch.
        let canon: Vec<SimPoint> = points.iter().map(|p| p.canonical(core)).collect();
        let mut with_events: std::collections::HashSet<SimPoint> =
            self.outcomes.keys().filter(|k| k.collect_events).cloned().collect();
        with_events.extend(canon.iter().filter(|p| p.collect_events).cloned());

        let mut missing: Vec<SimPoint> = Vec::new();
        let mut seen: std::collections::HashSet<SimPoint> = std::collections::HashSet::new();
        for (orig, mut key) in points.iter().zip(canon) {
            if !key.collect_events && with_events.contains(&key.clone().with_events()) {
                key = key.with_events();
            }
            if *orig != key {
                self.alias.insert(orig.clone(), key.clone());
            }
            if !self.outcomes.contains_key(&key) && seen.insert(key.clone()) {
                missing.push(key);
            }
        }
        if missing.is_empty() {
            return;
        }
        let outcomes = executor::execute_session(session, core, &missing);
        self.executed += missing.len();
        self.outcomes.extend(missing.into_iter().zip(outcomes));
    }

    /// The cached result for a point, or `None` if the point was
    /// ensured but **failed** (assemblies use this to degrade to the
    /// surviving set instead of panicking on a poisoned point).
    ///
    /// # Panics
    ///
    /// Panics if the point was never ensured — that is a
    /// bug in the calling figure's `points()` declaration, not a
    /// runtime failure, so it stays loud.
    #[must_use]
    pub fn try_get(&self, point: &SimPoint) -> Option<&RunResult> {
        self.outcome(point).ok()
    }

    /// Convenience: the cached IPC of a point, `None` if it failed.
    #[must_use]
    pub fn try_ipc(&self, point: &SimPoint) -> Option<f64> {
        self.try_get(point).map(|r| r.ipc)
    }

    /// The cached result for a point.
    ///
    /// # Panics
    ///
    /// Panics if the point was never ensured or if it
    /// failed — callers that can degrade use [`RunMatrix::try_get`].
    #[must_use]
    pub fn get(&self, point: &SimPoint) -> &RunResult {
        self.outcome(point).unwrap_or_else(|failure| panic!("point failed: {failure}"))
    }

    /// The outcome the point's key resolved to.
    fn outcome(&self, point: &SimPoint) -> Result<&RunResult, &PointFailure> {
        let key = self.alias.get(point).unwrap_or(point);
        let Some(outcome) = self.outcomes.get(key) else {
            panic!("point not ensured before assembly: {}", point.label())
        };
        outcome.as_ref()
    }

    /// Convenience: the cached IPC of a point.
    #[must_use]
    pub fn ipc(&self, point: &SimPoint) -> f64 {
        self.get(point).ipc
    }

    /// Number of ensured points that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// The failure records, for reporting.
    pub fn failures(&self) -> impl Iterator<Item = (&SimPoint, &PointFailure)> {
        self.outcomes.iter().filter_map(|(point, outcome)| Some((point, outcome.as_ref().err()?)))
    }

    /// Points requested across all `ensure_with` calls, duplicates
    /// included — what a naive serial pass would have simulated.
    #[must_use]
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Unique points attempted, after memoization. Failed points count:
    /// they were attempted.
    #[must_use]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// One-line dedup summary for pass-level logging.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} points requested, {} simulated ({} deduplicated, {:.2}x)",
            self.requested,
            self.executed,
            self.requested - self.executed,
            self.requested as f64 / self.executed.max(1) as f64
        );
        let failed = self.failed();
        if failed > 0 {
            s.push_str(&format!(", {failed} FAILED"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Session {
        Session::default().quiet()
    }

    #[test]
    fn points_key_on_every_field() {
        let base = SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 100, 400);
        let mut set = std::collections::HashSet::new();
        set.insert(base.clone());
        assert!(set.contains(&base.clone()));
        assert!(!set.contains(&SimPoint { rf_size: 96, ..base.clone() }));
        assert!(!set.contains(&base.clone().with_events()));
        assert!(!set.contains(
            &base.clone().with_tweak(CoreTweak { counter_width: Some(3), ..CoreTweak::default() })
        ));
        assert!(!set.contains(&SimPoint {
            scheme: ReleaseScheme::Atr { redefine_delay: 1 },
            ..base.clone()
        }));
        assert!(!set.contains(&SimPoint { measure: 401, ..base }));
    }

    #[test]
    fn neutral_tweak_is_identity() {
        let mut cfg = CoreConfig::default();
        let before = cfg.clone();
        CoreTweak::default().apply(&mut cfg);
        assert_eq!(format!("{before:?}"), format!("{cfg:?}"));
        assert!(CoreTweak::default().is_neutral());

        let tweak = CoreTweak { counter_width: Some(2), move_elimination: Some(true) };
        tweak.apply(&mut cfg);
        assert_eq!(cfg.rename.counter_width, 2);
        assert!(cfg.rename.move_elimination);
        assert!(!tweak.is_neutral());
    }

    #[test]
    fn matrix_deduplicates_within_and_across_ensure_calls() {
        let core = CoreConfig::default();
        let a = SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200);
        let b = SimPoint::new("505.mcf_r", ReleaseScheme::NonSpecEr, 64, 50, 200);
        let mut m = RunMatrix::new();
        m.ensure_with(&quiet(), &core, &[a.clone(), b.clone(), a.clone()]);
        assert_eq!(m.requested(), 3);
        assert_eq!(m.executed(), 2);
        m.ensure_with(&quiet(), &core, &[a.clone(), b.clone()]);
        assert_eq!(m.requested(), 5);
        assert_eq!(m.executed(), 2, "second ensure must be fully cached");
        assert!(m.ipc(&a) > 0.0);
        assert!(m.summary().contains("5 points requested, 2 simulated"));
    }

    #[test]
    #[should_panic(expected = "not ensured")]
    fn get_of_unensured_point_panics() {
        let m = RunMatrix::new();
        let _ = m.get(&SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 10, 20));
    }

    #[test]
    fn failed_points_degrade_instead_of_poisoning_the_matrix() {
        let core = CoreConfig::default();
        let good = SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 64, 50, 200);
        let bad = SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200);
        let session = Session::default().quiet().with_fault_injection("505.mcf_r");
        let mut m = RunMatrix::new();
        m.ensure_with(&session, &core, &[good.clone(), bad.clone()]);
        assert_eq!(m.failed(), 1);
        assert!(m.try_ipc(&good).is_some(), "the healthy point survives its poisoned sibling");
        assert_eq!(m.try_ipc(&bad), None);
        assert!(m.summary().contains("1 FAILED"), "{}", m.summary());
        // A later ensure must not re-run the deterministic failure.
        m.ensure_with(&session, &core, std::slice::from_ref(&bad));
        assert_eq!(m.executed(), 2, "the failed point is not retried across ensure calls");
        let (_, failure) = m.failures().next().expect("failure record kept");
        assert!(failure.payload.contains("injected fault"), "{}", failure.payload);
    }

    #[test]
    fn tweak_equal_to_base_config_is_canonicalized_away() {
        let core = CoreConfig::default();
        let plain =
            SimPoint::new("505.mcf_r", ReleaseScheme::Atr { redefine_delay: 0 }, 64, 50, 200);
        // The base config's own counter width / move-elim setting,
        // spelled as an explicit override: the identity tweak.
        let spelled = plain.clone().with_tweak(CoreTweak {
            counter_width: Some(core.rename.counter_width),
            move_elimination: Some(core.rename.move_elimination),
        });
        assert_eq!(spelled.canonical(&core), plain);
        // A genuinely different override survives canonicalization.
        let different =
            plain.clone().with_tweak(CoreTweak { counter_width: Some(8), ..CoreTweak::default() });
        assert_eq!(different.canonical(&core), different);

        let mut m = RunMatrix::new();
        m.ensure_with(&quiet(), &core, &[plain.clone(), spelled.clone()]);
        assert_eq!(m.executed(), 1, "identity tweak must share the untweaked simulation");
        assert_eq!(m.ipc(&plain).to_bits(), m.ipc(&spelled).to_bits());
    }

    #[test]
    fn non_events_point_is_served_by_its_events_twin() {
        let core = CoreConfig::default();
        let plain = SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200);
        let events = plain.clone().with_events();
        let mut m = RunMatrix::new();
        m.ensure_with(&quiet(), &core, &[plain.clone(), events.clone()]);
        assert_eq!(m.executed(), 1, "the events run subsumes the plain one");
        assert_eq!(m.ipc(&plain).to_bits(), m.ipc(&events).to_bits());
        assert!(m.get(&events).lifetime.is_some());
        // The upgrade also applies across ensure calls (twin cached first).
        let plain2 = SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 64, 50, 200);
        m.ensure_with(&quiet(), &core, &[plain2.clone().with_events()]);
        m.ensure_with(&quiet(), &core, std::slice::from_ref(&plain2));
        assert_eq!(m.executed(), 2);
        assert!(m.ipc(&plain2) > 0.0);
    }
}
