//! The typed execution session: every runtime knob resolved **once**.
//!
//! A [`Session`] is the one place the `ATR_*` knobs are parsed:
//! [`Session::from_lookup`] resolves them from any variable lookup (a
//! test passes a map), [`Session::from_env`] is that parser over the
//! process environment, and the resolved struct is threaded explicitly
//! through [`crate::matrix::RunMatrix::ensure_with`] into the executor.
//! Execution itself reads no environment: not in the worker path, and
//! not when telemetry records are written (their destination is
//! [`Session::telemetry_out`]).
//!
//! Every field is also settable in code (builder style), so tests and
//! library users get deterministic sessions with no env coupling at
//! all. The `ATR_*` names remain the compatibility surface — see the
//! README's environment-variable reference table.

use atr_telemetry::TelemetryConfig;
use std::path::PathBuf;

/// Knobs that were removed, each with what became of it. Setting one
/// (to anything but blank or `0`) warns once and changes nothing.
const RETIRED_VARIABLES: [(&str, &str); 4] = [
    (
        "ATR_RUN_JOURNAL",
        "resume from a run journal was removed, and every pass simulates its points",
    ),
    ("ATR_TRACE_CAP", "the per-uop pipeline trace was removed"),
    ("ATR_TRACE_DUMP", "the per-uop pipeline trace was removed"),
    ("ATR_TELEMETRY_SERIES", "the occupancy time series was removed"),
];

/// All runtime knobs of one execution pass, resolved up front.
///
/// Nothing in here may change a simulated result: threads, progress,
/// audit, telemetry (and where its records go) and fault injection are
/// all execution/observation concerns, which is why none of them is part
/// of the [`crate::matrix::SimPoint`] memoization key and why
/// fingerprints are bit-identical under every setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Worker threads for the point pool (`ATR_SIM_THREADS`; default:
    /// available cores).
    pub threads: usize,
    /// Per-point progress lines on stderr (`ATR_SIM_PROGRESS`, on by
    /// default).
    pub progress: bool,
    /// Attach the cycle-level rename/release auditor (`ATR_AUDIT`).
    pub audit: bool,
    /// Observer configuration (`ATR_TELEMETRY`).
    pub telemetry: TelemetryConfig,
    /// File the per-point telemetry JSONL records are appended to
    /// (`ATR_TELEMETRY_OUT`; stdout when unset).
    pub telemetry_out: Option<PathBuf>,
    /// Chaos hook (`ATR_FAULT_INJECT`): any point whose label contains
    /// this substring panics inside the worker. Exercises the panic
    /// isolation path in tests and CI; never set it in a real run.
    pub fault_injection: Option<String>,
}

impl Default for Session {
    /// An env-free session: machine parallelism, progress on,
    /// everything else off.
    fn default() -> Self {
        Session {
            threads: available_threads(),
            progress: true,
            audit: false,
            telemetry: TelemetryConfig::default(),
            telemetry_out: None,
            fault_injection: None,
        }
    }
}

impl Session {
    /// Resolves every `ATR_*` knob from the process environment, once.
    #[must_use]
    pub fn from_env() -> Self {
        Session::from_lookup(|name| std::env::var(name).ok())
    }

    /// Resolves every `ATR_*` knob through `lookup` (variable name →
    /// value, `None` when unset), without touching the process
    /// environment. Malformed values warn once and keep the default.
    ///
    /// * `ATR_SIM_THREADS` — positive worker count;
    /// * `ATR_SIM_PROGRESS` — progress lines unless `0`;
    /// * `ATR_AUDIT` — on unless unset, empty or `0`;
    /// * `ATR_TELEMETRY` — `off` or `stats`;
    /// * `ATR_TELEMETRY_OUT` — non-blank path for the telemetry records;
    /// * `ATR_FAULT_INJECT` — non-blank label needle.
    ///
    /// The retired `ATR_RUN_JOURNAL`, `ATR_TRACE_CAP`, `ATR_TRACE_DUMP`
    /// and `ATR_TELEMETRY_SERIES` change nothing; each one that is set
    /// warns once.
    #[must_use]
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let threads = match lookup("ATR_SIM_THREADS") {
            None => available_threads(),
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    atr_telemetry::warn!(
                        "ignoring malformed ATR_SIM_THREADS={raw:?} (expected a positive count)"
                    );
                    available_threads()
                }
            },
        };
        for (name, why) in RETIRED_VARIABLES {
            if lookup(name).is_some_and(|v| !matches!(v.trim(), "" | "0")) {
                atr_telemetry::warn!("ignoring {name}: {why}");
            }
        }
        let non_blank =
            |name: &str| lookup(name).map(|v| v.trim().to_owned()).filter(|v| !v.is_empty());
        Session {
            threads,
            progress: lookup("ATR_SIM_PROGRESS").is_none_or(|v| v.trim() != "0"),
            audit: lookup("ATR_AUDIT").is_some_and(|v| !v.trim().is_empty() && v.trim() != "0"),
            telemetry: TelemetryConfig::from_lookup(&lookup),
            telemetry_out: non_blank("ATR_TELEMETRY_OUT").map(PathBuf::from),
            fault_injection: non_blank("ATR_FAULT_INJECT"),
        }
    }

    /// Overrides the worker count (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Silences per-point progress lines.
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Attaches the rename/release auditor to every run.
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the observer configuration.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Injects a panic into every point whose label contains `needle`
    /// (test/CI chaos hook).
    #[must_use]
    pub fn with_fault_injection(mut self, needle: impl Into<String>) -> Self {
        self.fault_injection = Some(needle.into());
        self
    }

    /// One-line description for pass-level logging.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "threads={} progress={} audit={} telemetry={:?}",
            self.threads,
            if self.progress { "on" } else { "off" },
            if self.audit { "on" } else { "off" },
            self.telemetry.level,
        )
    }
}

/// The machine's available parallelism: the worker count when
/// `ATR_SIM_THREADS` is unset.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_telemetry::TelemetryLevel;
    use std::collections::HashMap;

    /// A session resolved from `vars` alone.
    fn parse(vars: &[(&str, &str)]) -> Session {
        let vars: HashMap<&str, &str> = vars.iter().copied().collect();
        Session::from_lookup(|name| vars.get(name).map(|v| (*v).to_owned()))
    }

    #[test]
    fn default_session_is_env_free_and_off() {
        let s = Session::default();
        assert!(s.threads >= 1);
        assert!(s.progress);
        assert!(!s.audit);
        assert!(!s.telemetry.stats_enabled());
        assert_eq!(s.telemetry_out, None);
        assert_eq!(s.fault_injection, None);
    }

    #[test]
    fn builders_compose() {
        let s = Session::default()
            .quiet()
            .with_threads(0)
            .with_audit(true)
            .with_fault_injection("505.mcf_r");
        assert_eq!(s.threads, 1, "a zero thread request clamps to serial");
        assert!(!s.progress);
        assert!(s.audit);
        assert_eq!(s.fault_injection.as_deref(), Some("505.mcf_r"));
        let d = s.describe();
        assert!(d.contains("threads=1") && d.contains("audit=on"), "{d}");
    }

    #[test]
    fn empty_lookup_is_the_default_session() {
        assert_eq!(parse(&[]), Session::default());
    }

    #[test]
    fn switches_and_threads_parse() {
        let s = parse(&[("ATR_SIM_THREADS", " 3 "), ("ATR_SIM_PROGRESS", "0"), ("ATR_AUDIT", "1")]);
        assert_eq!(s.threads, 3);
        assert!(!s.progress && s.audit);
        assert!(parse(&[("ATR_SIM_PROGRESS", "1")]).progress);
        assert!(!parse(&[("ATR_SIM_PROGRESS", " 0 ")]).progress);
        assert!(!parse(&[("ATR_AUDIT", "0")]).audit);
        assert!(!parse(&[("ATR_AUDIT", " ")]).audit);
        // Malformed or zero counts warn and keep the machine default.
        let default_threads = Session::default().threads;
        assert_eq!(parse(&[("ATR_SIM_THREADS", "0")]).threads, default_threads);
        assert_eq!(parse(&[("ATR_SIM_THREADS", "many")]).threads, default_threads);
        assert!(parse(&[("ATR_TELEMETRY", "stats")]).telemetry.stats_enabled());
    }

    /// The removed `trace` level is a malformed value now: it warns and
    /// leaves telemetry off.
    #[test]
    fn former_trace_level_is_rejected_and_telemetry_stays_off() {
        for value in ["trace", "2"] {
            assert_eq!(TelemetryLevel::parse(value), None, "{value:?}");
            assert_eq!(parse(&[("ATR_TELEMETRY", value)]), Session::default(), "{value:?}");
        }
    }

    #[test]
    fn fault_env_knob_parses() {
        assert_eq!(parse(&[("ATR_FAULT_INJECT", "  ")]).fault_injection, None, "blank is off");
        assert_eq!(
            parse(&[("ATR_FAULT_INJECT", " 505.mcf_r ")]).fault_injection.as_deref(),
            Some("505.mcf_r")
        );
    }

    #[test]
    fn telemetry_out_parses_and_blank_is_stdout() {
        assert_eq!(
            parse(&[("ATR_TELEMETRY_OUT", " /tmp/records.jsonl ")]).telemetry_out,
            Some(PathBuf::from("/tmp/records.jsonl"))
        );
        assert_eq!(parse(&[("ATR_TELEMETRY_OUT", " ")]).telemetry_out, None, "blank is stdout");
    }

    /// Every retired knob warns and changes nothing.
    #[test]
    fn retired_journal_variable_changes_nothing() {
        for (name, _) in RETIRED_VARIABLES {
            for value in ["1", "/tmp/old-dir", "0", ""] {
                assert_eq!(parse(&[(name, value)]), Session::default(), "{name}={value:?}");
            }
        }
    }
}
