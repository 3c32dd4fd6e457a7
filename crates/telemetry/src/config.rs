//! Runtime telemetry gating.
//!
//! Telemetry is an observer, never part of the simulated machine, so
//! its level is resolved with the rest of the run's knobs and is
//! deliberately **excluded** from the SimPoint memoization key (same
//! policy as `ATR_AUDIT`): flipping `ATR_TELEMETRY` must never fork
//! the result cache, because results are identical either way.

/// How much the observer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TelemetryLevel {
    /// Only the CPI stack, which every run accounts: no histograms and
    /// no JSONL records.
    #[default]
    Off,
    /// Adds the histograms and one JSONL record per simulated point.
    Stats,
}

impl TelemetryLevel {
    /// Parses an `ATR_TELEMETRY` value.
    #[must_use]
    pub fn parse(raw: &str) -> Option<TelemetryLevel> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TelemetryLevel::Off),
            "stats" | "1" | "on" => Some(TelemetryLevel::Stats),
            _ => None,
        }
    }
}

/// Complete observer configuration, carried on `CoreConfig`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TelemetryConfig {
    /// What to record.
    pub level: TelemetryLevel,
}

impl TelemetryConfig {
    /// Resolves `ATR_TELEMETRY` (off|stats) through `lookup` (variable
    /// name → value, `None` when unset). A malformed value warns once
    /// and leaves telemetry off.
    #[must_use]
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::default();
        if let Some(raw) = lookup("ATR_TELEMETRY") {
            match TelemetryLevel::parse(&raw) {
                Some(level) => cfg.level = level,
                None => {
                    crate::warn!(
                        "ignoring malformed ATR_TELEMETRY={raw:?} \
                         (expected off|stats); telemetry stays off"
                    );
                }
            }
        }
        cfg
    }

    /// True at `Stats`.
    #[must_use]
    pub fn stats_enabled(&self) -> bool {
        self.level >= TelemetryLevel::Stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(TelemetryLevel::parse("off"), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::parse("0"), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::parse(" STATS "), Some(TelemetryLevel::Stats));
        assert_eq!(TelemetryLevel::parse("on"), Some(TelemetryLevel::Stats));
        assert_eq!(TelemetryLevel::parse("bogus"), None);
    }

    #[test]
    fn levels_are_ordered_and_gates_follow() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Stats);
        assert!(!TelemetryConfig::default().stats_enabled());
        assert!(TelemetryConfig { level: TelemetryLevel::Stats }.stats_enabled());
    }
}
