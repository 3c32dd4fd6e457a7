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
    /// Only the CPI stack, which every run accounts: no histograms, no
    /// time series, no JSONL records, no ring trace.
    #[default]
    Off,
    /// Adds the histograms, the optional time series and one JSONL
    /// record per simulated point.
    Stats,
    /// Everything in `Stats` plus the per-uop pipeline ring trace.
    Trace,
}

impl TelemetryLevel {
    /// Parses an `ATR_TELEMETRY` value.
    #[must_use]
    pub fn parse(raw: &str) -> Option<TelemetryLevel> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TelemetryLevel::Off),
            "stats" | "1" | "on" => Some(TelemetryLevel::Stats),
            "trace" | "2" => Some(TelemetryLevel::Trace),
            _ => None,
        }
    }
}

use std::path::PathBuf;

/// Default ring capacity for the pipeline trace (events, not cycles).
pub const DEFAULT_TRACE_CAP: u32 = 65_536;

/// Complete observer configuration, carried on `CoreConfig`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TelemetryConfig {
    /// What to record.
    pub level: TelemetryLevel,
    /// Pipeline-trace ring capacity (only meaningful at `Trace`).
    pub trace_cap: u32,
    /// Occupancy time-series sampling interval in cycles (0 = off).
    pub series_interval: u64,
    /// Where an audit failure dumps the trace ring in Konata format
    /// (only meaningful at `Trace`); `None` names the file after the
    /// failing cycle in the working directory.
    ///
    /// Boxed (a thin pointer), with `trace_cap` a `u32`, so this config,
    /// and every `CoreConfig` that carries it, stays 24 bytes: growing
    /// it shifted perfbench's `deep_window` heap layout enough for glibc
    /// to trim and re-fault the heap top on every core construction,
    /// doubling its set-up time.
    pub trace_dump: Option<Box<PathBuf>>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Off,
            trace_cap: DEFAULT_TRACE_CAP,
            series_interval: 0,
            trace_dump: None,
        }
    }
}

impl TelemetryConfig {
    /// Resolves `ATR_TELEMETRY` (off|stats|trace), `ATR_TRACE_CAP`,
    /// `ATR_TELEMETRY_SERIES` (sampling interval in cycles) and
    /// `ATR_TRACE_DUMP` (audit-failure dump path; blank is unset)
    /// through `lookup` (variable name → value, `None` when unset).
    /// Malformed values warn once and fall back to the defaults above.
    #[must_use]
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::default();
        if let Some(raw) = lookup("ATR_TELEMETRY") {
            match TelemetryLevel::parse(&raw) {
                Some(level) => cfg.level = level,
                None => {
                    crate::warn!(
                        "ignoring malformed ATR_TELEMETRY={raw:?} \
                         (expected off|stats|trace); telemetry stays off"
                    );
                }
            }
        }
        if let Some(raw) = lookup("ATR_TRACE_CAP") {
            match raw.trim().parse::<u32>() {
                Ok(cap) => cfg.trace_cap = cap,
                Err(_) => {
                    crate::warn!(
                        "ignoring malformed ATR_TRACE_CAP={raw:?}; \
                         using {DEFAULT_TRACE_CAP}"
                    );
                }
            }
        }
        if let Some(raw) = lookup("ATR_TELEMETRY_SERIES") {
            match raw.trim().parse::<u64>() {
                Ok(iv) => cfg.series_interval = iv,
                Err(_) => {
                    crate::warn!("ignoring malformed ATR_TELEMETRY_SERIES={raw:?}; series off");
                }
            }
        }
        cfg.trace_dump = lookup("ATR_TRACE_DUMP")
            .filter(|raw| !raw.trim().is_empty())
            .map(|raw| Box::new(PathBuf::from(raw)));
        cfg
    }

    /// True at `Stats` or `Trace`.
    #[must_use]
    pub fn stats_enabled(&self) -> bool {
        self.level >= TelemetryLevel::Stats
    }

    /// True only at `Trace`.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.level >= TelemetryLevel::Trace
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
        assert_eq!(TelemetryLevel::parse("trace"), Some(TelemetryLevel::Trace));
        assert_eq!(TelemetryLevel::parse("2"), Some(TelemetryLevel::Trace));
        assert_eq!(TelemetryLevel::parse("bogus"), None);
    }

    #[test]
    fn levels_are_ordered_and_gates_follow() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Stats);
        assert!(TelemetryLevel::Stats < TelemetryLevel::Trace);
        let off = TelemetryConfig::default();
        assert!(!off.stats_enabled() && !off.trace_enabled());
        let stats = TelemetryConfig { level: TelemetryLevel::Stats, ..off.clone() };
        assert!(stats.stats_enabled() && !stats.trace_enabled());
        let trace = TelemetryConfig { level: TelemetryLevel::Trace, ..off };
        assert!(trace.stats_enabled() && trace.trace_enabled());
    }

    #[test]
    fn trace_dump_path_parses_and_blank_is_unset() {
        let dump = |value: &'static str| {
            TelemetryConfig::from_lookup(|name| {
                (name == "ATR_TRACE_DUMP").then(|| value.to_owned())
            })
            .trace_dump
        };
        assert_eq!(dump("/tmp/fail.kanata").as_deref(), Some(&PathBuf::from("/tmp/fail.kanata")));
        assert_eq!(dump("  "), None);
        assert_eq!(TelemetryConfig::from_lookup(|_| None).trace_dump, None);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn config_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<TelemetryConfig>(), 24, "see `trace_dump`");
    }
}
