//! `atr-telemetry` — the workspace observability layer.
//!
//! Three pieces, all dependency-free:
//!
//! * [`cpi`] — top-down CPI-stack cycle accounting with the
//!   `Σ buckets == width × cycles` invariant, kept on every run;
//! * [`hist`] — mergeable log2-bucketed streaming histograms, recorded
//!   only at `stats`;
//! * [`log`] — the tiny leveled stderr logger (`ATR_LOG`) behind the
//!   [`info!`]/[`warn!`] macros.
//!
//! [`RunTelemetry`] holds the histograms one simulation run recorded at
//! `stats` level, for the run-matrix executor to emit as
//! JSONL. Gating lives in [`config::TelemetryConfig`]
//! (`ATR_TELEMETRY`), which — like `ATR_AUDIT` — is excluded from
//! memoization keys.

pub mod config;
pub mod cpi;
pub mod hist;
pub mod log;

pub use config::{TelemetryConfig, TelemetryLevel};
pub use cpi::{CpiBucket, CpiStack, NUM_CPI_BUCKETS};
pub use hist::{bucket_of, bucket_range, Log2Hist, NUM_HIST_BUCKETS};

/// The histograms one simulation run recorded: empty below `stats`
/// level. (The run's CPI stack is accounted at every
/// level and travels beside this, on the sim layer's `RunResult`.)
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Named histograms (occupancies, register lifetime, …).
    pub hists: Vec<(String, Log2Hist)>,
}

impl RunTelemetry {
    /// True when the run recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// The named histogram, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&Log2Hist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}
