//! `atr-telemetry` — the workspace observability layer.
//!
//! Four pieces, all dependency-free:
//!
//! * [`cpi`] — top-down CPI-stack cycle accounting with the
//!   `Σ buckets == width × cycles` invariant, kept on every run;
//! * [`hist`] — mergeable log2-bucketed streaming histograms and
//!   fixed-interval time series, recorded only at `stats` and above;
//! * [`trace`] — an opt-in ring-buffered per-uop pipeline trace with a
//!   Konata-compatible dump;
//! * [`log`] — the tiny leveled stderr logger (`ATR_LOG`) behind the
//!   [`info!`]/[`debug!`]/[`warn!`] macros.
//!
//! [`RunTelemetry`] holds the histograms and series one simulation run
//! recorded at `stats` level, for the run-matrix executor to emit as
//! JSONL. Gating lives in [`config::TelemetryConfig`]
//! (`ATR_TELEMETRY`), which — like `ATR_AUDIT` — is excluded from
//! memoization keys.

pub mod config;
pub mod cpi;
pub mod hist;
pub mod log;
pub mod trace;

pub use config::{TelemetryConfig, TelemetryLevel, DEFAULT_TRACE_CAP};
pub use cpi::{CpiBucket, CpiStack, NUM_CPI_BUCKETS};
pub use hist::{bucket_of, bucket_range, Log2Hist, TimeSeries, NUM_HIST_BUCKETS};
pub use trace::{PipeTrace, TraceEvent, TraceStage};

/// The histograms and time series one simulation run recorded: empty
/// below `stats` level. (The run's CPI stack is accounted at every
/// level and travels beside this, on the sim layer's `RunResult`.)
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Named histograms (occupancies, register lifetime, …).
    pub hists: Vec<(String, Log2Hist)>,
    /// Named fixed-interval time series (occupancy traces).
    pub series: Vec<(String, TimeSeries)>,
}

impl RunTelemetry {
    /// True when the run recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty() && self.series.is_empty()
    }

    /// The named histogram, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&Log2Hist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}
