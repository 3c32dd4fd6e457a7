//! CI guard: the telemetry **off** path must cost (nearly) nothing.
//!
//! Runs one fixed-budget simulation interleaved at `off` and `stats`
//! levels (min of three walls each — min, not mean, because scheduler
//! noise only ever adds time) and fails when the off path is more than
//! 2% *slower* than the stats path. Both levels account the CPI stack;
//! stats does strictly more on top (per-cycle occupancy histograms, the
//! flush-walk and branch-resolution histograms), so an off path that
//! fails this guard has lost its gating — e.g. the histograms being
//! recorded, or event collection being forced, with telemetry disabled.
//!
//! The timing gate is backed by functional checks: the off run must
//! produce nothing but the CPI stack (no histograms, no series), that
//! stack must equal the stats run's, and both levels must yield
//! bit-identical simulated results.
//!
//! The budget is fixed internally (not `ATR_SIM_*`) so the measurement
//! is long enough to be stable no matter how tiny CI's test budget is.

use atr_core::ReleaseScheme;
use atr_sim::run;
use atr_telemetry::{TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const REPS: usize = 3;
const TOLERANCE: f64 = 1.02;

fn main() -> ExitCode {
    let profiles = all_profiles();
    let profile = profiles.iter().find(|p| p.name == "505.mcf_r").expect("profile exists");
    let core_at = |level: TelemetryLevel| {
        atr_pipeline::CoreConfig::default()
            .with_rf_size(96)
            .with_scheme(ReleaseScheme::Atr { redefine_delay: 0 })
            .with_telemetry(TelemetryConfig { level, ..TelemetryConfig::default() })
    };

    let mut off_min = Duration::MAX;
    let mut stats_min = Duration::MAX;
    let mut fingerprints: Vec<(u64, u64, u64)> = Vec::new();
    let mut stats_cpi = None;
    for rep in 0..REPS {
        // Interleave so drift (thermal, noisy neighbors) hits both arms.
        for (level, min) in
            [(TelemetryLevel::Stats, &mut stats_min), (TelemetryLevel::Off, &mut off_min)]
        {
            let t0 = Instant::now();
            let r = run(core_at(level), profile.build(), 10_000, 100_000);
            *min = (*min).min(t0.elapsed());
            fingerprints.push((r.stats.cycles, r.stats.retired, r.stats.flushes));
            if level == TelemetryLevel::Stats {
                if r.telemetry.is_empty() {
                    atr_telemetry::warn!("stats level produced no histograms");
                    return ExitCode::FAILURE;
                }
                stats_cpi = Some(r.cpi);
            } else if !r.telemetry.is_empty() {
                atr_telemetry::warn!(
                    "ATR_TELEMETRY=off produced more than the CPI stack — gating broken"
                );
                return ExitCode::FAILURE;
            } else if stats_cpi.as_ref() != Some(&r.cpi) {
                atr_telemetry::warn!("the off run's CPI stack differs from the stats run's");
                return ExitCode::FAILURE;
            }
        }
        atr_telemetry::debug!("rep {rep}: off_min {off_min:?}, stats_min {stats_min:?}");
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        atr_telemetry::warn!("telemetry level changed the simulated result: {fingerprints:?}");
        return ExitCode::FAILURE;
    }

    let ratio = off_min.as_secs_f64() / stats_min.as_secs_f64();
    atr_telemetry::info!(
        "telemetry_overhead: off {off_min:?} vs stats {stats_min:?} (off/stats = {ratio:.3})"
    );
    if ratio > TOLERANCE {
        atr_telemetry::warn!(
            "telemetry off path is {:.1}% slower than the stats path (tolerance 2%). \
             The disabled path must do strictly less work than stats — check that \
             OooCore records no histograms and that collect_events is not forced when \
             ATR_TELEMETRY=off.",
            (ratio - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
