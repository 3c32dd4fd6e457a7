//! CI guard: the telemetry **off** path records nothing but the CPI
//! stack.
//!
//! Runs one fixed-budget simulation interleaved at `off` and `stats`
//! levels and checks, deterministically:
//!
//! * the `off` core's observer ([`OooCore::into_telemetry`]) holds zero
//!   samples in every histogram, the occupancy series and the trace
//!   ring, and its lifetime log is empty (event collection is never
//!   forced) — so the disabled path did none of the work it gates;
//! * the `stats` core recorded histogram and series samples (the check
//!   above can fail);
//! * both levels produce the identical `CoreStats` and CPI stack.
//!
//! The off/stats wall-clock ratio (min of three walls each) is printed
//! at `info` but gates nothing: on a shared 2-vCPU host it read
//! 0.89–1.20 between identical runs, far wider than any overhead worth
//! bounding. The off path's speed is measured end to end by perfbench's
//! untraced rounds, which run at `off`.
//!
//! The budget is fixed internally (not `ATR_SIM_*`) so the run covers
//! flushes, exceptions and every histogram no matter how tiny CI's test
//! budget is.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, CoreStats, CoreTelemetry, OooCore};
use atr_telemetry::{CpiStack, TelemetryConfig, TelemetryLevel};
use atr_workload::spec::all_profiles;
use atr_workload::Oracle;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const REPS: usize = 3;

/// One finished run at one level.
struct Observed {
    wall: Duration,
    stats: CoreStats,
    cpi: CpiStack,
    /// Samples held by the histograms, the series and the trace ring.
    samples: u64,
    lifetimes: usize,
}

/// Every sample the observer holds beyond its CPI stack.
fn recorded_samples(t: &CoreTelemetry) -> u64 {
    let hists = [
        &t.rob_occupancy,
        &t.int_prf_occupancy,
        &t.fp_prf_occupancy,
        &t.flush_walk_len,
        &t.branch_resolution,
    ];
    hists.iter().map(|h| h.count).sum::<u64>()
        + t.int_occ_series.values.len() as u64
        + t.trace.len() as u64
}

fn main() -> ExitCode {
    let profiles = all_profiles();
    let profile = profiles.iter().find(|p| p.name == "505.mcf_r").expect("profile exists");
    let simulate = |level: TelemetryLevel| {
        let cfg = CoreConfig::default()
            .with_rf_size(96)
            .with_scheme(ReleaseScheme::Atr { redefine_delay: 0 })
            .with_telemetry(TelemetryConfig {
                level,
                series_interval: 1_000,
                ..TelemetryConfig::default()
            });
        let t0 = Instant::now();
        let mut core = OooCore::new(cfg, Oracle::new(profile.build()));
        core.run(10_000);
        let stats = core.run(100_000);
        let wall = t0.elapsed();
        let lifetimes = core.lifetime_log().len();
        let t = core.into_telemetry();
        Observed { wall, stats, samples: recorded_samples(&t), cpi: t.cpi, lifetimes }
    };

    let (mut off_min, mut stats_min) = (Duration::MAX, Duration::MAX);
    for rep in 0..REPS {
        // Interleave so drift (thermal, noisy neighbors) hits both arms.
        let stats = simulate(TelemetryLevel::Stats);
        let off = simulate(TelemetryLevel::Off);
        if off.samples != 0 || off.lifetimes != 0 {
            atr_telemetry::warn!(
                "ATR_TELEMETRY=off recorded {} histogram/series/trace samples and {} lifetime \
                 records — gating broken",
                off.samples,
                off.lifetimes
            );
            return ExitCode::FAILURE;
        }
        if stats.samples == 0 {
            atr_telemetry::warn!("stats level recorded no histogram or series samples");
            return ExitCode::FAILURE;
        }
        if format!("{:?}", off.stats) != format!("{:?}", stats.stats) {
            atr_telemetry::warn!("telemetry level changed the simulated result");
            return ExitCode::FAILURE;
        }
        if off.cpi != stats.cpi {
            atr_telemetry::warn!("the off run's CPI stack differs from the stats run's");
            return ExitCode::FAILURE;
        }
        off_min = off_min.min(off.wall);
        stats_min = stats_min.min(stats.wall);
        atr_telemetry::debug!("rep {rep}: off_min {off_min:?}, stats_min {stats_min:?}");
    }

    let ratio = off_min.as_secs_f64() / stats_min.as_secs_f64();
    atr_telemetry::info!(
        "telemetry_overhead: off {off_min:?} vs stats {stats_min:?} (off/stats = {ratio:.3}, \
         informational)"
    );
    ExitCode::SUCCESS
}
