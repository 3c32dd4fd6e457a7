//! The measurement runner: warmup + measured window over one workload.

use atr_core::{RegLifetime, ReleaseKind};
use atr_pipeline::telemetry::hist_names;
use atr_pipeline::{CoreConfig, CoreStats, CoreTelemetry, OooCore};
use atr_telemetry::{CpiStack, Log2Hist, RunTelemetry};
use atr_workload::{Oracle, Program};
use std::sync::Arc;

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// IPC over the measured window (warmup excluded).
    pub ipc: f64,
    /// Mean allocated integer registers per cycle over the window.
    pub avg_int_occupancy: f64,
    /// Mean allocated FP registers per cycle over the window.
    pub avg_fp_occupancy: f64,
    /// Cumulative whole-run statistics.
    pub stats: CoreStats,
    /// The run's CPI stack, accounted at every telemetry level. Unlike
    /// `ipc` it spans warmup plus the measured window: the core's cycle
    /// counter starts at 1, so `cpi.cycles + 1 == stats.cycles`.
    pub cpi: CpiStack,
    /// Lifetime records (empty unless `rename.collect_events` was set).
    pub lifetimes: Vec<RegLifetime>,
    /// The histograms and series the observer recorded (empty below
    /// `ATR_TELEMETRY=stats`).
    pub telemetry: RunTelemetry,
}

/// Runs `program` on the core `cfg` describes: `warmup` unmeasured
/// instructions, then `measure` measured ones. `cfg` is the whole run
/// description, scheme, RF size, event collection, auditing and
/// telemetry included.
#[must_use]
pub fn run(cfg: CoreConfig, program: Arc<Program>, warmup: u64, measure: u64) -> RunResult {
    let events = cfg.rename.collect_events;
    let mut core = OooCore::new(cfg, Oracle::new(program));
    let s0 = if warmup > 0 { core.run(warmup) } else { core.snapshot_stats() };
    let s1 = core.run(measure);
    let cycles = (s1.cycles - s0.cycles).max(1);
    let ipc = (s1.retired - s0.retired) as f64 / cycles as f64;
    let avg_int = (s1.int_prf_occupancy_sum - s0.int_prf_occupancy_sum) as f64 / cycles as f64;
    let avg_fp = (s1.fp_prf_occupancy_sum - s0.fp_prf_occupancy_sum) as f64 / cycles as f64;
    let lifetimes = core.lifetime_log().to_vec();
    let (cpi, telemetry) = observations(core.into_telemetry(), events.then_some(&lifetimes[..]));
    RunResult {
        ipc,
        avg_int_occupancy: avg_int,
        avg_fp_occupancy: avg_fp,
        stats: s1,
        cpi,
        lifetimes,
        telemetry,
    }
}

/// Splits a finished run's observer into its CPI stack and what it
/// recorded at `stats`: the histograms and the series, plus — when the
/// run collected a lifetime log — the histograms derived from it.
fn observations(t: CoreTelemetry, lifetimes: Option<&[RegLifetime]>) -> (CpiStack, RunTelemetry) {
    if !t.stats_enabled() {
        return (t.cpi, RunTelemetry::default());
    }
    let mut hists = vec![
        (hist_names::ROB_OCCUPANCY.to_owned(), t.rob_occupancy),
        (hist_names::INT_PRF_OCCUPANCY.to_owned(), t.int_prf_occupancy),
        (hist_names::FP_PRF_OCCUPANCY.to_owned(), t.fp_prf_occupancy),
        (hist_names::FLUSH_WALK_LEN.to_owned(), t.flush_walk_len),
        (hist_names::BRANCH_RESOLUTION.to_owned(), t.branch_resolution),
    ];
    let mut series = Vec::new();
    if !t.int_occ_series.values.is_empty() {
        series.push((hist_names::INT_PRF_OCCUPANCY.to_owned(), t.int_occ_series));
    }
    if let Some(lifetimes) = lifetimes {
        let mut lifetime = Log2Hist::new();
        let mut claim = Log2Hist::new();
        for rec in lifetimes {
            let Some(released) = rec.release_cycle else {
                continue;
            };
            lifetime.record(released.saturating_sub(rec.alloc_cycle));
            if rec.release_kind == Some(ReleaseKind::Atomic) {
                if let Some(redefined) = rec.redefine_cycle {
                    claim.record(released.saturating_sub(redefined));
                }
            }
        }
        hists.push((hist_names::REG_LIFETIME.to_owned(), lifetime));
        hists.push((hist_names::CLAIM_DURATION.to_owned(), claim));
    }
    (t.cpi, RunTelemetry { hists, series })
}

/// Geometric mean of positive values (the paper's average speedups).
///
/// An empty input yields `1.0` — the neutral speedup — rather than the
/// `0/0 → NaN`-prone path a fold would produce, so aggregating an empty
/// benchmark subset cannot poison a downstream average.
#[must_use]
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        debug_assert!(v > 0.0, "geomean of a non-positive value");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::ReleaseScheme;
    use atr_workload::ProfileParams;

    const WARMUP: u64 = 2_000;
    const MEASURE: u64 = 10_000;

    fn quick(scheme: ReleaseScheme, rf: usize) -> CoreConfig {
        CoreConfig::default().with_rf_size(rf).with_scheme(scheme)
    }

    fn stats_level(cfg: CoreConfig) -> CoreConfig {
        use atr_telemetry::{TelemetryConfig, TelemetryLevel};
        cfg.with_telemetry(TelemetryConfig {
            level: TelemetryLevel::Stats,
            series_interval: 100,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn stats_telemetry_without_events_fills_cpi_and_occupancy_histograms() {
        use atr_telemetry::CpiBucket;
        let program = ProfileParams::default().build();
        let cfg = quick(ReleaseScheme::Atr { redefine_delay: 0 }, 96);
        let r = run(stats_level(cfg.clone()), program.clone(), WARMUP, MEASURE);
        r.cpi.check().unwrap();
        // The core's cycle counter has origin 1, so the observer sees
        // exactly stats.cycles - 1 ticks.
        assert_eq!(r.cpi.cycles + 1, r.stats.cycles);
        assert!(r.cpi.get(CpiBucket::Retiring) > 0);
        assert!(r.telemetry.hist("rob_occupancy").unwrap().count > 0);
        assert_eq!(r.telemetry.series.len(), 1, "series sampling was requested");
        assert!(r.telemetry.hist("reg_lifetime").is_none(), "no log, no lifetime histogram");
        assert!(r.telemetry.hist("claim_duration").is_none(), "no log, no claim histogram");
        assert!(r.lifetimes.is_empty());

        // The observer never perturbs the simulated result, and `off`
        // still accounts the same CPI stack.
        let off = run(cfg, program, WARMUP, MEASURE);
        assert_eq!(off.ipc.to_bits(), r.ipc.to_bits());
        assert_eq!(format!("{:?}", off.stats), format!("{:?}", r.stats));
        assert_eq!(off.cpi, r.cpi);
        assert!(off.telemetry.is_empty());
    }

    #[test]
    fn stats_telemetry_with_events_derives_lifetime_and_claim_histograms() {
        let program = ProfileParams::default().build();
        let mut cfg = quick(ReleaseScheme::Atr { redefine_delay: 0 }, 96);
        cfg.rename.collect_events = true;
        let r = run(stats_level(cfg), program, WARMUP, MEASURE);
        let lifetime = r.telemetry.hist("reg_lifetime").unwrap();
        assert!(lifetime.count > 0, "released registers must land in the lifetime histogram");
        let claim = r.telemetry.hist("claim_duration").unwrap();
        assert!(claim.count > 0, "ATR runs must record atomic claim durations");
        assert!(claim.count <= lifetime.count);
        assert!(!r.lifetimes.is_empty(), "the requested log is surfaced");
    }

    #[test]
    fn measured_window_excludes_warmup() {
        let program = ProfileParams::default().build();
        let r = run(quick(ReleaseScheme::Baseline, 128), program, WARMUP, MEASURE);
        assert!(r.ipc > 0.05, "ipc {}", r.ipc);
        assert!(r.stats.retired >= 12_000);
        assert!(r.avg_int_occupancy > 16.0, "occupancy {}", r.avg_int_occupancy);
    }

    #[test]
    fn runs_are_deterministic() {
        let program = ProfileParams::default().build();
        let cfg = quick(ReleaseScheme::Atr { redefine_delay: 0 }, 96);
        let a = run(cfg.clone(), program.clone(), WARMUP, MEASURE);
        let b = run(cfg, program, WARMUP, MEASURE);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.stats.flushes, b.stats.flushes);
    }

    #[test]
    fn events_are_collected_on_request() {
        let program = ProfileParams::default().build();
        let mut cfg = quick(ReleaseScheme::Baseline, 128);
        cfg.rename.collect_events = true;
        let r = run(cfg, program, WARMUP, 5_000);
        assert!(!r.lifetimes.is_empty());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_empty_input_is_neutral() {
        let empty = geomean(std::iter::empty());
        assert_eq!(empty, 1.0, "empty geomean must be the neutral speedup");
        assert!(empty.is_finite());
    }
}
