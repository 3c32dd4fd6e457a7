//! Golden model counts: every counter the core reports, pinned.
//!
//! The cycle loop is free to change *how* it advances time (event-driven
//! wakeup, a completion queue, quiet-cycle skip-ahead), but never *what*
//! it computes. This test pins the full [`CoreStats`] — cycles, retired
//! and fetched counts, per-kind PRF releases, stall counters, occupancy
//! sums, cache and DRAM counters — plus the CPI-stack slots for 4
//! profiles × 4 schemes × RF {64, 280}, once with telemetry at `stats`
//! and once with the rename auditor attached (telemetry off). Any drift
//! in any counter fails the test, and the two lines of a pair must agree
//! apart from the mode word.
//!
//! The expected values live in `tests/golden/model_counts.txt`, one line
//! per point. On a mismatch the full actual rendering is written next
//! to the test binary's scratch dir (the path is in the panic message);
//! after a deliberate model change, review the diff and copy it over.

use atr::core::ReleaseScheme;
use atr::pipeline::CoreConfig;
use atr::sim::run;
use atr::telemetry::{TelemetryConfig, TelemetryLevel};
use atr::workload::spec;

const PROFILES: [&str; 4] = ["505.mcf_r", "502.gcc_r", "519.lbm_r", "548.exchange2_r"];
const SCHEMES: [ReleaseScheme; 4] = [
    ReleaseScheme::Baseline,
    ReleaseScheme::NonSpecEr,
    ReleaseScheme::Atr { redefine_delay: 1 },
    ReleaseScheme::Combined { redefine_delay: 0 },
];
const RF_SIZES: [usize; 2] = [64, 280];
const WARMUP: u64 = 300;
const MEASURE: u64 = 1_200;

const GOLDEN: &str = include_str!("golden/model_counts.txt");

fn render_all() -> String {
    let mut out = String::new();
    for name in PROFILES {
        let program = spec::find_profile(name).expect("profile exists").build();
        for scheme in SCHEMES {
            for rf_size in RF_SIZES {
                for audit in [false, true] {
                    let telemetry = if audit {
                        TelemetryConfig::default()
                    } else {
                        TelemetryConfig { level: TelemetryLevel::Stats, ..Default::default() }
                    };
                    let cfg = CoreConfig::default()
                        .with_rf_size(rf_size)
                        .with_scheme(scheme)
                        .with_audit(audit)
                        .with_telemetry(telemetry);
                    let r = run(cfg, program.clone(), WARMUP, MEASURE);
                    let mode = if audit { "audit" } else { "stats" };
                    out.push_str(&format!(
                        "{name} {scheme:?} rf{rf_size} {mode}: {:?} cpi={:?}\n",
                        r.stats, r.cpi.slots
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn model_counts_match_the_golden_file() {
    let actual = render_all();
    for pair in actual.lines().collect::<Vec<_>>().chunks(2) {
        assert_eq!(
            pair[0].replacen(" stats: ", " audit: ", 1),
            pair[1],
            "a point's counters depend on its telemetry level or on the auditor"
        );
    }
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("model_counts.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let (line, (want, got)) = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .unwrap_or((0, ("<line counts differ>", "<line counts differ>")));
    panic!(
        "model counts drifted from tests/golden/model_counts.txt (first difference at line \
         {}):\n  golden: {want}\n  actual: {got}\nfull actual rendering: {}",
        line + 1,
        path.display()
    );
}
