//! Golden model counts: every counter the core reports, pinned.
//!
//! The cycle loop is free to change *how* it advances time (event-driven
//! wakeup, a completion queue, quiet-cycle skip-ahead), but never *what*
//! it computes. This test pins the full [`CoreStats`] — cycles, retired
//! and fetched counts, per-kind PRF releases, stall counters, occupancy
//! sums, cache and DRAM counters — plus the CPI-stack slots for 4
//! profiles × 4 schemes × RF {64, 280}, once with telemetry at `stats`
//! and once with the rename auditor attached. Any drift in any counter
//! fails the test.
//!
//! The expected values live in `tests/golden/model_counts.txt`, one line
//! per point. On a mismatch the full actual rendering is written next
//! to the test binary's scratch dir (the path is in the panic message);
//! after a deliberate model change, review the diff and copy it over.

use atr::core::ReleaseScheme;
use atr::pipeline::CoreConfig;
use atr::sim::{run, RunSpec};
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
                    let spec = RunSpec {
                        scheme,
                        rf_size,
                        warmup: WARMUP,
                        measure: MEASURE,
                        collect_events: false,
                        audit,
                        telemetry,
                    };
                    let r = run(&CoreConfig::default(), program.clone(), &spec);
                    let mode = if audit { "audit" } else { "stats" };
                    let cpi = r.telemetry.cpi.map(|c| format!("{:?}", c.slots));
                    out.push_str(&format!(
                        "{name} {scheme:?} rf{rf_size} {mode}: {:?} cpi={}\n",
                        r.stats,
                        cpi.as_deref().unwrap_or("-")
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
