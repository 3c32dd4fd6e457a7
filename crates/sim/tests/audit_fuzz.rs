//! Seeded flush-storm fuzzing of the audited pipeline.
//!
//! Each case draws a random high-misprediction workload and a random
//! core configuration (scheme, RF size, move elimination), then runs it
//! with the cycle-level auditor attached while injecting interrupts to
//! force §4.1 region-boundary flushes on top of the branch-driven ones.
//! Any SRT/free-list divergence — a rebuilt SRT naming a freed
//! register, a leaked or double-freed register — panics inside the
//! auditor, and the harness reports the failing seed so the exact case
//! replays with `storm(seed)`.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, InterruptMode, OooCore};
use atr_rng::{RngExt, SeedableRng, SmallRng};
use atr_workload::{Oracle, ProfileParams};

const SEEDS: u64 = 32;
const INSTS_PER_CASE: u64 = 600;

/// One fuzz case, fully determined by `seed`.
fn storm(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let program = ProfileParams {
        seed: rng.next_u64(),
        // Hostile control flow: close to coin-flip branches, plus some
        // exception-raising divides to force full-pipeline squashes.
        branch_entropy: rng.random_range(0.6..1.0),
        div_frac: rng.random_range(0.0..0.03),
        load_frac: rng.random_range(0.10..0.30),
        store_frac: rng.random_range(0.05..0.15),
        ..ProfileParams::default()
    }
    .build();

    let scheme = ReleaseScheme::ALL[rng.random_range(0..ReleaseScheme::ALL.len())];
    let mut cfg = CoreConfig::default()
        .with_scheme(scheme)
        .with_rf_size(rng.random_range(48..128usize))
        .with_audit(true);
    // An unused draw: it keeps each seed's move-elimination draw, and so
    // each seed's case, the same as when it chose a recovery policy.
    let _ = rng.random::<bool>();
    cfg.rename.move_elimination = rng.random::<bool>();

    let mut core = OooCore::new(cfg, Oracle::new(program));
    // Interleave interrupts with execution so recovery runs while
    // claims, armed precommits, and redefine-delay entries are live.
    for chunk in 0u64..4 {
        core.run(INSTS_PER_CASE / 4);
        core.request_interrupt(if chunk % 2 == 0 {
            InterruptMode::FlushAtRegionBoundary
        } else {
            InterruptMode::Drain
        });
    }
    core.run(INSTS_PER_CASE / 2);

    let auditor = core.auditor().expect("audit was enabled");
    assert!(auditor.cycles_checked() > 0, "auditor never ran");
    assert_eq!(auditor.violations_found(), 0);
}

#[test]
fn flush_storm_recovery_survives_32_seeds() {
    for case in 0..SEEDS {
        let seed = 0xF1A5_0000 + case;
        let result = std::panic::catch_unwind(|| storm(seed));
        assert!(
            result.is_ok(),
            "flush-storm fuzz: case with seed {seed:#x} failed — call storm({seed:#x}) to replay"
        );
    }
}
