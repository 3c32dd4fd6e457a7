//! Microbenchmarks of the rename-stage mechanisms: per-scheme rename
//! cost (ATR's bulk marking is the interesting delta), flush-walk cost
//! and counter width — the ablations DESIGN.md calls out for the design
//! choices of §4.2.

use atr_bench::timing::bench;
use atr_core::{ReleaseScheme, RenameConfig, RenamedUop, Renamer};
use atr_isa::{ArchReg, StaticInst};

const SAMPLES: usize = 20;

fn cfg(scheme: ReleaseScheme) -> RenameConfig {
    RenameConfig { scheme, int_prf_size: 224, fp_prf_size: 224, ..RenameConfig::default() }
}

/// A short instruction mix: compute, a load, a branch — the worst case
/// for ATR's marking (two bulk-mark triggers per iteration).
fn mix() -> Vec<StaticInst> {
    let r = ArchReg::int;
    vec![
        StaticInst::alu(0x00, r(4), &[r(5), r(6)]),
        StaticInst::alu(0x04, r(5), &[r(4)]),
        StaticInst::load(0x08, r(6), r(0)),
        StaticInst::alu(0x0c, r(7), &[r(6), r(4)]),
        StaticInst::cond_branch(0x10, 0x40, &[r(7)]),
        StaticInst::alu(0x14, r(4), &[r(5)]),
    ]
}

fn main() {
    println!("rename-stage microbenchmarks\n");
    let insts = mix();

    for scheme in ReleaseScheme::ALL {
        let insts = insts.clone();
        bench(
            &format!("rename_stage/scheme={}", scheme.label()),
            SAMPLES,
            insts.len() as u64 * 64,
            move || {
                let mut renamer = Renamer::new(&cfg(scheme));
                let mut uops: Vec<RenamedUop> = Vec::with_capacity(64 * insts.len());
                let mut seq = 0u64;
                for round in 0..64u64 {
                    for inst in &insts {
                        let uop = renamer.rename(inst, seq, round, false);
                        renamer.on_issue(&uop.psrcs, round);
                        uops.push(uop);
                        seq += 1;
                    }
                    // Retire the round to keep the free list alive.
                    for uop in uops.drain(..) {
                        renamer.on_commit(&uop, round);
                    }
                }
                renamer
            },
        );
    }

    for depth in [32usize, 256] {
        let insts = insts.clone();
        bench(&format!("flush_walk/squashed={depth}"), SAMPLES, depth as u64, move || {
            // Rename `depth` instructions behind a branch, half issued.
            let mut renamer = Renamer::new(&cfg(ReleaseScheme::Atr { redefine_delay: 0 }));
            let mut records = Vec::new();
            for k in 0..depth as u64 {
                let inst = insts[(k as usize) % insts.len()];
                let uop = renamer.rename(&inst, k, k, false);
                let issued = k % 2 == 0;
                if issued {
                    renamer.on_issue(&uop.psrcs, k);
                }
                records.push(uop.flush_record(&inst, issued));
            }
            records.reverse();
            renamer.flush_walk(&records, 1_000);
            renamer
        });
    }

    // §5.4 ablation: counter width does not change rename cost, only
    // release opportunity — this measures that the mechanism itself is
    // width-insensitive.
    for width in [2u32, 3, 8] {
        let insts = insts.clone();
        bench(&format!("counter_width/bits={width}"), SAMPLES, 128, move || {
            let mut config = cfg(ReleaseScheme::Atr { redefine_delay: 0 });
            config.counter_width = width;
            let mut renamer = Renamer::new(&config);
            let mut uops = Vec::new();
            for (k, inst) in insts.iter().cycle().take(128).enumerate() {
                let uop = renamer.rename(inst, k as u64, k as u64, false);
                renamer.on_issue(&uop.psrcs, k as u64);
                uops.push(uop);
            }
            for uop in uops {
                renamer.on_commit(&uop, 1_000);
            }
            renamer
        });
    }
}
