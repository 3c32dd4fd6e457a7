//! Substrate microbenchmarks: branch prediction, cache hierarchy,
//! oracle-stream generation throughput, and the cost of building a
//! memory hierarchy and a whole core.

use atr_bench::timing::bench;
use atr_frontend::{Bpu, BpuConfig, DirectionPredictor, GlobalHistory, PredictorKind, Tage};
use atr_isa::{ArchReg, StaticInst};
use atr_mem::{AccessKind, MemConfig, MemoryHierarchy};
use atr_pipeline::{CoreConfig, OooCore};
use atr_workload::{spec, Oracle};

const SAMPLES: usize = 10;

fn main() {
    println!("substrate microbenchmarks\n");

    for kind in [PredictorKind::Bimodal, PredictorKind::Gshare, PredictorKind::Tage] {
        let config = BpuConfig { kind, ..BpuConfig::default() };
        let mut bpu = Bpu::new(&config);
        let br = StaticInst::cond_branch(0x400, 0x800, &[ArchReg::int(0)]);
        bench(&format!("predict_update/{kind:?}"), SAMPLES, 10_000, move || {
            for i in 0..10_000u64 {
                let p = bpu.predict(&br);
                let taken = i % 3 != 0;
                bpu.train(&br, &p.snapshot, taken, if taken { 0x800 } else { br.fallthrough });
                if p.taken != taken {
                    bpu.recover(
                        &br,
                        &p.snapshot,
                        taken,
                        if taken { 0x800 } else { br.fallthrough },
                    );
                }
            }
        });
    }

    let mut tage = Tage::default_config();
    let mut hist = GlobalHistory::new();
    for i in 0..1_000u64 {
        tage.update(i * 4, &hist, i % 2 == 0);
        hist.push(i % 2 == 0);
    }
    bench("tage/predict_only", SAMPLES, 10_000, move || {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc += u64::from(tage.predict(i * 4, &hist));
        }
        acc
    });

    let mut warm = MemoryHierarchy::new(&MemConfig::golden_cove());
    for i in 0..64u64 {
        let _ = warm.access(AccessKind::Load, 0x1000 + i * 64, i);
    }
    bench("memory_hierarchy/l1_hit_stream", SAMPLES, 10_000, move || {
        let mut t = 1_000u64;
        for i in 0..10_000u64 {
            t = warm.access(AccessKind::Load, 0x1000 + (i % 64) * 64, t);
        }
        t
    });
    bench("memory_hierarchy/dram_miss_stream", SAMPLES, 10_000, || {
        let mut mem = MemoryHierarchy::new(&MemConfig::golden_cove());
        let mut t = 0u64;
        for i in 0..10_000u64 {
            t = mem.access(AccessKind::Load, i * 64 * 131, t.min(i * 4));
        }
        t
    });

    let mem_cfg = MemConfig::golden_cove();
    bench("memory_hierarchy/construct", SAMPLES, 1, || MemoryHierarchy::new(&mem_cfg));
    let program = spec::find_profile("exchange2").expect("profile").build();
    bench("core/construct_rf64", SAMPLES, 1, || {
        OooCore::new(CoreConfig::default().with_rf_size(64), Oracle::new(program.clone()))
    });

    for name in ["exchange2", "omnetpp"] {
        let program = spec::find_profile(name).expect("profile").build();
        bench(&format!("oracle/generate/{name}"), SAMPLES, 50_000, move || {
            let mut oracle = Oracle::new(program.clone());
            for i in 0..50_000u64 {
                let _ = oracle.get(i);
                if i % 1024 == 0 {
                    oracle.release_before(i.saturating_sub(512));
                }
            }
            oracle
        });
    }
}
