//! Standalone probes of the layers the core calls into: the workload
//! `Oracle`, the frontend `Bpu` and the `MemoryHierarchy`.
//!
//! The core owns its `Bpu` and `MemoryHierarchy` privately, so their
//! host cost inside a run cannot be timed from outside. Instead each
//! probe replays the workload's own architectural stream through a
//! fresh instance and times the calls; multiplying the per-call cost by
//! the number of calls the core made gives an estimated share of the
//! simulate phase.

use crate::spans::Tracer;
use atr_frontend::{Bpu, BpuConfig};
use atr_isa::StaticInst;
use atr_mem::{AccessKind, MemConfig, MemoryHierarchy};
use atr_workload::{Oracle, SpecProfile};
use std::hint::black_box;
use std::time::Instant;

/// Instructions of each stream replayed through the Bpu and the memory
/// hierarchy (their per-call cost converges well before this).
const REPLAY_CAP: u64 = 100_000;

/// Oracle entries kept behind the generation point, as a core keeps
/// its in-flight window.
const ORACLE_WINDOW: u64 = 1024;

/// Simulated cycles between replayed memory accesses (the hierarchy's
/// MSHR and DRAM timing need a clock).
const REPLAY_CYCLES_PER_ACCESS: u64 = 2;

/// Per-call host costs of the three layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// Oracle generation rate, instructions per host second.
    pub oracle_ips: f64,
    /// Host ns per control-flow instruction (predict + train, plus
    /// recover when mispredicted).
    pub bpu_ns: f64,
    /// Control-flow instructions per instruction in the replayed streams.
    pub cf_per_inst: f64,
    /// Host ns per memory-hierarchy access.
    pub mem_ns: f64,
}

/// Probes the layers over `streams`: each profile with the number of
/// instructions the workload retired on it.
#[must_use]
pub fn probe(streams: &[(SpecProfile, u64)], tracer: &mut Tracer) -> LayerCosts {
    let (mut oracle_s, mut oracle_n) = (0.0, 0u64);
    let (mut bpu_s, mut cf_n, mut replay_n) = (0.0, 0u64, 0u64);
    let (mut mem_s, mut mem_n) = (0.0, 0u64);
    for (profile, n) in streams {
        let program = profile.build();

        let t = Instant::now();
        tracer.span("workload.oracle", profile.name, |_| {
            let mut oracle = Oracle::new(program.clone());
            for i in 0..*n {
                black_box(oracle.get(i));
                oracle.release_before(i.saturating_sub(ORACLE_WINDOW));
            }
        });
        oracle_s += t.elapsed().as_secs_f64();
        oracle_n += n;

        // Materialize a replay sample (untimed).
        let sample = (*n).min(REPLAY_CAP);
        let mut oracle = Oracle::new(program);
        let mut branches: Vec<(StaticInst, bool, u64)> = Vec::new();
        let mut accesses: Vec<(AccessKind, u64)> = Vec::new();
        let mut block = u64::MAX;
        for i in 0..sample {
            let d = oracle.get(i);
            if d.sinst.pc & !63 != block {
                block = d.sinst.pc & !63;
                accesses.push((AccessKind::InstFetch, block));
            }
            if d.sinst.class.is_control_flow() {
                branches.push((d.sinst, d.taken(), d.next_pc()));
            }
            if let Some(addr) = d.outcome.mem_addr {
                let kind =
                    if d.sinst.class.is_store() { AccessKind::Store } else { AccessKind::Load };
                accesses.push((kind, addr));
            }
            oracle.release_before(i);
        }
        replay_n += sample;

        let mut bpu = Bpu::new(&BpuConfig::default());
        let t = Instant::now();
        tracer.span("frontend.bpu", profile.name, |_| {
            for (inst, taken, target) in &branches {
                let p = bpu.predict(inst);
                bpu.train(inst, &p.snapshot, *taken, *target);
                if p.taken != *taken || p.next_pc != *target {
                    bpu.recover(inst, &p.snapshot, *taken, *target);
                }
            }
            black_box(bpu.predictions());
        });
        bpu_s += t.elapsed().as_secs_f64();
        cf_n += branches.len() as u64;

        let mut mem = MemoryHierarchy::new(&MemConfig::golden_cove());
        let t = Instant::now();
        tracer.span("mem.access", profile.name, |_| {
            for (i, &(kind, addr)) in accesses.iter().enumerate() {
                black_box(mem.access(kind, addr, i as u64 * REPLAY_CYCLES_PER_ACCESS));
            }
        });
        mem_s += t.elapsed().as_secs_f64();
        mem_n += accesses.len() as u64;
    }
    LayerCosts {
        oracle_ips: oracle_n as f64 / oracle_s,
        bpu_ns: bpu_s * 1e9 / cf_n.max(1) as f64,
        cf_per_inst: cf_n as f64 / replay_n.max(1) as f64,
        mem_ns: mem_s * 1e9 / mem_n.max(1) as f64,
    }
}
