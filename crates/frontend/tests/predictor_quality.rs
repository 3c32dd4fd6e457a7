//! Comparative prediction-quality tests: the predictor hierarchy must
//! rank as the literature says on the workload substrate's behaviour
//! classes (bimodal < gshare < TAGE-L), and the BPU must stay consistent
//! under speculative update + recovery storms.

use atr_frontend::{Bimodal, Bpu, BpuConfig, DirectionPredictor, GlobalHistory, Gshare, Tage};
use atr_isa::{ArchReg, OpClass, StaticInst};

/// Drives a predictor over a deterministic direction stream and returns
/// its accuracy.
fn accuracy<P: DirectionPredictor>(p: &mut P, stream: &[(u64, bool)]) -> f64 {
    let mut hist = GlobalHistory::new();
    let mut hits = 0usize;
    for &(pc, taken) in stream {
        if p.predict(pc, &hist) == taken {
            hits += 1;
        }
        p.update(pc, &hist, taken);
        hist.push(taken);
    }
    hits as f64 / stream.len() as f64
}

/// Interleaved loop branches with different trip counts plus a pattern
/// branch — the substrate's bread-and-butter mixture.
fn loopy_stream(len: usize) -> Vec<(u64, bool)> {
    let mut out = Vec::with_capacity(len);
    let mut i = 0u64;
    while out.len() < len {
        // Loop A: trip 7. Loop B: trip 3. Pattern C: period 5.
        out.push((0x100, i % 7 != 6));
        out.push((0x200, i % 3 != 2));
        out.push((0x300, matches!(i % 5, 0 | 2 | 3)));
        i += 1;
    }
    out.truncate(len);
    out
}

#[test]
fn predictor_hierarchy_ranks_correctly_on_loops() {
    let stream = loopy_stream(12_000);
    let warm = &stream[4_000..];
    let mut bimodal = Bimodal::new(1 << 14);
    let mut gshare = Gshare::new(14, 16);
    let mut tage = Tage::default_config();
    let _ = accuracy(&mut bimodal, &stream[..4_000]);
    let _ = accuracy(&mut gshare, &stream[..4_000]);
    let _ = accuracy(&mut tage, &stream[..4_000]);
    let b = accuracy(&mut bimodal, warm);
    let g = accuracy(&mut gshare, warm);
    let t = accuracy(&mut tage, warm);
    assert!(g > b, "gshare {g} must beat bimodal {b} on history-correlated code");
    assert!(t > 0.97, "TAGE-L must nail mixed loops: {t}");
    assert!(t >= g - 0.01, "TAGE-L {t} must not lose to gshare {g}");
}

#[test]
fn bpu_survives_interleaved_speculation_and_recovery() {
    // Simulates the pipeline's usage: predict several branches ahead,
    // then resolve them oldest-first, recovering on mismatch. The BPU
    // must converge on a deterministic nested-loop pattern.
    let mut bpu = Bpu::new(&BpuConfig::default());
    let br = StaticInst::cond_branch(0x40, 0x140, &[ArchReg::int(1)]);
    let outcome = |i: u64| i % 9 != 8;
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut inflight: Vec<(u64, atr_frontend::Prediction)> = Vec::new();
    for i in 0..6_000u64 {
        let p = bpu.predict(&br);
        inflight.push((i, p));
        // Resolve in bursts of 4 (out-of-order-ish timing, in-order resolve).
        if inflight.len() >= 4 {
            for (k, pred) in inflight.drain(..) {
                let actual = outcome(k);
                let target = if actual { 0x140 } else { br.fallthrough };
                bpu.train(&br, &pred.snapshot, actual, target);
                if pred.taken != actual {
                    bpu.recover(&br, &pred.snapshot, actual, target);
                    // Everything younger was squashed.
                    break;
                }
                if k > 3_000 {
                    correct += 1;
                    total += 1;
                }
            }
            inflight.clear();
        }
        let _ = total;
    }
    if total > 0 {
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "post-warmup accuracy under speculation: {acc}");
    }
}

#[test]
fn return_stack_handles_nested_calls() {
    let mut bpu = Bpu::new(&BpuConfig::default());
    let mk_call = |pc: u64, target: u64| {
        let mut i = StaticInst::new(pc, OpClass::Call, None, &[]);
        i.taken_target = Some(target);
        i
    };
    let ret = |pc: u64| StaticInst::new(pc, OpClass::Return, None, &[]);
    // a calls b calls c; returns unwind in LIFO order.
    let _ = bpu.predict(&mk_call(0x100, 0x1000));
    let _ = bpu.predict(&mk_call(0x1000, 0x2000));
    let _ = bpu.predict(&mk_call(0x2000, 0x3000));
    assert_eq!(bpu.predict(&ret(0x3000)).next_pc, 0x2004);
    assert_eq!(bpu.predict(&ret(0x2004)).next_pc, 0x1004);
    assert_eq!(bpu.predict(&ret(0x1004)).next_pc, 0x104);
}

#[test]
fn polymorphic_indirects_converge_with_path_history() {
    // A dispatch site alternating between two targets depending on the
    // preceding call path must become predictable.
    let mut bpu = Bpu::new(&BpuConfig::default());
    let site = StaticInst::new(0x500, OpClass::IndirectJump, None, &[ArchReg::int(2)]);
    let lead_a = StaticInst::jump(0x400, 0x500);
    let lead_b = StaticInst::jump(0x300, 0x500);
    let mut correct = 0usize;
    for i in 0..400 {
        let (lead, target) = if i % 2 == 0 { (&lead_a, 0xa000) } else { (&lead_b, 0xb000) };
        let _ = bpu.predict(lead);
        let p = bpu.predict(&site);
        if p.next_pc == target {
            correct += 1;
        }
        bpu.train(&site, &p.snapshot, true, target);
        if p.next_pc != target {
            bpu.recover(&site, &p.snapshot, true, target);
        }
    }
    assert!(correct > 300, "path-correlated indirect accuracy: {correct}/400");
}
