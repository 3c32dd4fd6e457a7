//! The branch prediction unit: the bundle the pipeline's fetch stage
//! talks to.
//!
//! One [`Bpu::predict`] call per fetched control-flow instruction makes
//! the direction/target prediction and *speculatively* updates the
//! histories and RAS; the returned [`Prediction`] carries a
//! [`BpuSnapshot`] of the pre-prediction state. On resolve the pipeline
//! calls [`Bpu::train`]; on a misprediction it calls [`Bpu::recover`]
//! with the snapshot and the actual outcome, which restores state and
//! re-applies the corrected update.

use crate::btb::Btb;
use crate::history::{GlobalHistory, PathHistory};
use crate::indirect::IndirectPredictor;
use crate::predictor::DirectionPredictor;
use crate::ras::Ras;
use crate::tage::{Tage, TageConfig};
use atr_isa::{OpClass, StaticInst};

/// Branch prediction unit configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct BpuConfig {
    /// Geometry of the TAGE-L direction predictor.
    pub tage: TageConfig,
    /// Total BTB entries (Table 1: 12K).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// log2 entries of the indirect target predictor (Table 1: 3K,
    /// rounded to 4096 for power-of-two indexing).
    pub indirect_bits: usize,
    /// Path-history bits for the indirect predictor.
    pub indirect_path_bits: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
}

impl Default for BpuConfig {
    fn default() -> Self {
        BpuConfig {
            tage: TageConfig::default(),
            btb_entries: 12 * 1024,
            btb_ways: 6,
            indirect_bits: 12,
            indirect_path_bits: 16,
            ras_depth: 32,
        }
    }
}

/// Recovery snapshot of all speculative BPU state.
#[derive(Debug, Clone)]
pub struct BpuSnapshot {
    ghist: GlobalHistory,
    path: PathHistory,
    ras: Ras,
}

/// One control-flow prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional control flow).
    pub taken: bool,
    /// Predicted next PC.
    pub next_pc: u64,
    /// Did the BTB know this branch? (A predicted-taken BTB miss costs a
    /// fetch bubble, charged by the pipeline.)
    pub btb_hit: bool,
    /// Pre-prediction state for recovery and training.
    pub snapshot: BpuSnapshot,
}

/// The branch prediction unit. See the [module docs](self).
pub struct Bpu {
    tage: Tage,
    btb: Btb,
    indirect: IndirectPredictor,
    ras: Ras,
    ghist: GlobalHistory,
    path: PathHistory,
    predictions: u64,
}

impl std::fmt::Debug for Bpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bpu").field("predictions", &self.predictions).finish_non_exhaustive()
    }
}

impl Bpu {
    /// Creates a BPU from a configuration.
    #[must_use]
    pub fn new(cfg: &BpuConfig) -> Self {
        Bpu {
            tage: Tage::new(cfg.tage.clone()),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            indirect: IndirectPredictor::new(cfg.indirect_bits, cfg.indirect_path_bits),
            ras: Ras::new(cfg.ras_depth),
            ghist: GlobalHistory::new(),
            path: PathHistory::new(),
            predictions: 0,
        }
    }

    /// Total predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Predicts the control-flow instruction `inst` and speculatively
    /// updates histories and the RAS.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not control flow.
    pub fn predict(&mut self, inst: &StaticInst) -> Prediction {
        assert!(inst.class.is_control_flow(), "predict() on non-control-flow {inst}");
        self.predictions += 1;
        let snapshot = BpuSnapshot { ghist: self.ghist, path: self.path, ras: self.ras.clone() };
        let btb_hit = self.btb.lookup(inst.pc).is_some();
        let (taken, next_pc) = self.speculate(inst, None);
        if !btb_hit {
            // Decode knows direct targets; fill so only the first
            // encounter pays the taken-miss bubble.
            if let Some(t) = inst.taken_target {
                self.btb.insert(inst.pc, t, inst.class);
            }
        }
        Prediction { taken, next_pc, btb_hit, snapshot }
    }

    /// Applies the speculative state updates for `inst`. With
    /// `forced = Some((taken, target))` the update uses the resolved
    /// outcome instead of predicting (the recovery path).
    fn speculate(&mut self, inst: &StaticInst, forced: Option<(bool, u64)>) -> (bool, u64) {
        let (taken, next_pc) = match inst.class {
            OpClass::CondBranch => {
                let taken = match forced {
                    Some((t, _)) => t,
                    None => self.tage.predict(inst.pc, &self.ghist),
                };
                let next = if taken {
                    inst.taken_target.expect("conditional branch without target")
                } else {
                    inst.fallthrough
                };
                self.ghist.push(taken);
                (taken, next)
            }
            OpClass::DirectJump => (true, inst.taken_target.expect("jump without target")),
            OpClass::Call => {
                self.ras.push(inst.fallthrough);
                (true, inst.taken_target.expect("call without target"))
            }
            OpClass::Return => {
                let predicted = self.ras.pop();
                let next = match forced {
                    Some((_, t)) => t,
                    None => predicted.unwrap_or(inst.fallthrough),
                };
                (true, next)
            }
            OpClass::IndirectJump => {
                let next = match forced {
                    Some((_, t)) => t,
                    None => self
                        .indirect
                        .predict(inst.pc, &self.path)
                        .or_else(|| self.btb.lookup(inst.pc).map(|e| e.target))
                        .unwrap_or(inst.fallthrough),
                };
                (true, next)
            }
            _ => unreachable!("speculate() on non-control-flow"),
        };
        if taken {
            self.path.push_edge(inst.pc, next_pc);
        }
        (taken, next_pc)
    }

    /// Trains the predictors with a resolved outcome. `snapshot` must be
    /// the one returned by the corresponding `predict` call.
    pub fn train(&mut self, inst: &StaticInst, snapshot: &BpuSnapshot, taken: bool, target: u64) {
        match inst.class {
            OpClass::CondBranch => self.tage.update(inst.pc, &snapshot.ghist, taken),
            OpClass::IndirectJump => self.indirect.update(inst.pc, &snapshot.path, target),
            _ => {}
        }
        if taken {
            self.btb.insert(inst.pc, target, inst.class);
        }
    }

    /// Recovers from a misprediction of `inst`: restores the snapshot
    /// and re-applies the speculative update with the actual outcome.
    pub fn recover(&mut self, inst: &StaticInst, snapshot: &BpuSnapshot, taken: bool, target: u64) {
        self.restore(snapshot);
        let _ = self.speculate(inst, Some((taken, target)));
    }

    /// Restores all speculative state to `snapshot` (used by exception
    /// flushes, which unwind to an arbitrary point).
    pub fn restore(&mut self, snapshot: &BpuSnapshot) {
        self.ghist = snapshot.ghist;
        self.path = snapshot.path;
        self.ras = snapshot.ras.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_isa::ArchReg;

    fn bpu() -> Bpu {
        Bpu::new(&BpuConfig::default())
    }

    fn branch(pc: u64, target: u64) -> StaticInst {
        StaticInst::cond_branch(pc, target, &[ArchReg::int(0)])
    }

    #[test]
    fn call_return_round_trip() {
        let mut b = bpu();
        let call = {
            let mut i = StaticInst::new(0x100, OpClass::Call, None, &[]);
            i.taken_target = Some(0x4000);
            i
        };
        let ret = StaticInst::new(0x4000, OpClass::Return, None, &[]);
        let pc1 = b.predict(&call);
        assert_eq!(pc1.next_pc, 0x4000);
        let pc2 = b.predict(&ret);
        assert_eq!(pc2.next_pc, call.fallthrough);
    }

    #[test]
    fn conditional_learns_with_training() {
        let mut b = bpu();
        let br = branch(0x200, 0x300);
        let mut correct = 0;
        for i in 0..200 {
            let p = b.predict(&br);
            let actual = true;
            if p.taken == actual {
                correct += 1;
            }
            b.train(&br, &p.snapshot, actual, 0x300);
            if p.taken != actual {
                b.recover(&br, &p.snapshot, actual, 0x300);
            }
            let _ = i;
        }
        assert!(correct > 190, "accuracy {correct}/200");
    }

    #[test]
    fn recovery_restores_ras() {
        let mut b = bpu();
        let call = {
            let mut i = StaticInst::new(0x100, OpClass::Call, None, &[]);
            i.taken_target = Some(0x4000);
            i
        };
        // Predict a branch (snapshot), then pollute the RAS down the
        // wrong path with a call, then recover.
        let _ = b.predict(&call); // real call: RAS = [0x104]
        let br = branch(0x4000, 0x4100);
        let p = b.predict(&br);
        let wrong_call = {
            let mut i = StaticInst::new(0x4100, OpClass::Call, None, &[]);
            i.taken_target = Some(0x8000);
            i
        };
        let _ = b.predict(&wrong_call); // wrong-path push
        b.recover(&br, &p.snapshot, !p.taken, 0);
        // The RAS must contain exactly the real call's return address.
        let ret = StaticInst::new(0x9000, OpClass::Return, None, &[]);
        let rp = b.predict(&ret);
        assert_eq!(rp.next_pc, 0x104);
    }

    #[test]
    fn indirect_predicts_after_training() {
        let mut b = bpu();
        let ij = StaticInst::new(0x500, OpClass::IndirectJump, None, &[ArchReg::int(1)]);
        let p0 = b.predict(&ij);
        b.train(&ij, &p0.snapshot, true, 0xa000);
        b.recover(&ij, &p0.snapshot, true, 0xa000);
        let p1 = b.predict(&ij);
        assert_eq!(p1.next_pc, 0xa000);
    }

    #[test]
    fn btb_miss_reported_once() {
        let mut b = bpu();
        let br = branch(0x600, 0x700);
        let p0 = b.predict(&br);
        assert!(!p0.btb_hit);
        let p1 = b.predict(&br);
        assert!(p1.btb_hit);
    }

    #[test]
    #[should_panic(expected = "non-control-flow")]
    fn predicting_alu_panics() {
        let mut b = bpu();
        let alu = StaticInst::alu(0x10, ArchReg::int(1), &[]);
        let _ = b.predict(&alu);
    }
}
