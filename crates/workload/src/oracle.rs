//! The oracle stream: functional execution of the static program.
//!
//! The oracle is the architectural ground truth the pipeline replays —
//! the equivalent of Scarab's trace frontend. It walks the program from
//! its entry, instantiating branch/address behaviour state the first
//! time each instruction executes, and produces the *correct-path*
//! dynamic instruction stream. That state lives in two `Vec`s indexed
//! by the program's behaviour slots, so a step costs one PC lookup (an
//! index computation) and no hashing. The pipeline fetches oracle
//! entries in order while its frontend is on-path, goes off into
//! [wrong-path synthesis](crate::wrongpath) after a misprediction, and
//! resumes from an oracle index after a flush.
//!
//! Entries are cached in a sliding window so that flush recovery can
//! re-read them; [`Oracle::release_before`] garbage-collects entries
//! older than the commit point.

use crate::behavior::{mix64, AddrState, BranchState};
use crate::program::Program;
use atr_isa::{DynInst, DynOutcome, Exception, OpClass};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum modeled call depth; deeper calls wrap (the generator emits
/// balanced call/return pairs, so this is a guard, not a limit hit in
/// practice).
const MAX_CALL_DEPTH: usize = 256;

/// Functional executor of a [`Program`] producing the correct-path
/// dynamic instruction stream.
///
/// # Examples
///
/// ```
/// use atr_workload::{ProgramBuilder, BranchBehavior, Oracle};
/// use atr_isa::ArchReg;
///
/// let mut b = ProgramBuilder::new(0, 1);
/// let head = b.next_pc();
/// b.push_alu(ArchReg::int(0), &[]);
/// b.push_cond_branch(head, &[ArchReg::int(0)], BranchBehavior::AlwaysTaken);
/// let mut oracle = Oracle::new(b.build());
/// assert_eq!(oracle.get(0).sinst.pc, 0);
/// assert_eq!(oracle.get(2).sinst.pc, 0); // looped back
/// ```
#[derive(Debug)]
pub struct Oracle {
    program: Arc<Program>,
    pc: u64,
    /// Per branch-behaviour slot, created on first execution.
    branch_states: Vec<Option<BranchState>>,
    /// Per address-pattern slot, created on first execution.
    addr_states: Vec<Option<AddrState>>,
    call_stack: Vec<u64>,
    window: VecDeque<DynInst>,
    base_idx: u64,
    next_idx: u64,
    exception_rate: f64,
}

impl Oracle {
    /// Creates an oracle with no exception injection.
    #[must_use]
    pub fn new(program: Arc<Program>) -> Self {
        Oracle::with_exception_rate(program, 0.0)
    }

    /// Creates an oracle that injects a precise exception on
    /// exception-capable instructions with probability `rate`
    /// (deterministically per oracle index). Used by failure-injection
    /// tests and the precise-exception experiments.
    #[must_use]
    pub fn with_exception_rate(program: Arc<Program>, rate: f64) -> Self {
        let pc = program.entry();
        Oracle {
            pc,
            branch_states: vec![None; program.branch_behaviors().len()],
            addr_states: vec![None; program.addr_patterns().len()],
            program,
            call_stack: Vec::new(),
            window: VecDeque::new(),
            base_idx: 0,
            next_idx: 0,
            exception_rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Returns the dynamic instruction at oracle index `idx`, generating
    /// forward as needed. Indices are the architectural retirement order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has already been released via
    /// [`Oracle::release_before`] (pipeline bug), or if the program's
    /// control flow escapes its own text segment (generator bug).
    pub fn get(&mut self, idx: u64) -> &DynInst {
        assert!(
            idx >= self.base_idx,
            "oracle index {idx} already released (base {})",
            self.base_idx
        );
        while self.next_idx <= idx {
            let entry = self.step();
            self.window.push_back(entry);
            self.next_idx += 1;
        }
        &self.window[(idx - self.base_idx) as usize]
    }

    /// Drops cached entries with index `< idx`. Call with the oldest
    /// index that can still be re-fetched (the commit point).
    pub fn release_before(&mut self, idx: u64) {
        while self.base_idx < idx && !self.window.is_empty() {
            self.window.pop_front();
            self.base_idx += 1;
        }
    }

    /// Marks the injected exception at `idx` as serviced, so re-fetching
    /// the instruction after the handler does not fault again.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not currently cached.
    pub fn clear_exception(&mut self, idx: u64) {
        assert!(
            idx >= self.base_idx && idx < self.next_idx,
            "clear_exception({idx}) outside window [{}, {})",
            self.base_idx,
            self.next_idx
        );
        self.window[(idx - self.base_idx) as usize].outcome.exception = None;
    }

    /// Current cached-window length (diagnostics / GC tests).
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    fn step(&mut self) -> DynInst {
        let idx = self.next_idx;
        let pc = self.pc;
        let i = self
            .program
            .index_of(pc)
            .unwrap_or_else(|| panic!("oracle fell off the program at pc {pc:#x}"));
        let inst = self.program.instructions()[i];

        let mut outcome = DynOutcome::fallthrough(&inst);
        match inst.class {
            OpClass::CondBranch => {
                let taken = self.branch_state(i, pc).next_taken();
                outcome.taken = taken;
                outcome.next_pc = if taken {
                    inst.taken_target.expect("conditional branch without target")
                } else {
                    inst.fallthrough
                };
            }
            OpClass::DirectJump => {
                outcome.taken = true;
                outcome.next_pc = inst.taken_target.expect("jump without target");
            }
            OpClass::Call => {
                outcome.taken = true;
                outcome.next_pc = inst.taken_target.expect("call without target");
                if self.call_stack.len() < MAX_CALL_DEPTH {
                    self.call_stack.push(inst.fallthrough);
                }
            }
            OpClass::Return => {
                outcome.taken = true;
                outcome.next_pc = self.call_stack.pop().unwrap_or(self.program.entry());
            }
            OpClass::IndirectJump => {
                outcome.taken = true;
                outcome.next_pc = self.branch_state(i, pc).next_target();
            }
            OpClass::Load | OpClass::Store => {
                outcome.mem_addr = Some(self.addr_state(i, pc).next_addr());
            }
            _ => {}
        }

        if inst.class.may_raise_exception() && self.exception_rate > 0.0 {
            let draw = mix64(self.program.seed() ^ idx.wrapping_mul(0x1234_5678_9abc_def1));
            if (draw as f64 / u64::MAX as f64) < self.exception_rate {
                outcome.exception = Some(if inst.class.is_memory() {
                    Exception::PageFault
                } else {
                    Exception::DivideByZero
                });
            }
        }

        self.pc = outcome.next_pc;
        DynInst { seq: idx, sinst: inst, outcome, on_wrong_path: false, oracle_idx: idx }
    }

    /// State of the branch at layout index `i` (PC `pc`), seeded from
    /// the program seed and the PC, so it does not depend on when it is
    /// first created.
    fn branch_state(&mut self, i: usize, pc: u64) -> &mut BranchState {
        let program = &self.program;
        let slot = program.slot(i);
        self.branch_states[slot].get_or_insert_with(|| {
            let behavior = program.branch_behaviors()[slot].clone();
            BranchState::new(behavior, program.seed() ^ mix64(pc))
        })
    }

    /// State of the memory op at layout index `i` (PC `pc`); seeded like
    /// [`Oracle::branch_state`].
    fn addr_state(&mut self, i: usize, pc: u64) -> &mut AddrState {
        let program = &self.program;
        let slot = program.slot(i);
        self.addr_states[slot].get_or_insert_with(|| {
            let pattern = program.addr_patterns()[slot].clone();
            AddrState::new(pattern, program.seed() ^ mix64(pc ^ 0xabcd))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{AddrPattern, BranchBehavior};
    use crate::program::ProgramBuilder;
    use atr_isa::ArchReg;

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    /// alu; loop-branch back (trip count 3); closing jump to keep the
    /// program executing forever.
    fn loop_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new(0x100, 11);
        let head = b.next_pc();
        b.push_alu(r(0), &[r(0)]);
        b.push_cond_branch(head, &[r(0)], BranchBehavior::Loop { trip_count: 3 });
        b.push_jump(head);
        b.build()
    }

    #[test]
    fn loop_stream_follows_trip_count() {
        let mut o = Oracle::new(loop_program());
        // iterations: (alu, br taken) x2 then (alu, br not-taken), repeat.
        let taken: Vec<bool> = (0..14)
            .map(|i| *o.get(i))
            .filter(|d| d.sinst.class.is_conditional())
            .map(|d| d.taken())
            .collect();
        assert_eq!(taken, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn not_taken_backedge_falls_through_and_wraps() {
        // After the loop exits, the branch falls through past the end of
        // the program... so the generator must keep programs closed. Here
        // we instead make an infinite always-taken loop and check the
        // stream is infinite.
        let mut b = ProgramBuilder::new(0, 3);
        let head = b.next_pc();
        b.push_alu(r(1), &[]);
        b.push_cond_branch(head, &[r(1)], BranchBehavior::AlwaysTaken);
        let mut o = Oracle::new(b.build());
        for i in 0..1000 {
            let d = *o.get(i);
            assert!(!d.on_wrong_path);
            assert_eq!(d.oracle_idx, i);
        }
    }

    #[test]
    fn call_and_return_pair_up() {
        let mut b = ProgramBuilder::new(0, 5);
        // 0: call 0x10 ; 4: jmp 0 ; ... 0x10: alu ; 0x14: ret
        b.push_call(0x10);
        b.push_jump(0);
        b.push_alu(r(9), &[]); // padding at 0x8
        b.push_alu(r(9), &[]); // padding at 0xc
        let func = b.next_pc();
        assert_eq!(func, 0x10);
        b.push_alu(r(2), &[]);
        b.push_return();
        let mut o = Oracle::new(b.build());
        let pcs: Vec<u64> = (0..5).map(|i| o.get(i).sinst.pc).collect();
        assert_eq!(pcs, vec![0x0, 0x10, 0x14, 0x4, 0x0]);
    }

    #[test]
    fn loads_carry_addresses() {
        let mut b = ProgramBuilder::new(0, 9);
        let head = b.next_pc();
        b.push_load(r(1), r(2), AddrPattern::Stride { base: 0x8000, stride: 8, footprint: 32 });
        b.push_cond_branch(head, &[r(1)], BranchBehavior::AlwaysTaken);
        let mut o = Oracle::new(b.build());
        let addrs: Vec<u64> = (0..10)
            .map(|i| *o.get(i))
            .filter(|d| d.sinst.class.is_load())
            .map(|d| d.outcome.mem_addr.unwrap())
            .collect();
        assert_eq!(addrs, vec![0x8000, 0x8008, 0x8010, 0x8018, 0x8000]);
    }

    #[test]
    fn release_before_gcs_window() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(99);
        assert_eq!(o.window_len(), 100);
        o.release_before(90);
        assert_eq!(o.window_len(), 10);
        assert_eq!(o.get(95).oracle_idx, 95);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn reading_released_entry_panics() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(50);
        o.release_before(40);
        let _ = o.get(10);
    }

    #[test]
    fn release_before_is_monotonic_and_ignores_stale_commit_points() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(49);
        o.release_before(30);
        assert_eq!(o.window_len(), 20);
        // A commit point older than the current base is a no-op, not a
        // rewind: GC never resurrects entries.
        o.release_before(10);
        assert_eq!(o.window_len(), 20);
        assert_eq!(o.get(30).oracle_idx, 30);
    }

    #[test]
    fn release_past_the_generated_end_clamps_to_an_empty_window() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(19);
        o.release_before(1_000);
        assert_eq!(o.window_len(), 0);
        // Generation continues from where the stream left off: index 20
        // onward is still reachable, released indices are not.
        assert_eq!(o.get(20).oracle_idx, 20);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn boundary_entry_just_below_the_commit_point_errors_loudly() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(50);
        o.release_before(40);
        // Exactly at the boundary is fine...
        assert_eq!(o.get(40).oracle_idx, 40);
        // ...one below it is the off-by-one a broken flush resume would
        // make, and must not be silently regenerated.
        let _ = o.get(39);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn clearing_an_exception_on_a_released_entry_panics() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(50);
        o.release_before(40);
        o.clear_exception(10);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn clearing_an_exception_beyond_the_generated_stream_panics() {
        let mut o = Oracle::new(loop_program());
        let _ = o.get(10);
        o.clear_exception(11);
    }

    #[test]
    fn exception_injection_is_deterministic_and_clearable() {
        let mut b = ProgramBuilder::new(0, 77);
        let head = b.next_pc();
        b.push_load(r(1), r(2), AddrPattern::Stride { base: 0, stride: 8, footprint: 4096 });
        b.push_cond_branch(head, &[r(1)], BranchBehavior::AlwaysTaken);
        let prog = b.build();

        let mut a = Oracle::with_exception_rate(prog.clone(), 0.2);
        let mut c = Oracle::with_exception_rate(prog, 0.2);
        let mut first_faulting = None;
        for i in 0..200 {
            assert_eq!(a.get(i).outcome.exception, c.get(i).outcome.exception);
            if first_faulting.is_none() && a.get(i).outcome.exception.is_some() {
                first_faulting = Some(i);
            }
        }
        let idx = first_faulting.expect("20% rate should fault within 100 loads");
        a.clear_exception(idx);
        assert_eq!(a.get(idx).outcome.exception, None);
    }

    #[test]
    fn zero_rate_never_faults() {
        let mut o = Oracle::new(loop_program());
        for i in 0..500 {
            assert_eq!(o.get(i).outcome.exception, None);
        }
    }

    #[test]
    fn oracle_is_replayable_across_instances() {
        let p = loop_program();
        let mut a = Oracle::new(p.clone());
        let mut b = Oracle::new(p);
        for i in 0..300 {
            assert_eq!(a.get(i), b.get(i));
        }
    }
}
