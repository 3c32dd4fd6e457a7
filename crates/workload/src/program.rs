//! The static program: decoded instructions addressable by PC.
//!
//! The builder lays a program out once, as three boxed slices: the
//! instructions at ascending PCs, one behaviour slot per instruction,
//! and the behaviours themselves, one slice per kind. A PC lookup is
//! arithmetic (`(pc - entry) / 4`, checked against the instruction it
//! finds, with a binary search for programs of other instruction
//! sizes), and a behaviour is one index away from its instruction, so
//! fetch and the oracle hash nothing. The same layout is also the
//! smallest: no map buckets, no per-instruction `Option`, no `Vec`
//! slack.

use crate::behavior::{AddrPattern, BranchBehavior};
use atr_isa::{OpClass, StaticInst};
use std::collections::HashMap;
use std::sync::Arc;

/// The slot of an instruction with no attached behaviour.
const NO_SLOT: u32 = u32::MAX;

/// Does an instruction of `class` carry a [`BranchBehavior`]?
fn has_branch_behavior(class: OpClass) -> bool {
    class.is_conditional() || class == OpClass::IndirectJump
}

/// Index of the instruction at `pc` in `insts`, a layout starting at
/// `entry` with strictly ascending PCs.
fn index_of(insts: &[StaticInst], entry: u64, pc: u64) -> Option<usize> {
    let guess = pc.wrapping_sub(entry) / u64::from(StaticInst::DEFAULT_SIZE);
    if let Some(i) =
        usize::try_from(guess).ok().filter(|&i| insts.get(i).is_some_and(|s| s.pc == pc))
    {
        return Some(i);
    }
    insts.binary_search_by_key(&pc, |s| s.pc).ok()
}

/// A static program: the analogue of a decoded text segment.
///
/// Instructions are laid out at ascending PCs; [`Program::at`] performs
/// the PC → instruction lookup that both on-path and wrong-path fetch
/// use. Conditional branches and indirect jumps carry a
/// [`BranchBehavior`], loads and stores an [`AddrPattern`], which the
/// [oracle](crate::Oracle) instantiates.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Box<[StaticInst]>,
    /// Per instruction: its index into `branch_behaviors` (conditional
    /// branches and indirect jumps) or `addr_patterns` (loads and
    /// stores); `NO_SLOT` for every other instruction.
    slots: Box<[u32]>,
    branch_behaviors: Box<[BranchBehavior]>,
    addr_patterns: Box<[AddrPattern]>,
    entry: u64,
    seed: u64,
}

impl Program {
    /// The entry PC (where the oracle starts executing).
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Base seed individualizing this program's behaviours.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Looks up the instruction at `pc`, or `None` if `pc` is not a valid
    /// instruction boundary (fetch treats that as falling off the program
    /// on a wild wrong path).
    #[must_use]
    pub fn at(&self, pc: u64) -> Option<&StaticInst> {
        self.index_of(pc).map(|i| &self.insts[i])
    }

    /// Layout index of the instruction at `pc`.
    pub(crate) fn index_of(&self, pc: u64) -> Option<usize> {
        index_of(&self.insts, self.entry, pc)
    }

    /// Behaviour slot of the instruction at layout index `i`: its index
    /// into [`Program::branch_behaviors`] or [`Program::addr_patterns`],
    /// by its class.
    pub(crate) fn slot(&self, i: usize) -> usize {
        self.slots[i] as usize
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All static instructions in layout order.
    #[must_use]
    pub fn instructions(&self) -> &[StaticInst] {
        &self.insts
    }

    /// Every branch behaviour, in the layout order of its instruction.
    pub(crate) fn branch_behaviors(&self) -> &[BranchBehavior] {
        &self.branch_behaviors
    }

    /// Every address pattern, in the layout order of its instruction.
    pub(crate) fn addr_patterns(&self) -> &[AddrPattern] {
        &self.addr_patterns
    }

    /// The branch behaviour attached to `pc`, if any.
    #[must_use]
    pub fn branch_behavior(&self, pc: u64) -> Option<&BranchBehavior> {
        let i = self.index_of(pc)?;
        has_branch_behavior(self.insts[i].class).then(|| &self.branch_behaviors[self.slot(i)])
    }

    /// The address pattern attached to `pc`, if any.
    #[must_use]
    pub fn addr_pattern(&self, pc: u64) -> Option<&AddrPattern> {
        let i = self.index_of(pc)?;
        self.insts[i].class.is_memory().then(|| &self.addr_patterns[self.slot(i)])
    }

    /// Static instruction-mix histogram, used by tests and by the
    /// workload-characterization example.
    #[must_use]
    pub fn class_histogram(&self) -> HashMap<OpClass, usize> {
        let mut h = HashMap::new();
        for i in &self.insts {
            *h.entry(i.class).or_insert(0) += 1;
        }
        h
    }
}

/// Incremental builder for a [`Program`].
///
/// Instructions are appended at ascending PCs starting from `entry`; the
/// builder patches fallthrough targets and validates control-flow
/// wiring at [`ProgramBuilder::build`] time.
///
/// # Examples
///
/// ```
/// use atr_workload::{ProgramBuilder, BranchBehavior};
/// use atr_isa::{ArchReg, StaticInst};
///
/// let mut b = ProgramBuilder::new(0x1000, 7);
/// let head = b.next_pc();
/// b.push_alu(ArchReg::int(1), &[ArchReg::int(2)]);
/// b.push_cond_branch(head, &[ArchReg::int(1)], BranchBehavior::Loop { trip_count: 8 });
/// let program = b.build();
/// assert_eq!(program.len(), 2);
/// assert!(program.at(head).is_some());
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    insts: Vec<StaticInst>,
    slots: Vec<u32>,
    branch_behaviors: Vec<BranchBehavior>,
    addr_patterns: Vec<AddrPattern>,
    next_pc: u64,
    entry: u64,
    seed: u64,
}

impl ProgramBuilder {
    /// Starts a program at `entry`; `seed` individualizes behaviours.
    #[must_use]
    pub fn new(entry: u64, seed: u64) -> Self {
        ProgramBuilder {
            insts: Vec::new(),
            slots: Vec::new(),
            branch_behaviors: Vec::new(),
            addr_patterns: Vec::new(),
            next_pc: entry,
            entry,
            seed,
        }
    }

    /// The PC the next pushed instruction will occupy (usable as a
    /// branch target for back-edges).
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        self.next_pc
    }

    /// Appends a raw instruction, assigning it the next PC. Returns its PC.
    pub fn push(&mut self, mut inst: StaticInst) -> u64 {
        let pc = self.next_pc;
        inst.pc = pc;
        inst.fallthrough = pc + u64::from(inst.size);
        self.next_pc = inst.fallthrough;
        self.insts.push(inst);
        self.slots.push(NO_SLOT);
        pc
    }

    /// Appends `inst` with `behavior` in its slot.
    fn push_branch(&mut self, inst: StaticInst, behavior: BranchBehavior) -> u64 {
        let pc = self.push(inst);
        *self.slots.last_mut().expect("just pushed") = slot_number(self.branch_behaviors.len());
        self.branch_behaviors.push(behavior);
        pc
    }

    /// Appends `inst` with `pattern` in its slot.
    fn push_memory(&mut self, inst: StaticInst, pattern: AddrPattern) -> u64 {
        let pc = self.push(inst);
        *self.slots.last_mut().expect("just pushed") = slot_number(self.addr_patterns.len());
        self.addr_patterns.push(pattern);
        pc
    }

    /// Appends an integer ALU op.
    pub fn push_alu(&mut self, dst: atr_isa::ArchReg, srcs: &[atr_isa::ArchReg]) -> u64 {
        self.push(StaticInst::alu(0, dst, srcs))
    }

    /// Appends an instruction of an arbitrary class.
    pub fn push_op(
        &mut self,
        class: OpClass,
        dst: Option<atr_isa::ArchReg>,
        srcs: &[atr_isa::ArchReg],
    ) -> u64 {
        self.push(StaticInst::new(0, class, dst, srcs))
    }

    /// Appends a load with an address pattern.
    pub fn push_load(
        &mut self,
        dst: atr_isa::ArchReg,
        base: atr_isa::ArchReg,
        pattern: AddrPattern,
    ) -> u64 {
        self.push_memory(StaticInst::load(0, dst, base), pattern)
    }

    /// Appends a store with an address pattern.
    pub fn push_store(
        &mut self,
        base: atr_isa::ArchReg,
        data: atr_isa::ArchReg,
        pattern: AddrPattern,
    ) -> u64 {
        self.push_memory(StaticInst::store(0, base, data), pattern)
    }

    /// Appends a conditional branch with a behaviour.
    pub fn push_cond_branch(
        &mut self,
        target: u64,
        srcs: &[atr_isa::ArchReg],
        behavior: BranchBehavior,
    ) -> u64 {
        self.push_branch(StaticInst::cond_branch(0, target, srcs), behavior)
    }

    /// Appends an unconditional direct jump.
    pub fn push_jump(&mut self, target: u64) -> u64 {
        self.push(StaticInst::jump(0, target))
    }

    /// Appends a direct call to `target`.
    pub fn push_call(&mut self, target: u64) -> u64 {
        let mut i = StaticInst::new(0, OpClass::Call, None, &[]);
        i.taken_target = Some(target);
        self.push(i)
    }

    /// Appends a return.
    pub fn push_return(&mut self) -> u64 {
        self.push(StaticInst::new(0, OpClass::Return, None, &[]))
    }

    /// Appends an indirect jump choosing among `targets`.
    pub fn push_indirect(&mut self, targets: Vec<u64>, srcs: &[atr_isa::ArchReg]) -> u64 {
        let inst = StaticInst::new(0, OpClass::IndirectJump, None, srcs);
        self.push_branch(inst, BranchBehavior::IndirectUniform { targets })
    }

    /// Overrides the taken target of an already-pushed direct branch —
    /// used to patch forward branches once their target PC is known.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is unknown or not direct control flow.
    pub fn patch_target(&mut self, pc: u64, target: u64) {
        let i = index_of(&self.insts, self.entry, pc)
            .unwrap_or_else(|| panic!("patch_target: no instruction at {pc:#x}"));
        let inst = &mut self.insts[i];
        assert!(
            matches!(inst.class, OpClass::CondBranch | OpClass::DirectJump | OpClass::Call),
            "patch_target: {:#x} is not direct control flow",
            pc
        );
        inst.taken_target = Some(target);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty, if two instructions share a PC,
    /// if any direct control flow is missing a target, if any
    /// conditional branch or indirect jump is missing a behaviour, or if
    /// any memory op is missing an address pattern — catching generator
    /// bugs early.
    #[must_use]
    pub fn build(self) -> Arc<Program> {
        assert!(!self.insts.is_empty(), "program must have at least one instruction");
        for (i, inst) in self.insts.iter().enumerate() {
            // Lookups rely on strictly ascending PCs; only a zero-size
            // instruction can break that.
            assert!(i == 0 || self.insts[i - 1].pc < inst.pc, "duplicate PC {:#x}", inst.pc);
            match inst.class {
                OpClass::CondBranch | OpClass::DirectJump | OpClass::Call => {
                    assert!(
                        inst.taken_target.is_some(),
                        "direct control flow at {:#x} lacks a target",
                        inst.pc
                    );
                }
                _ => {}
            }
            let has_slot = self.slots[i] != NO_SLOT;
            if has_branch_behavior(inst.class) {
                assert!(has_slot, "branch at {:#x} lacks a behaviour", inst.pc);
            }
            if inst.class.is_memory() {
                assert!(has_slot, "memory op at {:#x} lacks an address pattern", inst.pc);
            }
        }
        Arc::new(Program {
            insts: self.insts.into_boxed_slice(),
            slots: self.slots.into_boxed_slice(),
            branch_behaviors: self.branch_behaviors.into_boxed_slice(),
            addr_patterns: self.addr_patterns.into_boxed_slice(),
            entry: self.entry,
            seed: self.seed,
        })
    }
}

/// `len` as a behaviour slot.
fn slot_number(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&s| s != NO_SLOT).expect("too many behaviours for a u32 slot")
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_isa::ArchReg;

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    #[test]
    fn builder_assigns_sequential_pcs() {
        let mut b = ProgramBuilder::new(0x400000, 0);
        let p0 = b.push_alu(r(0), &[r(1)]);
        let p1 = b.push_alu(r(1), &[r(0)]);
        assert_eq!(p0, 0x400000);
        assert_eq!(p1, 0x400004);
        let prog = b.build();
        assert_eq!(prog.at(p1).unwrap().fallthrough, 0x400008);
    }

    #[test]
    fn lookup_misses_between_instructions() {
        let mut b = ProgramBuilder::new(0x1000, 0);
        b.push_alu(r(0), &[]);
        let prog = b.build();
        assert!(prog.at(0x1000).is_some());
        assert!(prog.at(0x1002).is_none());
    }

    #[test]
    fn lookup_finds_every_instruction_of_mixed_sizes() {
        let mut b = ProgramBuilder::new(0x2000, 0);
        let mut short = StaticInst::alu(0, r(0), &[]);
        short.size = 2;
        let a = b.push(short);
        let br = b.push_cond_branch(0, &[r(0)], BranchBehavior::AlwaysTaken);
        let pat = AddrPattern::Stride { base: 0, stride: 8, footprint: 64 };
        let ld = b.push_load(r(1), r(0), pat.clone());
        b.patch_target(br, ld);
        let prog = b.build();
        assert_eq!([a, br, ld], [0x2000, 0x2002, 0x2006]);
        assert_eq!(prog.at(br).unwrap().taken_target, Some(ld));
        assert_eq!(prog.at(ld).unwrap().class, OpClass::Load);
        assert!(prog.at(0x2004).is_none());
        assert_eq!(prog.branch_behavior(br), Some(&BranchBehavior::AlwaysTaken));
        assert_eq!(prog.addr_pattern(ld), Some(&pat));
        assert_eq!((prog.branch_behavior(ld), prog.addr_pattern(br)), (None, None));
    }

    #[test]
    fn loop_program_wires_backedge() {
        let mut b = ProgramBuilder::new(0, 0);
        let head = b.next_pc();
        b.push_alu(r(0), &[r(0)]);
        b.push_cond_branch(head, &[r(0)], BranchBehavior::Loop { trip_count: 3 });
        let prog = b.build();
        let br = prog.instructions()[1];
        assert_eq!(br.taken_target, Some(head));
        assert!(prog.branch_behavior(br.pc).is_some());
    }

    #[test]
    fn patch_target_fixes_forward_branches() {
        let mut b = ProgramBuilder::new(0, 0);
        let br = b.push_cond_branch(0, &[r(0)], BranchBehavior::NeverTaken);
        b.push_alu(r(1), &[]);
        let join = b.next_pc();
        b.push_alu(r(2), &[]);
        b.patch_target(br, join);
        let prog = b.build();
        assert_eq!(prog.at(br).unwrap().taken_target, Some(join));
    }

    #[test]
    #[should_panic(expected = "lacks an address pattern")]
    fn memory_without_pattern_is_rejected() {
        let mut b = ProgramBuilder::new(0, 0);
        b.push(StaticInst::load(0, r(0), r(1)));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "lacks a behaviour")]
    fn branch_without_behavior_is_rejected() {
        let mut b = ProgramBuilder::new(0, 0);
        b.push(StaticInst::cond_branch(0, 0x40, &[]));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_program_is_rejected() {
        let _ = ProgramBuilder::new(0, 0).build();
    }

    #[test]
    fn class_histogram_counts() {
        let mut b = ProgramBuilder::new(0, 0);
        b.push_alu(r(0), &[]);
        b.push_alu(r(1), &[]);
        b.push_load(r(2), r(0), AddrPattern::Stride { base: 0, stride: 8, footprint: 64 });
        let prog = b.build();
        let h = prog.class_histogram();
        assert_eq!(h[&OpClass::IntAlu], 2);
        assert_eq!(h[&OpClass::Load], 1);
    }
}
