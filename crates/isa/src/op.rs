//! Micro-op classes and their pipeline-relevant properties.

use std::fmt;

/// The functional-unit kind an operation executes on.
///
/// Matches the Table 1 execution-port split (5 ALU, 3 load, 2 store).
/// Multiplies, divides, branches, and FP operations issue on ALU ports
/// (with their own latencies); divides additionally occupy their unit
/// non-pipelined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// General execution ports (ALU, MUL, DIV, branch, FP/vector).
    Alu,
    /// Load pipelines (address generation + data-cache access).
    Load,
    /// Store pipelines (address generation; data written at commit).
    Store,
}

impl FuKind {
    /// All functional-unit kinds.
    pub const ALL: [FuKind; 3] = [FuKind::Alu, FuKind::Load, FuKind::Store];
}

/// Micro-operation class.
///
/// The classification captures exactly the properties the register-release
/// schemes depend on:
///
/// * [`OpClass::breaks_atomic_region`] — conditional branches and indirect
///   jumps, which can change control flow after rename and therefore
///   terminate atomic commit regions (§3.2);
/// * [`OpClass::may_raise_exception`] — loads, stores, and divisions,
///   which can raise precise exceptions and likewise terminate atomic
///   regions (§3.2);
/// * [`OpClass::blocks_precommit`] — the union of the two: instructions
///   the precommit pointer must wait on (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (add, sub, logic, shifts, LEA).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Non-pipelined integer divide. Exception-causing (divide by zero).
    IntDiv,
    /// Register-to-register move (candidate for move elimination).
    Mov,
    /// Memory load. Exception-causing (page fault).
    Load,
    /// Memory store. Exception-causing (page fault, protection).
    Store,
    /// Conditional direct branch (includes macro-fused cmp+jcc).
    CondBranch,
    /// Unconditional direct jump (resolved in the frontend; never
    /// mispredicts direction, target known from decode).
    DirectJump,
    /// Indirect jump or indirect call (target predicted; atomicity
    /// breaking per §3.2's region definition).
    IndirectJump,
    /// Direct call (pushes return address; target known from decode).
    Call,
    /// Return (target predicted via the return address stack).
    Return,
    /// Pipelined FP/vector add/sub/compare.
    FpAdd,
    /// Pipelined FP/vector multiply (and FMA).
    FpMul,
    /// Non-pipelined FP/vector divide / sqrt. Exception-causing.
    FpDiv,
    /// Single-cycle vector integer ALU operation.
    VecAlu,
    /// No-operation (still consumes a ROB slot).
    Nop,
}

impl OpClass {
    /// Every op class, for exhaustive tests and workload mixes.
    pub const ALL: [OpClass; 16] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::Mov,
        OpClass::Load,
        OpClass::Store,
        OpClass::CondBranch,
        OpClass::DirectJump,
        OpClass::IndirectJump,
        OpClass::Call,
        OpClass::Return,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::VecAlu,
        OpClass::Nop,
    ];

    /// Is this any control-flow instruction (changes or may change the PC)?
    #[must_use]
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            OpClass::CondBranch
                | OpClass::DirectJump
                | OpClass::IndirectJump
                | OpClass::Call
                | OpClass::Return
        )
    }

    /// Can this instruction's *direction* be mispredicted?
    #[must_use]
    pub fn is_conditional(self) -> bool {
        matches!(self, OpClass::CondBranch)
    }

    /// Does renaming this instruction terminate atomic commit regions
    /// because of control flow? Per §3.2 this is conditional branches and
    /// indirect jumps (returns are indirect). Unconditional direct jumps
    /// and direct calls cannot change control flow after decode, so they
    /// do not break regions.
    #[must_use]
    pub fn breaks_atomic_region(self) -> bool {
        matches!(self, OpClass::CondBranch | OpClass::IndirectJump | OpClass::Return)
    }

    /// Can this instruction raise a precise exception (page fault,
    /// divide-by-zero)? Per §3.2: memory instructions and divisions.
    #[must_use]
    pub fn may_raise_exception(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store | OpClass::IntDiv | OpClass::FpDiv)
    }

    /// Does the precommit pointer have to wait for this instruction to be
    /// resolved before passing it (§2.3's conditions (1)–(3))?
    #[must_use]
    pub fn blocks_precommit(self) -> bool {
        self.breaks_atomic_region() || self.may_raise_exception()
    }

    /// Is this a memory operation?
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Is this a load?
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, OpClass::Load)
    }

    /// Is this a store?
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, OpClass::Store)
    }

    /// Which functional-unit kind executes this class.
    #[must_use]
    pub fn fu_kind(self) -> FuKind {
        match self {
            OpClass::Load => FuKind::Load,
            OpClass::Store => FuKind::Store,
            _ => FuKind::Alu,
        }
    }

    /// Execution latency in cycles, excluding memory-hierarchy time for
    /// loads (which is added by the data cache model) and excluding issue
    /// and writeback overhead.
    #[must_use]
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Mov | OpClass::VecAlu | OpClass::Nop => 1,
            OpClass::CondBranch
            | OpClass::DirectJump
            | OpClass::IndirectJump
            | OpClass::Call
            | OpClass::Return => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 18,
            OpClass::Load | OpClass::Store => 1, // address generation
            OpClass::FpAdd => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 14,
        }
    }

    /// Is the functional unit occupied for the whole latency (divides) as
    /// opposed to fully pipelined?
    #[must_use]
    pub fn is_unpipelined(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }

    /// Short mnemonic used in disassembly-style debug output.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMul => "mul",
            OpClass::IntDiv => "div",
            OpClass::Mov => "mov",
            OpClass::Load => "ld",
            OpClass::Store => "st",
            OpClass::CondBranch => "jcc",
            OpClass::DirectJump => "jmp",
            OpClass::IndirectJump => "jmp*",
            OpClass::Call => "call",
            OpClass::Return => "ret",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::VecAlu => "valu",
            OpClass::Nop => "nop",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomicity_breaking_matches_paper_definition() {
        // §3.2: atomic regions exclude conditional branches and indirect
        // jumps...
        assert!(OpClass::CondBranch.breaks_atomic_region());
        assert!(OpClass::IndirectJump.breaks_atomic_region());
        assert!(OpClass::Return.breaks_atomic_region());
        // ...but direct jumps/calls cannot change control flow post-decode.
        assert!(!OpClass::DirectJump.breaks_atomic_region());
        assert!(!OpClass::Call.breaks_atomic_region());
        assert!(!OpClass::IntAlu.breaks_atomic_region());
    }

    #[test]
    fn exception_causing_matches_paper_definition() {
        // §3.2: loads, stores, and division.
        for c in [OpClass::Load, OpClass::Store, OpClass::IntDiv, OpClass::FpDiv] {
            assert!(c.may_raise_exception(), "{c} should be exception-causing");
        }
        for c in [OpClass::IntAlu, OpClass::Mov, OpClass::FpMul, OpClass::CondBranch] {
            assert!(!c.may_raise_exception(), "{c} should not be exception-causing");
        }
    }

    #[test]
    fn precommit_blockers_are_union_of_branches_and_exceptions() {
        for c in OpClass::ALL {
            assert_eq!(c.blocks_precommit(), c.breaks_atomic_region() || c.may_raise_exception());
        }
    }

    #[test]
    fn fu_kinds_route_memory_ops_to_memory_ports() {
        assert_eq!(OpClass::Load.fu_kind(), FuKind::Load);
        assert_eq!(OpClass::Store.fu_kind(), FuKind::Store);
        for c in OpClass::ALL {
            if !c.is_memory() {
                assert_eq!(c.fu_kind(), FuKind::Alu);
            }
        }
    }

    #[test]
    fn latencies_are_nonzero_and_divides_are_unpipelined() {
        for c in OpClass::ALL {
            assert!(c.exec_latency() >= 1);
        }
        assert!(OpClass::IntDiv.is_unpipelined());
        assert!(OpClass::FpDiv.is_unpipelined());
        assert!(!OpClass::IntMul.is_unpipelined());
    }

    #[test]
    fn conditional_and_indirect_predicates() {
        assert!(OpClass::CondBranch.is_conditional());
        assert!(!OpClass::Return.is_conditional());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = OpClass::ALL.iter().map(|c| c.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpClass::ALL.len());
    }
}
