//! The speculative rename table (SRT / RAT).

use crate::ptag::{PTag, PerClass};
use atr_isa::{ArchReg, RegClass, NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS};

/// Architectural registers per class: both classes have the same count,
/// so one fixed array type holds either class's mappings.
const CLASS_REGS: usize = NUM_INT_ARCH_REGS;
const _: () = assert!(NUM_FP_ARCH_REGS == CLASS_REGS);

/// The speculative renaming table: the current architectural →
/// physical mapping for both register classes (§4.2.1).
///
/// Every flush rebuilds it from the committed RAT plus the surviving
/// ROB mappings (the §4.2.1 walk); nothing checkpoints it. Each class
/// is a fixed array of physical register indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameTable {
    map: PerClass<[u16; CLASS_REGS]>,
}

impl RenameTable {
    /// Creates the reset-state table: architectural register `i` of each
    /// class maps to physical register `i` of that class.
    #[must_use]
    pub fn identity() -> Self {
        RenameTable { map: PerClass::from_fn(|_| std::array::from_fn(|i| i as u16)) }
    }

    /// Current mapping of `reg`.
    #[must_use]
    pub fn get(&self, reg: ArchReg) -> PTag {
        PTag::new(reg.class(), self.map.get(reg.class())[reg.index() as usize].into())
    }

    /// Remaps `reg` to `tag`, returning the previous mapping.
    ///
    /// # Panics
    ///
    /// Panics if `tag`'s index does not fit in 16 bits.
    pub fn set(&mut self, reg: ArchReg, tag: PTag) -> PTag {
        debug_assert_eq!(reg.class(), tag.class(), "cross-class rename");
        let index = u16::try_from(tag.index()).expect("physical register index above 65535");
        let slot = &mut self.map.get_mut(reg.class())[reg.index() as usize];
        PTag::new(reg.class(), std::mem::replace(slot, index).into())
    }

    /// Every live mapping, both classes: `(arch, ptag)` pairs. This is
    /// the set ATR's bulk no-early-release logic marks (§4.2.2).
    pub fn live(&self) -> impl Iterator<Item = (ArchReg, PTag)> + '_ {
        RegClass::ALL.into_iter().flat_map(move |class| {
            self.map
                .get(class)
                .iter()
                .enumerate()
                .map(move |(i, &t)| (ArchReg::new(class, i as u8), PTag::new(class, t.into())))
        })
    }
}

impl Default for RenameTable {
    fn default() -> Self {
        RenameTable::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_isa::NUM_ARCH_REGS;

    #[test]
    fn identity_maps_arch_to_same_index() {
        let t = RenameTable::identity();
        let r5 = ArchReg::int(5);
        assert_eq!(t.get(r5), PTag::new(RegClass::Int, 5));
        let v3 = ArchReg::fp(3);
        assert_eq!(t.get(v3), PTag::new(RegClass::Fp, 3));
    }

    #[test]
    fn set_returns_previous_mapping() {
        let mut t = RenameTable::identity();
        let r1 = ArchReg::int(1);
        let new = PTag::new(RegClass::Int, 40);
        let prev = t.set(r1, new);
        assert_eq!(prev, PTag::new(RegClass::Int, 1));
        assert_eq!(t.get(r1), new);
    }

    #[test]
    fn live_covers_all_arch_regs() {
        let t = RenameTable::identity();
        assert_eq!(t.live().count(), NUM_ARCH_REGS);
    }

    #[test]
    fn snapshot_restore_via_clone() {
        let mut t = RenameTable::identity();
        let snap = t.clone();
        t.set(ArchReg::int(2), PTag::new(RegClass::Int, 50));
        assert_ne!(t, snap);
        t = snap;
        assert_eq!(t.get(ArchReg::int(2)), PTag::new(RegClass::Int, 2));
    }
}
