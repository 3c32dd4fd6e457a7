//! Indirect branch target prediction (Table 1's 3K-entry indirect BTB).
//!
//! A two-level scheme in the ITTAGE spirit, sized down: a path-history
//! tagged table captures per-path targets (virtual dispatch reached from
//! different call sites), with a per-PC last-target table as fallback.

use crate::history::PathHistory;

#[derive(Debug, Clone, Copy, Default)]
struct TaggedTarget {
    tag: u16,
    target: u64,
    conf: u8,
}

/// Indirect target predictor: path-tagged first level plus per-PC
/// last-target fallback.
#[derive(Debug, Clone)]
pub struct IndirectPredictor {
    tagged: Vec<TaggedTarget>,
    last: Vec<(u64, u64)>, // (pc, target)
    index_bits: usize,
    path_bits: usize,
}

impl IndirectPredictor {
    /// Creates a predictor with `2^index_bits` tagged entries using
    /// `path_bits` of path history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 20.
    #[must_use]
    pub fn new(index_bits: usize, path_bits: usize) -> Self {
        assert!(index_bits > 0 && index_bits <= 20, "index bits out of range");
        IndirectPredictor {
            tagged: vec![TaggedTarget::default(); 1 << index_bits],
            last: vec![(0, 0); 1 << index_bits],
            index_bits,
            path_bits: path_bits.min(64),
        }
    }

    fn tagged_idx(&self, pc: u64, path: &PathHistory) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ path.low(self.path_bits)) & mask) as usize
    }

    fn tag(pc: u64, path: &PathHistory) -> u16 {
        ((((pc >> 2) ^ (path.low(16) << 3) ^ (pc >> 13)) & 0xffff) as u16) | 1
    }

    fn last_idx(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1u64 << self.index_bits) - 1)) as usize
    }

    /// Predicts the target of the indirect branch at `pc` under `path`.
    /// Returns `None` when nothing is known (fetch stalls on resolve).
    #[must_use]
    pub fn predict(&self, pc: u64, path: &PathHistory) -> Option<u64> {
        let e = &self.tagged[self.tagged_idx(pc, path)];
        if e.tag == Self::tag(pc, path) && e.conf >= 1 {
            return Some(e.target);
        }
        let (lpc, target) = self.last[self.last_idx(pc)];
        if lpc == pc {
            Some(target)
        } else {
            None
        }
    }

    /// Trains with the resolved target, using the path history at
    /// prediction time.
    pub fn update(&mut self, pc: u64, path: &PathHistory, target: u64) {
        let i = self.tagged_idx(pc, path);
        let tag = Self::tag(pc, path);
        let e = &mut self.tagged[i];
        if e.tag == tag {
            if e.target == target {
                e.conf = (e.conf + 1).min(3);
            } else if e.conf > 0 {
                e.conf -= 1;
            } else {
                e.target = target;
                e.conf = 1;
            }
        } else if e.conf == 0 {
            *e = TaggedTarget { tag, target, conf: 1 };
        } else {
            e.conf -= 1;
        }
        let li = self.last_idx(pc);
        self.last[li] = (pc, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predicts_none() {
        let p = IndirectPredictor::new(10, 12);
        assert_eq!(p.predict(0x100, &PathHistory::new()), None);
    }

    #[test]
    fn monomorphic_site_predicts_last_target() {
        let mut p = IndirectPredictor::new(10, 12);
        let path = PathHistory::new();
        p.update(0x100, &path, 0x4000);
        assert_eq!(p.predict(0x100, &path), Some(0x4000));
    }

    #[test]
    fn path_disambiguates_polymorphic_site() {
        let mut p = IndirectPredictor::new(12, 16);
        let mut path_a = PathHistory::new();
        path_a.push_edge(0x400, 0x1111_0004);
        let mut path_b = PathHistory::new();
        path_b.push_edge(0x400, 0x2222_0008);
        for _ in 0..8 {
            p.update(0x500, &path_a, 0xa000);
            p.update(0x500, &path_b, 0xb000);
        }
        assert_eq!(p.predict(0x500, &path_a), Some(0xa000));
        assert_eq!(p.predict(0x500, &path_b), Some(0xb000));
    }

    #[test]
    fn retrains_on_target_change() {
        let mut p = IndirectPredictor::new(10, 12);
        let path = PathHistory::new();
        for _ in 0..4 {
            p.update(0x100, &path, 0x4000);
        }
        for _ in 0..6 {
            p.update(0x100, &path, 0x5000);
        }
        assert_eq!(p.predict(0x100, &path), Some(0x5000));
    }
}
