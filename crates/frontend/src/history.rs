//! Speculative branch history registers.

/// Maximum global history length supported (bits).
pub const MAX_HISTORY_BITS: usize = 128;

/// Global direction history: a shift register of the most recent branch
/// outcomes, updated *speculatively* at predict time and restored from a
/// snapshot on misprediction recovery.
///
/// The register is stored as two 64-bit words; [`GlobalHistory::fold`]
/// XOR-folds the youngest `len` bits down to `width` bits for use as a
/// predictor table index or tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GlobalHistory {
    bits: [u64; 2],
}

impl GlobalHistory {
    /// An empty (all not-taken) history.
    #[must_use]
    pub fn new() -> Self {
        GlobalHistory::default()
    }

    /// Shifts in one outcome (youngest bit at position 0).
    pub fn push(&mut self, taken: bool) {
        self.bits[1] = (self.bits[1] << 1) | (self.bits[0] >> 63);
        self.bits[0] = (self.bits[0] << 1) | u64::from(taken);
    }

    /// The youngest `n` bits (`n <= 64`) as an integer.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn low(&self, n: usize) -> u64 {
        assert!(n <= 64, "low() supports at most 64 bits");
        self.bits[0] & low_mask(n)
    }

    /// Raw bit `i` (0 = youngest).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < MAX_HISTORY_BITS);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bits `[i, i + n)` (`n <= 64`, `i + n <= MAX_HISTORY_BITS`) as an
    /// integer, youngest at bit 0.
    fn window(&self, i: usize, n: usize) -> u64 {
        let (word, off) = (i / 64, i % 64);
        let mut v = self.bits[word] >> off;
        if off > 0 && word + 1 < self.bits.len() {
            v |= self.bits[word + 1] << (64 - off);
        }
        v & low_mask(n)
    }

    /// XOR-folds the youngest `len` history bits into `width` bits:
    /// the XOR of the consecutive `width`-bit chunks, youngest first
    /// (the last chunk may be short).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or `len` exceeds
    /// [`MAX_HISTORY_BITS`].
    #[must_use]
    pub fn fold(&self, len: usize, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "fold width out of range");
        assert!(len <= MAX_HISTORY_BITS, "history length out of range");
        let mut acc = 0u64;
        let mut i = 0;
        while i < len {
            let take = (len - i).min(width);
            acc ^= self.window(i, take);
            i += take;
        }
        acc
    }
}

/// The low `n` bits set (`n <= 64`).
fn low_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Path history: low bits of recent control-flow targets, used to index
/// the indirect target predictor (distinguishes call sites reached via
/// different paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathHistory {
    bits: u64,
}

impl PathHistory {
    /// An empty path history.
    #[must_use]
    pub fn new() -> Self {
        PathHistory::default()
    }

    /// Shifts in two bits of a control-flow *edge* (source PC and
    /// target mixed), so different branches reaching the same target
    /// remain distinguishable — what indirect prediction relies on.
    pub fn push_edge(&mut self, pc: u64, target: u64) {
        self.bits = (self.bits << 2) | (((pc >> 2) ^ (target >> 2) ^ (pc >> 7)) & 0b11);
    }

    /// The youngest `n` bits (`n <= 64`).
    #[must_use]
    pub fn low(&self, n: usize) -> u64 {
        assert!(n <= 64);
        if n == 64 {
            self.bits
        } else if n == 0 {
            0
        } else {
            self.bits & ((1u64 << n) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_youngest_first() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.push(false);
        h.push(true);
        // youngest = taken(1), then 0, then 1 -> 0b101
        assert_eq!(h.low(3), 0b101);
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
    }

    #[test]
    fn history_carries_across_word_boundary() {
        let mut h = GlobalHistory::new();
        h.push(true);
        for _ in 0..64 {
            h.push(false);
        }
        assert!(h.bit(64), "the taken bit should have shifted into the high word");
    }

    #[test]
    fn fold_of_short_history_is_low_bits() {
        let mut h = GlobalHistory::new();
        for b in [true, false, true, true] {
            h.push(b);
        }
        assert_eq!(h.fold(4, 8), h.low(4));
    }

    #[test]
    fn fold_xors_chunks() {
        let mut h = GlobalHistory::new();
        // 16 bits: two 8-bit chunks; expect xor of them.
        for i in 0..16 {
            h.push(i % 3 == 0);
        }
        let lo = h.low(8);
        let mut hi = 0u64;
        for b in 0..8 {
            hi |= u64::from(h.bit(8 + b)) << b;
        }
        assert_eq!(h.fold(16, 8), lo ^ hi);
    }

    /// The bit-by-bit fold the word-wise [`GlobalHistory::fold`]
    /// replaced: the reference it must equal.
    fn fold_bitwise(h: &GlobalHistory, len: usize, width: usize) -> u64 {
        let mut acc = 0u64;
        let mut i = 0;
        while i < len {
            let take = (len - i).min(width);
            let mut chunk = 0u64;
            for b in 0..take {
                chunk |= u64::from(h.bit(i + b)) << b;
            }
            acc ^= chunk;
            i += take;
        }
        acc
    }

    #[test]
    fn wordwise_fold_equals_the_bit_loop_for_every_length_and_width() {
        // Every (len, width) pair, so TAGE's (4..=128, 11/9/8) and
        // gshare's (12, 12) and (16, 14) are all covered.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..24 {
            let mut h = GlobalHistory::new();
            for _ in 0..MAX_HISTORY_BITS {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                h.push(state & 1 == 1);
            }
            for len in 0..=MAX_HISTORY_BITS {
                for width in 1..=64 {
                    assert_eq!(
                        h.fold(len, width),
                        fold_bitwise(&h, len, width),
                        "len {len} width {width} history {h:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_differs_for_different_histories() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        for i in 0..50 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_ne!(a.fold(50, 11), b.fold(50, 11));
    }

    #[test]
    fn snapshot_restore_by_copy() {
        let mut h = GlobalHistory::new();
        h.push(true);
        let snap = h;
        h.push(false);
        h.push(false);
        assert_ne!(h, snap);
        let restored = snap;
        assert_eq!(restored.low(1), 1);
    }

    #[test]
    fn path_history_tracks_edges() {
        let mut p = PathHistory::new();
        p.push_edge(0x1000, 0x1004); // (0x400 ^ 0x401 ^ 0x20) & 3 = 1
        p.push_edge(0x2000, 0x2008); // (0x800 ^ 0x802 ^ 0x40) & 3 = 2
        assert_eq!(p.low(4), 0b0110);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn low_too_wide_panics() {
        let h = GlobalHistory::new();
        let _ = h.low(65);
    }
}
