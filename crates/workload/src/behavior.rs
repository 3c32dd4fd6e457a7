//! Deterministic dynamic behaviours for branches and memory operations.
//!
//! A [`BranchBehavior`] or [`AddrPattern`] is a *static* description
//! attached to an instruction PC; the oracle instantiates per-PC runtime
//! state ([`BranchState`], [`AddrState`]) that advances deterministically
//! on each architectural execution. All randomness is derived from a
//! splittable seed, so the dynamic stream is bit-reproducible.

use atr_rng::{RngExt, SeedableRng, SmallRng};

/// Dynamic direction/target behaviour of a control-flow instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchBehavior {
    /// Always taken.
    AlwaysTaken,
    /// Never taken.
    NeverTaken,
    /// Loop back-edge: taken `trip_count - 1` consecutive times, then
    /// not-taken once, repeating. Highly predictable for loop-capable
    /// predictors; `trip_count` must be at least 1.
    Loop {
        /// Iterations per loop entry.
        trip_count: u32,
    },
    /// Independently random with the given taken probability (data
    /// dependent branch). `taken_prob` near 0.5 is the worst case for
    /// any predictor.
    Biased {
        /// Probability the branch is taken on any execution.
        taken_prob: f64,
    },
    /// A repeating fixed pattern of directions. Perfectly learnable by a
    /// history-based predictor with sufficient history.
    Pattern {
        /// The repeating direction sequence (must be non-empty).
        bits: Vec<bool>,
    },
    /// Indirect control flow choosing uniformly among `targets` (a
    /// switch / virtual dispatch). Targets must be non-empty.
    IndirectUniform {
        /// Candidate targets.
        targets: Vec<u64>,
    },
}

/// Runtime state for one branch PC.
#[derive(Debug, Clone)]
pub struct BranchState {
    behavior: BranchBehavior,
    counter: u64,
    rng: SmallRng,
}

impl BranchState {
    /// Instantiates runtime state; `seed` individualizes random branches.
    #[must_use]
    pub fn new(behavior: BranchBehavior, seed: u64) -> Self {
        if let BranchBehavior::Pattern { bits } = &behavior {
            assert!(!bits.is_empty(), "pattern behaviour needs at least one bit");
        }
        if let BranchBehavior::IndirectUniform { targets } = &behavior {
            assert!(!targets.is_empty(), "indirect behaviour needs at least one target");
        }
        BranchState { behavior, counter: 0, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The next dynamic direction of this branch. For indirect behaviour
    /// the direction is always `true` (use [`BranchState::next_target`]).
    pub fn next_taken(&mut self) -> bool {
        let c = self.counter;
        self.counter += 1;
        match &self.behavior {
            BranchBehavior::AlwaysTaken | BranchBehavior::IndirectUniform { .. } => true,
            BranchBehavior::NeverTaken => false,
            BranchBehavior::Loop { trip_count } => {
                let t = u64::from((*trip_count).max(1));
                c % t != t - 1
            }
            BranchBehavior::Biased { taken_prob } => {
                self.rng.random_bool(taken_prob.clamp(0.0, 1.0))
            }
            BranchBehavior::Pattern { bits } => bits[(c % bits.len() as u64) as usize],
        }
    }

    /// The next dynamic target for indirect behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the behaviour is not [`BranchBehavior::IndirectUniform`].
    pub fn next_target(&mut self) -> u64 {
        match &self.behavior {
            BranchBehavior::IndirectUniform { targets } => {
                let i = self.rng.random_range(0..targets.len());
                targets[i]
            }
            other => panic!("next_target on non-indirect behaviour {other:?}"),
        }
    }
}

/// Effective-address behaviour of a load or store PC.
#[derive(Debug, Clone, PartialEq)]
pub enum AddrPattern {
    /// Sequential streaming: `base + i*stride`, wrapping within
    /// `footprint` bytes. Prefetcher- and cache-friendly for small
    /// strides; `footprint` must be non-zero.
    Stride {
        /// First address.
        base: u64,
        /// Per-access stride in bytes (may be negative).
        stride: i64,
        /// Region size in bytes the stream wraps within.
        footprint: u64,
    },
    /// Uniformly random addresses within `footprint` bytes of `base`,
    /// aligned to `align` bytes. Models irregular/pointer-heavy access.
    UniformRandom {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
        /// Access alignment in bytes (power of two).
        align: u64,
    },
    /// Dependent pointer chase: the next address is a deterministic hash
    /// of the previous one, confined to the region. Defeats stride
    /// prefetching and serializes misses, like `mcf`/`omnetpp`.
    PointerChase {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
    },
}

/// Runtime state for one memory-instruction PC.
#[derive(Debug, Clone)]
pub struct AddrState {
    pattern: AddrPattern,
    counter: u64,
    last: u64,
    rng: SmallRng,
}

/// A cheap 64-bit mix function (splitmix64 finalizer) used for the
/// pointer-chase walk and wrong-path address synthesis.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl AddrState {
    /// Instantiates runtime state for an address pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern has a zero footprint or a non-power-of-two
    /// alignment.
    #[must_use]
    pub fn new(pattern: AddrPattern, seed: u64) -> Self {
        match &pattern {
            AddrPattern::Stride { footprint, .. } | AddrPattern::PointerChase { footprint, .. } => {
                assert!(*footprint > 0, "footprint must be non-zero");
            }
            AddrPattern::UniformRandom { footprint, align, .. } => {
                assert!(*footprint > 0, "footprint must be non-zero");
                assert!(align.is_power_of_two(), "alignment must be a power of two");
            }
        }
        let last = match &pattern {
            AddrPattern::Stride { base, .. }
            | AddrPattern::UniformRandom { base, .. }
            | AddrPattern::PointerChase { base, .. } => *base,
        };
        AddrState { pattern, counter: 0, last, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The next effective address for this memory instruction.
    pub fn next_addr(&mut self) -> u64 {
        let c = self.counter;
        self.counter += 1;
        match &self.pattern {
            AddrPattern::Stride { base, stride, footprint } => {
                let span = *footprint;
                let off = (c as i64).wrapping_mul(*stride).rem_euclid(span as i64) as u64;
                base.wrapping_add(off)
            }
            AddrPattern::UniformRandom { base, footprint, align } => {
                let off = self.rng.random_range(0..*footprint) & !(align - 1);
                base.wrapping_add(off)
            }
            AddrPattern::PointerChase { base, footprint } => {
                let next = base.wrapping_add(mix64(self.last) % *footprint) & !7u64;
                self.last = next;
                next
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_behavior_is_taken_trip_minus_one_times() {
        let mut s = BranchState::new(BranchBehavior::Loop { trip_count: 4 }, 1);
        let dirs: Vec<bool> = (0..8).map(|_| s.next_taken()).collect();
        assert_eq!(dirs, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn loop_trip_count_one_is_never_taken() {
        let mut s = BranchState::new(BranchBehavior::Loop { trip_count: 1 }, 1);
        assert!((0..5).all(|_| !s.next_taken()));
    }

    #[test]
    fn pattern_behavior_repeats() {
        let bits = vec![true, false, false];
        let mut s = BranchState::new(BranchBehavior::Pattern { bits: bits.clone() }, 0);
        for i in 0..12 {
            assert_eq!(s.next_taken(), bits[i % 3]);
        }
    }

    #[test]
    fn biased_behavior_is_seed_deterministic() {
        let mk = || BranchState::new(BranchBehavior::Biased { taken_prob: 0.3 }, 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            assert_eq!(a.next_taken(), b.next_taken());
        }
    }

    #[test]
    fn biased_behavior_approximates_probability() {
        let mut s = BranchState::new(BranchBehavior::Biased { taken_prob: 0.25 }, 7);
        let taken = (0..10_000).filter(|_| s.next_taken()).count();
        let frac = taken as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "observed {frac}");
    }

    #[test]
    fn indirect_targets_stay_in_set() {
        let targets = vec![0x100, 0x200, 0x300];
        let mut s =
            BranchState::new(BranchBehavior::IndirectUniform { targets: targets.clone() }, 9);
        for _ in 0..50 {
            assert!(s.next_taken());
            assert!(targets.contains(&s.next_target()));
        }
    }

    #[test]
    #[should_panic(expected = "non-indirect")]
    fn next_target_panics_for_direct_branch() {
        let mut s = BranchState::new(BranchBehavior::AlwaysTaken, 0);
        let _ = s.next_target();
    }

    #[test]
    fn stride_addresses_advance_and_wrap() {
        let mut a =
            AddrState::new(AddrPattern::Stride { base: 0x1000, stride: 64, footprint: 256 }, 0);
        let addrs: Vec<u64> = (0..6).map(|_| a.next_addr()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0, 0x1000, 0x1040]);
    }

    #[test]
    fn negative_stride_wraps_into_region() {
        let mut a =
            AddrState::new(AddrPattern::Stride { base: 0x1000, stride: -64, footprint: 256 }, 0);
        let addrs: Vec<u64> = (0..4).map(|_| a.next_addr()).collect();
        for addr in &addrs {
            assert!((0x1000..0x1100).contains(addr), "addr {addr:#x} out of region");
        }
        assert_eq!(addrs[1], 0x10c0);
    }

    #[test]
    fn random_addresses_respect_region_and_alignment() {
        let mut a = AddrState::new(
            AddrPattern::UniformRandom { base: 0x4000, footprint: 0x1000, align: 8 },
            3,
        );
        for _ in 0..200 {
            let addr = a.next_addr();
            assert!((0x4000..0x5000).contains(&addr));
            assert_eq!(addr % 8, 0);
        }
    }

    #[test]
    fn pointer_chase_is_deterministic_and_confined() {
        let mk =
            || AddrState::new(AddrPattern::PointerChase { base: 0x10000, footprint: 0x800 }, 5);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            let x = a.next_addr();
            assert_eq!(x, b.next_addr());
            assert!((0x10000..0x10800).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_panics() {
        let _ = AddrState::new(AddrPattern::PointerChase { base: 0, footprint: 0 }, 0);
    }

    #[test]
    fn mix64_differs_on_neighboring_inputs() {
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }
}
