//! Top-down CPI-stack cycle accounting.
//!
//! Every cycle, each of the core's `width` retire slots is attributed
//! to exactly one bucket: the slots that retired an instruction go to
//! [`CpiBucket::Retiring`], and the remaining empty slots are charged
//! as a block to a single cause chosen by a fixed precedence (see
//! DESIGN.md "Observability" for the order and its rationale). The
//! defining invariant is
//!
//! ```text
//! Σ buckets == width × cycles
//! ```
//!
//! which [`CpiStack::check`] verifies and the pipeline asserts every
//! cycle under `ATR_AUDIT=1`. Stacks are mergeable (slot counts add),
//! so per-SimPoint stacks aggregate across a run matrix.

use atr_json::Json;

/// One top-down attribution bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpiBucket {
    /// A slot that retired an instruction (base/retiring).
    Retiring,
    /// ROB empty, fetch/decode starved the backend.
    FrontendLatency,
    /// Wrong-path work: redirect windows after a misprediction flush
    /// and the recovery walk, charged until corrected fetch returns.
    BadSpeculation,
    /// Rename stalled because a free list was at its watermark — the
    /// register-pressure signal the release schemes attack.
    FreelistStall,
    /// Rename stalled for ROB/RS/LQ/SQ space while the head was not
    /// itself waiting on memory.
    Backpressure,
    /// Head blocked on execution latency or an unissued dependence
    /// chain (non-memory core-bound).
    ExecLatency,
    /// Head is a memory operation serviced by the L1 (hits and
    /// store-forwarded loads).
    MemL1,
    /// Head waiting on an L2-serviced miss.
    MemL2,
    /// Head waiting on an LLC-serviced miss.
    MemLlc,
    /// Head waiting on DRAM.
    MemDram,
    /// Exception/interrupt serialization (handler penalty windows,
    /// drain waits, §4.1 region-boundary waits).
    Serialization,
}

/// Number of buckets (array dimension of [`CpiStack::slots`]).
pub const NUM_CPI_BUCKETS: usize = 11;

impl CpiBucket {
    /// Every bucket, in display order.
    pub const ALL: [CpiBucket; NUM_CPI_BUCKETS] = [
        CpiBucket::Retiring,
        CpiBucket::FrontendLatency,
        CpiBucket::BadSpeculation,
        CpiBucket::FreelistStall,
        CpiBucket::Backpressure,
        CpiBucket::ExecLatency,
        CpiBucket::MemL1,
        CpiBucket::MemL2,
        CpiBucket::MemLlc,
        CpiBucket::MemDram,
        CpiBucket::Serialization,
    ];

    /// Stable snake_case label (JSON keys and table headers).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CpiBucket::Retiring => "retiring",
            CpiBucket::FrontendLatency => "frontend_latency",
            CpiBucket::BadSpeculation => "bad_speculation",
            CpiBucket::FreelistStall => "freelist_stall",
            CpiBucket::Backpressure => "backpressure",
            CpiBucket::ExecLatency => "exec_latency",
            CpiBucket::MemL1 => "mem_l1",
            CpiBucket::MemL2 => "mem_l2",
            CpiBucket::MemLlc => "mem_llc",
            CpiBucket::MemDram => "mem_dram",
            CpiBucket::Serialization => "serialization",
        }
    }

    fn index(self) -> usize {
        CpiBucket::ALL.iter().position(|b| *b == self).expect("bucket in ALL")
    }
}

/// A CPI stack: per-bucket retire-slot counts over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpiStack {
    /// Slot counts, indexed in [`CpiBucket::ALL`] order.
    pub slots: [u64; NUM_CPI_BUCKETS],
    /// Retire width the accounting ran at.
    pub width: u64,
    /// Cycles accounted.
    pub cycles: u64,
}

impl CpiStack {
    /// An empty stack for a `width`-wide retire stage.
    #[must_use]
    pub fn new(width: u64) -> Self {
        CpiStack { slots: [0; NUM_CPI_BUCKETS], width, cycles: 0 }
    }

    /// Accounts one cycle: `retired` slots to [`CpiBucket::Retiring`],
    /// the remaining `width - retired` slots to `cause`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `retired > width`.
    pub fn account_cycle(&mut self, retired: u64, cause: CpiBucket) {
        self.account_cycles(retired, cause, 1);
    }

    /// Accounts `n` identical cycles at once, exactly as `n` calls of
    /// [`CpiStack::account_cycle`] would (bulk crediting of cycles the
    /// core skipped).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `retired > width`.
    pub fn account_cycles(&mut self, retired: u64, cause: CpiBucket, n: u64) {
        debug_assert!(retired <= self.width, "retired {} > width {}", retired, self.width);
        self.slots[CpiBucket::Retiring.index()] += retired * n;
        self.slots[cause.index()] += (self.width - retired) * n;
        self.cycles += n;
    }

    /// The slot count of one bucket.
    #[must_use]
    pub fn get(&self, bucket: CpiBucket) -> u64 {
        self.slots[bucket.index()]
    }

    /// Total slots across every bucket.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Verifies `Σ buckets == width × cycles`.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub fn check(&self) -> Result<(), String> {
        let expect = self.width * self.cycles;
        let got = self.total_slots();
        if got == expect {
            Ok(())
        } else {
            Err(format!(
                "CPI-stack invariant broken: Σ buckets = {got}, width × cycles = {} × {} = {expect}",
                self.width, self.cycles
            ))
        }
    }

    /// Fraction of all slots in `bucket` (0 when nothing accounted).
    #[must_use]
    pub fn fraction(&self, bucket: CpiBucket) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }

    /// Merges another stack (same width) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ — stacks from different retire
    /// widths are not comparable slot-for-slot.
    pub fn merge(&mut self, other: &CpiStack) {
        assert_eq!(self.width, other.width, "merging CPI stacks of different widths");
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a += b;
        }
        self.cycles += other.cycles;
    }

    /// JSON object: every bucket's slot count plus width/cycles.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("width".to_owned(), Json::Int(i64::try_from(self.width).unwrap_or(i64::MAX))),
            ("cycles".to_owned(), Json::Int(i64::try_from(self.cycles).unwrap_or(i64::MAX))),
        ];
        for b in CpiBucket::ALL {
            fields.push((
                b.label().to_owned(),
                Json::Int(i64::try_from(self.get(b)).unwrap_or(i64::MAX)),
            ));
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_holds_by_construction() {
        let mut s = CpiStack::new(8);
        s.account_cycle(8, CpiBucket::FrontendLatency); // full retire
        s.account_cycle(0, CpiBucket::MemDram);
        s.account_cycle(3, CpiBucket::FreelistStall);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.total_slots(), 24);
        s.check().unwrap();
        assert_eq!(s.get(CpiBucket::Retiring), 11);
        assert_eq!(s.get(CpiBucket::MemDram), 8);
        assert_eq!(s.get(CpiBucket::FreelistStall), 5);
        assert!((s.fraction(CpiBucket::Retiring) - 11.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn bulk_accounting_matches_repeated_cycles() {
        let mut one = CpiStack::new(8);
        let mut bulk = CpiStack::new(8);
        for _ in 0..5 {
            one.account_cycle(3, CpiBucket::MemDram);
        }
        bulk.account_cycles(3, CpiBucket::MemDram, 5);
        bulk.account_cycles(0, CpiBucket::FreelistStall, 0);
        assert_eq!(one, bulk);
        bulk.check().unwrap();
    }

    #[test]
    fn check_catches_tampering() {
        let mut s = CpiStack::new(4);
        s.account_cycle(2, CpiBucket::ExecLatency);
        s.slots[0] += 1;
        assert!(s.check().unwrap_err().contains("invariant broken"));
    }

    #[test]
    fn merge_adds_slotwise_and_preserves_invariant() {
        let mut a = CpiStack::new(8);
        a.account_cycle(4, CpiBucket::MemL2);
        let mut b = CpiStack::new(8);
        b.account_cycle(0, CpiBucket::BadSpeculation);
        b.account_cycle(8, CpiBucket::Retiring);
        a.merge(&b);
        assert_eq!(a.cycles, 3);
        a.check().unwrap();
        assert_eq!(a.get(CpiBucket::BadSpeculation), 8);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_rejects_width_mismatch() {
        let mut a = CpiStack::new(8);
        a.merge(&CpiStack::new(6));
    }

    #[test]
    fn labels_are_unique_and_json_covers_all() {
        let mut seen = std::collections::HashSet::new();
        for b in CpiBucket::ALL {
            assert!(seen.insert(b.label()), "duplicate label {}", b.label());
        }
        let s = CpiStack::new(8);
        let j = s.to_json().pretty();
        for b in CpiBucket::ALL {
            assert!(j.contains(b.label()), "missing {} in JSON", b.label());
        }
    }
}
