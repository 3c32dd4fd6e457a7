//! The core-side telemetry observer.
//!
//! [`CoreTelemetry`] bundles everything the observability layer records
//! about one core: the CPI stack and the pipeline-level histograms. It
//! is a pure observer — nothing in here feeds back into timing. Every
//! core carries one and accounts its CPI stack on every cycle, whatever
//! the telemetry level; the histograms record only at `stats`.
//!
//! Cycle attribution works on a [`CycleRecord`]: the stages note what
//! the cycle did (retirements, rename and interrupt stalls), the core
//! completes the record with the end-of-cycle machine state and
//! [`CoreTelemetry::classify`] picks the bucket of its empty retire
//! slots; [`CoreTelemetry::account`] then credits it, once or for a
//! whole span of quiet cycles. The precedence order is documented in
//! DESIGN.md §Observability.

use atr_mem::ServiceLevel;
use atr_telemetry::{CpiBucket, CpiStack, Log2Hist, TelemetryConfig};

/// Histogram names, shared with the sim layer's JSONL records.
pub mod hist_names {
    /// ROB occupancy sampled every cycle.
    pub const ROB_OCCUPANCY: &str = "rob_occupancy";
    /// Allocated integer physical registers, sampled every cycle.
    pub const INT_PRF_OCCUPANCY: &str = "int_prf_occupancy";
    /// Allocated FP physical registers, sampled every cycle.
    pub const FP_PRF_OCCUPANCY: &str = "fp_prf_occupancy";
    /// Squashed instructions per flush walk.
    pub const FLUSH_WALK_LEN: &str = "flush_walk_len";
    /// Rename-to-resolve latency of on-path control flow.
    pub const BRANCH_RESOLUTION: &str = "branch_resolution_latency";
    /// Allocation-to-release lifetime of physical registers (cycles).
    pub const REG_LIFETIME: &str = "reg_lifetime";
    /// Redefine-to-release duration of ATR atomic claims (cycles).
    pub const CLAIM_DURATION: &str = "claim_duration";
}

/// What one simulated cycle did to the per-cycle counters and the
/// observer. The stages fill in the first four fields as the cycle runs,
/// the core completes the rest at its end and credits the record once
/// for that cycle and once more for every quiet cycle
/// [`OooCore::tick`](crate::OooCore::tick) skips after it.
#[derive(Debug, Clone, Copy)]
pub struct CycleRecord {
    /// Instructions retired this cycle.
    pub retired: u64,
    /// Rename took a freelist-watermark stall this cycle.
    pub freelist_stalled: bool,
    /// Rename took a ROB/RS/LSQ backpressure stall this cycle.
    pub backpressure_stalled: bool,
    /// A flush-mode interrupt waited for open atomic claims or a
    /// precommitted ROB this cycle.
    pub interrupt_waited: bool,
    /// An exception/interrupt serialization window is open.
    pub serializing: bool,
    /// A misprediction redirect window is open (recovery + refill).
    pub redirecting: bool,
    /// ROB occupancy at the end of the cycle.
    pub rob: u64,
    /// Allocated integer physical registers at the end of the cycle.
    pub int_prf: u64,
    /// Allocated FP physical registers at the end of the cycle.
    pub fp_prf: u64,
    /// The bucket charged with the cycle's empty retire slots
    /// ([`CoreTelemetry::classify`]).
    pub cause: CpiBucket,
}

impl Default for CycleRecord {
    fn default() -> Self {
        CycleRecord {
            retired: 0,
            freelist_stalled: false,
            backpressure_stalled: false,
            interrupt_waited: false,
            serializing: false,
            redirecting: false,
            rob: 0,
            int_prf: 0,
            fp_prf: 0,
            cause: CpiBucket::FrontendLatency,
        }
    }
}

/// Per-core observer state. Construct with [`CoreTelemetry::new`]. The
/// CPI stack is accounted at every level; below `stats` the histograms
/// stay empty, and each of their hook sites costs the pipeline one
/// branch.
#[derive(Debug)]
pub struct CoreTelemetry {
    /// Record the histograms (`stats`).
    stats: bool,
    /// The CPI stack under construction.
    pub cpi: CpiStack,
    /// ROB occupancy histogram.
    pub rob_occupancy: Log2Hist,
    /// Integer PRF occupancy histogram.
    pub int_prf_occupancy: Log2Hist,
    /// FP PRF occupancy histogram.
    pub fp_prf_occupancy: Log2Hist,
    /// Flush-walk length histogram.
    pub flush_walk_len: Log2Hist,
    /// Branch resolution latency histogram.
    pub branch_resolution: Log2Hist,
}

impl CoreTelemetry {
    /// Builds the observer for a `retire_width`-wide core.
    #[must_use]
    pub fn new(cfg: &TelemetryConfig, retire_width: u64) -> Self {
        CoreTelemetry {
            stats: cfg.stats_enabled(),
            cpi: CpiStack::new(retire_width),
            rob_occupancy: Log2Hist::new(),
            int_prf_occupancy: Log2Hist::new(),
            fp_prf_occupancy: Log2Hist::new(),
            flush_walk_len: Log2Hist::new(),
            branch_resolution: Log2Hist::new(),
        }
    }

    /// Are the histograms recording (`stats`)?
    #[must_use]
    pub fn stats_enabled(&self) -> bool {
        self.stats
    }

    /// The bucket charged with one cycle's empty retire slots:
    /// `retiring` when every slot retired, else the first cause that fires in the
    /// precedence of DESIGN.md §Observability. `head_mem_level` yields
    /// the level that serviced (is servicing) the ROB head's access when
    /// the head is an issued, still-incomplete load; it is asked only
    /// when the precedence reaches the memory buckets.
    #[must_use]
    pub fn classify(
        &self,
        r: &CycleRecord,
        head_mem_level: impl FnOnce() -> Option<ServiceLevel>,
    ) -> CpiBucket {
        debug_assert!(r.retired <= self.cpi.width);
        if r.retired == self.cpi.width {
            return CpiBucket::Retiring;
        }
        if r.serializing {
            CpiBucket::Serialization
        } else if r.redirecting {
            CpiBucket::BadSpeculation
        } else if r.freelist_stalled {
            CpiBucket::FreelistStall
        } else if r.rob > 0 {
            match head_mem_level() {
                Some(ServiceLevel::L1) => CpiBucket::MemL1,
                Some(ServiceLevel::L2) => CpiBucket::MemL2,
                Some(ServiceLevel::Llc) => CpiBucket::MemLlc,
                Some(ServiceLevel::Dram) => CpiBucket::MemDram,
                None if r.backpressure_stalled => CpiBucket::Backpressure,
                None => CpiBucket::ExecLatency,
            }
        } else {
            CpiBucket::FrontendLatency
        }
    }

    /// Credits `n` cycles that each did what `r` records: their retire
    /// slots to the CPI stack and, at `stats`, their end-of-cycle
    /// occupancies to the histograms.
    pub fn account(&mut self, r: &CycleRecord, n: u64) {
        self.cpi.account_cycles(r.retired, r.cause, n);
        if !self.stats {
            return;
        }
        self.rob_occupancy.record_n(r.rob, n);
        self.int_prf_occupancy.record_n(r.int_prf, n);
        self.fp_prf_occupancy.record_n(r.fp_prf, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_telemetry::TelemetryLevel;

    fn telem() -> CoreTelemetry {
        let cfg = TelemetryConfig { level: TelemetryLevel::Stats };
        CoreTelemetry::new(&cfg, 8)
    }

    /// Classifies `r` and accounts it once.
    fn account_one(
        t: &mut CoreTelemetry,
        r: CycleRecord,
        head_mem_level: impl FnOnce() -> Option<ServiceLevel>,
    ) {
        let r = CycleRecord { cause: t.classify(&r, head_mem_level), ..r };
        t.account(&r, 1);
    }

    #[test]
    fn precedence_serialization_beats_everything() {
        let mut t = telem();
        let r = CycleRecord {
            serializing: true,
            redirecting: true,
            freelist_stalled: true,
            rob: 1,
            ..CycleRecord::default()
        };
        account_one(&mut t, r, || Some(ServiceLevel::Dram));
        assert_eq!(t.cpi.get(CpiBucket::Serialization), 8);
    }

    #[test]
    fn precedence_freelist_beats_memory() {
        let mut t = telem();
        let r = CycleRecord { freelist_stalled: true, rob: 1, ..CycleRecord::default() };
        account_one(&mut t, r, || Some(ServiceLevel::Dram));
        assert_eq!(t.cpi.get(CpiBucket::FreelistStall), 8);
    }

    #[test]
    fn memory_bound_classified_by_service_level() {
        let mut t = telem();
        let r = CycleRecord {
            retired: 2,
            rob: 1,
            backpressure_stalled: true, // mem-bound head outranks backpressure
            ..CycleRecord::default()
        };
        account_one(&mut t, r, || Some(ServiceLevel::Llc));
        assert_eq!(t.cpi.get(CpiBucket::Retiring), 2);
        assert_eq!(t.cpi.get(CpiBucket::MemLlc), 6);
        t.cpi.check().unwrap();
    }

    #[test]
    fn empty_rob_without_stalls_is_frontend() {
        let mut t = telem();
        account_one(&mut t, CycleRecord::default(), || None);
        assert_eq!(t.cpi.get(CpiBucket::FrontendLatency), 8);
    }

    #[test]
    fn full_retire_skips_cause_analysis() {
        let mut t = telem();
        let r = CycleRecord { retired: 8, serializing: true, ..CycleRecord::default() };
        account_one(&mut t, r, || None);
        assert_eq!(t.cpi.get(CpiBucket::Retiring), 8);
        assert_eq!(t.cpi.get(CpiBucket::Serialization), 0);
    }

    #[test]
    fn accounting_a_span_equals_accounting_each_cycle() {
        let r = CycleRecord {
            retired: 3,
            rob: 40,
            int_prf: 70,
            fp_prf: 33,
            cause: CpiBucket::ExecLatency,
            ..CycleRecord::default()
        };
        for level in [TelemetryLevel::Stats, TelemetryLevel::Off] {
            let cfg = TelemetryConfig { level };
            let (mut span, mut each) = (CoreTelemetry::new(&cfg, 8), CoreTelemetry::new(&cfg, 8));
            span.account(&r, 5);
            for _ in 0..5 {
                each.account(&r, 1);
            }
            assert_eq!(span.cpi, each.cpi, "{level:?}");
            assert_eq!(span.cpi.get(CpiBucket::Retiring), 15);
            assert_eq!(span.cpi.get(CpiBucket::ExecLatency), 25);
            for (a, b) in [
                (&span.rob_occupancy, &each.rob_occupancy),
                (&span.int_prf_occupancy, &each.int_prf_occupancy),
                (&span.fp_prf_occupancy, &each.fp_prf_occupancy),
            ] {
                assert_eq!(a, b, "{level:?}");
                assert_eq!(a.count, if level == TelemetryLevel::Stats { 5 } else { 0 });
            }
        }
    }
}
