//! The core-side telemetry observer.
//!
//! [`CoreTelemetry`] bundles everything the observability layer records
//! about one core: the CPI stack and the pipeline-level histograms. It
//! is a pure observer — nothing in here feeds back into timing. Every
//! core carries one and accounts its CPI stack on every cycle, whatever
//! the telemetry level; the histograms record only at `stats`.
//!
//! Cycle attribution works on *deltas*: [`CoreTelemetry::begin_cycle`]
//! snapshots the stall counters [`crate::CoreStats`] already maintains,
//! the stages run, and [`OooCore::tick`](crate::OooCore::tick) ends the
//! cycle by classifying the empty retire slots from the deltas plus the
//! machine state (ROB head, redirect/serialization windows). The
//! precedence order is documented in DESIGN.md §Observability.

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

/// Scratch snapshot of the stall counters at the top of a cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleScratch {
    retired: u64,
    freelist_stalls: u64,
    backpressure_stalls: u64,
}

/// What the last accounted cycle recorded, so identical cycles the core
/// skips can be credited in bulk ([`CoreTelemetry::repeat_last_cycle`]).
#[derive(Debug, Clone, Copy)]
struct LastCycle {
    retired: u64,
    cause: CpiBucket,
    rob: u64,
    int_prf: u64,
    fp_prf: u64,
}

impl Default for LastCycle {
    fn default() -> Self {
        LastCycle { retired: 0, cause: CpiBucket::FrontendLatency, rob: 0, int_prf: 0, fp_prf: 0 }
    }
}

/// What the rest of the machine reports into end-of-cycle attribution.
#[derive(Debug, Clone, Copy)]
pub struct CycleView {
    /// Instructions retired this cycle.
    pub retired: u64,
    /// Rename took a freelist-watermark stall this cycle.
    pub freelist_stalled: bool,
    /// Rename took a ROB/RS/LSQ backpressure stall this cycle.
    pub backpressure_stalled: bool,
    /// The ROB holds at least one instruction.
    pub rob_nonempty: bool,
    /// An exception/interrupt serialization window is open.
    pub serializing: bool,
    /// A misprediction redirect window is open (recovery + refill).
    pub redirecting: bool,
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
    scratch: CycleScratch,
    last: LastCycle,
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
            scratch: CycleScratch::default(),
            last: LastCycle::default(),
        }
    }

    /// Are the histograms recording (`stats`)?
    #[must_use]
    pub fn stats_enabled(&self) -> bool {
        self.stats
    }

    /// Snapshots the stall counters before the stages run.
    pub fn begin_cycle(&mut self, retired: u64, freelist_stalls: u64, backpressure_stalls: u64) {
        self.scratch = CycleScratch { retired, freelist_stalls, backpressure_stalls };
    }

    /// Builds the end-of-cycle view from the post-stage counters.
    #[must_use]
    pub fn delta(
        &self,
        retired: u64,
        freelist_stalls: u64,
        backpressure_stalls: u64,
    ) -> (u64, bool, bool) {
        (
            retired - self.scratch.retired,
            freelist_stalls > self.scratch.freelist_stalls,
            backpressure_stalls > self.scratch.backpressure_stalls,
        )
    }

    /// Attributes one cycle's retire slots: the retired ones to
    /// `retiring`, the empty ones to the first cause that fires in the
    /// precedence of DESIGN.md §Observability. `head_mem_level` yields
    /// the level that serviced (is servicing) the ROB head's access when
    /// the head is an issued, still-incomplete load; it is asked only
    /// when the precedence reaches the memory buckets.
    pub fn end_cycle(
        &mut self,
        view: &CycleView,
        head_mem_level: impl FnOnce() -> Option<ServiceLevel>,
    ) {
        let cause = self.classify(view, head_mem_level);
        self.cpi.account_cycle(view.retired, cause);
        self.last.retired = view.retired;
        self.last.cause = cause;
    }

    /// The bucket charged with one cycle's empty retire slots. The
    /// precedence here is the contract documented in DESIGN.md
    /// §Observability: every empty slot gets exactly one cause, chosen
    /// by the first test that fires.
    fn classify(
        &self,
        view: &CycleView,
        head_mem_level: impl FnOnce() -> Option<ServiceLevel>,
    ) -> CpiBucket {
        debug_assert!(view.retired <= self.cpi.width);
        if view.retired == self.cpi.width {
            return CpiBucket::Retiring;
        }
        if view.serializing {
            CpiBucket::Serialization
        } else if view.redirecting {
            CpiBucket::BadSpeculation
        } else if view.freelist_stalled {
            CpiBucket::FreelistStall
        } else if view.rob_nonempty {
            match head_mem_level() {
                Some(ServiceLevel::L1) => CpiBucket::MemL1,
                Some(ServiceLevel::L2) => CpiBucket::MemL2,
                Some(ServiceLevel::Llc) => CpiBucket::MemLlc,
                Some(ServiceLevel::Dram) => CpiBucket::MemDram,
                None if view.backpressure_stalled => CpiBucket::Backpressure,
                None => CpiBucket::ExecLatency,
            }
        } else {
            CpiBucket::FrontendLatency
        }
    }

    /// Samples the occupancy histograms for one cycle. The core calls
    /// this only when [`CoreTelemetry::stats_enabled`].
    pub fn sample_occupancy(&mut self, rob: u64, int_prf: u64, fp_prf: u64) {
        self.rob_occupancy.record(rob);
        self.int_prf_occupancy.record(int_prf);
        self.fp_prf_occupancy.record(fp_prf);
        self.last.rob = rob;
        self.last.int_prf = int_prf;
        self.last.fp_prf = fp_prf;
    }

    /// Credits `n` cycles as exact repeats of the last accounted cycle —
    /// the same CPI attribution and (at `stats`) occupancy samples `n`
    /// more [`CoreTelemetry::end_cycle`] plus
    /// [`CoreTelemetry::sample_occupancy`] calls would record. The core
    /// calls this for the quiet cycles it skips.
    pub fn repeat_last_cycle(&mut self, n: u64) {
        let last = self.last;
        self.cpi.account_cycles(last.retired, last.cause, n);
        if !self.stats {
            return;
        }
        self.rob_occupancy.record_n(last.rob, n);
        self.int_prf_occupancy.record_n(last.int_prf, n);
        self.fp_prf_occupancy.record_n(last.fp_prf, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_telemetry::TelemetryLevel;

    fn view() -> CycleView {
        CycleView {
            retired: 0,
            freelist_stalled: false,
            backpressure_stalled: false,
            rob_nonempty: false,
            serializing: false,
            redirecting: false,
        }
    }

    fn telem() -> CoreTelemetry {
        let cfg = TelemetryConfig { level: TelemetryLevel::Stats };
        CoreTelemetry::new(&cfg, 8)
    }

    #[test]
    fn precedence_serialization_beats_everything() {
        let mut t = telem();
        t.end_cycle(
            &CycleView {
                serializing: true,
                redirecting: true,
                freelist_stalled: true,
                rob_nonempty: true,
                ..view()
            },
            || Some(ServiceLevel::Dram),
        );
        assert_eq!(t.cpi.get(CpiBucket::Serialization), 8);
    }

    #[test]
    fn precedence_freelist_beats_memory() {
        let mut t = telem();
        t.end_cycle(&CycleView { freelist_stalled: true, rob_nonempty: true, ..view() }, || {
            Some(ServiceLevel::Dram)
        });
        assert_eq!(t.cpi.get(CpiBucket::FreelistStall), 8);
    }

    #[test]
    fn memory_bound_classified_by_service_level() {
        let mut t = telem();
        t.end_cycle(
            &CycleView {
                retired: 2,
                rob_nonempty: true,
                backpressure_stalled: true, // mem-bound head outranks backpressure
                ..view()
            },
            || Some(ServiceLevel::Llc),
        );
        assert_eq!(t.cpi.get(CpiBucket::Retiring), 2);
        assert_eq!(t.cpi.get(CpiBucket::MemLlc), 6);
        t.cpi.check().unwrap();
    }

    #[test]
    fn empty_rob_without_stalls_is_frontend() {
        let mut t = telem();
        t.end_cycle(&view(), || None);
        assert_eq!(t.cpi.get(CpiBucket::FrontendLatency), 8);
    }

    #[test]
    fn full_retire_skips_cause_analysis() {
        let mut t = telem();
        t.end_cycle(&CycleView { retired: 8, serializing: true, ..view() }, || None);
        assert_eq!(t.cpi.get(CpiBucket::Retiring), 8);
        assert_eq!(t.cpi.get(CpiBucket::Serialization), 0);
    }

    #[test]
    fn delta_capture_roundtrip() {
        let mut t = telem();
        t.begin_cycle(100, 5, 7);
        let (retired, fl, bp) = t.delta(104, 5, 8);
        assert_eq!(retired, 4);
        assert!(!fl);
        assert!(bp);
    }

    #[test]
    fn off_level_accounts_cpi_but_records_no_histograms() {
        let mut t = CoreTelemetry::new(&TelemetryConfig::default(), 8);
        assert!(!t.stats_enabled());
        t.end_cycle(&CycleView { retired: 3, rob_nonempty: true, ..view() }, || None);
        t.repeat_last_cycle(4);
        assert_eq!(t.cpi.cycles, 5);
        assert_eq!(t.cpi.get(CpiBucket::Retiring), 15);
        assert_eq!(t.cpi.get(CpiBucket::ExecLatency), 25);
        assert_eq!(t.rob_occupancy.count, 0);
    }
}
