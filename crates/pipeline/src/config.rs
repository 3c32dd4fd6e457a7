//! Core (pipeline) configuration.

use atr_core::RenameConfig;
use atr_frontend::BpuConfig;
use atr_mem::MemConfig;
use atr_telemetry::TelemetryConfig;

/// Pipeline geometry and timing. Defaults reproduce Table 1's
/// Golden-Cove-like core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched/decoded per cycle (Table 1: 6-wide).
    pub fetch_width: usize,
    /// Fetch targets (taken-branch redirections) followed per cycle
    /// (Table 1: 2).
    pub fetch_targets_per_cycle: usize,
    /// Fetch-target block size in bytes (Table 1: 64 B).
    pub fetch_block_bytes: u64,
    /// Cycles from fetch to rename (frontend depth).
    pub frontend_depth: u32,
    /// Instructions renamed per cycle.
    pub rename_width: usize,
    /// Instructions retired per cycle (Table 1: 8-wide).
    pub retire_width: usize,
    /// Reorder buffer entries (Table 1: 512).
    pub rob_size: usize,
    /// Reservation station entries (Table 1: 160).
    pub rs_size: usize,
    /// Load buffer entries (Table 1: 96).
    pub load_buffer: usize,
    /// Store buffer entries (Table 1: 64).
    pub store_buffer: usize,
    /// ALU/branch/FP execution ports (Table 1: 5).
    pub num_alu: usize,
    /// Load pipelines (Table 1: 3).
    pub num_load: usize,
    /// Store pipelines (Table 1: 2).
    pub num_store: usize,
    /// Extra cycles from branch resolution to the first corrected fetch.
    pub redirect_penalty: u32,
    /// Fetch bubble after a predicted-taken branch that missed the BTB.
    pub btb_miss_bubble: u32,
    /// Cycles an exception handler occupies the frontend.
    pub exception_penalty: u32,
    /// Store-to-load forwarding latency in cycles.
    pub forward_latency: u32,
    /// Maximum instructions the precommit pointer may lead the ROB
    /// head. Models the bounded branch-confirmation queues of
    /// non-speculative early-release hardware (Monreal et al., cited in
    /// §6): tracking which registers become releasable at precommit
    /// requires per-branch metadata whose capacity bounds the lead.
    pub precommit_lead: usize,
    /// Rename (register scheme) configuration.
    pub rename: RenameConfig,
    /// Branch prediction configuration.
    pub bpu: BpuConfig,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Observer configuration (CPI stack, histograms).
    /// Pure observation — never affects timing — and, like `audit`,
    /// excluded from result-memoization keys.
    pub telemetry: TelemetryConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 6,
            fetch_targets_per_cycle: 2,
            fetch_block_bytes: 64,
            frontend_depth: 6,
            rename_width: 6,
            retire_width: 8,
            rob_size: 512,
            rs_size: 160,
            load_buffer: 96,
            store_buffer: 64,
            num_alu: 5,
            num_load: 3,
            num_store: 2,
            redirect_penalty: 4,
            btb_miss_bubble: 2,
            exception_penalty: 200,
            forward_latency: 6,
            precommit_lead: 48,
            rename: RenameConfig::default(),
            bpu: BpuConfig::default(),
            mem: MemConfig::golden_cove(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl CoreConfig {
    /// Sets both physical register file sizes (the paper's RF-size
    /// sweeps use equal scalar/vector sizes).
    #[must_use]
    pub fn with_rf_size(mut self, size: usize) -> Self {
        self.rename.int_prf_size = size;
        self.rename.fp_prf_size = size;
        self
    }

    /// Sets the release scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: atr_core::ReleaseScheme) -> Self {
        self.rename.scheme = scheme;
        self
    }

    /// Enables cycle-level invariant auditing ([`atr_core::audit`]).
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.rename.audit = audit;
        self
    }

    /// Sets the telemetry (observer) configuration.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.retire_width, 8);
        assert_eq!(c.rob_size, 512);
        assert_eq!(c.rs_size, 160);
        assert_eq!(c.load_buffer, 96);
        assert_eq!(c.store_buffer, 64);
        assert_eq!((c.num_alu, c.num_load, c.num_store), (5, 3, 2));
    }

    #[test]
    fn builders_adjust_rename_config() {
        let c = CoreConfig::default()
            .with_rf_size(64)
            .with_scheme(atr_core::ReleaseScheme::Atr { redefine_delay: 1 });
        assert_eq!(c.rename.int_prf_size, 64);
        assert_eq!(c.rename.scheme.redefine_delay(), 1);
    }
}
