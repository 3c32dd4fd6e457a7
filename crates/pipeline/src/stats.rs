//! Aggregate pipeline statistics.

use atr_core::PrfStats;
use atr_mem::CacheStats;

/// Counters collected over one simulation run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (retired) instructions.
    pub retired: u64,
    /// Instructions fetched, including wrong-path.
    pub fetched: u64,
    /// Wrong-path instructions fetched.
    pub wrong_path_fetched: u64,
    /// Wrong-path instructions renamed (these allocate registers).
    pub wrong_path_renamed: u64,
    /// Conditional branches resolved on the correct path (counted at
    /// writeback, like `cond_mispredicts`).
    pub cond_branches: u64,
    /// Conditional direction mispredictions (resolved, on-path).
    pub cond_mispredicts: u64,
    /// Indirect/return target mispredictions.
    pub target_mispredicts: u64,
    /// Pipeline flushes from branch mispredictions.
    pub flushes: u64,
    /// Precise exceptions serviced.
    pub exceptions: u64,
    /// Interrupts serviced (§4.1 extension).
    pub interrupts: u64,
    /// Cycles a flush-mode interrupt waited for open atomic claims.
    pub interrupt_wait_cycles: u64,
    /// Cycles rename stalled because a free list was at its watermark.
    pub rename_freelist_stalls: u64,
    /// Cycles rename stalled for ROB/RS/LQ/SQ space.
    pub rename_backpressure_stalls: u64,
    /// Σ over cycles of allocated integer physical registers.
    pub int_prf_occupancy_sum: u128,
    /// Σ over cycles of allocated FP physical registers.
    pub fp_prf_occupancy_sum: u128,
    /// Integer PRF release breakdown.
    pub int_prf: PrfStats,
    /// FP PRF release breakdown.
    pub fp_prf: PrfStats,
    /// L1I / L1D / L2 / LLC statistics.
    pub caches: (CacheStats, CacheStats, CacheStats, CacheStats),
    /// DRAM (reads, writes, row hits).
    pub dram: (u64, u64, u64),
    /// Bulk no-early-release marking operations (ATR, §4.2.2).
    pub markings: u64,
}

impl CoreStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional branch misprediction rate (per resolved on-path
    /// branch).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Mean allocated integer physical registers per cycle.
    #[must_use]
    pub fn avg_int_prf_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_prf_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Mean allocated FP physical registers per cycle.
    #[must_use]
    pub fn avg_fp_prf_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fp_prf_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Cross-checks counters that must agree by construction:
    ///
    /// * `fetched >= wrong_path_fetched` — wrong-path fetches are a
    ///   subset of all fetches;
    /// * `cond_mispredicts <= cond_branches` — both count on-path
    ///   conditional branches as they resolve, the mispredicted ones
    ///   among all of them;
    /// * `cond_mispredicts + target_mispredicts == flushes` — every
    ///   mispredict flush is classified exactly once;
    /// * per-file release-kind breakdowns sum to the register file's
    ///   own independent release count.
    ///
    /// Enforced at end of run under `ATR_AUDIT=1`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.fetched < self.wrong_path_fetched {
            return Err(format!(
                "fetched ({}) < wrong_path_fetched ({})",
                self.fetched, self.wrong_path_fetched
            ));
        }
        if self.cond_mispredicts > self.cond_branches {
            return Err(format!(
                "cond_mispredicts ({}) > cond_branches ({})",
                self.cond_mispredicts, self.cond_branches
            ));
        }
        if self.cond_mispredicts + self.target_mispredicts != self.flushes {
            return Err(format!(
                "mispredict kinds ({} cond + {} target) != flushes ({})",
                self.cond_mispredicts, self.target_mispredicts, self.flushes
            ));
        }
        for (name, prf) in [("int_prf", &self.int_prf), ("fp_prf", &self.fp_prf)] {
            if prf.total_released() != prf.releases {
                return Err(format!(
                    "{name} release kinds sum to {} but the register file \
                     counted {} releases",
                    prf.total_released(),
                    prf.releases
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = CoreStats {
            cycles: 100,
            retired: 250,
            cond_branches: 50,
            cond_mispredicts: 5,
            target_mispredicts: 5,
            int_prf_occupancy_sum: 3200,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.avg_int_prf_occupancy() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_not_a_division_error() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    fn consistency_accepts_coherent_counters() {
        let mut s = CoreStats {
            fetched: 1000,
            wrong_path_fetched: 100,
            cond_branches: 200,
            cond_mispredicts: 10,
            target_mispredicts: 2,
            flushes: 12,
            ..CoreStats::default()
        };
        s.int_prf.released_commit = 40;
        s.int_prf.released_atomic = 10;
        s.int_prf.releases = 50;
        s.fp_prf.released_flush = 3;
        s.fp_prf.releases = 3;
        s.check_consistency().unwrap();
    }

    #[test]
    fn consistency_rejects_each_violation() {
        let base = CoreStats { fetched: 100, cond_branches: 10, ..CoreStats::default() };
        base.check_consistency().unwrap();

        let wp = CoreStats { wrong_path_fetched: 101, ..base.clone() };
        assert!(wp.check_consistency().unwrap_err().contains("wrong_path_fetched"));

        let mis = CoreStats { cond_mispredicts: 11, flushes: 11, ..base.clone() };
        assert!(mis.check_consistency().unwrap_err().contains("cond_branches"));

        let fl = CoreStats { cond_mispredicts: 2, flushes: 3, ..base.clone() };
        assert!(fl.check_consistency().unwrap_err().contains("flushes"));

        let mut rel = base.clone();
        rel.int_prf.released_commit = 5;
        rel.int_prf.releases = 4;
        assert!(rel.check_consistency().unwrap_err().contains("int_prf"));

        let mut fp = base;
        fp.fp_prf.released_precommit = 1;
        fp.fp_prf.releases = 2;
        assert!(fp.check_consistency().unwrap_err().contains("fp_prf"));
    }
}
