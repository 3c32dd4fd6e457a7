//! Top-level simulation configuration (Table 1).

use atr_pipeline::CoreConfig;

/// A full simulation configuration: the core plus measurement windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Pipeline/memory/frontend/rename configuration.
    pub core: CoreConfig,
    /// Instructions to warm structures before measuring.
    pub warmup: u64,
    /// Instructions in the measured window.
    pub measure: u64,
}

/// Default warmup instructions per point.
pub const DEFAULT_WARMUP: u64 = 40_000;
/// Default measured instructions per point.
pub const DEFAULT_MEASURE: u64 = 160_000;

impl SimConfig {
    /// The paper's Golden-Cove-like configuration (Table 1) at the
    /// default budget ([`DEFAULT_WARMUP`] + [`DEFAULT_MEASURE`]). Reads
    /// no environment: a binary resolves [`budget_from_env`] once at
    /// entry and overrides `warmup`/`measure`.
    #[must_use]
    pub fn golden_cove() -> Self {
        SimConfig { core: CoreConfig::default(), warmup: DEFAULT_WARMUP, measure: DEFAULT_MEASURE }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::golden_cove()
    }
}

/// Reads the measurement budget from the process environment; see
/// [`budget_from_lookup`].
#[must_use]
pub fn budget_from_env() -> (u64, u64) {
    budget_from_lookup(|name| std::env::var(name).ok())
}

/// Resolves the measurement budget `(warmup, measure)` from
/// `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` through `lookup` (variable name →
/// value, `None` when unset), defaulting to a quick
/// [`DEFAULT_WARMUP`]/[`DEFAULT_MEASURE`] pass (the paper simulates
/// 10M-weighted simpoints; scale up for full runs).
///
/// A malformed value is *not* silently swallowed: it falls back to the
/// default with a one-line warning on stderr, so a typo in a sweep
/// script cannot quietly produce default-budget numbers.
#[must_use]
pub fn budget_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> (u64, u64) {
    let count = |var: &str, default: u64| {
        lookup(var).map_or(default, |raw| parse_count(var, &raw, default))
    };
    (count("ATR_SIM_WARMUP", DEFAULT_WARMUP), count("ATR_SIM_INSTS", DEFAULT_MEASURE))
}

fn parse_count(var: &str, raw: &str, default: u64) -> u64 {
    let trimmed = raw.trim();
    match trimmed.parse::<u64>() {
        Ok(v) => v,
        Err(_) => {
            // `ParseIntError::kind` is unstable, so classify by shape:
            // a leading sign is a rejected negative, all-digits that
            // still fail is a u64 overflow, anything else is malformed.
            let why = if trimmed.starts_with('-') {
                "negative values are rejected"
            } else if !trimmed.is_empty() && trimmed.chars().all(|c| c.is_ascii_digit()) {
                "value overflows u64"
            } else {
                "expected an unsigned instruction count"
            };
            atr_telemetry::warn!(
                "ignoring malformed {var}={raw:?} ({why}); using default {default}"
            );
            default
        }
    }
}

/// Renders the Table 1 parameter table from the live configuration, so
/// the printed table cannot drift from the simulated one.
#[must_use]
pub fn table1(cfg: &CoreConfig) -> Vec<(String, String)> {
    let mem = &cfg.mem;
    let mut rows = vec![
        ("CPU".to_owned(), "Golden Cove-like (simulated)".to_owned()),
        (
            "Frontend width and retirement".to_owned(),
            format!("{}-wide fetch/decode, {}-wide retirement", cfg.fetch_width, cfg.retire_width),
        ),
        (
            "Functional Units".to_owned(),
            format!("{} ALU, {} Load, {} Store", cfg.num_alu, cfg.num_load, cfg.num_store),
        ),
        ("Branch Predictor".to_owned(), "TAGE-L (TAGE-SC-L-class) + BTB + ITB + RAS".to_owned()),
        ("Branch Target Buffer (BTB)".to_owned(), format!("{} entries", cfg.bpu.btb_entries)),
        (
            "Indirect Branch Target Buffer".to_owned(),
            format!("{} entries", 1usize << cfg.bpu.indirect_bits),
        ),
        ("ROB".to_owned(), format!("{} entries", cfg.rob_size)),
        ("Reservation Station".to_owned(), format!("{} entries", cfg.rs_size)),
        ("Load Buffer".to_owned(), format!("{} entries", cfg.load_buffer)),
        ("Store Buffer".to_owned(), format!("{} entries", cfg.store_buffer)),
        (
            "Frontend Fetch targets (FT) per cycle".to_owned(),
            format!("{}", cfg.fetch_targets_per_cycle),
        ),
        ("FT block size".to_owned(), format!("{} B", cfg.fetch_block_bytes)),
    ];
    let kib = |b: usize| format!("{} KiB", b >> 10);
    rows.push((
        "L1 instruction cache".to_owned(),
        format!("{}, {}-way", kib(mem.l1i.size_bytes), mem.l1i.ways),
    ));
    rows.push((
        "L1 data cache".to_owned(),
        format!("{}, {}-way", kib(mem.l1d.size_bytes), mem.l1d.ways),
    ));
    rows.push((
        "L2 unified cache".to_owned(),
        format!("{}, {}-way", kib(mem.l2.size_bytes), mem.l2.ways),
    ));
    rows.push((
        "LLC unified cache".to_owned(),
        format!("{}, {}-way", kib(mem.llc.size_bytes), mem.llc.ways),
    ));
    rows.push(("L1 D-cache latency".to_owned(), format!("{} cycles", mem.l1d.latency)));
    rows.push(("L1 I-cache latency".to_owned(), format!("{} cycles", mem.l1i.latency)));
    rows.push(("L2 latency".to_owned(), format!("{} cycles", mem.l2.latency)));
    rows.push(("LLC latency".to_owned(), format!("{} cycles", mem.llc.latency)));
    rows.push(("Memory".to_owned(), format!("DDR4-3200-like ({} channels)", mem.dram.channels)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reflects_the_live_config() {
        let cfg = CoreConfig::default();
        let rows = table1(&cfg);
        let find = |k: &str| {
            rows.iter().find(|(key, _)| key.contains(k)).map(|(_, v)| v.clone()).unwrap_or_default()
        };
        assert_eq!(find("ROB"), "512 entries");
        assert_eq!(find("Reservation"), "160 entries");
        assert!(find("Functional").contains("5 ALU"));
        assert!(find("L1 data").contains("48 KiB"));
        assert!(find("L2 unified").contains("1280 KiB"));
    }

    #[test]
    fn golden_cove_is_the_table1_core_at_the_fixed_default_budget() {
        let cfg = SimConfig::golden_cove();
        assert_eq!((cfg.warmup, cfg.measure), (40_000, 160_000));
        assert_eq!(cfg.core, CoreConfig::default());
        assert_eq!(SimConfig::default(), cfg);
    }

    #[test]
    fn budget_env_parsing_accepts_valid_and_rejects_malformed() {
        let budget = |warmup: Option<&str>, insts: Option<&str>| {
            budget_from_lookup(|name| match name {
                "ATR_SIM_WARMUP" => warmup.map(str::to_owned),
                "ATR_SIM_INSTS" => insts.map(str::to_owned),
                _ => None,
            })
        };
        assert_eq!(budget(Some("1234"), Some(" 5678 ")), (1234, 5678));
        // Malformed and negative values warn on stderr and fall back.
        assert_eq!(budget(Some("not-a-number"), Some("-5")), (40_000, 160_000));
        // A value past u64::MAX is an overflow, not a silent wrap.
        assert_eq!(
            budget(Some("99999999999999999999999999"), Some("+12")),
            (40_000, 12),
            "leading + is valid u64 syntax"
        );
        assert_eq!(budget(None, None), (40_000, 160_000));
    }
}
