//! Umbrella crate for the ATR reproduction.
//!
//! Re-exports every workspace crate under one roof so that examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! ```
//! use atr::sim::config::SimConfig;
//! # let _ = SimConfig::golden_cove;
//! ```

pub use atr_analysis as analysis;
pub use atr_core as core;
pub use atr_frontend as frontend;
pub use atr_isa as isa;
pub use atr_mem as mem;
pub use atr_pipeline as pipeline;
pub use atr_sim as sim;
pub use atr_telemetry as telemetry;
pub use atr_workload as workload;
