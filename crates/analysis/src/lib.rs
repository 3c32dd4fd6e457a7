//! The paper's hardware-cost models (the lifetime analyses of Figs
//! 4/6/12/14 live next to their records, in `atr-core`).
//!
//! * [`power`] — a McPAT-style analytical power/area model for the
//!   Fig 15 overhead study;
//! * [`logic`] — a gate-level model of the §4.4 bulk no-early-release
//!   circuit (gate count and logic depth).

pub mod logic;
pub mod power;

pub use logic::{BulkReleaseLogic, LogicReport};
pub use power::{CorePowerModel, PowerReport};
