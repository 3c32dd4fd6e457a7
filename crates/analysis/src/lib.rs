//! Analyses over simulator output: the paper's measurement machinery.
//!
//! * [`lifetime`] — one pass over a lifetime log, [`LifetimeSummary`]:
//!   the §3.1 life-of-a-register accounting (Fig 4's in-use / unused /
//!   verified-unused breakdown, the Fig 14 rename→redefine/consume/commit
//!   gaps) and the §3.2 region classification (Fig 6's non-branch /
//!   non-except / atomic ratios, the Fig 12 consumers-per-atomic-region
//!   histogram);
//! * [`power`] — a McPAT-style analytical power/area model for the
//!   Fig 15 overhead study;
//! * [`logic`] — a gate-level model of the §4.4 bulk no-early-release
//!   circuit (gate count and logic depth).

pub mod lifetime;
pub mod logic;
pub mod power;

pub use lifetime::{LifetimeSummary, CONSUMER_OVERFLOW};
pub use logic::{BulkReleaseLogic, LogicReport};
pub use power::{CorePowerModel, PowerReport};
