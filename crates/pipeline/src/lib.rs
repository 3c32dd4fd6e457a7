//! The out-of-order superscalar pipeline model.
//!
//! This crate assembles the substrates — [`atr_workload`] programs and
//! oracle streams, the [`atr_frontend`] branch prediction unit, the
//! [`atr_mem`] hierarchy, and the [`atr_core`] renamer — into a
//! cycle-level Golden-Cove-like core ([`OooCore`]):
//!
//! * decoupled fetch following *predictions* through the static program
//!   (real wrong-path execution after mispredictions, like Scarab's
//!   trace frontend);
//! * rename with the configured register-release scheme;
//! * a reorder buffer, reservation station, and split load/store queues
//!   with store-to-load forwarding and conservative memory
//!   disambiguation;
//! * diversified functional units (Table 1: 5 ALU, 3 load, 2 store
//!   ports, an unpipelined divider);
//! * a precommit pointer (§2.3), one flush recovery for mispredicts,
//!   exceptions and interrupts (the flush walk, then the SRT rebuilt
//!   from the committed RAT plus the surviving ROB entries), and
//!   precise-exception handling with re-execution;
//! * an event-driven cycle loop — tag-broadcast wakeup, a completion
//!   queue, and quiet-cycle skip-ahead — whose results are bit-identical
//!   to stepping every cycle.
//!
//! # Examples
//!
//! ```
//! use atr_pipeline::{CoreConfig, OooCore};
//! use atr_workload::{spec, Oracle};
//!
//! let program = spec::spec2017_int()[8].build(); // 548.exchange2_r
//! let mut core = OooCore::new(CoreConfig::default(), Oracle::new(program));
//! let stats = core.run(20_000);
//! assert!(stats.ipc() > 0.1);
//! ```

pub mod config;
pub mod core;
pub mod iq;
pub mod lsq;
pub mod rob;
pub mod stats;
pub mod telemetry;

pub use crate::core::{InterruptMode, OooCore, RetiredInst};
pub use config::CoreConfig;
pub use rob::{RobEntry, RobState};
pub use stats::CoreStats;
pub use telemetry::CoreTelemetry;
