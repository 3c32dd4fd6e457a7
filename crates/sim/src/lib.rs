//! Simulation driver and experiment harness.
//!
//! Glues the pipeline to the workload suite. Experiments are built on
//! the **run-matrix engine**: each figure declares the [`matrix::SimPoint`]s
//! it needs (`figNN_points`), a [`matrix::RunMatrix`] memoizes results by
//! point key and executes the unique subset in parallel
//! ([`executor`], `ATR_SIM_THREADS` workers), and `figNN_assemble` folds
//! the cached results into rows. One function per evaluation artifact of
//! the paper:
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 configuration | [`config::table1`] |
//! | Fig 1 (baseline IPC vs RF size) | [`experiments::fig01`] |
//! | Fig 4 (register lifecycle) | [`experiments::fig04`] |
//! | Fig 6 (atomic register ratio) | [`experiments::fig06`] |
//! | Fig 10 (scheme speedups @64/@224) | [`experiments::fig10`] |
//! | Fig 11 (RF-size sensitivity) | [`experiments::fig11`] |
//! | Fig 12 (consumer histogram) | [`experiments::fig12`] |
//! | Fig 13 (redefine-delay sensitivity) | [`experiments::fig13`] |
//! | Fig 14 (region cycle gaps) | [`experiments::fig14`] |
//! | Fig 15 (RF-size reduction study) | [`experiments::fig15`] |
//! | §5.4 / §6 ablations | [`experiments::ablation_counter_width`], [`experiments::ablation_move_elimination`] |
//!
//! Budgets default to a laptop-scale quick pass and are overridden with
//! `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` (instructions per measured window)
//! for full runs.

pub mod config;
pub mod differential;
pub mod executor;
pub mod experiments;
pub mod journal;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod session;
pub mod telemetry;

pub use config::{table1, SimConfig};
pub use differential::{run_differential, DifferentialReport, SchemeStream};
pub use executor::{execute_session, FailureKind, PointFailure, PointOutcome};
pub use journal::RunJournal;
pub use matrix::{CoreTweak, RunMatrix, SimPoint};
pub use runner::{run, RunResult, RunSpec};
pub use session::Session;
