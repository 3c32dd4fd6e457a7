//! Simulation driver and experiment harness.
//!
//! Glues the pipeline to the workload suite. Experiments are built on
//! the **run-matrix engine**: each figure declares the [`matrix::SimPoint`]s
//! it needs (`figNN_points`), a [`matrix::RunMatrix`] memoizes results by
//! point key and executes the unique subset in parallel
//! ([`executor`], `ATR_SIM_THREADS` workers), and `figNN_assemble` folds
//! the cached results into rows. Every pass simulates every point it
//! reports — no result is served from disk — and a point that panics
//! fails alone as a [`PointFailure`]. Each evaluation artifact of the paper —
//! Tables 1–2, Figs 1/4/6/10–15, the §4.4 hardware analysis and the
//! §5.4/§6 ablations — is one entry of [`experiments::FIGURES`] (DESIGN.md's
//! experiment index maps them to the paper), and [`experiments::run_figures`]
//! runs any subset on one shared matrix.
//!
//! Budgets come from [`SimConfig`]: `SimConfig::golden_cove()` is the fixed
//! 40k + 160k default, and binaries override it once at entry from
//! `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` ([`config::budget_from_env`]).

pub mod config;
pub mod differential;
pub mod executor;
pub mod experiments;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod session;
pub mod telemetry;

pub use config::{table1, SimConfig};
pub use differential::{run_differential, DifferentialReport, SchemeStream};
pub use executor::{execute_session, FailureKind, PointFailure, PointOutcome};
pub use matrix::{CoreTweak, RunMatrix, SimPoint};
pub use runner::{run, RunResult};
pub use session::Session;
