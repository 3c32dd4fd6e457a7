//! Decoupled-frontend substrate: branch prediction for the ATR simulator.
//!
//! The paper's baseline is a Golden-Cove-like core with a TAGE-SC-L-class
//! predictor, a 12K-entry BTB, a 3K-entry indirect target buffer, and a
//! return address stack (Table 1). This crate implements that substrate:
//!
//! * [`GlobalHistory`] / [`PathHistory`] — speculative branch history with
//!   snapshot/restore for misprediction recovery;
//! * [`Tage`] — the [`DirectionPredictor`] the BPU uses: a tagged
//!   geometric-history predictor with an always-on loop predictor, the
//!   workhorse of TAGE-SC-L;
//! * [`Bimodal`] and [`Gshare`] — classic reference predictors that the
//!   prediction-quality tests rank TAGE-L against (the BPU never uses
//!   them);
//! * [`Btb`] — set-associative branch target buffer;
//! * [`Ras`] — return address stack;
//! * [`IndirectPredictor`] — path-history-tagged indirect target predictor;
//! * [`Bpu`] — the bundle the pipeline talks to: one `predict` per
//!   control-flow instruction, `resolve` at execute, snapshot/restore on
//!   flush.
//!
//! Branch *mispredictions are the events that make early register release
//! dangerous* — every unsafe case in the paper (Fig 2) starts with one —
//! so prediction quality directly controls how often ATR's flush-walk
//! machinery runs.

pub mod bpu;
pub mod btb;
pub mod history;
pub mod indirect;
pub mod predictor;
pub mod ras;
pub mod tage;

pub use bpu::{Bpu, BpuConfig, BpuSnapshot, Prediction};
pub use btb::{Btb, BtbEntry};
pub use history::{GlobalHistory, PathHistory};
pub use indirect::IndirectPredictor;
pub use predictor::{Bimodal, DirectionPredictor, Gshare};
pub use ras::Ras;
pub use tage::{Tage, TageConfig};
