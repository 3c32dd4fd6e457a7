//! Synthetic workload substrate for the ATR simulator.
//!
//! The paper evaluates on SPEC CPU 2017 simpoint traces replayed through
//! Scarab. Those traces are proprietary, so this crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * a **static program** model ([`Program`]): decoded instructions
//!   addressable by PC, so the frontend can fetch down *wrong paths*
//!   after a misprediction exactly like a trace-based Scarab frontend.
//!   [`ProgramBuilder`] lays it out once as boxed slices, and a PC
//!   lookup is index arithmetic (`(pc - entry) / 4`, checked), not a
//!   hash: fetch and the oracle do one on every instruction, and a pass
//!   keeps every built program alive, so the layout is also the
//!   smallest (no map buckets, no per-instruction `Option`);
//! * deterministic **behaviours** attached to branches and memory
//!   operations ([`BranchBehavior`], [`AddrPattern`]) that generate the
//!   architecturally correct dynamic stream;
//! * an **oracle stream** ([`Oracle`]) — the functional execution of the
//!   program, which the pipeline consumes in order and re-enters after
//!   flushes. Its per-instruction behaviour state is indexed by the
//!   program's behaviour slots and created on first execution, seeded
//!   by PC, so the stream does not depend on when state is created;
//! * a **program generator** ([`generator::generate`]) driven by
//!   [`ProfileParams`] that control the microarchitectural character of
//!   the workload (branch predictability, memory footprint, dependency
//!   and register-redefinition distances, atomic-region density);
//! * one named profile per SPEC CPU 2017 benchmark in Table 2
//!   ([`spec::spec2017_int`], [`spec::spec2017_fp`]).
//!
//! # Examples
//!
//! ```
//! use atr_workload::{spec, Oracle};
//!
//! let profile = &spec::spec2017_int()[0]; // 500.perlbench_r
//! let program = profile.build();
//! let mut oracle = Oracle::new(program);
//! let first = *oracle.get(0);
//! assert_eq!(first.seq, 0);
//! ```

pub mod behavior;
pub mod generator;
pub mod oracle;
pub mod program;
pub mod spec;
pub mod wrongpath;

pub use behavior::{AddrPattern, BranchBehavior};
pub use generator::ProfileParams;
pub use oracle::Oracle;
pub use program::{Program, ProgramBuilder};
pub use spec::{SpecProfile, WorkloadClass};
pub use wrongpath::synthesize_outcome;
