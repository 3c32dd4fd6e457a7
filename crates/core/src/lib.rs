//! Register renaming with out-of-order release — the paper's contribution.
//!
//! This crate implements the baseline rename machinery of §4.2.1 (SRT,
//! physical register file, free list, and the flush recovery that
//! rebuilds the SRT from the committed RAT plus the surviving uops) and
//! the four register-release schemes the paper evaluates:
//!
//! * **Baseline** — a physical register is freed when the instruction
//!   that *redefines* its architectural register commits.
//! * **Non-speculative early release** (`NonSpecEr`, §2.3) — freed when
//!   the redefining instruction *precommits* (all older branches
//!   resolved, all older exception-capable instructions known safe) and
//!   its consumer count reaches zero.
//! * **ATR** (`Atr`, §4) — freed as soon as the register is redefined
//!   and fully consumed, *even speculatively*, provided it is in an
//!   atomic commit region: no conditional branch, indirect jump, load,
//!   store, or division was renamed while the register was live. Atomic
//!   regions guarantee the producer, consumers, and redefiner commit or
//!   flush together, so early release is safe without shadow storage.
//! * **Combined** (§4.3) — ATR for atomic regions plus non-speculative
//!   early release for everything else.
//!
//! The ATR mechanics follow §4.2 exactly: a per-physical-register
//! consumer counter with a reserved *no-early-release* value, bulk
//! marking of all live ptags whenever a branch or exception-capable
//! instruction is renamed, an optional N-cycle delay on the redefine
//! signal (modeling the pipelined marking logic of §4.2.2/Fig 13),
//! `previous-ptag` invalidation for double-free avoidance at commit
//! (§4.2.4), and the two-bit `redefined`/`consumed` walk algorithm for
//! double-free avoidance on flushes.
//!
//! # Examples
//!
//! ```
//! use atr_core::{Renamer, RenameConfig, ReleaseScheme};
//! use atr_isa::{ArchReg, StaticInst};
//!
//! let cfg = RenameConfig { scheme: ReleaseScheme::Atr { redefine_delay: 0 }, ..RenameConfig::default() };
//! let mut renamer = Renamer::new(&cfg);
//! let add = StaticInst::alu(0x40, ArchReg::int(5), &[ArchReg::int(6)]);
//! let uop = renamer.rename(&add, 100, false);
//! assert!(uop.pdst.is_some());
//! ```

pub mod audit;
pub mod events;
pub mod freelist;
pub mod prf;
pub mod ptag;
pub mod renamer;
pub mod scheme;
pub mod srt;

pub use audit::{AuditViolation, RenameAuditor};
pub use events::{LifetimeLog, LifetimeSummary, LifetimeTotals, ReleaseKind, CONSUMER_OVERFLOW};
pub use freelist::FreeList;
pub use prf::{PhysRegFile, PrfStats};
pub use ptag::{PTag, PerClass};
pub use renamer::{FlushRecord, RenameConfig, RenamedUop, Renamer};
pub use scheme::ReleaseScheme;
pub use srt::RenameTable;
