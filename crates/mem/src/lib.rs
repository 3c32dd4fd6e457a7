//! Memory-hierarchy substrate for the ATR simulator.
//!
//! Models the Table 1 hierarchy: split L1I/L1D, a unified private L2, a
//! shared LLC slice, and DDR4-3200-style DRAM with two channels, plus
//! the stream/spatial data prefetchers the paper's Scarab configuration
//! enables.
//!
//! The timing model is a deterministic *timestamped cache*: every line
//! carries the cycle its data arrives (`ready_at`), misses propagate
//! down the hierarchy at request time, MSHRs bound the number of
//! outstanding line fills per level (merging requests to in-flight
//! lines), and DRAM charges per-channel bandwidth. This gives
//! event-queue-accurate latencies for the access patterns the workload
//! substrate produces without a global event calendar.
//!
//! # Examples
//!
//! ```
//! use atr_mem::{MemoryHierarchy, MemConfig, AccessKind};
//!
//! let mut mem = MemoryHierarchy::new(&MemConfig::golden_cove());
//! let t1 = mem.access(AccessKind::Load, 0x1000, 100);
//! assert!(t1 > 100);                     // cold miss goes to DRAM
//! let t2 = mem.access(AccessKind::Load, 0x1000, t1 + 1);
//! assert_eq!(t2, t1 + 1 + 3);            // now an L1 hit (3-cycle L1D)
//! ```

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod prefetch;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessKind, MemConfig, MemoryHierarchy, ServiceLevel};
pub use prefetch::{PrefetchConfig, Prefetcher};
