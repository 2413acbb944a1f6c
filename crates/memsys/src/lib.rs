//! # memsys — multiprocessor memory-system simulator
//!
//! The instrument half of the reproduction of *"Memory System Behavior of
//! Java-Based Middleware"* (Karlsson, Moore, Hagersten, Wood — HPCA 2003):
//! a trace-driven model of the Sun E6000's cache hierarchy.
//!
//! The crate provides:
//!
//! - [`cache::Cache`] — a set-associative, true-LRU cache of coherence tags,
//!   optionally partitioned so one set-major table holds every L2 group's
//!   tags and answers snoops with one row scan;
//! - [`system::MemorySystem`] — per-processor split L1 I/D caches over
//!   unified L2s kept coherent with a MOESI snooping protocol, including the
//!   shared-L2 chip-multiprocessor topologies of the paper's Figure 16;
//! - [`sweep::CacheSweep`] — single-pass multi-size miss-rate sweeps
//!   (Figures 12/13);
//! - [`linestats::LineStats`] — per-line communication footprints
//!   (Figures 14/15).
//!
//! ## Example
//!
//! ```
//! use memsys::{Addr, AccessKind, HitLevel, MemorySystem};
//!
//! # fn main() -> Result<(), memsys::ConfigError> {
//! let mut sys = MemorySystem::e6000(2)?;
//! sys.access(0, AccessKind::Store, Addr(0x1000));        // cpu 0 dirties a line
//! let o = sys.access(1, AccessKind::Load, Addr(0x1000)); // cpu 1 reads it
//! assert_eq!(o.level, HitLevel::CacheToCache);           // snoop copyback
//! assert_eq!(sys.stats().total_c2c(), 1);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod backend;
pub mod bus;
pub mod cache;
pub mod config;
pub mod latency;
pub mod linestats;
mod mem;
pub mod probe;
pub mod protocol;
pub mod region;
pub mod sink;
pub mod stats;
pub mod sweep;
pub mod system;
pub mod trace;

pub use addr::{Addr, AddrRange, LineAddr, LINE_BITS, LINE_BYTES};
pub use backend::{Backend, BankedDram, DramStats, FlatLatency, MemoryBackend};
pub use bus::BusStats;
pub use cache::{Cache, Evicted};
pub use config::{CacheConfig, ConfigError, DramConfig, HierarchyConfig, MemoryConfig};
pub use latency::LatencyTable;
pub use linestats::LineStats;
pub use protocol::{BusOp, LineState};
pub use region::{RegionMap, OTHER_REGION};
pub use sink::{CountingSink, MemSink, RecordingSink};
pub use stats::{AccessKind, AccessOutcome, HitLevel, KindCounters, SystemStats};
pub use sweep::{CacheSweep, SweepPoint, PAPER_SIZES};
pub use system::MemorySystem;
pub use trace::{AccessSource, SystemSink, SystemTrace, SystemTraceEvent};
