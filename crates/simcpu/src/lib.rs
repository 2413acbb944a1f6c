//! # simcpu — UltraSPARC-II-like processor timing model
//!
//! Turns [`memsys`] access outcomes into cycles, reproducing the paper's
//! CPI and stall-time decompositions (Figures 6 and 7):
//!
//! - [`latency::LatencyTable`] — E6000 latencies, including the ~40%
//!   cache-to-cache penalty over memory (Section 4.3);
//! - [`pipeline::CpuTimer`] — per-processor cycle accounting with the
//!   paper's breakdown (other / instruction stall / data stall by cause);
//! - [`storebuf::StoreBuffer`] — stores stall only when the buffer fills;
//! - [`counters`] — `cpustat`-style counter samples, the events of the
//!   Figure 10 time series.
//!
//! ## Example
//!
//! ```
//! use memsys::{AccessKind, Addr, MemorySystem};
//! use simcpu::CpuTimer;
//!
//! # fn main() -> Result<(), memsys::ConfigError> {
//! let mut sys = MemorySystem::e6000(1)?;
//! let mut cpu = CpuTimer::e6000();
//! for i in 0..1000u64 {
//!     cpu.retire(4);
//!     let outcome = sys.access(0, memsys::AccessKind::Load, Addr(i * 64));
//!     cpu.load(&outcome);
//! }
//! let report = cpu.report();
//! assert!(report.cpi() > 1.3); // cold misses add data-stall CPI
//! # let _ = AccessKind::Load;
//! # Ok(())
//! # }
//! ```

pub mod counters;
pub mod latency;
pub mod pipeline;
pub mod probe;
pub mod storebuf;

pub use counters::CounterSample;
pub use latency::{LatencyTable, CLOCK_HZ};
pub use pipeline::{CpiReport, CpuTimer, DataStall, PipelineParams, StallCharge};
pub use storebuf::StoreBuffer;
