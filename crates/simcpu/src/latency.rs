//! The processor clock, and the memory-access latency table re-exported
//! from `memsys`, where the memory system's latency histogram shares it.

pub use memsys::LatencyTable;

/// The E6000's processor clock, used to convert cycles to wall time.
pub const CLOCK_HZ: u64 = 248_000_000;
