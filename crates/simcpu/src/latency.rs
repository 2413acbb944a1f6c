//! The processor clock, and the memory-access latency table re-exported
//! from `memsys`, where the memory system's latency histogram shares it.

pub use memsys::LatencyTable;

/// The E6000's processor clock, used to convert cycles to wall time.
pub const CLOCK_HZ: u64 = 248_000_000;

/// Converts cycles to seconds at the E6000 clock.
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversion() {
        assert!((cycles_to_seconds(CLOCK_HZ) - 1.0).abs() < 1e-12);
    }
}
