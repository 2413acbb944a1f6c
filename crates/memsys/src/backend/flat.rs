//! The constant-latency backend — the pre-backend behavior as a plugin.

use crate::addr::Addr;

use super::MemoryBackend;

/// Flat main memory.
///
/// In its default *deferred* form the backend supplies no cost at all:
/// every fill returns `None` and the CPU model keeps charging its
/// latency-table constant, exactly as before the backend seam existed.
/// The *fixed* form stamps every fill with an explicit constant, which
/// drives the same variable-cost path [`BankedDram`](super::BankedDram)
/// uses — configure it with the table's memory latency and the two forms
/// are bit-identical end to end (the differential test's claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatLatency {
    latency: Option<u64>,
}

impl FlatLatency {
    /// Defers every fill's cost to the caller's latency table.
    pub(crate) fn deferred() -> Self {
        FlatLatency { latency: None }
    }

    /// Stamps every fill with a constant `cycles` cost.
    pub(crate) fn fixed(cycles: u64) -> Self {
        FlatLatency {
            latency: Some(cycles),
        }
    }
}

impl MemoryBackend for FlatLatency {
    #[inline]
    fn fetch(&mut self, _addr: Addr, _now: u64) -> Option<u64> {
        self.latency
    }

    #[inline]
    fn writeback(&mut self, _addr: Addr, _now: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_supplies_nothing() {
        let mut b = FlatLatency::deferred();
        assert_eq!(b.fetch(Addr(0x40), 0), None);
        assert!(!b.needs_clock());
        assert!(b.dram_stats().is_none());
    }

    #[test]
    fn fixed_supplies_its_constant_at_any_time() {
        let mut b = FlatLatency::fixed(75);
        assert_eq!(b.fetch(Addr(0x40), 0), Some(75));
        assert_eq!(b.fetch(Addr(0x9000), 1 << 40), Some(75));
        b.writeback(Addr(0x40), 5); // no-op, no state
        assert_eq!(b.fetch(Addr(0x40), 6), Some(75));
    }
}
