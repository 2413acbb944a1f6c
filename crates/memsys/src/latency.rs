//! Memory-access latencies in processor cycles.
//!
//! The paper's host is a Sun E6000: 248 MHz UltraSPARC II processors on a
//! Gigaplane snooping bus. Section 4.3 reports that a cache-to-cache
//! transfer takes roughly 40% longer than an access to main memory on the
//! E6000, and cites 200–300% penalties for directory-based NUMA systems
//! (AlphaServer GS320). The table is the single place where the simulator
//! turns [`HitLevel`]s into cycles.

use crate::stats::{AccessOutcome, HitLevel};

/// Stall cycles charged per access, by where the access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// L1 hit (fully pipelined: no stall).
    pub l1_hit: u64,
    /// L2 hit.
    pub l2_hit: u64,
    /// Ownership upgrade (bus round trip, no data).
    pub upgrade: u64,
    /// Fill from main memory.
    pub memory: u64,
    /// Fill from a remote dirty cache (snoop copyback).
    pub cache_to_cache: u64,
}

impl LatencyTable {
    /// E6000-like latencies at 248 MHz: ~300 ns memory (≈75 cycles),
    /// cache-to-cache 40% longer (≈105 cycles, per Section 4.3 and the
    /// WildFire paper), ~10-cycle L2.
    pub fn e6000() -> Self {
        LatencyTable {
            l1_hit: 0,
            l2_hit: 10,
            upgrade: 60,
            memory: 75,
            cache_to_cache: 105,
        }
    }

    /// A copy of this table with the cache-to-cache latency scaled by
    /// `factor` relative to memory latency.
    pub fn with_c2c_factor(self, factor: f64) -> Self {
        LatencyTable {
            cache_to_cache: (self.memory as f64 * factor).round() as u64,
            ..self
        }
    }

    /// Stall cycles for an access satisfied at `level`.
    #[inline]
    pub fn stall_for(&self, level: HitLevel) -> u64 {
        match level {
            HitLevel::L1 => self.l1_hit,
            HitLevel::L2 => self.l2_hit,
            HitLevel::Upgrade => self.upgrade,
            HitLevel::Memory => self.memory,
            HitLevel::CacheToCache => self.cache_to_cache,
        }
    }

    /// Stall cycles for one access outcome: the backend-supplied memory
    /// cost when the memory system attached one
    /// ([`AccessOutcome::mem_cycles`], the banked-DRAM model's
    /// load-dependent latency), otherwise this table's constant for the
    /// hit level — the pre-backend behavior, bit for bit.
    #[inline]
    pub fn cost_of(&self, outcome: &AccessOutcome) -> u64 {
        outcome
            .mem_cycles
            .unwrap_or_else(|| self.stall_for(outcome.level))
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable::e6000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6000_c2c_is_forty_percent_over_memory() {
        let t = LatencyTable::e6000();
        let ratio = t.cache_to_cache as f64 / t.memory as f64;
        assert!((ratio - 1.4).abs() < 0.01, "paper Section 4.3: ~40% longer");
    }

    #[test]
    fn stall_for_maps_every_level() {
        let t = LatencyTable::e6000();
        assert_eq!(t.stall_for(HitLevel::L1), 0);
        assert_eq!(t.stall_for(HitLevel::L2), t.l2_hit);
        assert_eq!(t.stall_for(HitLevel::Upgrade), t.upgrade);
        assert_eq!(t.stall_for(HitLevel::Memory), t.memory);
        assert_eq!(t.stall_for(HitLevel::CacheToCache), t.cache_to_cache);
    }

    #[test]
    fn c2c_factor_scales_from_memory() {
        let t = LatencyTable::e6000().with_c2c_factor(2.0);
        assert_eq!(t.cache_to_cache, 150);
    }
}
