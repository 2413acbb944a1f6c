//! Snooping-bus transaction accounting.
//!
//! The E6000's Gigaplane bus broadcasts every L2 miss and upgrade to all
//! other caches. This module counts those transactions and the snoop
//! copybacks they trigger; the actual snoop *logic* lives in
//! [`crate::system::MemorySystem`], which owns the caches.

use crate::protocol::BusOp;

/// Counters for one snooping bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// `GetS` transactions (read misses).
    pub gets: u64,
    /// `GetX` transactions (write misses).
    pub getx: u64,
    /// Ownership upgrades (no data transfer).
    pub upgrades: u64,
    /// Snoop copybacks: transactions answered by a dirty remote cache.
    pub snoop_copybacks: u64,
    /// Writebacks of dirty victims to memory.
    pub writebacks: u64,
    /// Remote L2 probes actually performed for bus transactions.
    ///
    /// Diagnostics, not protocol state: with the snoop filter enabled
    /// only actual holders are probed; a broadcast system probes every
    /// remote group. All protocol-visible counters above are identical
    /// either way.
    pub snoops_sent: u64,
    /// Remote L2 probes skipped because the tag scan proved the group
    /// holds no copy. Always zero on a broadcast system.
    pub snoops_filtered: u64,
}

impl BusStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        BusStats::default()
    }

    /// Records a transaction and whether a remote cache supplied the data.
    pub(crate) fn record(&mut self, op: BusOp, supplied_by_cache: bool) {
        match op {
            BusOp::GetS => self.gets += 1,
            BusOp::GetX => self.getx += 1,
            BusOp::Upgrade => self.upgrades += 1,
        }
        if supplied_by_cache {
            self.snoop_copybacks += 1;
        }
    }

    /// Records a dirty-victim writeback.
    pub(crate) fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Records one bus transaction's snoop fan-out: how many remote L2s
    /// were probed and how many the filter let skip.
    pub(crate) fn record_snoops(&mut self, sent: u64, filtered: u64) {
        self.snoops_sent += sent;
        self.snoops_filtered += filtered;
    }

    /// Fraction of would-be remote probes the snoop filter eliminated
    /// (0 when no transaction has snooped yet, and on broadcast systems).
    pub fn snoop_filter_rate(&self) -> f64 {
        let total = self.snoops_sent + self.snoops_filtered;
        if total == 0 {
            0.0
        } else {
            self.snoops_filtered as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_op() {
        let mut b = BusStats::new();
        b.record(BusOp::GetS, false);
        b.record(BusOp::GetS, true);
        b.record(BusOp::GetX, true);
        b.record(BusOp::Upgrade, false);
        b.record_writeback();
        assert_eq!(b.gets, 2);
        assert_eq!(b.getx, 1);
        assert_eq!(b.upgrades, 1);
        assert_eq!(b.snoop_copybacks, 2);
        assert_eq!(b.writebacks, 1);
    }

    #[test]
    fn snoop_counters_and_filter_rate() {
        let mut b = BusStats::new();
        assert_eq!(b.snoop_filter_rate(), 0.0);
        b.record_snoops(1, 14);
        b.record_snoops(0, 15);
        assert_eq!(b.snoops_sent, 1);
        assert_eq!(b.snoops_filtered, 29);
        assert!((b.snoop_filter_rate() - 29.0 / 30.0).abs() < 1e-12);
    }
}
