//! `cpustat`-style hardware performance counters.
//!
//! The paper measured the native E6000 with the UltraSPARC II's integrated
//! counters through Solaris's `cpustat`: cycle and instruction counts, and
//! the "snoop copyback" event used to derive the cache-to-cache transfer
//! ratio (Section 4.3). This module is a thin veneer exposing the
//! simulator's numbers under the same event names; the engine's interval
//! sampler turns them into the Figure 10 time series.

use std::fmt;

/// A sampled set of UltraSPARC-II-style counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// `Cycle_cnt` — busy cycles.
    pub cycle_cnt: u64,
    /// `Instr_cnt` — instructions retired.
    pub instr_cnt: u64,
    /// `EC_snoop_cb` — snoop copybacks (cache-to-cache transfers supplied).
    pub ec_snoop_cb: u64,
    /// `EC_rd_miss`-style event: L2 demand misses.
    pub ec_misses: u64,
}

impl fmt::Display for CounterSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cycle_cnt={} Instr_cnt={} EC_snoop_cb={} EC_misses={}",
            self.cycle_cnt, self.instr_cnt, self.ec_snoop_cb, self.ec_misses
        )
    }
}
