//! Mode and timeline accounting: per-processor virtual clocks,
//! `mpstat`-style execution-mode bookkeeping, and per-window transaction
//! counts.
//!
//! Every cycle a processor spends is charged to exactly one
//! [`ExecMode`]; the clocks only move forward through this module, so
//! the mode fractions always cover the full window (the invariant behind
//! Figure 5's stacked bars summing to 1).

use simcpu::CpiReport;
use sysos::modes::{ExecMode, ModeAccount, ModeBreakdown};
use sysos::sched::ProcessorSet;

/// Clocks, modes, and window-scoped transaction accounting for one
/// machine.
#[derive(Debug, Clone)]
pub struct Accounting {
    clocks: Vec<u64>,
    modes: ModeAccount,
    tx_count: u64,
    window_start: u64,
    window_tx: u64,
}

impl Accounting {
    /// Zeroed accounting for `cpus` processors.
    pub(crate) fn new(cpus: usize) -> Self {
        Accounting {
            clocks: vec![0; cpus],
            modes: ModeAccount::new(cpus),
            tx_count: 0,
            window_start: 0,
            window_tx: 0,
        }
    }

    /// Number of processors tracked.
    pub(crate) fn cpus(&self) -> usize {
        self.clocks.len()
    }

    /// Processor `cpu`'s virtual clock in cycles.
    #[inline]
    pub(crate) fn clock(&self, cpu: usize) -> u64 {
        self.clocks[cpu]
    }

    /// All clocks (for min/max scans).
    #[inline]
    pub(crate) fn clocks(&self) -> &[u64] {
        &self.clocks
    }

    /// Charges `cycles` of `mode` to `cpu`, advancing its clock.
    #[inline]
    pub(crate) fn advance(&mut self, cpu: usize, mode: ExecMode, cycles: u64) {
        self.modes.add(cpu, mode, cycles);
        self.clocks[cpu] += cycles;
    }

    /// Advances `cpu` to absolute time `to`, charging the gap to `mode`
    /// (no-op if the clock is already past `to`).
    pub(crate) fn fill(&mut self, cpu: usize, to: u64, mode: ExecMode) {
        if self.clocks[cpu] < to {
            self.modes.add(cpu, mode, to - self.clocks[cpu]);
            self.clocks[cpu] = to;
        }
    }

    /// Records a completed transaction.
    #[inline]
    pub(crate) fn tx_done(&mut self) {
        self.tx_count += 1;
        self.window_tx += 1;
    }

    /// Transactions completed since construction.
    pub(crate) fn transactions(&self) -> u64 {
        self.tx_count
    }

    /// Transactions completed in the current window.
    pub(crate) fn window_transactions(&self) -> u64 {
        self.window_tx
    }

    /// Start time of the current measurement window.
    pub(crate) fn window_start(&self) -> u64 {
        self.window_start
    }

    /// Opens a new measurement window at time `now`: resets the mode
    /// account and the window-scoped counters. Clocks keep advancing —
    /// virtual time never rewinds.
    pub(crate) fn begin_window(&mut self, now: u64) {
        self.modes.reset();
        self.window_start = now;
        self.window_tx = 0;
    }

    /// Total cycles charged to `mode` across all processors in the
    /// current window (the counter-registry export).
    pub(crate) fn mode_total(&self, mode: ExecMode) -> u64 {
        self.modes.total(mode)
    }

    /// Mode breakdown over the processors in `pset` only (the paper
    /// reports the benchmark's processor set, not the whole machine).
    pub(crate) fn pset_breakdown(&self, pset: &ProcessorSet) -> ModeBreakdown {
        let mut pset_modes = ModeAccount::new(pset.cpus().len());
        for (i, &c) in pset.cpus().iter().enumerate() {
            for m in sysos::modes::ALL_MODES {
                pset_modes.add(i, m, self.modes.get(c, m));
            }
        }
        pset_modes.breakdown()
    }
}

/// A window's worth of results.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Transactions completed in the window.
    pub transactions: u64,
    /// Window length in cycles.
    pub cycles: u64,
    /// Merged CPI report over the processor set.
    pub cpi: CpiReport,
    /// Mode breakdown over the processor set.
    pub modes: ModeBreakdown,
    /// GC time in cycles within the window.
    pub gc_cycles: u64,
    /// Number of collections in the window.
    pub gc_count: u64,
    /// Cache-to-cache / L2-miss ratio.
    pub c2c_ratio: f64,
    /// Fraction of would-be remote snoop probes the memory system's
    /// snoop filter eliminated over the window (0 on broadcast or
    /// single-L2 systems). Diagnostics only: the filter is exact, so no
    /// other statistic depends on it.
    pub snoop_filter_rate: f64,
}

impl WindowReport {
    /// Throughput in transactions per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transactions as f64 * simcpu::CLOCK_HZ as f64 / self.cycles as f64
        }
    }

    /// Throughput with GC time excluded (Figure 9's dotted lines): the
    /// collector is single-threaded, so its busy cycles *are* wall-clock
    /// stop-the-world time, subtracted from the window.
    pub(crate) fn throughput_no_gc(&self) -> f64 {
        let busy = self.cycles.saturating_sub(self.gc_cycles);
        if busy == 0 {
            0.0
        } else {
            self.transactions as f64 * simcpu::CLOCK_HZ as f64 / busy as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_fill_move_clocks_forward_only() {
        let mut a = Accounting::new(2);
        a.advance(0, ExecMode::User, 100);
        assert_eq!(a.clock(0), 100);
        a.fill(0, 50, ExecMode::Idle); // behind: no-op
        assert_eq!(a.clock(0), 100);
        a.fill(0, 250, ExecMode::Idle);
        assert_eq!(a.clock(0), 250);
        assert_eq!(a.clock(1), 0);
    }

    #[test]
    fn window_reset_keeps_clocks_and_total_tx() {
        let mut a = Accounting::new(1);
        a.advance(0, ExecMode::User, 10);
        a.tx_done();
        a.begin_window(10);
        assert_eq!(a.window_transactions(), 0);
        assert_eq!(a.transactions(), 1);
        assert_eq!(a.clock(0), 10);
        assert_eq!(a.window_start(), 10);
    }

    #[test]
    fn pset_breakdown_covers_only_the_set() {
        let mut a = Accounting::new(4);
        a.advance(0, ExecMode::User, 100);
        a.advance(3, ExecMode::System, 900); // outside the set
        let pset = ProcessorSet::first_n(2, 4);
        let b = a.pset_breakdown(&pset);
        assert!(
            (b.user - 1.0).abs() < 1e-12,
            "only cpu0's time counts: {b:?}"
        );
    }

    #[test]
    fn throughput_excludes_gc_when_asked() {
        let r = WindowReport {
            transactions: 100,
            cycles: simcpu::CLOCK_HZ,
            cpi: CpiReport::default(),
            modes: ModeBreakdown::default(),
            gc_cycles: simcpu::CLOCK_HZ / 2,
            gc_count: 1,
            c2c_ratio: 0.0,
            snoop_filter_rate: 0.0,
        };
        assert!((r.throughput() - 100.0).abs() < 1e-9);
        assert!((r.throughput_no_gc() - 200.0).abs() < 1e-9);
    }
}
