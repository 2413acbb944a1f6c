//! Stop-the-world GC orchestration and bookkeeping.
//!
//! The paper's JVMs collect with a single-threaded, stop-the-world
//! collector: every benchmark processor reaches a safepoint, one
//! processor runs the collector while the rest sit in GC-idle, and the
//! world resumes together. This module owns that choreography — clock
//! synchronization, idle-filling, interval recording — while the kernel
//! supplies the collector itself as a closure (it needs the machine's
//! memory system and timer, which the driver deliberately knows nothing
//! about).

use sysos::modes::ExecMode;
use sysos::sched::ProcessorSet;

use super::accounting::Accounting;

/// Collection counts, cycles, and intervals — machine-lifetime and
/// window-scoped.
#[derive(Debug, Clone, Default)]
pub struct GcDriver {
    gc_count: u64,
    intervals: Vec<(u64, u64)>,
    window_gc_cycles: u64,
    window_gc_count: u64,
}

impl GcDriver {
    /// A driver with no collections recorded.
    pub(crate) fn new() -> Self {
        GcDriver::default()
    }

    /// Collections since construction.
    pub(crate) fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// GC intervals `(start, end)` in cycles since the last window reset
    /// (for Figure 10's shading).
    pub(crate) fn intervals(&self) -> &[(u64, u64)] {
        &self.intervals
    }

    /// Collections in the current window.
    pub(crate) fn window_gc_count(&self) -> u64 {
        self.window_gc_count
    }

    /// Collector cycles in the current window.
    pub(crate) fn window_gc_cycles(&self) -> u64 {
        self.window_gc_cycles
    }

    /// Discards window-scoped state at a window boundary.
    pub(crate) fn begin_window(&mut self) {
        self.window_gc_cycles = 0;
        self.window_gc_count = 0;
        self.intervals.clear();
    }

    /// Runs one stop-the-world collection on `cpu`, returning its
    /// `(start, end)` interval.
    ///
    /// Synchronizes every processor in `pset` to the safepoint (the
    /// latest clock among them), runs `collector` — a closure that
    /// performs the actual collection starting at the safepoint time and
    /// returns its duration in cycles — charges that duration to `cpu`
    /// as User time (the collector is JVM code, not kernel code), and
    /// GC-idle-fills the other processors to the end of the collection.
    pub(crate) fn collect(
        &mut self,
        acct: &mut Accounting,
        pset: &ProcessorSet,
        cpu: usize,
        collector: impl FnOnce(u64) -> u64,
    ) -> (u64, u64) {
        let start = pset
            .cpus()
            .iter()
            .map(|&c| acct.clock(c))
            .max()
            .unwrap_or_else(|| acct.clock(cpu));
        for &c in pset.cpus() {
            acct.fill(c, start, ExecMode::GcIdle);
        }
        let duration = collector(start);
        acct.advance(cpu, ExecMode::User, duration);
        let end = start + duration;
        // Everyone else idles while the single-threaded collector runs.
        for &c in pset.cpus() {
            if c != cpu {
                acct.fill(c, end, ExecMode::GcIdle);
            }
        }
        self.gc_count += 1;
        self.window_gc_cycles += duration;
        self.window_gc_count += 1;
        self.intervals.push((start, end));
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_synchronizes_charges_and_records() {
        let mut acct = Accounting::new(4);
        let mut gc = GcDriver::new();
        let pset = ProcessorSet::first_n(3, 4);
        acct.advance(0, ExecMode::User, 100);
        acct.advance(1, ExecMode::User, 300); // the laggard sets the safepoint
        acct.advance(2, ExecMode::User, 200);

        let (start, end) = gc.collect(&mut acct, &pset, 0, |at| {
            assert_eq!(at, 300, "collector starts at the safepoint");
            500
        });
        assert_eq!((start, end), (300, 800));
        assert_eq!(acct.clock(0), 800, "collector cpu ran to the end");
        assert_eq!(acct.clock(1), 800, "others gc-idle to the end");
        assert_eq!(acct.clock(2), 800);
        assert_eq!(acct.clock(3), 0, "outside the set: untouched");
        assert_eq!(gc.gc_count(), 1);
        assert_eq!(gc.intervals(), &[(300, 800)]);
    }

    #[test]
    fn window_reset_keeps_lifetime_counters() {
        let mut acct = Accounting::new(1);
        let mut gc = GcDriver::new();
        let pset = ProcessorSet::first_n(1, 1);
        gc.collect(&mut acct, &pset, 0, |_| 100);
        gc.begin_window();
        assert_eq!(gc.gc_count(), 1);
        assert_eq!(gc.window_gc_count(), 0);
        assert!(gc.intervals().is_empty());
    }
}
