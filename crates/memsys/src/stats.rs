//! Aggregate and per-processor access/miss counters.

use std::fmt;

/// The kind of a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    Ifetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// Whether the reference is a data access (load or store).
    pub fn is_data(self) -> bool {
        !matches!(self, AccessKind::Ifetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Ifetch => "ifetch",
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        };
        f.write_str(s)
    }
}

/// Where a reference was satisfied, and at what coherence cost.
///
/// Latencies are deliberately *not* attached here; the [`simcpu`] crate owns
/// the latency table so the memory system stays a purely functional model.
///
/// [`simcpu`]: https://docs.rs/simcpu
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Satisfied by the referencing processor's L1.
    L1,
    /// Satisfied by the processor's (possibly shared) L2.
    L2,
    /// A store to a Shared/Owned line: bus upgrade, no data transfer.
    Upgrade,
    /// L2 miss satisfied by another L2 cache (snoop copyback).
    CacheToCache,
    /// L2 miss satisfied by main memory.
    Memory,
}

impl HitLevel {
    /// Whether the access missed in the L2 and required data from beyond it.
    pub fn is_l2_data_miss(self) -> bool {
        matches!(self, HitLevel::CacheToCache | HitLevel::Memory)
    }
}

/// The complete outcome of one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Where the data came from.
    pub level: HitLevel,
    /// Whether another cache supplied the data (snoop copyback).
    pub c2c: bool,
    /// Whether the fill evicted a dirty line (writeback to memory).
    pub writeback: bool,
    /// Backend-supplied cost of a memory fill, in cycles. `None` means
    /// the memory backend defers to the CPU model's flat latency table;
    /// `Some` overrides it (the banked-DRAM model's load-dependent cost).
    pub mem_cycles: Option<u64>,
}

impl AccessOutcome {
    pub(crate) fn hit(level: HitLevel) -> Self {
        AccessOutcome {
            level,
            c2c: level == HitLevel::CacheToCache,
            writeback: false,
            mem_cycles: None,
        }
    }
}

/// Per-kind counter block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Total references of this kind.
    pub accesses: u64,
    /// References that missed the L1.
    pub l1_misses: u64,
    /// References that missed the L2 (demand fetches from bus/memory).
    pub l2_misses: u64,
    /// Stores that required an ownership upgrade of a cached line.
    pub upgrades: u64,
    /// L2 misses satisfied by another cache.
    pub c2c: u64,
}

impl KindCounters {
    fn record(&mut self, outcome: &AccessOutcome) {
        self.accesses += 1;
        match outcome.level {
            HitLevel::L1 => {}
            HitLevel::L2 => self.l1_misses += 1,
            HitLevel::Upgrade => {
                self.l1_misses += 1;
                self.upgrades += 1;
            }
            HitLevel::CacheToCache | HitLevel::Memory => {
                self.l1_misses += 1;
                self.l2_misses += 1;
            }
        }
        if outcome.c2c {
            self.c2c += 1;
        }
    }
}

/// System-wide statistics, aggregated and per processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Instruction-fetch counters.
    pub ifetch: KindCounters,
    /// Load counters.
    pub load: KindCounters,
    /// Store counters.
    pub store: KindCounters,
    /// Dirty-line writebacks to memory (evictions and replacement).
    pub writebacks: u64,
    /// Per-processor L2 demand misses (all kinds).
    pub l2_misses_by_cpu: Vec<u64>,
    /// Per-processor cache-to-cache transfers received.
    pub c2c_by_cpu: Vec<u64>,
}

impl SystemStats {
    pub(crate) fn new(cpus: usize) -> Self {
        SystemStats {
            l2_misses_by_cpu: vec![0; cpus],
            c2c_by_cpu: vec![0; cpus],
            ..SystemStats::default()
        }
    }

    pub(crate) fn record(&mut self, cpu: usize, kind: AccessKind, outcome: &AccessOutcome) {
        let counters = match kind {
            AccessKind::Ifetch => &mut self.ifetch,
            AccessKind::Load => &mut self.load,
            AccessKind::Store => &mut self.store,
        };
        counters.record(outcome);
        if outcome.writeback {
            self.writebacks += 1;
        }
        if outcome.level.is_l2_data_miss() {
            self.l2_misses_by_cpu[cpu] += 1;
        }
        if outcome.c2c {
            self.c2c_by_cpu[cpu] += 1;
        }
    }

    /// Total references of all kinds.
    pub fn total_accesses(&self) -> u64 {
        self.ifetch.accesses + self.load.accesses + self.store.accesses
    }

    /// Total L2 demand misses of all kinds.
    pub fn total_l2_misses(&self) -> u64 {
        self.ifetch.l2_misses + self.load.l2_misses + self.store.l2_misses
    }

    /// Total cache-to-cache transfers.
    pub fn total_c2c(&self) -> u64 {
        self.ifetch.c2c + self.load.c2c + self.store.c2c
    }

    /// Fraction of L2 demand misses satisfied by another cache —
    /// the paper's Figure 8 metric.
    ///
    /// Returns 0 when there were no L2 misses.
    pub fn c2c_ratio(&self) -> f64 {
        let misses = self.total_l2_misses();
        if misses == 0 {
            0.0
        } else {
            self.total_c2c() as f64 / misses as f64
        }
    }

    /// Data-reference (load + store) counters combined.
    pub fn data(&self) -> KindCounters {
        KindCounters {
            accesses: self.load.accesses + self.store.accesses,
            l1_misses: self.load.l1_misses + self.store.l1_misses,
            l2_misses: self.load.l2_misses + self.store.l2_misses,
            upgrades: self.load.upgrades + self.store.upgrades,
            c2c: self.load.c2c + self.store.c2c,
        }
    }

    /// Resets all counters while keeping per-cpu vector sizes.
    pub(crate) fn reset(&mut self) {
        let cpus = self.l2_misses_by_cpu.len();
        *self = SystemStats::new(cpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counters_classify_levels() {
        let mut k = KindCounters::default();
        k.record(&AccessOutcome::hit(HitLevel::L1));
        k.record(&AccessOutcome::hit(HitLevel::L2));
        k.record(&AccessOutcome::hit(HitLevel::Memory));
        k.record(&AccessOutcome::hit(HitLevel::CacheToCache));
        k.record(&AccessOutcome::hit(HitLevel::Upgrade));
        assert_eq!(k.accesses, 5);
        assert_eq!(k.l1_misses, 4);
        assert_eq!(k.l2_misses, 2);
        assert_eq!(k.upgrades, 1);
        assert_eq!(k.c2c, 1);
    }

    #[test]
    fn c2c_ratio_of_empty_stats_is_zero() {
        let s = SystemStats::new(2);
        assert_eq!(s.c2c_ratio(), 0.0);
    }

    #[test]
    fn system_stats_attribute_per_cpu() {
        let mut s = SystemStats::new(2);
        s.record(
            1,
            AccessKind::Load,
            &AccessOutcome::hit(HitLevel::CacheToCache),
        );
        s.record(0, AccessKind::Store, &AccessOutcome::hit(HitLevel::Memory));
        assert_eq!(s.l2_misses_by_cpu, vec![1, 1]);
        assert_eq!(s.c2c_by_cpu, vec![0, 1]);
        assert_eq!(s.total_l2_misses(), 2);
        assert_eq!(s.total_c2c(), 1);
        assert!((s.c2c_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn data_combines_loads_and_stores() {
        let mut s = SystemStats::new(1);
        s.record(0, AccessKind::Load, &AccessOutcome::hit(HitLevel::L2));
        s.record(0, AccessKind::Store, &AccessOutcome::hit(HitLevel::Memory));
        s.record(0, AccessKind::Ifetch, &AccessOutcome::hit(HitLevel::Memory));
        let d = s.data();
        assert_eq!(d.accesses, 2);
        assert_eq!(d.l1_misses, 2);
        assert_eq!(d.l2_misses, 1);
    }
}
