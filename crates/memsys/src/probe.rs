//! Counter-registry descriptors for the memory-system stats structs.
//!
//! Each implementation destructures its struct exhaustively, so adding
//! a field to [`SystemStats`]/[`BusStats`]/[`DramStats`] without
//! registering it here is a compile error — the registry cannot drift
//! from the structs it describes. Descriptor tables are `'static`; the
//! hot access path is untouched (sampling only *reads* the counters).
//!
//! Name schema (dot-separated, `cpustat`-style):
//! - `mem.{ifetch,load,store}.*` and `mem.writebacks` — [`SystemStats`];
//! - `bus.*` — [`BusStats`] (the paper's `EC_snoop_cb` is `bus.snoop_cb`);
//! - `dram.*` — [`DramStats`], present only with the banked-DRAM backend.

use probes::registry::{ratio_ppm, CounterDesc, CounterKind, CounterSet, DriftClass, Snapshot};

use crate::backend::DramStats;
use crate::bus::BusStats;
use crate::stats::{KindCounters, SystemStats};
use crate::system::MemorySystem;

const fn count(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Count)
}

macro_rules! kind_descs {
    ($prefix:literal) => {
        [
            count(concat!("mem.", $prefix, ".accesses")),
            count(concat!("mem.", $prefix, ".l1_misses")),
            count(concat!("mem.", $prefix, ".l2_misses")),
            count(concat!("mem.", $prefix, ".upgrades")),
            count(concat!("mem.", $prefix, ".c2c")),
        ]
    };
}

static SYSTEM_STATS_DESCS: [CounterDesc; 18] = {
    let [a0, a1, a2, a3, a4] = kind_descs!("ifetch");
    let [b0, b1, b2, b3, b4] = kind_descs!("load");
    let [c0, c1, c2, c3, c4] = kind_descs!("store");
    [
        a0,
        a1,
        a2,
        a3,
        a4,
        b0,
        b1,
        b2,
        b3,
        b4,
        c0,
        c1,
        c2,
        c3,
        c4,
        count("mem.writebacks"),
        // Per-cpu vectors export as totals: static descriptor tables
        // cannot depend on machine size, and the totals double as
        // cross-checks against the per-kind sums.
        count("mem.l2_miss.percpu_total"),
        count("mem.c2c.percpu_total"),
    ]
};

impl CounterSet for SystemStats {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &SYSTEM_STATS_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let SystemStats {
            ifetch,
            load,
            store,
            writebacks,
            l2_misses_by_cpu,
            c2c_by_cpu,
        } = self;
        for k in [ifetch, load, store] {
            let KindCounters {
                accesses,
                l1_misses,
                l2_misses,
                upgrades,
                c2c,
            } = k;
            out.extend([*accesses, *l1_misses, *l2_misses, *upgrades, *c2c]);
        }
        out.push(*writebacks);
        out.push(l2_misses_by_cpu.iter().sum());
        out.push(c2c_by_cpu.iter().sum());
    }
}

static BUS_STATS_DESCS: [CounterDesc; 8] = [
    count("bus.gets"),
    count("bus.getx"),
    count("bus.upgrades"),
    // The UltraSPARC II event the paper samples as `EC_snoop_cb`.
    count("bus.snoop_cb"),
    count("bus.writebacks"),
    count("bus.snoops_sent"),
    count("bus.snoops_filtered"),
    // Derived ratio: rounding of the ppm fixed-point may wobble when
    // the underlying counts legitimately move, so give it a 1% band.
    CounterDesc::new("bus.snoop_filter_ppm", CounterKind::Ratio)
        .with_drift(DriftClass::Tolerance(10_000)),
];

impl CounterSet for BusStats {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &BUS_STATS_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let BusStats {
            gets,
            getx,
            upgrades,
            snoop_copybacks,
            writebacks,
            snoops_sent,
            snoops_filtered,
        } = self;
        out.extend([
            *gets,
            *getx,
            *upgrades,
            *snoop_copybacks,
            *writebacks,
            *snoops_sent,
            *snoops_filtered,
            ratio_ppm(self.snoop_filter_rate()),
        ]);
    }
}

// Event counts (reads, writebacks, row hits/conflicts) are functions
// of the deterministic access stream: Exact. Queue pressure is timing
// model territory — stall episodes and occupancy integrals shift when
// the timing parameters are deliberately retuned — so those carry a
// 5% drift band for the `simdiff` gate.
static DRAM_STATS_DESCS: [CounterDesc; 9] = [
    count("dram.reads"),
    count("dram.writebacks"),
    count("dram.row_hits"),
    count("dram.row_conflicts"),
    CounterDesc::new("dram.queue_stalls", CounterKind::Count)
        .with_drift(DriftClass::Tolerance(50_000)),
    CounterDesc::new("dram.stalled_cycles", CounterKind::Count)
        .with_drift(DriftClass::Tolerance(50_000)),
    CounterDesc::new("dram.queue_occupancy", CounterKind::Count)
        .with_drift(DriftClass::Tolerance(50_000)),
    CounterDesc::new("dram.row_hit_ppm", CounterKind::Ratio)
        .with_drift(DriftClass::Tolerance(50_000)),
    CounterDesc::new("dram.mean_occupancy_ppm", CounterKind::Ratio)
        .with_drift(DriftClass::Tolerance(50_000)),
];

impl CounterSet for DramStats {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &DRAM_STATS_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let DramStats {
            reads,
            writebacks,
            row_hits,
            row_conflicts,
            queue_stalls,
            stalled_cycles,
            occupancy_sum,
        } = self;
        out.extend([
            *reads,
            *writebacks,
            *row_hits,
            *row_conflicts,
            *queue_stalls,
            *stalled_cycles,
            *occupancy_sum,
            ratio_ppm(self.row_hit_rate()),
            ratio_ppm(self.mean_occupancy()),
        ]);
    }
}

/// Every descriptor table this crate declares, for assembling a
/// `simdiff` drift policy: drift classes live on the descriptors, so
/// the gate reads tolerance bands from the same tables the counters
/// are sampled through.
pub fn descriptor_tables() -> Vec<&'static [CounterDesc]> {
    vec![&SYSTEM_STATS_DESCS, &BUS_STATS_DESCS, &DRAM_STATS_DESCS]
}

impl MemorySystem {
    /// Appends this system's counters (stats, bus, DRAM events when that
    /// backend is configured) to a snapshot under construction.
    pub fn record_counters(&self, snap: &mut Snapshot) {
        snap.record(self.stats());
        snap.record(self.bus_stats());
        if let Some(dram) = self.dram_stats() {
            snap.record(dram);
        }
    }

    /// A flat, ordered snapshot of every counter this system maintains.
    pub fn counters(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.record_counters(&mut snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::stats::AccessKind;

    #[test]
    fn memory_system_snapshot_matches_struct_fields() {
        let mut sys = MemorySystem::e6000(2).unwrap();
        sys.access(0, AccessKind::Store, Addr(0x1000));
        sys.access(1, AccessKind::Load, Addr(0x1000)); // snoop copyback
        sys.access(0, AccessKind::Ifetch, Addr(0x8000));

        let snap = sys.counters();
        assert!(snap.names_unique());
        assert_eq!(snap.get("mem.store.accesses"), Some(1));
        assert_eq!(snap.get("mem.load.c2c"), Some(1));
        assert_eq!(
            snap.get("bus.snoop_cb"),
            Some(sys.bus_stats().snoop_copybacks)
        );
        assert_eq!(
            snap.get("mem.l2_miss.percpu_total"),
            Some(sys.stats().total_l2_misses())
        );
        assert_eq!(
            snap.get("mem.c2c.percpu_total"),
            Some(sys.stats().total_c2c())
        );
    }

    #[test]
    fn dram_panel_appears_only_with_the_dram_backend() {
        use crate::config::{DramConfig, HierarchyConfig, MemoryConfig};
        let flat = MemorySystem::e6000(2).unwrap();
        assert_eq!(flat.counters().get("dram.reads"), None);

        let mut b = HierarchyConfig::builder(2);
        b.memory(MemoryConfig::BankedDram(DramConfig::default()));
        let mut sys = MemorySystem::new(b.build().unwrap());
        sys.access(0, AccessKind::Load, Addr(0x1000));
        let snap = sys.counters();
        assert!(snap.names_unique());
        assert_eq!(snap.get("dram.reads"), Some(1));
        assert_eq!(snap.get("dram.row_conflicts"), Some(1));
        assert_eq!(snap.get("dram.queue_stalls"), Some(0));
    }

    #[test]
    fn snapshots_diff_across_work() {
        let mut sys = MemorySystem::e6000(2).unwrap();
        sys.access(0, AccessKind::Load, Addr(0x40));
        let before = sys.counters();
        sys.access(1, AccessKind::Load, Addr(0x40_000));
        let after = sys.counters();
        let d = after.delta(&before);
        assert_eq!(d.get("mem.load.accesses"), Some(1));
        assert_eq!(d.get("mem.ifetch.accesses"), Some(0));
    }
}
