//! Counter-registry drift protection.
//!
//! The registry's value is that `cpustat`-style snapshots cannot
//! silently diverge from the stats structs they describe: descriptor
//! tables are `'static`, `values` destructures exhaustively, and these
//! tests hold the whole machine-wide panel to that contract on a real
//! run — every registered name unique, every stats field present under
//! its registered name with the exact live value.

use java_middleware_memsim::memsys::{AccessKind, Addr, MemorySystem};
use middlesim::{jbb_machine, measure, Effort};
use probes::registry::{CounterSet, Snapshot};

/// A driven machine's full snapshot: every name unique across all four
/// counter sets (memsys, bus, pipeline, cpustat veneer, accounting).
#[test]
fn machine_panel_names_are_unique() {
    let effort = Effort::Quick;
    let mut m = jbb_machine(2, 4, 1, effort);
    let _ = measure(&mut m, effort);
    let snap = m.counters();
    assert!(snap.iter().count() > 30, "panel should cover all layers");
    assert!(
        snap.names_unique(),
        "machine-wide counter names must be unique"
    );
}

/// Every `SystemStats` field surfaces in the snapshot with its live
/// value. The per-kind block is checked for all three kinds, and the
/// per-cpu vectors through their registered totals — if a field were
/// dropped from the descriptor table, this is the test that notices.
#[test]
fn every_memsys_field_is_registered_with_its_live_value() {
    let mut sys = MemorySystem::e6000(4).unwrap();
    // Drive enough traffic to make every counter nonzero-able: private
    // stores (upgrades, writebacks), cross-cpu sharing (c2c), ifetches.
    for i in 0..40_000u64 {
        let cpu = (i % 4) as usize;
        sys.access(cpu, AccessKind::Store, Addr(0x1000 + (i % 512) * 64));
        sys.access(
            (cpu + 1) % 4,
            AccessKind::Load,
            Addr(0x1000 + (i % 512) * 64),
        );
        sys.access(cpu, AccessKind::Ifetch, Addr(0x8_0000 + (i % 128) * 64));
        // Private stores over a 2 MB region — twice the L2 — so dirty
        // victims get written back.
        sys.access(
            cpu,
            AccessKind::Store,
            Addr(0x100_0000 + cpu as u64 * 0x40_0000 + (i % 32_768) * 64),
        );
    }
    let snap = sys.counters();
    assert!(snap.names_unique());

    let stats = sys.stats();
    for (prefix, k) in [
        ("ifetch", &stats.ifetch),
        ("load", &stats.load),
        ("store", &stats.store),
    ] {
        assert_eq!(
            snap.get(&format!("mem.{prefix}.accesses")),
            Some(k.accesses)
        );
        assert_eq!(
            snap.get(&format!("mem.{prefix}.l1_misses")),
            Some(k.l1_misses)
        );
        assert_eq!(
            snap.get(&format!("mem.{prefix}.l2_misses")),
            Some(k.l2_misses)
        );
        assert_eq!(
            snap.get(&format!("mem.{prefix}.upgrades")),
            Some(k.upgrades)
        );
        assert_eq!(snap.get(&format!("mem.{prefix}.c2c")), Some(k.c2c));
    }
    assert_eq!(snap.get("mem.writebacks"), Some(stats.writebacks));
    assert_eq!(
        snap.get("mem.l2_miss.percpu_total"),
        Some(stats.l2_misses_by_cpu.iter().sum())
    );
    assert_eq!(
        snap.get("mem.c2c.percpu_total"),
        Some(stats.c2c_by_cpu.iter().sum())
    );

    let bus = sys.bus_stats();
    assert_eq!(snap.get("bus.gets"), Some(bus.gets));
    assert_eq!(snap.get("bus.getx"), Some(bus.getx));
    assert_eq!(snap.get("bus.upgrades"), Some(bus.upgrades));
    assert_eq!(snap.get("bus.snoop_cb"), Some(bus.snoop_copybacks));
    assert_eq!(snap.get("bus.writebacks"), Some(bus.writebacks));
    assert_eq!(snap.get("bus.snoops_sent"), Some(bus.snoops_sent));
    assert_eq!(snap.get("bus.snoops_filtered"), Some(bus.snoops_filtered));

    // The work above exercised every protocol path, so the registered
    // counters are live, not vestigial.
    for name in [
        "mem.store.upgrades",
        "mem.load.c2c",
        "mem.writebacks",
        "bus.snoop_cb",
        "bus.snoops_filtered",
    ] {
        assert!(
            snap.get(name).unwrap() > 0,
            "{name} never moved under a workload designed to drive it"
        );
    }
}

/// The descriptor/values contract itself: a set must push exactly as
/// many values as it declares, in order. `Snapshot::record` enforces the
/// count; order is pinned here against the descriptor table.
#[test]
fn values_follow_descriptor_order() {
    let mut sys = MemorySystem::e6000(2).unwrap();
    sys.access(0, AccessKind::Load, Addr(0x40));
    let descs = sys.stats().descriptors();
    let snap = Snapshot::of(sys.stats());
    assert_eq!(snap.iter().count(), descs.len());
    for (d, (name, kind, _)) in descs.iter().zip(snap.iter()) {
        assert_eq!(d.name, name);
        assert_eq!(d.kind, kind);
    }
}

/// Deltas between machine snapshots behave like `cpustat` interval
/// samples: monotonic counters subtract, and a quiet machine deltas to
/// all-zero counts.
#[test]
fn machine_deltas_are_interval_samples() {
    let mut sys = MemorySystem::e6000(2).unwrap();
    sys.access(0, AccessKind::Store, Addr(0x40));
    let a = sys.counters();
    let b = sys.counters();
    let quiet = b.delta(&a);
    assert_eq!(quiet.get("mem.store.accesses"), Some(0));
    assert_eq!(quiet.get("bus.getx"), Some(0));

    sys.access(1, AccessKind::Load, Addr(0x40));
    let c = sys.counters();
    let d = c.delta(&a);
    assert_eq!(d.get("mem.load.accesses"), Some(1));
    assert_eq!(d.get("mem.load.c2c"), Some(1), "dirty remote line → c2c");
}
