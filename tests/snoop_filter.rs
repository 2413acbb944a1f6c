//! Differential oracle for the snoop filter.
//!
//! [`MemorySystem::new`] snoops only the L2 groups a scan of the line's
//! set-major tag row finds holding it valid; [`MemorySystem::new_broadcast`]
//! probes every remote group, the textbook behavior. The filter's exactness claim — skipping
//! a cache that does not hold the line cannot change any MOESI outcome —
//! is checked here end-to-end: both systems consume identical seeded
//! streams of mixed loads/stores/ifetches across several `cpus` ×
//! `cpus_per_l2` shapes, with small caches so evictions, upgrades and
//! invalidations churn constantly, and must agree on every per-access
//! outcome, every final statistic, and the coherence state of every
//! touched line. Protocol invariants (single writer, L1 inclusion) run
//! along the way, and every bus transaction must probe exactly the remote
//! groups whose L2 held the line valid just before it.

use java_middleware_memsim::memsys::{
    AccessKind, Addr, Cache, CacheConfig, HierarchyConfig, HitLevel, LineState, MemorySystem,
};
use prng::SimRng;

/// Small hierarchy so the working set below overflows everything: L2s a
/// few hundred lines, L1s a couple dozen.
fn tiny(cpus: usize, cpus_per_l2: usize) -> HierarchyConfig {
    let mut b = HierarchyConfig::builder(cpus);
    b.l1i(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l1d(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l2(CacheConfig::new(8 << 10, 4, 64).unwrap());
    b.cpus_per_l2(cpus_per_l2);
    b.build().unwrap()
}

/// One seeded reference: 35% ifetch, 40% load, 25% store, drawn from a
/// shared region (heavy cross-L2 contention), a per-cpu private region
/// (upgrade/eviction churn), and a hot ping-pong line.
fn next_ref(rng: &mut SimRng, cpus: usize) -> (usize, AccessKind, Addr) {
    let r = rng.next_u64();
    let cpu = (r % cpus as u64) as usize;
    let roll = (r >> 8) % 100;
    let kind = if roll < 35 {
        AccessKind::Ifetch
    } else if roll < 75 {
        AccessKind::Load
    } else {
        AccessKind::Store
    };
    let pick = (r >> 16) % 100;
    let line = (r >> 32) % 192; // > 128-line L2: conflict misses guaranteed
    let addr = if pick < 50 {
        0x1000 + line * 64 // shared region
    } else if pick < 90 {
        0x10_0000 + (cpu as u64) * 0x1_0000 + line * 64 // private region
    } else {
        0x9000 // one hot contended line
    };
    (cpu, kind, Addr(addr))
}

/// Protocol invariants on one line: at most one dirty (M/O) copy, and an
/// M or E copy excludes every other valid copy.
fn check_single_writer(states: &[LineState], addr: Addr) {
    let valid = states.iter().filter(|s| s.is_valid()).count();
    let dirty = states.iter().filter(|s| s.is_dirty()).count();
    let exclusive = states
        .iter()
        .any(|s| matches!(s, LineState::Modified | LineState::Exclusive));
    assert!(dirty <= 1, "two dirty copies of {addr:?}: {states:?}");
    assert!(
        !exclusive || valid == 1,
        "M/E copy of {addr:?} coexists with another valid copy: {states:?}"
    );
}

/// L1 inclusion: a line valid in any of cpu's L1s must be valid in its
/// group's L2.
fn check_inclusion(sys: &MemorySystem, addr: Addr) {
    let states = sys.l2_states(addr);
    for cpu in 0..sys.cpus() {
        if sys.l1_holds(cpu, addr) {
            let group = sys.config().l2_group(cpu);
            assert!(
                states[group].is_valid(),
                "cpu {cpu} holds {addr:?} in L1 but its L2 group {group} does not"
            );
        }
    }
}

/// The probes one access sends: none unless it goes to the bus, then
/// (filter on) the remote groups whose L2 held the line valid just before
/// the access, or (filter off) every remote group.
fn expected_snoops(sys: &MemorySystem, cpu: usize, before: &[LineState], level: HitLevel) -> u64 {
    if !matches!(
        level,
        HitLevel::Memory | HitLevel::CacheToCache | HitLevel::Upgrade
    ) {
        return 0;
    }
    let group = sys.config().l2_group(cpu);
    let remote = (0..before.len()).filter(|&g| g != group);
    if sys.snoop_filter_enabled() {
        remote.filter(|&g| before[g].is_valid()).count() as u64
    } else {
        remote.count() as u64
    }
}

fn drive_shape(cpus: usize, cpus_per_l2: usize, steps: u64, seed: u64) {
    let cfg = tiny(cpus, cpus_per_l2);
    let mut filtered = MemorySystem::new(cfg);
    let mut broadcast = MemorySystem::new_broadcast(cfg);
    assert_eq!(
        filtered.snoop_filter_enabled(),
        cfg.l2_count() > 1 && cfg.l2_count() <= Cache::MAX_HOLDER_PARTS
    );
    assert!(!broadcast.snoop_filter_enabled());

    let mut rng = SimRng::seed_from_u64(seed);
    let mut touched = std::collections::BTreeSet::new();
    for step in 0..steps {
        let (cpu, kind, addr) = next_ref(&mut rng, cpus);
        touched.insert(addr.0);
        let before = filtered.l2_states(addr);
        let sent = filtered.bus_stats().snoops_sent;
        let a = filtered.access(cpu, kind, addr);
        let b = broadcast.access(cpu, kind, addr);
        assert_eq!(
            a, b,
            "outcome diverged at step {step} ({cpu} {kind} {addr:?})"
        );
        assert_eq!(
            filtered.bus_stats().snoops_sent - sent,
            expected_snoops(&filtered, cpu, &before, a.level),
            "snoop count wrong at step {step} ({cpu} {kind} {addr:?}, states {before:?})"
        );
        check_single_writer(&filtered.l2_states(addr), addr);
        check_inclusion(&filtered, addr);
    }

    // Every statistic the protocol produces must match. The snoop fan-out
    // diagnostics are the one legitimate difference — the filter's whole
    // point — so compare the protocol fields individually and check the
    // diagnostic totals cover the same transactions.
    assert_eq!(filtered.stats(), broadcast.stats(), "SystemStats diverged");
    let (fb, bb) = (filtered.bus_stats(), broadcast.bus_stats());
    assert_eq!(fb.gets, bb.gets);
    assert_eq!(fb.getx, bb.getx);
    assert_eq!(fb.upgrades, bb.upgrades);
    assert_eq!(fb.snoop_copybacks, bb.snoop_copybacks);
    assert_eq!(fb.writebacks, bb.writebacks);
    assert_eq!(
        fb.snoops_sent + fb.snoops_filtered,
        bb.snoops_sent,
        "filtered and broadcast saw different snoop opportunities"
    );
    if cfg.l2_count() > 1 && cfg.l2_count() <= Cache::MAX_HOLDER_PARTS {
        assert!(
            fb.snoops_filtered > 0,
            "a contended run at {cpus} cpus should filter something"
        );
    }

    // Final coherence state of every line either system ever touched.
    for &raw in &touched {
        let addr = Addr(raw);
        assert_eq!(
            filtered.l2_states(addr),
            broadcast.l2_states(addr),
            "final L2 states diverged for {addr:?}"
        );
        for cpu in 0..cpus {
            assert_eq!(
                filtered.l1_holds(cpu, addr),
                broadcast.l1_holds(cpu, addr),
                "final L1 residency diverged for cpu {cpu}, {addr:?}"
            );
        }
    }
}

#[test]
fn filtered_matches_broadcast_1_cpu() {
    drive_shape(1, 1, 30_000, 0xD1F);
}

#[test]
fn filtered_matches_broadcast_2_cpus() {
    drive_shape(2, 1, 30_000, 0xD2F);
}

#[test]
fn filtered_matches_broadcast_4_cpus() {
    drive_shape(4, 1, 30_000, 0xD4F);
}

#[test]
fn filtered_matches_broadcast_16_cpus() {
    drive_shape(16, 1, 40_000, 0xD16F);
}

#[test]
fn filtered_matches_broadcast_16_cpus_shared_l2() {
    drive_shape(16, 4, 40_000, 0xD164);
}

#[test]
fn filtered_matches_broadcast_32_l2_groups() {
    // Half the holder bitset: the filter stays exact (and enabled —
    // drive_shape asserts it) at 32 private-L2 groups.
    drive_shape(32, 1, 40_000, 0xD32F);
}

#[test]
fn filtered_matches_broadcast_at_exactly_max_groups() {
    // 64 private-L2 groups is the last shape the one-word holder bitset
    // tracks, so the filter must still be enabled (drive_shape asserts
    // it) and exact there.
    assert_eq!(Cache::MAX_HOLDER_PARTS, 64);
    drive_shape(64, 1, 30_000, 0xD64F);
}

#[test]
fn one_past_max_groups_falls_back_to_broadcast() {
    // 65 groups exceeds the bitset: the filter must disengage and the
    // "filtered" system become a plain broadcast one — still exact, and
    // filtering nothing.
    let cfg = tiny(65, 1);
    assert!(cfg.l2_count() > Cache::MAX_HOLDER_PARTS);
    let filtered = MemorySystem::new(cfg);
    assert!(
        !filtered.snoop_filter_enabled(),
        "past MAX_HOLDER_PARTS the filter must fall back to broadcast"
    );
    drive_shape(65, 1, 15_000, 0xD65F);
    // drive_shape's snoops_filtered > 0 expectation is gated on the
    // filter being on, so also pin the fallback's observable here.
    let mut sys = MemorySystem::new(tiny(65, 1));
    let mut rng = SimRng::seed_from_u64(0xB65);
    for _ in 0..5_000 {
        let (cpu, kind, addr) = next_ref(&mut rng, 65);
        sys.access(cpu, kind, addr);
    }
    assert_eq!(sys.bus_stats().snoops_filtered, 0);
    assert!(sys.bus_stats().snoops_sent > 0);
}

#[test]
fn filtered_matches_broadcast_4_cpus_one_shared_l2() {
    // Degenerate topology: a single L2 group, nothing to snoop, filter
    // disabled — the fast path must still match broadcast exactly.
    drive_shape(4, 4, 20_000, 0xD44);
}

/// The filter-rate invariant through the counter registry: on every
/// differential shape, `bus.snoops_sent + bus.snoops_filtered` of the
/// filtered system equals the broadcast system's probe count (its
/// `bus.snoops_sent`; nothing is ever filtered there), and the
/// registered `bus.snoop_filter_ppm` ratio reproduces
/// [`java_middleware_memsim::memsys::BusStats::snoop_filter_rate`].
#[test]
fn snapshot_reports_the_filter_invariant() {
    for (cpus, cpus_per_l2, seed) in [(2usize, 1usize, 0xA2u64), (4, 1, 0xA4), (16, 4, 0xA16)] {
        let cfg = tiny(cpus, cpus_per_l2);
        let mut filtered = MemorySystem::new(cfg);
        let mut broadcast = MemorySystem::new_broadcast(cfg);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..20_000 {
            let (cpu, kind, addr) = next_ref(&mut rng, cpus);
            filtered.access(cpu, kind, addr);
            broadcast.access(cpu, kind, addr);
        }
        let fs = filtered.counters();
        let bs = broadcast.counters();
        let sent = fs.get("bus.snoops_sent").unwrap();
        let skipped = fs.get("bus.snoops_filtered").unwrap();
        assert_eq!(
            sent + skipped,
            bs.get("bus.snoops_sent").unwrap(),
            "{cpus}x{cpus_per_l2}: filtered + sent must equal the broadcast probe count"
        );
        assert_eq!(
            bs.get("bus.snoops_filtered"),
            Some(0),
            "a broadcast system never filters"
        );
        let total = sent + skipped;
        let expect_ppm = if total == 0 {
            0
        } else {
            (skipped as f64 / total as f64 * 1e6).round() as u64
        };
        assert_eq!(
            fs.get("bus.snoop_filter_ppm"),
            Some(expect_ppm),
            "registered ratio must match the raw counters"
        );
    }
}

#[test]
fn default_shape_filters_most_snoops() {
    // E6000 geometry, mostly-private traffic: the filter should absorb
    // nearly all broadcast probes, which is the performance story.
    let mut sys = MemorySystem::e6000(16).unwrap();
    let mut rng = SimRng::seed_from_u64(7);
    for _ in 0..200_000 {
        let r = rng.next_u64();
        let cpu = (r % 16) as usize;
        let kind = if (r >> 8).is_multiple_of(4) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        // 1/16 of traffic shared, the rest private.
        let addr = if (r >> 16).is_multiple_of(16) {
            0x2000 + ((r >> 32) % 512) * 64
        } else {
            0x100_0000 + (cpu as u64) * 0x10_0000 + ((r >> 32) % 8192) * 64
        };
        sys.access(cpu, kind, Addr(addr));
    }
    let rate = sys.bus_stats().snoop_filter_rate();
    assert!(rate > 0.8, "filter rate {rate:.3} unexpectedly low");
}
