//! Differential oracle for the memory-backend seam.
//!
//! PR 6 routed every memory fill through a [`MemoryBackend`]; the default
//! [`FlatLatency`] in deferred mode returns no cycle count, so the CPU
//! model keeps charging its flat table constant — by construction the
//! exact pre-refactor behavior. This suite pins the seam from the
//! outside, snoop_filter-style: seeded mixed-access streams drive pairs
//! of systems that must agree on every per-access outcome, every final
//! statistic, every latency histogram bit, and the coherence state of
//! every touched line.
//!
//! Three claims:
//!  1. A `FlatFixed(c)` backend (which stamps `mem_cycles: Some(c)` on
//!     every fill) is bit-identical to the deferred default when the
//!     latency table's memory cost is also `c` — so the backend-supplied
//!     cost path reproduces the table-constant path exactly.
//!  2. Swapping in `BankedDram` perturbs *timing only*: protocol
//!     outcomes, `SystemStats`, bus traffic, and final MOESI states all
//!     stay identical to the flat system's; only `mem_cycles` differs.
//!  3. `BankedDram` is deterministic: the same stream costs the same,
//!     request by request.

use java_middleware_memsim::memsys::{
    AccessKind, Addr, CacheConfig, DramConfig, HierarchyConfig, LatencyTable, MemoryConfig,
    MemorySystem,
};
use prng::SimRng;

/// The costs the differential runs histogram with; `memory` matches the
/// `FlatFixed` backend below so claims can be compared bit-for-bit.
const COSTS: LatencyTable = LatencyTable {
    l1_hit: 0,
    l2_hit: 10,
    upgrade: 60,
    memory: 75,
    cache_to_cache: 105,
};

/// Small hierarchy so the stream below overflows everything and memory
/// fills (the seam under test) happen constantly.
fn tiny(cpus: usize, memory: MemoryConfig) -> HierarchyConfig {
    let mut b = HierarchyConfig::builder(cpus);
    b.l1i(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l1d(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l2(CacheConfig::new(8 << 10, 4, 64).unwrap());
    b.memory(memory);
    b.build().unwrap()
}

/// Same mixed stream as the snoop-filter oracle: 35% ifetch, 40% load,
/// 25% store over shared, private, and hot ping-pong regions.
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
    let line = (r >> 32) % 192;
    let addr = if pick < 50 {
        0x1000 + line * 64
    } else if pick < 90 {
        0x10_0000 + (cpu as u64) * 0x1_0000 + line * 64
    } else {
        0x9000
    };
    (cpu, kind, Addr(addr))
}

/// Claim 1: deferred flat vs `FlatFixed(75)` under a table whose memory
/// cost is 75 — everything, including the latency histogram, must agree
/// bit-for-bit.
fn drive_flat_fixed(cpus: usize, steps: u64, seed: u64) {
    let mut deferred = MemorySystem::new(tiny(cpus, MemoryConfig::Flat));
    let mut fixed = MemorySystem::new(tiny(cpus, MemoryConfig::FlatFixed(COSTS.memory)));
    deferred.enable_latency_hist(COSTS);
    fixed.enable_latency_hist(COSTS);

    let mut rng = SimRng::seed_from_u64(seed);
    let mut touched = std::collections::BTreeSet::new();
    for step in 0..steps {
        let (cpu, kind, addr) = next_ref(&mut rng, cpus);
        touched.insert(addr.0);
        let a = deferred.access(cpu, kind, addr);
        let b = fixed.access(cpu, kind, addr);
        // The one designed difference: the deferred backend never stamps
        // a cost, the fixed one stamps every fill with the same constant
        // the table charges.
        assert_eq!(a.level, b.level, "level diverged at step {step}");
        assert_eq!(
            a.writeback, b.writeback,
            "writeback diverged at step {step}"
        );
        assert_eq!(a.mem_cycles, None, "deferred backend must not stamp costs");
        if b.level == java_middleware_memsim::memsys::HitLevel::Memory {
            assert_eq!(b.mem_cycles, Some(COSTS.memory));
        } else {
            assert_eq!(b.mem_cycles, None, "non-memory outcomes carry no stamp");
        }
    }

    assert_eq!(deferred.stats(), fixed.stats(), "SystemStats diverged");
    assert_eq!(deferred.bus_stats(), fixed.bus_stats(), "BusStats diverged");
    let (ha, hb) = (
        deferred.latency_hist().expect("hist enabled"),
        fixed.latency_hist().expect("hist enabled"),
    );
    assert_eq!(
        ha.to_json(),
        hb.to_json(),
        "latency histograms must be bit-identical"
    );
    assert!(ha.count() == steps, "every access histogrammed");
    for &raw in &touched {
        let addr = Addr(raw);
        assert_eq!(deferred.l2_states(addr), fixed.l2_states(addr));
    }
}

#[test]
fn flat_fixed_matches_deferred_1_cpu() {
    drive_flat_fixed(1, 30_000, 0xF1A7);
}

#[test]
fn flat_fixed_matches_deferred_4_cpus() {
    drive_flat_fixed(4, 30_000, 0xF4A7);
}

#[test]
fn flat_fixed_matches_deferred_16_cpus() {
    drive_flat_fixed(16, 40_000, 0xF16A);
}

/// Claim 2: `BankedDram` changes memory-fill *timing* and nothing else.
/// Protocol outcomes, system statistics, bus traffic, and final MOESI
/// state must match the flat system's exactly on the same stream.
#[test]
fn dram_backend_perturbs_timing_only() {
    let cpus = 8;
    let mut flat = MemorySystem::new(tiny(cpus, MemoryConfig::Flat));
    let mut dram = MemorySystem::new(tiny(cpus, MemoryConfig::BankedDram(DramConfig)));
    assert!(!flat.needs_clock());
    assert!(dram.needs_clock());

    let mut rng = SimRng::seed_from_u64(0xD8A7);
    let mut touched = std::collections::BTreeSet::new();
    let mut stamped = 0u64;
    for (step, now) in (0..40_000u64).map(|s| (s, s * 40)) {
        let (cpu, kind, addr) = next_ref(&mut rng, cpus);
        touched.insert(addr.0);
        dram.set_now(now);
        let a = flat.access(cpu, kind, addr);
        let b = dram.access(cpu, kind, addr);
        assert_eq!(a.level, b.level, "level diverged at step {step}");
        assert_eq!(
            a.writeback, b.writeback,
            "writeback diverged at step {step}"
        );
        if b.level == java_middleware_memsim::memsys::HitLevel::Memory {
            let c = b.mem_cycles.expect("DRAM stamps every fill");
            assert!(c > 0);
            stamped += 1;
        } else {
            assert_eq!(b.mem_cycles, None);
        }
    }
    assert!(stamped > 1_000, "stream must actually hit memory");

    assert_eq!(flat.stats(), dram.stats(), "SystemStats diverged");
    assert_eq!(flat.bus_stats(), dram.bus_stats(), "BusStats diverged");
    for &raw in &touched {
        let addr = Addr(raw);
        assert_eq!(flat.l2_states(addr), dram.l2_states(addr));
        for cpu in 0..cpus {
            assert_eq!(flat.l1_holds(cpu, addr), dram.l1_holds(cpu, addr));
        }
    }

    // The dram panel exists and is consistent with what the run did:
    // every stamped fill was a read request, every dirty L2 victim a
    // writeback.
    let ds = dram.dram_stats().expect("DRAM backend exposes stats");
    assert_eq!(ds.reads, stamped);
    assert_eq!(ds.writebacks, dram.stats().writebacks);
    assert_eq!(ds.row_hits + ds.row_conflicts, ds.requests());
    let hist = dram.dram_queue_hist().expect("DRAM keeps a latency hist");
    assert_eq!(hist.count(), stamped, "one hist sample per read");
    assert!(
        flat.dram_stats().is_none(),
        "flat systems have no dram panel"
    );
}

/// Claim 3: the DRAM backend is deterministic — replaying the identical
/// stream on a fresh system reproduces every statistic and histogram bit.
#[test]
fn dram_backend_is_deterministic() {
    let run = || {
        let mut sys = MemorySystem::new(tiny(4, MemoryConfig::BankedDram(DramConfig)));
        sys.enable_latency_hist(COSTS);
        let mut rng = SimRng::seed_from_u64(0xDE7E);
        for now in (0..30_000u64).map(|s| s * 25) {
            let (cpu, kind, addr) = next_ref(&mut rng, 4);
            sys.set_now(now);
            sys.access(cpu, kind, addr);
        }
        sys
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.dram_stats(), b.dram_stats());
    assert_eq!(
        a.dram_queue_hist().unwrap().to_json(),
        b.dram_queue_hist().unwrap().to_json()
    );
    assert_eq!(
        a.latency_hist().unwrap().to_json(),
        b.latency_hist().unwrap().to_json()
    );
}
