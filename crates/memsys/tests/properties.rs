//! Randomized verification of the coherence model's invariants, driven by
//! the in-tree seeded PRNG. The cache's reference-model tests live in
//! `cache.rs`'s unit tests, where they can interleave invalidations.

use prng::SimRng;

use memsys::{AccessKind, Addr, AddrRange, CacheConfig, HierarchyConfig, LineState, MemorySystem};

/// Coherence single-writer invariant: after any access stream, no line
/// is dirty/exclusive in one L2 while valid in another.
#[test]
fn single_writer_invariant() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = rng.gen_range(1..400usize);
        let mut sys = MemorySystem::e6000(4).unwrap();
        let mut touched = std::collections::HashSet::new();
        for _ in 0..n {
            let cpu = rng.gen_range(0..4usize);
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            let addr = Addr(rng.gen_range(0..64u64) * 64);
            touched.insert(addr);
            sys.access(cpu, kind, addr);
        }
        for &addr in &touched {
            let states = sys.l2_states(addr);
            let exclusive_holders = states
                .iter()
                .filter(|s| matches!(s, LineState::Modified | LineState::Exclusive))
                .count();
            let valid_holders = states.iter().filter(|s| s.is_valid()).count();
            assert!(
                exclusive_holders <= 1,
                "seed {seed}: two exclusive holders of {addr}: {states:?}"
            );
            if exclusive_holders == 1 {
                assert_eq!(
                    valid_holders, 1,
                    "seed {seed}: M/E must be the only copy of {addr}: {states:?}"
                );
            }
            let owners = states
                .iter()
                .filter(|s| matches!(s, LineState::Owned))
                .count();
            assert!(owners <= 1, "seed {seed}: two owners of {addr}: {states:?}");
        }
    }
}

/// L1 inclusion: an L1 never holds a line its L2 group lost.
#[test]
fn l1_inclusion_invariant() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = rng.gen_range(1..500usize);
        // Tiny 4-way L2s (4 sets) to force evictions.
        let mut b = HierarchyConfig::builder(2);
        b.l2(CacheConfig::new(1024, 4, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut sys = MemorySystem::new(b.build().unwrap());
        let mut touched = std::collections::HashSet::new();
        for _ in 0..n {
            let cpu = rng.gen_range(0..2usize);
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            let addr = Addr(rng.gen_range(0..512u64) * 64);
            touched.insert(addr);
            sys.access(cpu, kind, addr);
        }
        let cfg = *sys.config();
        for &addr in &touched {
            let states = sys.l2_states(addr);
            for cpu in 0..2 {
                if sys.l1_holds(cpu, addr) {
                    let group = cfg.l2_group(cpu);
                    assert!(
                        states[group].is_valid(),
                        "seed {seed}: L1 of cpu {cpu} holds {addr} but its L2 lost it"
                    );
                }
            }
        }
    }
}

/// Miss accounting: l1 misses >= l2 misses, c2c <= l2 misses, and
/// accesses add up.
#[test]
fn counter_consistency() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = rng.gen_range(1..500usize);
        let mut sys = MemorySystem::e6000(4).unwrap();
        for _ in 0..n {
            let cpu = rng.gen_range(0..4usize);
            let kind = match rng.gen_range(0..3u32) {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => AccessKind::Ifetch,
            };
            sys.access(cpu, kind, Addr(rng.gen_range(0..256u64) * 64));
        }
        let st = sys.stats();
        assert_eq!(st.total_accesses(), n as u64);
        for k in [&st.ifetch, &st.load, &st.store] {
            assert!(k.l1_misses <= k.accesses);
            assert!(k.l2_misses <= k.l1_misses);
            assert!(k.c2c <= k.l2_misses);
        }
        let per_cpu: u64 = st.l2_misses_by_cpu.iter().sum();
        assert_eq!(per_cpu, st.total_l2_misses());
    }
}

/// AddrRange::take splits a range into disjoint, exhaustive pieces.
#[test]
fn range_take_partitions() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let start = rng.gen_range(0..1_000_000u64);
        let n = rng.gen_range(1..20usize);
        let lens: Vec<u64> = (0..n).map(|_| rng.gen_range(1..4096u64)).collect();
        let total: u64 = lens.iter().sum();
        let mut range = AddrRange::new(Addr(start), total);
        let mut cursor = start;
        for &len in &lens {
            let piece = range.take(len).expect("sized exactly");
            assert_eq!(piece.start(), Addr(cursor));
            assert_eq!(piece.len(), len);
            cursor += len;
        }
        assert!(range.is_empty());
    }
}
