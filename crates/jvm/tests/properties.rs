//! Randomized verification of the heap and collector, driven by the
//! in-tree seeded PRNG so every run exercises the same cases.

use jvm::alloc::Tlab;
use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::object::{Lifetime, ObjectId};
use memsys::{Addr, AddrRange, CountingSink};
use prng::SimRng;

fn small_heap() -> Heap {
    Heap::new(
        HeapConfig {
            geometry: HeapGeometry {
                eden: 256 << 10,
                survivor: 64 << 10,
                old: 1 << 20,
            },
            tlab_bytes: 8 << 10,
        },
        AddrRange::new(Addr(0x4000_0000), 8 << 20),
    )
}

/// One randomized heap operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    AllocEphemeral(u16),
    AllocSession(u16, u8),
    AllocPermanent(u16),
    FreeOldest,
    AdvanceEpoch(u8),
    MinorGc,
    MajorGc,
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0..7u32) {
        0 => Op::AllocEphemeral(rng.gen_range(32..2048u16)),
        1 => Op::AllocSession(rng.gen_range(32..1024u16), rng.gen_range(1..40u8)),
        2 => Op::AllocPermanent(rng.gen_range(32..1024u16)),
        3 => Op::FreeOldest,
        4 => Op::AdvanceEpoch(rng.gen_range(1..8u8)),
        5 => Op::MinorGc,
        _ => Op::MajorGc,
    }
}

/// Under arbitrary operation sequences: live permanent objects survive
/// every collection, their address ranges stay disjoint, and heap
/// occupancy never exceeds the configured spaces.
#[test]
fn gc_preserves_live_objects() {
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_ops = rng.gen_range(1..120usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();

        let mut heap = small_heap();
        let mut tlab = Tlab::new();
        let mut sink = CountingSink::new();
        let mut live_permanent: Vec<ObjectId> = Vec::new();

        for &op in &ops {
            match op {
                Op::AllocEphemeral(size) => {
                    if tlab
                        .alloc(&mut heap, size as u32, Lifetime::Ephemeral, &mut sink)
                        .ok()
                        .is_some()
                    {
                        // ephemeral: forgotten immediately
                    } else {
                        tlab.retire();
                        heap.minor_gc(&mut sink);
                    }
                }
                Op::AllocSession(size, epochs) => {
                    let lt = Lifetime::Session {
                        expires_epoch: heap.epoch() + epochs as u64,
                    };
                    if tlab
                        .alloc(&mut heap, size as u32, lt, &mut sink)
                        .ok()
                        .is_none()
                    {
                        tlab.retire();
                        heap.minor_gc(&mut sink);
                    }
                }
                Op::AllocPermanent(size) => {
                    match tlab
                        .alloc(&mut heap, size as u32, Lifetime::Permanent, &mut sink)
                        .ok()
                    {
                        Some(id) => live_permanent.push(id),
                        None => {
                            tlab.retire();
                            heap.minor_gc(&mut sink);
                        }
                    }
                }
                Op::FreeOldest => {
                    if !live_permanent.is_empty() {
                        let id = live_permanent.remove(0);
                        heap.free(id);
                    }
                }
                Op::AdvanceEpoch(n) => heap.advance_epoch(n as u64),
                Op::MinorGc => {
                    tlab.retire();
                    heap.minor_gc(&mut sink);
                }
                Op::MajorGc => {
                    heap.major_gc(&mut sink);
                }
            }

            // Invariant: all live permanents are still live.
            for &id in &live_permanent {
                assert!(heap.is_live(id), "seed {seed}: permanent {id:?} died");
            }
            // Invariant: live permanent ranges are pairwise disjoint.
            for i in 0..live_permanent.len() {
                for j in (i + 1)..live_permanent.len() {
                    let a = heap.range_of(live_permanent[i]);
                    let b = heap.range_of(live_permanent[j]);
                    assert!(!a.overlaps(&b), "seed {seed}: {a} overlaps {b}");
                }
            }
            // Invariant: occupancy bounded by the configured spaces.
            assert!(heap.occupied_bytes() <= (64 << 10) + (1 << 20));
        }

        // Final full collection: occupancy equals the live permanents
        // plus survivors of unexpired sessions.
        tlab.retire();
        heap.minor_gc(&mut sink);
        heap.major_gc(&mut sink);
        let live_bytes: u64 = live_permanent
            .iter()
            .map(|&id| heap.size_of(id) as u64)
            .sum();
        assert!(
            heap.occupied_bytes() >= live_bytes,
            "seed {seed}: occupancy {} below live permanent bytes {live_bytes}",
            heap.occupied_bytes()
        );
    }
}

/// Collection moves objects only between the configured spaces and
/// never loses allocated-byte accounting.
#[test]
fn statistics_are_monotone() {
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_sizes = rng.gen_range(1..200usize);
        let sizes: Vec<u32> = (0..n_sizes).map(|_| rng.gen_range(32..4096u32)).collect();
        let mut heap = small_heap();
        let mut tlab = Tlab::new();
        let mut sink = CountingSink::new();
        let mut allocated = 0u64;
        for &size in &sizes {
            match tlab
                .alloc(&mut heap, size, Lifetime::Ephemeral, &mut sink)
                .ok()
            {
                Some(id) => allocated += heap.size_of(id) as u64,
                None => {
                    tlab.retire();
                    heap.minor_gc(&mut sink);
                }
            }
        }
        assert!(heap.stats().allocated_bytes >= allocated);
        assert!(heap.stats().allocated_objects <= sizes.len() as u64);
    }
}
