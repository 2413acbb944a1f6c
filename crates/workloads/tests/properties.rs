//! Randomized verification of the workload substrates: the object
//! B-tree against a reference map, the bean cache against a reference
//! LRU, and the Zipf sampler's distribution properties. Driven by the
//! in-tree seeded PRNG so every run exercises the same cases.

use std::collections::BTreeMap;

use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::object::ObjectId;
use memsys::{Addr, AddrRange, CountingSink};
use prng::SimRng;
use workloads::ecperf::cache::{BeanKey, CacheLookup, ObjectCache};
use workloads::objtree::ObjTree;
use workloads::zipf::ZipfSampler;

fn heap() -> Heap {
    Heap::new(
        HeapConfig {
            geometry: HeapGeometry {
                eden: 256 << 10,
                survivor: 64 << 10,
                old: 32 << 20,
            },
            tlab_bytes: 8 << 10,
        },
        AddrRange::new(Addr(0x4000_0000), 64 << 20),
    )
}

#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Insert(u16),
    Remove(u16),
    Lookup(u16),
}

fn random_tree_op(rng: &mut SimRng) -> TreeOp {
    let k = rng.gen_range(0..800u16);
    match rng.gen_range(0..3u32) {
        0 => TreeOp::Insert(k),
        1 => TreeOp::Remove(k),
        _ => TreeOp::Lookup(k),
    }
}

/// The object B-tree agrees with `BTreeMap` on every operation.
#[test]
fn objtree_matches_btreemap() {
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_ops = rng.gen_range(1..400usize);
        let ops: Vec<TreeOp> = (0..n_ops).map(|_| random_tree_op(&mut rng)).collect();

        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut tree = ObjTree::new(&mut h);
        let mut reference: BTreeMap<u64, ObjectId> = BTreeMap::new();
        for &op in &ops {
            match op {
                TreeOp::Insert(k) => {
                    let rec = h.alloc_permanent_old(64);
                    let old = tree.insert(k as u64, rec, &mut h, &mut sink);
                    let ref_old = reference.insert(k as u64, rec);
                    assert_eq!(old, ref_old, "seed {seed}: insert {k}");
                }
                TreeOp::Remove(k) => {
                    let got = tree.remove(k as u64, &h, &mut sink);
                    let expect = reference.remove(&(k as u64));
                    assert_eq!(got, expect, "seed {seed}: remove {k}");
                }
                TreeOp::Lookup(k) => {
                    let got = tree.lookup(k as u64, &h, &mut sink);
                    let expect = reference.get(&(k as u64)).copied();
                    assert_eq!(got, expect, "seed {seed}: lookup {k}");
                }
            }
            assert_eq!(tree.len(), reference.len());
            assert_eq!(tree.is_empty(), reference.is_empty());
        }
        // Full agreement at the end, via scan.
        let mut scanned = BTreeMap::new();
        tree.scan(&h, &mut sink, |k, r| {
            scanned.insert(k, r);
        });
        assert_eq!(scanned, reference, "seed {seed}: scan mismatch");
    }
}

/// The bean cache never exceeds capacity, evicts exactly the LRU
/// entry, and freshness follows the TTL.
#[test]
fn bean_cache_is_an_lru_with_ttl() {
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let capacity = rng.gen_range(2..24usize);
        let ttl = rng.gen_range(1..200u64);
        let n_keys = rng.gen_range(1..400usize);
        let keys: Vec<u64> = (0..n_keys).map(|_| rng.gen_range(0..96u64)).collect();

        let mut cache = ObjectCache::new(capacity, ttl);
        // Reference: MRU-first vec of (key, loaded_at).
        let mut reference: Vec<(u64, u64)> = Vec::new();
        for (now, &k) in keys.iter().enumerate() {
            let now = now as u64;
            let key = BeanKey::new(1, k);
            let got = cache.lookup(key, now);
            let ref_pos = reference.iter().position(|&(rk, _)| rk == k);
            match (got, ref_pos) {
                (CacheLookup::Miss, None) => {
                    // Insert; evict reference LRU if full.
                    if reference.len() == capacity {
                        reference.pop();
                    }
                    cache.insert(key, ObjectId(k as u32), now);
                    reference.insert(0, (k, now));
                }
                (CacheLookup::Hit(_), Some(pos)) => {
                    let (rk, loaded) = reference.remove(pos);
                    assert!(
                        now - loaded <= ttl,
                        "seed {seed}: hit but reference says stale"
                    );
                    reference.insert(0, (rk, loaded));
                }
                (CacheLookup::Stale(_), Some(pos)) => {
                    let (rk, loaded) = reference.remove(pos);
                    assert!(
                        now - loaded > ttl,
                        "seed {seed}: stale but reference says fresh"
                    );
                    // Refresh.
                    cache.insert(key, ObjectId(k as u32), now);
                    reference.insert(0, (rk, now));
                }
                (got, refp) => {
                    panic!(
                        "seed {seed}: cache {got:?} disagrees with reference \
                         position {refp:?} for key {k}"
                    );
                }
            }
            assert!(cache.len() <= capacity);
            assert_eq!(cache.len(), reference.len());
            assert_eq!(cache.is_empty(), reference.is_empty());
        }
    }
}

/// Zipf samples stay in the domain and lower indices are (weakly)
/// more popular for a skewed distribution.
#[test]
fn zipf_is_monotonically_skewed() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = rng.gen_range(8..256usize);
        let z = ZipfSampler::new(n, 1.0);
        let mut counts = vec![0u32; n];
        for _ in 0..4000 {
            let s = z.sample(&mut rng);
            assert!(s < n);
            counts[s] += 1;
        }
        // Head quarter beats tail quarter.
        let q = (n / 4).max(1);
        let head: u32 = counts[..q].iter().sum();
        let tail: u32 = counts[n - q..].iter().sum();
        assert!(
            head > tail,
            "seed {seed}: head {head} should beat tail {tail}"
        );
    }
}
