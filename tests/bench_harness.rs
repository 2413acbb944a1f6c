//! Tier-1 coverage of the in-workspace bench harness: the same
//! `Harness`/`Bencher` pair the `cargo bench` targets use, driven at
//! smoke size over real simulator kernels, so `cargo test -q` proves
//! the cargo-bench-equivalent path end to end.

use bench::Harness;
use java_middleware_memsim::memsys::{AccessKind, Addr, MemorySystem};

#[test]
fn harness_times_the_memsys_hot_path() {
    let mut h = Harness::with(2, 2);
    let mut sys = MemorySystem::e6000(4).unwrap();
    let mut i = 0u64;
    h.bench_function("memsys/local_load", |b| {
        b.iter(|| {
            i = i.wrapping_add(64) & 0xf_ffff;
            sys.access(0, AccessKind::Load, Addr(i))
        })
    });
    let mut batch = MemorySystem::e6000(4).unwrap();
    h.bench_function("memsys/access_256", |b| {
        b.iter(|| {
            for j in 0..256u64 {
                batch.access(
                    (j % 4) as usize,
                    AccessKind::Load,
                    Addr((j * 64) & 0xf_ffff),
                );
            }
        })
    });

    let rows = h.finish();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.median_ns > 0.0 && r.iters >= 1));
    // The simulator did real work under the timer.
    assert!(sys.stats().load.accesses > 0);
    assert!(batch.stats().load.accesses >= 256);
}

#[test]
fn iter_batched_excludes_setup_cost() {
    let mut h = Harness::with(2, 1);
    h.bench_function("harness/batched", |b| {
        b.iter_batched(
            || vec![1u64; 4096], // setup, untimed
            |v| v.iter().sum::<u64>(),
        )
    });
    let rows = h.finish();
    assert_eq!(rows[0].samples, 2);
    assert!(rows[0].median_ns > 0.0);
}
