//! Benchmarks a minor collection, the pause behind Figure 10's
//! cache-to-cache collapse during GC. `figures <effort> 10` regenerates
//! the figure.

use jvm::alloc::Tlab;
use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::object::Lifetime;
use memsys::{Addr, AddrRange, CountingSink};

fn figure_10(c: &mut bench::Harness) {
    c.bench_function("jvm/minor_gc_1MB_live", |b| {
        b.iter_batched(
            || {
                let mut heap = Heap::new(
                    HeapConfig {
                        geometry: HeapGeometry {
                            eden: 8 << 20,
                            survivor: 2 << 20,
                            old: 32 << 20,
                        },
                        tenure_age: 1,
                        tlab_bytes: 64 << 10,
                    },
                    AddrRange::new(Addr(0x4000_0000), 64 << 20),
                );
                let mut tlab = Tlab::new();
                let mut sink = CountingSink::new();
                for _ in 0..1024 {
                    let _ = tlab.alloc(
                        &mut heap,
                        1024,
                        Lifetime::Session {
                            expires_epoch: u64::MAX,
                        },
                        &mut sink,
                    );
                }
                heap
            },
            |mut heap| {
                let mut sink = CountingSink::new();
                heap.minor_gc(&mut sink);
            },
        )
    });
}

fn main() {
    bench::run_target(figure_10);
}
