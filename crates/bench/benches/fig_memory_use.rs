//! Benchmarks heap allocation throughput, the path behind Figure 11
//! (live memory vs scale factor). `figures <effort> 11` regenerates the
//! figure.

use jvm::alloc::Tlab;
use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::object::Lifetime;
use memsys::{Addr, AddrRange, CountingSink};

fn figure_11(c: &mut bench::Harness) {
    c.bench_function("jvm/tlab_alloc_256B", |b| {
        let mut heap = Heap::new(
            HeapConfig {
                geometry: HeapGeometry {
                    eden: 256 << 20,
                    survivor: 16 << 20,
                    old: 64 << 20,
                },
                tenure_age: 1,
                tlab_bytes: 64 << 10,
            },
            AddrRange::new(Addr(0x4000_0000), 512 << 20),
        );
        let mut tlab = Tlab::new();
        let mut sink = CountingSink::new();
        b.iter(|| {
            if tlab
                .alloc(&mut heap, 256, Lifetime::Ephemeral, &mut sink)
                .ok()
                .is_none()
            {
                let _ = heap.minor_gc(&mut sink);
                tlab.retire();
            }
        })
    });
}

fn main() {
    bench::run_target(figure_11);
}
