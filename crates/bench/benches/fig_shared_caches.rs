//! Benchmarks a shared-L2 access path, the topology behind Figure 16
//! (shared-cache CMPs). `figures <effort> 16` regenerates the figure.

use memsys::{AccessKind, Addr, HierarchyConfig, MemorySystem};

fn figure_16(c: &mut bench::Harness) {
    c.bench_function("memsys/shared_l2_8way_access", |b| {
        let mut builder = HierarchyConfig::builder(8);
        builder.cpus_per_l2(8);
        let mut sys = MemorySystem::new(builder.build().expect("8-way sharing"));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            sys.access(
                (i % 8) as usize,
                AccessKind::Load,
                Addr((i * 64) & 0xf_ffff),
            )
        })
    });
}

fn main() {
    bench::run_target(figure_16);
}
