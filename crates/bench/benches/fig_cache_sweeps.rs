//! Benchmarks the multi-size sweep kernel behind Figures 12 and 13
//! (miss rate vs cache size). `figures <effort> 12 13` regenerates the
//! figures.

use memsys::{Addr, CacheSweep};

fn figures_12_13(c: &mut bench::Harness) {
    c.bench_function("memsys/sweep_9_sizes_per_ref", |b| {
        let mut sweep = CacheSweep::paper();
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(0x4940) & 0xff_ffff;
            sweep.access(Addr(a));
        })
    });
}

fn main() {
    bench::run_target(figures_12_13);
}
