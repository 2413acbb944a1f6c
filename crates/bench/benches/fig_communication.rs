//! Benchmarks the coherence ping-pong path behind Figures 14 and 15
//! (communication-footprint CDFs). `figures <effort> 14 15` regenerates
//! the figures.

use memsys::{AccessKind, Addr, MemorySystem};

fn figures_14_15(c: &mut bench::Harness) {
    c.bench_function("memsys/write_pingpong_2cpus", |b| {
        let mut sys = MemorySystem::e6000(2).expect("2-cpu system");
        let mut turn = 0usize;
        b.iter(|| {
            turn ^= 1;
            sys.access(turn, AccessKind::Store, Addr(0x1000))
        })
    });
}

fn main() {
    bench::run_target(figures_14_15);
}
