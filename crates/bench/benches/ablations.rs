//! Benchmarks the TLB lookup behind the ISM-pages ablation (Section 6).
//! `figures <effort> ablations` regenerates the ablation tables.

use sysos::tlb::{Tlb, TlbConfig};

fn run_ablations(c: &mut bench::Harness) {
    c.bench_function("sysos/tlb_access", |b| {
        let mut tlb = Tlb::new(TlbConfig::base_pages());
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(8 << 10) & 0xfff_ffff;
            tlb.access(memsys::Addr(a))
        })
    });
}

fn main() {
    bench::run_target(run_ablations);
}
