//! Benchmarks the engine's window-extension kernel, the work behind the
//! Figures 4–9 scaling sweep. `figures <effort> 4` regenerates the
//! figures.

use middlesim::{jbb_machine, Effort};

fn figures_4_to_9(c: &mut bench::Harness) {
    // Timing kernel: extend a warm 4-processor SPECjbb machine by 2M
    // simulated cycles per iteration.
    let mut machine = jbb_machine(4, 8, 1, Effort::Quick);
    machine.run_until(10_000_000);
    let mut horizon = machine.time();
    c.bench_function("engine/jbb_4p_2Mcycles", |b| {
        b.iter(|| {
            horizon += 2_000_000;
            machine.run_until(horizon);
        })
    });
}

fn main() {
    bench::run_target(figures_4_to_9);
}
