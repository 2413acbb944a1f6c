//! Trace capture and replay through the observer seam: the paper's
//! Simics → Sumo pipeline (Section 3.3) as a two-line workflow.
//!
//! Captures a live SPECjbb window, replays it into a fresh memory
//! system, and shows the replay reproducing the live statistics exactly;
//! then filters the capture down to half the processors — the same
//! reduction the paper applies to isolate the application-server tier —
//! and replays both halves as one batch on the experiment plan.
//!
//! Run with: `cargo run --release --example trace_replay [archive.mtrc]`
//!
//! With a path argument the capture is also archived in the compact
//! on-disk format (`SystemTrace::write_to`), reloaded, and the replay
//! runs from the reloaded copy — the paper's capture-once, simulate-many
//! workflow.

use memsys::{Addr, AddrRange, SystemTrace};
use middlesim::engine::TraceObserver;
use middlesim::{replay_trace, replay_traces, Effort, ExperimentPlan, Machine, MachineConfig};
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

const MCYCLES: u64 = 1_000_000;

fn main() {
    let pset = 4;
    println!("capturing a SPECjbb window on {pset} processors...");
    let cfg = SpecJbbConfig::scaled(2 * pset, 64);
    let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
    let mc = MachineConfig::e6000(pset);
    let mut m = Machine::new(mc, SpecJbb::new(cfg, region));
    let handle = m.attach_observer(TraceObserver::new());
    m.run_until(4 * MCYCLES);
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + 8 * MCYCLES);

    let mut trace = m.observer(handle).trace().clone();
    let live = m.memory().stats().clone();
    println!(
        "captured {} references / {} instructions ({} in-window)",
        trace.refs(),
        trace.instructions(),
        trace.window_instructions()
    );

    // Optional archive step: write the capture to disk, reload it, and
    // replay from the reloaded copy.
    if let Some(path) = std::env::args().nth(1) {
        let file = std::fs::File::create(&path).expect("create trace archive");
        trace.write_to(file).expect("write trace archive");
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let reloaded = SystemTrace::read_from(std::fs::File::open(&path).expect("open archive"))
            .expect("read trace archive");
        assert_eq!(reloaded, trace, "disk round-trip must be the identity");
        println!(
            "archived to {path}: {bytes} bytes ({:.1} bytes/event vs 16 in memory); reload is identical",
            bytes as f64 / trace.len().max(1) as f64
        );
        trace = reloaded;
    }

    println!("replaying into a fresh memory system...");
    let replay = replay_trace(&trace, m.memory().config());
    println!(
        "live   window: {:>9} L2 data misses, {:>7} upgrades, {:>7} c2c",
        live.data().l2_misses,
        live.data().upgrades,
        live.data().c2c
    );
    println!(
        "replay window: {:>9} L2 data misses, {:>7} upgrades, {:>7} c2c",
        replay.stats.data().l2_misses,
        replay.stats.data().upgrades,
        replay.stats.data().c2c
    );
    assert_eq!(replay.stats, live);
    println!(
        "replay snoops: {:>9} sent, {:>9} filtered by the snoop filter ({:.1}%)",
        replay.bus.snoops_sent,
        replay.bus.snoops_filtered,
        replay.bus.snoop_filter_rate() * 100.0
    );
    println!("replay reproduces the live window bit-for-bit.\n");

    // The paper's filter: keep only a processor subset, replay the
    // reduced trace — here both halves, batched through the plan.
    let lo = trace.filtered_cpus(|cpu| cpu < pset / 2);
    let hi = trace.filtered_cpus(|cpu| cpu >= pset / 2);
    println!(
        "filtering to processor halves: {} + {} references",
        lo.refs(),
        hi.refs()
    );
    let plan = ExperimentPlan::new(Effort::Quick);
    let halves = replay_traces(&plan, &[lo, hi], m.memory().config());
    for (name, r) in ["low half", "high half"].iter().zip(&halves) {
        println!(
            "{name}: {:.2} data misses / 1000 instructions",
            r.data_miss_per_kilo()
        );
    }
    println!("\nThis is how the paper isolates the middle tier: capture the");
    println!("cluster, filter to the application server's processors, and");
    println!("study the reduced trace in the memory-system simulator.");
}
