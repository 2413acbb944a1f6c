//! Offline raw-throughput benchmark for `MemorySystem::access` on real
//! reference streams: for each of four shapes (1/4/16 CPUs with private
//! L2s, plus the shared-L2 Figure 16 shape) it captures a seeded SPECjbb
//! run's interleaved stream in process, replays it through scalar
//! `access` and writes refs/sec to `BENCH_memsys.json`. Only a standard
//! run writes that tracked file; quick and full runs write
//! `target/BENCH_memsys.<effort>.json`, so a CI-sized run never replaces
//! the committed baseline.
//!
//! The capture is a pure function of the shape and effort, so two runs
//! replay identical streams and pre/post-optimization numbers are
//! directly comparable.
//!
//! Run with: `cargo run --release --example bench_memsys [quick|standard|full]`

use std::time::Instant;

use memsys::{Addr, AddrRange, HierarchyConfig, MemorySystem, SystemTrace, SystemTraceEvent};
use middlesim::engine::{Machine, MachineConfig, TraceObserver};
use middlesim::experiment::WORKLOAD_BASE;
use middlesim::Effort;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

/// Simulated cycles per capture slice: the capture stops at the first
/// slice boundary past the references it needs.
const SLICE_CYCLES: u64 = 1_000_000;

struct ShapeResult {
    name: String,
    cpus: usize,
    cpus_per_l2: usize,
    refs_per_sec: f64,
    snoop_filter_rate: f64,
}

/// Captures at least `needed` references of a seeded SPECjbb run (two
/// warehouses per CPU at `effort`'s scale) on `hierarchy`, after the
/// effort's warm-up.
fn capture(hierarchy: HierarchyConfig, effort: Effort, needed: u64) -> SystemTrace {
    let cfg = SpecJbbConfig::scaled(2 * hierarchy.cpus, effort.scale_divisor());
    let region = AddrRange::new(Addr(WORKLOAD_BASE), cfg.required_bytes());
    let mut m = Machine::new(
        MachineConfig::dedicated(hierarchy),
        SpecJbb::new(cfg, region),
    );
    m.run_until(effort.warmup());
    let observer = m.attach_observer(TraceObserver::new());
    // Count only the events each slice appended: `SystemTrace::refs`
    // rescans the whole capture.
    let (mut refs, mut scanned) = (0u64, 0usize);
    while refs < needed {
        let horizon = m.time() + SLICE_CYCLES;
        m.run_until(horizon);
        let events = &m.observer(observer).trace().events()[scanned..];
        refs += events
            .iter()
            .filter(|e| matches!(e, SystemTraceEvent::Ref { .. }))
            .count() as u64;
        scanned += events.len();
    }
    std::mem::take(m.observer_mut(observer)).into_trace()
}

/// Issues the first `n` references of `events` through scalar `access`
/// and returns the events after them.
fn issue<'a>(
    sys: &mut MemorySystem,
    events: &'a [SystemTraceEvent],
    n: u64,
) -> &'a [SystemTraceEvent] {
    let mut left = n;
    for (i, e) in events.iter().enumerate() {
        if left == 0 {
            return &events[i..];
        }
        if let SystemTraceEvent::Ref {
            cpu, kind, addr, ..
        } = *e
        {
            sys.access(cpu as usize, kind, addr);
            left -= 1;
        }
    }
    assert_eq!(left, 0, "capture holds fewer than {n} references");
    &[]
}

/// Replays `refs` references (after a warming prefix of `refs / 4`)
/// from `trace` through `sys` and returns the timed throughput.
fn run_stream(sys: &mut MemorySystem, trace: &SystemTrace, refs: u64) -> f64 {
    let timed = issue(sys, trace.events(), refs / 4);
    sys.reset_stats();
    let t0 = Instant::now();
    issue(sys, timed, refs);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sys.stats().total_accesses(), refs);
    refs as f64 / secs.max(1e-9)
}

/// Timing passes per shape; the best pass is reported. The benchmark
/// often shares a core with the rest of the host, and a preemption can
/// only make a pass *slower*, so max-of-N is the noise-robust estimate
/// of what the simulator sustains. The capture is replayed from the
/// start each pass, so every pass does identical work.
const PASSES: usize = 3;

fn bench_shape(cpus: usize, cpus_per_l2: usize, effort: Effort, refs: u64) -> ShapeResult {
    let mut b = HierarchyConfig::builder(cpus);
    b.cpus_per_l2(cpus_per_l2);
    let cfg = b.build().expect("bench shape");
    let t = Instant::now();
    let trace = capture(cfg, effort, refs + refs / 4);
    let capture_secs = t.elapsed().as_secs_f64();
    let mut refs_per_sec = 0.0f64;
    let mut sys = MemorySystem::new(cfg);
    for pass in 0..PASSES {
        if pass > 0 {
            sys = MemorySystem::new(cfg);
        }
        refs_per_sec = refs_per_sec.max(run_stream(&mut sys, &trace, refs));
    }
    let snoop_filter_rate = sys.bus_stats().snoop_filter_rate();
    let name = if cpus_per_l2 == 1 {
        format!("{cpus}cpu")
    } else {
        format!("{cpus}cpu_shared{cpus_per_l2}")
    };
    println!(
        "{name:>16}: {refs_per_sec:>12.0} refs/s  ({} L2 misses, {:.1}% snoops filtered; capture {capture_secs:.1}s)",
        sys.stats().total_l2_misses(),
        snoop_filter_rate * 100.0,
    );
    ShapeResult {
        name,
        cpus,
        cpus_per_l2,
        refs_per_sec,
        snoop_filter_rate,
    }
}

fn main() {
    let effort = match std::env::args().nth(1) {
        None => Effort::Standard,
        Some(arg) => Effort::parse(&arg).unwrap_or_else(|| {
            eprintln!("usage: bench_memsys [quick|standard|full]");
            std::process::exit(2)
        }),
    };
    let refs: u64 = match effort {
        Effort::Quick => 2_000_000,
        Effort::Standard => 10_000_000,
        Effort::Full => 40_000_000,
    };
    println!("replaying {refs} captured SPECjbb references per shape...");
    // One shape at a time: each capture holds only one stream alive.
    let shapes = [(1usize, 1usize), (4, 1), (16, 1), (16, 4)];
    let results: Vec<ShapeResult> = shapes
        .iter()
        .map(|&(cpus, per)| bench_shape(cpus, per, effort, refs))
        .collect();

    let mut json = String::from("{\n  \"bench\": \"memsys_access\",\n");
    json.push_str(&format!(
        "  \"provenance\": {},\n",
        probes::Provenance::capture()
            .with_workers(1)
            .with_effort(effort.name())
            .to_json()
    ));
    json.push_str(&format!("  \"refs_per_shape\": {refs},\n  \"shapes\": [\n"));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"cpus\": {}, \"cpus_per_l2\": {}, ",
                "\"refs_per_sec\": {:.0}, \"snoop_filter_rate\": {:.4}}}{}\n"
            ),
            r.name,
            r.cpus,
            r.cpus_per_l2,
            r.refs_per_sec,
            r.snoop_filter_rate,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = match effort {
        Effort::Standard => "BENCH_memsys.json".to_string(),
        _ => {
            std::fs::create_dir_all("target").expect("create target/");
            format!("target/BENCH_memsys.{}.json", effort.name())
        }
    };
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
