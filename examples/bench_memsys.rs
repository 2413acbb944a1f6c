//! Offline raw-throughput benchmark for `MemorySystem::access`: streams a
//! seeded reference mix through 1/4/16-CPU systems (plus the shared-L2
//! Figure 16 shape) and writes refs/sec to `BENCH_memsys.json`.
//!
//! The mix is miss-heavy at line granularity (per-CPU working sets 4x
//! the L2, plus a small hot shared region) but bursty *within* lines,
//! like the middleware streams the simulator exists to replay:
//! instruction fetch walks each code line in four sequential fetches,
//! a load touches two or three fields of its object, and a store pair
//! dirties adjacent words. The stream is a pure function of the seed,
//! so pre/post-optimization numbers are directly comparable.
//!
//! Run with: `cargo run --release --example bench_memsys [quick|standard|full]`

use std::time::Instant;

use memsys::{AccessKind, Addr, HierarchyConfig, MemorySystem};
use prng::SimRng;

/// Per-CPU private heap: 4 MB (4x the 1 MB L2 -> miss-heavy).
const PRIVATE_LINES: u64 = (4 << 20) / 64;
/// Per-CPU code region: 64 KB (4x the 16 KB L1I).
const CODE_LINES: u64 = (64 << 10) / 64;
/// Hot shared region: 64 KB of lines every CPU loads and stores.
const SHARED_LINES: u64 = (64 << 10) / 64;

/// References generated ahead of each timed run of `access` calls.
const BATCH: usize = 4096;

/// One generated reference: issuing processor, kind and address.
type Ref = (usize, AccessKind, Addr);

/// Generates the seeded reference stream: a pure function of the seed,
/// identical for every memory-system implementation and every driver
/// structure fed the same seed.
///
/// Each RNG draw produces a burst leader plus its within-line followers
/// (queued in `pending`, drained before the next draw): 4 sequential
/// ifetches through a code line, 2-3 load touches of an object's
/// fields, or a 2-store pair. Leaders mostly miss; followers mostly
/// hit the L1.
struct Stream {
    rng: SimRng,
    cpus: u64,
    pending: [(usize, AccessKind, u64); 3],
    npending: usize,
}

impl Stream {
    fn new(seed: u64, cpus: usize) -> Self {
        // All bench shapes have power-of-two CPU counts, so masking
        // picks the same CPU `r % cpus` would — without a hardware
        // divide per record.
        assert!(cpus.is_power_of_two());
        Stream {
            rng: SimRng::seed_from_u64(seed),
            cpus: cpus as u64,
            pending: [(0, AccessKind::Load, 0); 3],
            npending: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> (usize, AccessKind, Addr) {
        if self.npending > 0 {
            self.npending -= 1;
            let (cpu, kind, addr) = self.pending[self.npending];
            return (cpu, kind, Addr(addr));
        }
        let r = self.rng.next_u64();
        let a = self.rng.next_u64();
        let cpu = (r & (self.cpus - 1)) as usize;
        let roll = (r >> 8) % 100;
        if roll < 40 {
            // Ifetch burst: fall through a code line in 16-byte steps.
            let base = 0x0800_0000 + (cpu as u64) * 0x1_0000 + (a % CODE_LINES) * 64;
            self.pending = [
                (cpu, AccessKind::Ifetch, base + 48),
                (cpu, AccessKind::Ifetch, base + 32),
                (cpu, AccessKind::Ifetch, base + 16),
            ];
            self.npending = 3;
            (cpu, AccessKind::Ifetch, Addr(base))
        } else {
            let shared = (r >> 40) % 100 < 10;
            let base = if shared {
                0x0000_2000 + (a % SHARED_LINES) * 64
            } else {
                0x1000_0000 + (cpu as u64) * 0x40_0000 + (a % PRIVATE_LINES) * 64
            };
            if roll < 80 {
                // Load burst: two or three fields of the same object.
                let touches = if r >> 60 & 1 == 0 { 2 } else { 1 };
                self.pending[0] = (cpu, AccessKind::Load, base + 16);
                self.pending[1] = (cpu, AccessKind::Load, base + 8);
                self.npending = touches;
                (cpu, AccessKind::Load, Addr(base))
            } else {
                // Store pair: adjacent words of a dirtied line.
                self.pending[0] = (cpu, AccessKind::Store, base + 8);
                self.npending = 1;
                (cpu, AccessKind::Store, Addr(base))
            }
        }
    }

    /// Fills `batch` with up to `budget` references.
    fn fill(&mut self, batch: &mut Vec<Ref>, budget: u64) {
        batch.clear();
        for _ in 0..(BATCH as u64).min(budget) {
            batch.push(self.next());
        }
    }
}

struct ShapeResult {
    name: String,
    cpus: usize,
    cpus_per_l2: usize,
    refs_per_sec: f64,
    snoop_filter_rate: f64,
}

/// Issues `batch` in order through scalar `MemorySystem::access`.
fn issue(sys: &mut MemorySystem, batch: &[Ref]) {
    for &(cpu, kind, addr) in batch {
        sys.access(cpu, kind, addr);
    }
}

/// Streams `refs` references (after a warming prefix of `refs / 4`)
/// through `sys` and returns the timed throughput.
fn run_stream(sys: &mut MemorySystem, cpus: usize, refs: u64, seed: u64) -> f64 {
    let mut stream = Stream::new(seed, cpus);
    let mut batch: Vec<Ref> = Vec::with_capacity(BATCH);
    let mut left = refs / 4;
    while left > 0 {
        stream.fill(&mut batch, left);
        issue(sys, &batch);
        left -= batch.len() as u64;
    }
    sys.reset_stats();
    // Time only the `access` calls: the generator's RNG cost is
    // driver overhead, identical for every implementation, and leaving
    // it inside the window would dilute real simulator differences. At
    // 4096 records per batch the timer calls amortize to well under a
    // nanosecond per reference.
    let mut busy = std::time::Duration::ZERO;
    let mut left = refs;
    while left > 0 {
        stream.fill(&mut batch, left);
        let t0 = Instant::now();
        issue(sys, &batch);
        busy += t0.elapsed();
        left -= batch.len() as u64;
    }
    let secs = busy.as_secs_f64();
    assert_eq!(sys.stats().total_accesses(), refs);
    refs as f64 / secs.max(1e-9)
}

/// Timing passes per shape; the best pass is reported. The benchmark
/// often shares a core with the rest of the host, and a preemption can
/// only make a pass *slower*, so max-of-N is the noise-robust estimate
/// of what the simulator sustains. The stream is deterministic, so
/// every pass does identical work.
const PASSES: usize = 3;

fn bench_shape(cpus: usize, cpus_per_l2: usize, refs: u64, seed: u64) -> ShapeResult {
    let mut b = HierarchyConfig::builder(cpus);
    b.cpus_per_l2(cpus_per_l2);
    let cfg = b.build().expect("bench shape");
    let mut refs_per_sec = 0.0f64;
    let mut sys = MemorySystem::new(cfg);
    for pass in 0..PASSES {
        if pass > 0 {
            sys = MemorySystem::new(cfg);
        }
        refs_per_sec = refs_per_sec.max(run_stream(&mut sys, cpus, refs, seed));
    }
    let snoop_filter_rate = sys.bus_stats().snoop_filter_rate();
    let name = if cpus_per_l2 == 1 {
        format!("{cpus}cpu")
    } else {
        format!("{cpus}cpu_shared{cpus_per_l2}")
    };
    println!(
        "{name:>16}: {refs_per_sec:>12.0} refs/s  ({} L2 misses, {:.1}% snoops filtered)",
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
    let effort = std::env::args().nth(1).unwrap_or_else(|| "standard".into());
    let refs: u64 = match effort.as_str() {
        "quick" => 2_000_000,
        "full" => 40_000_000,
        _ => 10_000_000,
    };
    println!("streaming {refs} seeded references per shape...");
    let shapes = [(1usize, 1usize), (4, 1), (16, 1), (16, 4)];
    let results: Vec<ShapeResult> = shapes
        .iter()
        .map(|&(cpus, per)| bench_shape(cpus, per, refs, 0xB5EED))
        .collect();

    let mut json = String::from("{\n  \"bench\": \"memsys_access\",\n");
    json.push_str(&format!(
        "  \"provenance\": {},\n",
        probes::Provenance::capture()
            .with_workers(1)
            .with_effort(effort)
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
    std::fs::write("BENCH_memsys.json", &json).expect("write BENCH_memsys.json");
    println!("wrote BENCH_memsys.json");
}
