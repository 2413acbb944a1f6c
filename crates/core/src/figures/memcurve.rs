//! Mess-style bandwidth–latency curves for the banked-DRAM backend.
//!
//! The Mess benchmark methodology characterizes a memory system not by a
//! single latency number but by the full curve of latency vs applied
//! load, one curve per read/write mix: latency is flat near idle, bends
//! as queues form, and blows up at the bandwidth ceiling. A flat-latency
//! model is a horizontal line on this plot — the curve *is* the
//! difference the [`BankedDram`] backend introduces.
//!
//! Each experiment job drives one backend instance open-loop with a
//! deterministic synthetic request stream (part streaming, part random,
//! a fixed write fraction) at a fixed applied load — a fraction of the
//! channels' aggregate line bandwidth — and reports the read-latency
//! histogram. The address/kind stream is seeded *per mix*, so every load
//! point of a mix replays the identical reference sequence with scaled
//! inter-arrival gaps; queueing theory (the Lindley recursion is
//! monotone in arrival times) then guarantees mean latency is
//! non-decreasing in applied load, which `shape_violations` checks and
//! the acceptance criteria rely on.

use memsys::backend::dram::{BANKS, CHANNELS, CHANNEL_CYCLES, T_ROW_CONFLICT, T_ROW_HIT};
use memsys::{Addr, BankedDram, MemoryBackend, LINE_BITS};
use prng::SimRng;
use probes::registry::Snapshot;
use probes::Histogram;
use simstats::Table;

use crate::experiment::{ExperimentPlan, JobTelemetry};
use crate::Effort;

/// Write fractions (percent of requests) — one curve per mix.
pub const WRITE_MIXES: [u32; 3] = [0, 20, 50];

/// Applied load per curve point, in permille of the channels' aggregate
/// line bandwidth. The last point sits just under saturation, where the
/// bounded queues are persistently full and the curve bends hardest.
pub const LOAD_PERMILLE: [u64; 7] = [100, 250, 400, 550, 700, 850, 950];

/// Lines in the synthetic footprint (64 MB at 64 B lines): far beyond
/// the row buffers, so random jumps conflict and streams hit.
const FOOTPRINT_LINES: u64 = 1 << 20;

/// Probability that a request continues the current sequential stream
/// instead of jumping to a random line. Half streaming gives every mix a
/// row-hit population without hiding the conflict cost.
const STREAM_P: f64 = 0.5;

/// One measured point of one curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Write percentage of the mix.
    pub write_pct: u32,
    /// Applied load in permille of peak bandwidth.
    pub load_permille: u64,
    /// Mean read latency in cycles.
    pub mean_latency: f64,
    /// Median read latency (log2-bucketed) in cycles.
    pub p50: u64,
    /// 99th-percentile read latency in cycles.
    pub p99: u64,
    /// Fraction of requests hitting an open row.
    pub row_hit_rate: f64,
    /// Requests that found their channel queue full.
    pub queue_stalls: u64,
    /// Reads serviced (histogram population).
    pub reads: u64,
}

/// The bandwidth–latency characterization: `WRITE_MIXES.len()` curves of
/// `LOAD_PERMILLE.len()` points each, in (mix-major) input order.
#[derive(Debug, Clone)]
pub struct MemCurve {
    /// All measured points, grouped by mix, each mix ordered by load.
    pub points: Vec<CurvePoint>,
}

/// Requests per curve point at an effort level.
fn requests(effort: Effort) -> u64 {
    match effort {
        Effort::Quick => 20_000,
        Effort::Standard => 100_000,
        Effort::Full => 400_000,
    }
}

/// Drives one backend at one (mix, load) point; returns the point plus
/// the raw counters and read-latency histogram for the run log.
fn drive(write_pct: u32, load_permille: u64, n: u64) -> (CurvePoint, memsys::DramStats, Histogram) {
    let mut d = BankedDram::default();
    // Seeded per mix only: every load point of a mix replays the same
    // address/kind sequence, which is what makes the curve provably
    // monotone in load.
    let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ u64::from(write_pct));
    let mut stream_line = 0u64;
    // Mean inter-arrival gap for an applied load of `load_permille/1000`
    // of peak: peak is one line per `CHANNEL_CYCLES / CHANNELS` cycles.
    let gap_num = CHANNEL_CYCLES * 1000;
    let gap_den = u64::from(CHANNELS) * load_permille;
    for i in 0..n {
        let now = i * gap_num / gap_den;
        let line = if rng.gen_f64() < STREAM_P {
            stream_line = (stream_line + 1) % FOOTPRINT_LINES;
            stream_line
        } else {
            stream_line = rng.bounded_u64(FOOTPRINT_LINES);
            stream_line
        };
        let addr = Addr(line << LINE_BITS);
        if rng.gen_bool(f64::from(write_pct) / 100.0) {
            d.writeback(addr, now);
        } else {
            d.fetch(addr, now);
        }
    }
    let hist = d.hist().clone();
    let s = *d.stats();
    let point = CurvePoint {
        write_pct,
        load_permille,
        mean_latency: hist.mean(),
        p50: hist.p50(),
        p99: hist.p99(),
        row_hit_rate: s.row_hit_rate(),
        queue_stalls: s.queue_stalls,
        reads: s.reads,
    };
    (point, s, hist)
}

/// Runs the characterization as jobs of `plan` (one job per curve
/// point). Each job's DRAM counters ride on its span and its
/// read-latency histogram streams into the run log as
/// `dram.queue_latency`, so `simreport --simstat` can render the curve
/// straight from `RUNLOG_figures.jsonl`.
pub fn run(plan: &ExperimentPlan) -> MemCurve {
    let n = requests(plan.effort());
    let jobs: Vec<(u32, u64)> = WRITE_MIXES
        .iter()
        .flat_map(|&w| LOAD_PERMILLE.iter().map(move |&l| (w, l)))
        .collect();
    let labels = jobs
        .iter()
        .map(|(w, l)| format!("memcurve:w{w}:l{l}"))
        .collect();
    let points = plan.clone().with_job_labels(labels).run_telemetry(
        &jobs,
        // Higher loads service the same request count in less virtual
        // time but queue more; wall cost is flat, so hint by position.
        |_| 1,
        |&(write_pct, load_permille)| {
            let (point, stats, hist) = drive(write_pct, load_permille, n);
            let mut snap = Snapshot::new();
            snap.record(&stats);
            let tele = JobTelemetry {
                counters: Some(snap),
                hists: vec![("dram.queue_latency".to_string(), hist)],
                ..JobTelemetry::default()
            };
            (point, tele)
        },
    );
    MemCurve { points }
}

impl MemCurve {
    /// The points of one mix, in load order.
    pub(crate) fn mix(&self, write_pct: u32) -> Vec<&CurvePoint> {
        self.points
            .iter()
            .filter(|p| p.write_pct == write_pct)
            .collect()
    }

    /// Renders the curves.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Bandwidth-Latency Curves (BankedDram: {} ch x {} banks, hit {} / conflict {})",
                CHANNELS, BANKS, T_ROW_HIT, T_ROW_CONFLICT
            ),
            &[
                "writes",
                "load",
                "mean lat",
                "p50",
                "p99",
                "row hits",
                "queue stalls",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{}%", p.write_pct),
                format!("{:.1}%", p.load_permille as f64 / 10.0),
                format!("{:.1}", p.mean_latency),
                p.p50.to_string(),
                p.p99.to_string(),
                format!("{:.2}", p.row_hit_rate),
                p.queue_stalls.to_string(),
            ]);
        }
        t
    }

    /// The curves as CSV (the `MEMCURVE.csv` artifact).
    pub fn csv(&self) -> String {
        let mut s = String::from(
            "write_pct,load_permille,mean_latency,p50,p99,row_hit_rate,queue_stalls,reads\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{},{},{:.2},{},{},{:.4},{},{}\n",
                p.write_pct,
                p.load_permille,
                p.mean_latency,
                p.p50,
                p.p99,
                p.row_hit_rate,
                p.queue_stalls,
                p.reads
            ));
        }
        s
    }

    /// The Mess shape: within each mix, mean latency is monotonically
    /// non-decreasing in applied load, and the loaded end of the curve
    /// sits well above the unloaded end (the curve actually bends).
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for &w in &WRITE_MIXES {
            let mix = self.mix(w);
            if mix.len() != LOAD_PERMILLE.len() {
                v.push(format!(
                    "mix {w}% has {} of {} points",
                    mix.len(),
                    LOAD_PERMILLE.len()
                ));
                continue;
            }
            for pair in mix.windows(2) {
                if pair[1].mean_latency < pair[0].mean_latency {
                    v.push(format!(
                        "mix {w}%: latency fell with load ({:.1} @ {} -> {:.1} @ {})",
                        pair[0].mean_latency,
                        pair[0].load_permille,
                        pair[1].mean_latency,
                        pair[1].load_permille
                    ));
                }
            }
            let (first, last) = (mix[0], mix[mix.len() - 1]);
            if last.mean_latency < first.mean_latency * 1.5 {
                v.push(format!(
                    "mix {w}%: curve barely bends ({:.1} -> {:.1})",
                    first.mean_latency, last.mean_latency
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_curves_are_monotone_and_bend() {
        let c = run(&ExperimentPlan::new(Effort::Quick));
        assert_eq!(c.points.len(), WRITE_MIXES.len() * LOAD_PERMILLE.len());
        assert_eq!(c.shape_violations(), Vec::<String>::new());
        assert!(c.csv().lines().count() == c.points.len() + 1);
        assert!(c.table().to_string().contains("Bandwidth-Latency"));
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let serial = ExperimentPlan::serial(Effort::Quick);
        let parallel = ExperimentPlan::new(Effort::Quick).with_threads(4);
        let a = run(&serial);
        let b = run(&parallel);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.mean_latency.to_bits(), y.mean_latency.to_bits());
            assert_eq!(x.queue_stalls, y.queue_stalls);
        }
    }

    #[test]
    fn writes_steal_read_bandwidth() {
        let c = run(&ExperimentPlan::new(Effort::Quick));
        // At the loaded end, the write-heavy mix's reads wait behind
        // write transfers they share channels with.
        let ro = c.mix(0)[LOAD_PERMILLE.len() - 1].mean_latency;
        let rw = c.mix(50)[LOAD_PERMILLE.len() - 1].mean_latency;
        assert!(
            rw > ro * 0.5,
            "write-heavy reads should still queue: ro={ro:.1} rw={rw:.1}"
        );
    }
}
