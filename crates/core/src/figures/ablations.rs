//! Ablations and secondary claims from the paper's text.
//!
//! - **ISM pages** (Sections 3.2 / 6): enabling Intimate Shared Memory
//!   (4 MB pages instead of 8 KB) improved ECperf by more than 10% by
//!   extending TLB reach over the large heap.
//! - **Path length** (Section 4.4): ECperf's instructions per BBop
//!   *decrease* as processors are added — object-level caching lets one
//!   thread reuse entities another fetched — which is how CPI can rise
//!   while throughput scales super-linearly.
//! - **Object cache** (Section 4.4's hypothesis): disabling the cache's
//!   constructive interference removes that effect.
//! - **Cache-to-cache latency** (Section 4.3): the E6000 pays ~40% over
//!   memory latency; directory-based NUMA systems pay 200–300%. The
//!   higher the penalty, the more the sharing-heavy workloads suffer.
//! - **Memory backend** (Mess/Ramulator re-evaluation): replacing the
//!   flat ~75-cycle memory with the banked-DRAM timing model makes
//!   memory latency load-dependent, which taxes exactly the misses the
//!   Figure 4/5 scaling stories are built on.

use memsys::{DramConfig, MemoryConfig};
use simcpu::LatencyTable;
use simstats::{fnum, Table};
use sysos::tlb::TlbConfig;
use workloads::ecperf::EcperfConfig;
use workloads::specjbb::SpecJbbConfig;

use crate::engine::MachineConfig;
use crate::experiment::{
    ecperf_config, ecperf_machine, ecperf_machine_with, jbb_machine_with, measure, ExperimentPlan,
};
use crate::Effort;

/// ISM ablation result.
#[derive(Debug, Clone)]
pub struct IsmAblation {
    /// Throughput with 8 KB base pages.
    pub base_pages: f64,
    /// Throughput with 4 MB ISM pages.
    pub ism_pages: f64,
}

impl IsmAblation {
    /// Relative gain from ISM.
    pub(crate) fn gain(&self) -> f64 {
        if self.base_pages <= 0.0 {
            0.0
        } else {
            self.ism_pages / self.base_pages - 1.0
        }
    }

    /// Renders the comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: Intimate Shared Memory (ECperf, 1 processor)",
            &["pages", "throughput (BBops/s)", "gain"],
        );
        t.row(&["8 KB".into(), fnum(self.base_pages), String::new()]);
        t.row(&[
            "4 MB (ISM)".into(),
            fnum(self.ism_pages),
            format!("{:+.1}%", self.gain() * 100.0),
        ]);
        t
    }

    /// The paper reports >10% from ISM. Our compressed BBops touch far
    /// fewer pages per unit of work than the real application server, so
    /// the modeled gain is smaller; the check guards the *direction*.
    pub fn shape_violations(&self) -> Vec<String> {
        if self.gain() < 0.005 {
            vec![format!(
                "ISM gain too small: {:+.1}% (paper: >10%)",
                self.gain() * 100.0
            )]
        } else {
            Vec::new()
        }
    }
}

/// Runs the ISM ablation on a uniprocessor ECperf at *full* size: TLB
/// reach only matters against the real heap (the paper's point is that
/// 64 x 8 KB of reach is nothing next to a 1.4 GB-heap application
/// server).
pub fn run_ism(plan: &ExperimentPlan) -> IsmAblation {
    let effort = plan.effort();
    let tlbs = [TlbConfig::base_pages(), TlbConfig::ism_pages()];
    let tputs = plan.run(&tlbs, |&tlb| {
        let mc = MachineConfig {
            tlb: Some(tlb),
            ..MachineConfig::e6000(1)
        };
        let mut m = ecperf_machine_with(mc, EcperfConfig::full(10));
        m.run_until(4 * effort.window());
        m.begin_measurement();
        let start = m.time();
        m.run_until(start + 4 * effort.window());
        m.window_report().throughput()
    });
    IsmAblation {
        base_pages: tputs[0],
        ism_pages: tputs[1],
    }
}

/// Path-length result: `(processors, instructions per BBop, DB round
/// trips per BBop, bean-cache hit rate)`.
#[derive(Debug, Clone)]
pub struct PathLength {
    /// The series over processor counts.
    pub points: Vec<(usize, f64, f64, f64)>,
}

/// Runs the path-length experiment over `ps`.
pub fn run_path_length(plan: &ExperimentPlan, ps: &[usize]) -> PathLength {
    let effort = plan.effort();
    let points = plan.run(ps, |&p| {
        let mut m = ecperf_machine(p, 1, effort);
        let r = measure(&mut m, effort);
        let wl = m.workload();
        let tx = wl.total_tx().max(1);
        (
            p,
            r.cpi.instructions as f64 / r.transactions.max(1) as f64,
            wl.db_roundtrips() as f64 / tx as f64,
            wl.cache().stats().hit_rate(),
        )
    });
    PathLength { points }
}

impl PathLength {
    /// Renders the series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: ECperf Path Length vs Processors (Section 4.4)",
            &["P", "instr/BBop", "DB roundtrips/BBop", "cache hit rate"],
        );
        for (p, i, rt, hr) in &self.points {
            t.row(&[
                p.to_string(),
                format!("{i:.0}"),
                format!("{rt:.2}"),
                format!("{hr:.3}"),
            ]);
        }
        t
    }

    /// The paper: instructions per BBop decrease as processors are added.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let (Some(first), Some(last)) = (self.points.first(), self.points.last()) else {
            return vec!["empty series".into()];
        };
        if last.1 >= first.1 {
            v.push(format!(
                "instructions per BBop must fall with P: {:.0} -> {:.0}",
                first.1, last.1
            ));
        }
        if last.3 <= first.3 {
            v.push(format!(
                "bean-cache hit rate must rise with P: {:.3} -> {:.3}",
                first.3, last.3
            ));
        }
        v
    }
}

/// Object-cache ablation: ECperf speedup at `p` processors with the
/// bean cache's TTL intact vs effectively disabled.
#[derive(Debug, Clone)]
pub struct ObjCacheAblation {
    /// Speedup 1 -> p with the cache.
    pub with_cache: f64,
    /// Speedup 1 -> p with a zero-TTL (always-revalidate) cache.
    pub without_cache: f64,
    /// The processor count compared.
    pub p: usize,
}

/// Runs the object-cache ablation.
pub fn run_objcache(plan: &ExperimentPlan, p: usize) -> ObjCacheAblation {
    let effort = plan.effort();
    let ttl = EcperfConfig::full(10).cache_ttl;
    let jobs = [(ttl, p), (ttl, 1), (0, p), (0, 1)];
    let tputs = plan.run(&jobs, |&(ttl, pset)| {
        let cfg = EcperfConfig {
            cache_ttl: ttl,
            ..ecperf_config(pset, effort.scale_divisor())
        };
        let mut m = ecperf_machine_with(MachineConfig::e6000(pset), cfg);
        measure(&mut m, effort).throughput()
    });
    ObjCacheAblation {
        with_cache: tputs[0] / tputs[1].max(f64::MIN_POSITIVE),
        without_cache: tputs[2] / tputs[3].max(f64::MIN_POSITIVE),
        p,
    }
}

impl ObjCacheAblation {
    /// Renders the comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Ablation: Object-Level Caching and ECperf Scaling (1 -> {}p)",
                self.p
            ),
            &["configuration", "speedup"],
        );
        t.row(&["object cache (TTL on)".into(), fnum(self.with_cache)]);
        t.row(&["revalidate always (TTL=0)".into(), fnum(self.without_cache)]);
        t
    }

    /// The constructive-interference speedup should depend on the cache.
    pub fn shape_violations(&self) -> Vec<String> {
        if self.with_cache <= self.without_cache {
            vec![format!(
                "cache must improve scaling: with {:.2} vs without {:.2}",
                self.with_cache, self.without_cache
            )]
        } else {
            Vec::new()
        }
    }
}

/// Cache-to-cache latency sensitivity: throughput at `p` processors under
/// increasing remote-fetch penalties.
#[derive(Debug, Clone)]
pub struct C2cLatency {
    /// `(c2c/memory latency factor, SPECjbb throughput, ECperf throughput)`.
    pub points: Vec<(f64, f64, f64)>,
    /// The processor count used.
    pub p: usize,
}

/// Runs the latency-sensitivity sweep.
pub fn run_c2c_latency(plan: &ExperimentPlan, p: usize) -> C2cLatency {
    let effort = plan.effort();
    let factors = [1.0, 1.4, 2.5];
    let jobs: Vec<(f64, bool)> = factors
        .iter()
        .flat_map(|&f| [(f, true), (f, false)])
        .collect();
    let tputs = plan.run(&jobs, |&(f, is_jbb)| {
        let mc = MachineConfig {
            latency: LatencyTable::e6000().with_c2c_factor(f),
            ..MachineConfig::e6000(p)
        };
        throughput(mc, is_jbb, effort)
    });
    let points = factors
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, tputs[2 * i], tputs[2 * i + 1]))
        .collect();
    C2cLatency { points, p }
}

impl C2cLatency {
    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Ablation: Cache-to-Cache Latency Sensitivity ({} processors)",
                self.p
            ),
            &["c2c / memory", "SPECjbb tput", "ECperf tput"],
        );
        for (f, j, e) in &self.points {
            t.row(&[format!("{f:.1}x"), fnum(*j), fnum(*e)]);
        }
        t
    }

    /// Higher penalties must not help.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for w in self.points.windows(2) {
            if w[1].1 > w[0].1 * 1.05 {
                v.push("SPECjbb throughput rose with c2c latency".into());
            }
            if w[1].2 > w[0].2 * 1.05 {
                v.push("ECperf throughput rose with c2c latency".into());
            }
        }
        v
    }
}

/// Memory-backend ablation: one workload's throughput under the flat
/// table vs the banked-DRAM timing model, at one and at `p` processors.
#[derive(Debug, Clone)]
pub struct MemBackendAblation {
    /// `(processors, flat throughput, DRAM throughput)`.
    pub points: Vec<(usize, f64, f64)>,
    /// The scaled-up processor count.
    pub p: usize,
    /// The workload swept ("SPECjbb" or "ECperf").
    pub workload: &'static str,
}

/// Measured throughput of the scaled workload on `mc`: SPECjbb at two
/// warehouses per processor, or the [`ecperf_config`] application
/// server.
fn throughput(mc: MachineConfig, is_jbb: bool, effort: Effort) -> f64 {
    let (pset, divisor) = (mc.pset, effort.scale_divisor());
    if is_jbb {
        let mut m = jbb_machine_with(mc, SpecJbbConfig::scaled(2 * pset, divisor));
        measure(&mut m, effort).throughput()
    } else {
        let mut m = ecperf_machine_with(mc, ecperf_config(pset, divisor));
        measure(&mut m, effort).throughput()
    }
}

/// Runs the flat-vs-DRAM ablation on SPECjbb.
pub fn run_mem_backend(plan: &ExperimentPlan, p: usize) -> MemBackendAblation {
    run_mem_backend_in(plan, p, true)
}

/// Runs the flat-vs-DRAM ablation on ECperf. The paper's two workloads
/// stress memory differently — ECperf's smaller footprint and its DB
/// round-trip waits hide part of the DRAM queueing penalty that SPECjbb
/// eats directly — so the ablation is reported for both.
pub fn run_mem_backend_ecperf(plan: &ExperimentPlan, p: usize) -> MemBackendAblation {
    run_mem_backend_in(plan, p, false)
}

fn run_mem_backend_in(plan: &ExperimentPlan, p: usize, jbb: bool) -> MemBackendAblation {
    let effort = plan.effort();
    let dram = MemoryConfig::BankedDram(DramConfig::default());
    let jobs = [
        (MemoryConfig::Flat, 1),
        (MemoryConfig::Flat, p),
        (dram, 1),
        (dram, p),
    ];
    let tputs = plan.run(&jobs, |&(memory, pset)| {
        let mut mc = MachineConfig::e6000(pset);
        mc.hierarchy.memory = memory;
        throughput(mc, jbb, effort)
    });
    MemBackendAblation {
        points: vec![(1, tputs[0], tputs[2]), (p, tputs[1], tputs[3])],
        p,
        workload: if jbb { "SPECjbb" } else { "ECperf" },
    }
}

impl MemBackendAblation {
    /// Speedup 1 -> p under one backend column.
    fn speedup(&self, dram: bool) -> f64 {
        let pick = |t: &(usize, f64, f64)| if dram { t.2 } else { t.1 };
        let base = pick(&self.points[0]).max(f64::MIN_POSITIVE);
        pick(&self.points[self.points.len() - 1]) / base
    }

    /// Renders the comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Ablation: Flat vs Banked-DRAM Memory ({}, 1 and {}p)",
                self.workload, self.p
            ),
            &["P", "flat tput", "DRAM tput", "DRAM/flat"],
        );
        for (p, flat, dram) in &self.points {
            t.row(&[
                p.to_string(),
                fnum(*flat),
                fnum(*dram),
                format!("{:.2}", dram / flat.max(f64::MIN_POSITIVE)),
            ]);
        }
        t.row(&[
            "speedup".into(),
            format!("{:.2}", self.speedup(false)),
            format!("{:.2}", self.speedup(true)),
            String::new(),
        ]);
        t
    }

    /// Contention can only tax throughput: the DRAM model must not beat
    /// flat memory, and both backends must still scale.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (p, flat, dram) in &self.points {
            if *dram > flat * 1.02 {
                v.push(format!(
                    "DRAM contention helped at {p}p: {dram:.1} vs flat {flat:.1}"
                ));
            }
        }
        if self.speedup(true) <= 1.0 {
            v.push(format!(
                "scaling must survive the DRAM model: speedup {:.2}",
                self.speedup(true)
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ism_ablation_shows_gain() {
        let a = run_ism(&ExperimentPlan::new(Effort::Quick));
        assert!(
            a.gain() > 0.0,
            "ISM should help: {} -> {}",
            a.base_pages,
            a.ism_pages
        );
    }
}
