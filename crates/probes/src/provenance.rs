//! Host/commit provenance stamped into RunLogs and `BENCH_*.json`.
//!
//! Archived benchmark numbers are only comparable if they say where
//! they came from; before this module `bench_smoke.sh` silently
//! overwrote `BENCH_memsys.json` with no record of host or commit.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::runlog::{Codec, Fields};

/// Where and when a result was produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Short git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Host the run executed on, or `"unknown"`.
    pub hostname: String,
    /// Hardware parallelism available to the run.
    pub cpu_count: usize,
    /// UNIX timestamp (seconds) when the provenance was captured.
    pub timestamp: u64,
    /// Worker threads the run actually used (`None` when the producer
    /// has no worker pool). Distinct from `cpu_count`: a 16-cpu
    /// *simulated* shape benchmarked by a single-threaded driver
    /// records `cpu_count` = host parallelism, `workers` = 1.
    pub workers: Option<usize>,
    /// Effort level the run was sized at (e.g. `"quick"`), when the
    /// producer has one.
    pub effort: Option<String>,
    /// Simulation mode the run executed under (`"full"` or
    /// `"sampled"`), when the producer has one. Sampled-mode counters
    /// are extrapolated estimates, so comparing them against full-mode
    /// numbers is a category error — `simdiff` refuses the comparison.
    pub sim_mode: Option<String>,
}

impl Provenance {
    /// Captures provenance from the current environment. Every probe
    /// degrades to a placeholder rather than failing: provenance must
    /// never abort a benchmark.
    pub fn capture() -> Self {
        Provenance {
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            hostname: hostname().unwrap_or_else(|| "unknown".into()),
            cpu_count: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            timestamp: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            workers: None,
            effort: None,
            sim_mode: None,
        }
    }

    /// Records the worker-thread count the run used.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Records the effort level the run was sized at.
    pub fn with_effort(mut self, effort: impl Into<String>) -> Self {
        self.effort = Some(effort.into());
        self
    }

    /// Records the simulation mode the run executed under.
    pub fn with_sim_mode(mut self, sim_mode: impl Into<String>) -> Self {
        self.sim_mode = Some(sim_mode.into());
        self
    }

    /// The provenance as a bare JSON object (for embedding in a
    /// `BENCH_*.json` document); the RunLog writes the same members
    /// as its `provenance` line.
    pub fn to_json(&self) -> String {
        crate::runlog::write_object(&mut self.clone(), None)
    }
}

impl Fields for Provenance {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("git_rev", &mut self.git_rev);
        c.field("hostname", &mut self.hostname);
        c.field("cpu_count", &mut self.cpu_count);
        c.field("timestamp", &mut self.timestamp);
        c.field("workers", &mut self.workers);
        c.field("effort", &mut self.effort);
        c.field("sim_mode", &mut self.sim_mode);
    }
}

fn git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

fn hostname() -> Option<String> {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return Some(h);
        }
    }
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return Some(h);
        }
    }
    let out = Command::new("hostname").output().ok()?;
    let h = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if h.is_empty() {
        None
    } else {
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn capture_never_fails_and_serializes() {
        let p = Provenance::capture();
        assert!(p.cpu_count >= 1);

        let obj = parse(&p.to_json()).unwrap();
        assert!(obj.get("git_rev").and_then(Json::as_str).is_some());
        assert_eq!(
            obj.get("cpu_count").and_then(Json::as_u64),
            Some(p.cpu_count as u64)
        );

        let jsonl = crate::runlog::RunLog::new().to_jsonl(&p);
        let line = parse(jsonl.trim_end()).unwrap();
        assert_eq!(line.get("ev").and_then(Json::as_str), Some("provenance"));
        assert_eq!(
            line.get("timestamp").and_then(Json::as_u64),
            Some(p.timestamp)
        );
        // Optional fields are absent until set.
        assert!(line.get("workers").is_none());
        assert!(line.get("effort").is_none());
        assert!(line.get("sim_mode").is_none());
    }

    #[test]
    fn workers_and_effort_serialize_when_set() {
        let p = Provenance::capture()
            .with_workers(3)
            .with_effort("quick")
            .with_sim_mode("full");
        let jsonl = crate::runlog::RunLog::new().to_jsonl(&p);
        for doc in [p.to_json(), jsonl.trim_end().to_string()] {
            let obj = parse(&doc).unwrap();
            assert_eq!(obj.get("workers").and_then(Json::as_u64), Some(3));
            assert_eq!(obj.get("effort").and_then(Json::as_str), Some("quick"));
            assert_eq!(obj.get("sim_mode").and_then(Json::as_str), Some("full"));
        }
    }
}
