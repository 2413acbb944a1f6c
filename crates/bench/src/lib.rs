//! # bench — the timing harness
//!
//! Each bench target times a representative simulation kernel so
//! `cargo bench` tracks the simulator's own performance. The figures
//! themselves are regenerated by the `figures` binary
//! (`figures <effort> <N>`), not by the bench targets.
//!
//! The timing harness ([`Harness`]) is dependency-free — plain
//! `std::time::Instant` sampling with a criterion-shaped API
//! (`bench_function(name, |b| b.iter(..))`) — so the crate lives inside
//! the workspace and the offline tier-1 build compiles and exercises
//! it. The bench closures run identically under a real `cargo bench`
//! and under the smoke-sized run `scripts/ci.sh` does.
//!
//! Knobs (environment):
//!
//! - `MIDDLESIM_BENCH_SAMPLES`: timing samples per benchmark
//!   (default 10);
//! - `MIDDLESIM_BENCH_SAMPLE_MS`: target wall milliseconds per sample
//!   (default 100; the iteration count is calibrated to hit it).

use std::time::{Duration, Instant};

/// One benchmark's timing summary (nanoseconds per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id, `group/case`.
    pub name: String,
    /// Median over the samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample (calibrated).
    pub iters: u64,
}

/// Hands a benchmark closure its iteration count and times the loop.
///
/// The closure passed to [`Harness::bench_function`] is invoked once
/// per sample (plus once to calibrate), so setup outside `iter` reruns
/// each sample — the same contract criterion's `Bencher` has.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `f`, shielding the returned
    /// value from the optimizer.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs from `setup`, excluding the
    /// setup cost from the measurement (criterion's `iter_batched`).
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// The timing harness: calibrates an iteration count per benchmark,
/// takes wall-time samples, and prints one row each.
pub struct Harness {
    samples: usize,
    sample_ms: u64,
    results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::from_env()
    }
}

impl Harness {
    /// A harness sized by the `MIDDLESIM_BENCH_*` environment knobs.
    pub fn from_env() -> Self {
        let read = |key: &str, default: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(default)
        };
        Harness::with(
            read("MIDDLESIM_BENCH_SAMPLES", 10) as usize,
            read("MIDDLESIM_BENCH_SAMPLE_MS", 100),
        )
    }

    /// A harness with explicit sample count and per-sample target
    /// milliseconds (tests use tiny values).
    pub fn with(samples: usize, sample_ms: u64) -> Self {
        Harness {
            samples: samples.max(1),
            sample_ms: sample_ms.max(1),
            results: Vec::new(),
        }
    }

    /// Runs one benchmark: a calibration pass picks the iteration count
    /// that fills the per-sample budget, then each sample times that
    /// many iterations.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter_ns = (b.elapsed.as_nanos().max(1) as u64 / b.iters).max(1);
        let target_ns = self.sample_ms * 1_000_000;
        let iters = (target_ns / per_iter_ns).clamp(1, 1_000_000_000);

        let mut per_sample: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_sample.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        per_sample.sort_by(|a, b| a.total_cmp(b));
        let median = per_sample[per_sample.len() / 2];
        let result = BenchResult {
            name: name.to_string(),
            median_ns: median,
            min_ns: per_sample[0],
            max_ns: per_sample[per_sample.len() - 1],
            samples: self.samples,
            iters,
        };
        println!(
            "bench {:<36} {:>12} ns/iter (min {:.0}, max {:.0}, {} x {} iters)",
            result.name,
            format_ns(result.median_ns),
            result.min_ns,
            result.max_ns,
            result.samples,
            result.iters,
        );
        self.results.push(result);
    }

    /// The rows timed so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing summary and returns the rows.
    pub fn finish(self) -> Vec<BenchResult> {
        println!("\n{} benchmark(s) timed.", self.results.len());
        self.results
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 100.0 {
        format!("{ns:.0}")
    } else {
        format!("{ns:.2}")
    }
}

/// Entry point shared by the bench targets (`harness = false`): builds
/// a harness from the environment, ignoring the arguments `cargo bench`
/// passes (`--bench`, filters), and runs the target's benchmarks.
pub fn run_target(run: impl FnOnce(&mut Harness)) {
    let mut h = Harness::from_env();
    run(&mut h);
    h.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_trivial_kernel() {
        let mut h = Harness::with(3, 1);
        let mut x = 0u64;
        h.bench_function("test/add", |b| b.iter(|| x = x.wrapping_add(1)));
        let rows = h.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "test/add");
        assert_eq!(rows[0].samples, 3);
        assert!(rows[0].iters >= 1);
        assert!(rows[0].median_ns > 0.0);
        assert!(rows[0].min_ns <= rows[0].median_ns);
        assert!(rows[0].median_ns <= rows[0].max_ns);
    }

    #[test]
    fn calibration_scales_iters_to_the_budget() {
        let mut h = Harness::with(2, 5);
        h.bench_function("test/spin", |b| {
            b.iter(|| std::hint::black_box((0..50u64).sum::<u64>()))
        });
        let rows = h.results();
        // A ~100ns kernel needs many iterations to fill 5ms.
        assert!(rows[0].iters > 100, "iters = {}", rows[0].iters);
    }
}
