//! Method-popularity model: which compiled code a transaction executes.
//!
//! A workload's instruction working set is determined by how much hot
//! compiled code its transactions walk. Real method execution frequency is
//! heavily skewed, so a [`MethodSet`] installs `count` methods into the
//! [`CodeCache`] and samples calls from a Zipf distribution: a few very
//! hot methods dominate, with a long warm tail. ECperf — servlets + EJB
//! container + application-server plumbing — installs several times more
//! code than SPECjbb, which is the entire mechanism behind the paper's
//! Figure 12 instruction-cache gap.

use jvm::codecache::{CodeCache, MethodId};
use memsys::MemSink;
use prng::SimRng;

/// A set of installed methods with Zipf-skewed call popularity.
#[derive(Debug, Clone)]
pub struct MethodSet {
    methods: Vec<MethodId>,
    /// Cumulative popularity, ascending to 1.0.
    cumulative: Vec<f64>,
}

impl MethodSet {
    /// Installs `count` methods of roughly `avg_bytes` each (sizes vary
    /// x0.25–x4 deterministically) with Zipf exponent `zipf_s`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `zipf_s` is not finite and positive.
    pub(crate) fn install(code: &mut CodeCache, count: usize, avg_bytes: u64, zipf_s: f64) -> Self {
        assert!(count > 0, "a method set needs at least one method");
        assert!(
            zipf_s.is_finite() && zipf_s > 0.0,
            "zipf exponent must be positive"
        );
        let methods: Vec<MethodId> = (0..count)
            .map(|i| {
                // Deterministic size variation: small leaf methods and a few
                // big ones, averaging ~avg_bytes.
                let factor = match i % 8 {
                    0 => 4.0,
                    1 | 2 => 0.25,
                    3 | 4 => 0.5,
                    5 | 6 => 1.0,
                    _ => 1.5,
                };
                code.install(((avg_bytes as f64) * factor).max(64.0) as u64)
            })
            .collect();
        let mut cumulative = Vec::with_capacity(count);
        let mut sum = 0.0;
        for i in 0..count {
            sum += 1.0 / ((i + 1) as f64).powf(zipf_s);
            cumulative.push(sum);
        }
        for c in &mut cumulative {
            *c /= sum;
        }
        MethodSet {
            methods,
            cumulative,
        }
    }

    /// Total installed code bytes of this set.
    pub(crate) fn footprint(&self, code: &CodeCache) -> u64 {
        self.methods.iter().map(|&m| code.range(m).len()).sum()
    }

    /// Samples a method by popularity.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> MethodId {
        let u = rng.gen_f64();
        let idx = self.cumulative.partition_point(|&c| c < u);
        self.methods[idx.min(self.methods.len() - 1)]
    }

    /// Executes `calls` sampled method bodies (a transaction's call path).
    pub(crate) fn exec_path(
        &self,
        code: &CodeCache,
        calls: usize,
        rng: &mut SimRng,
        sink: &mut (impl MemSink + ?Sized),
    ) {
        for _ in 0..calls {
            code.execute(self.sample(rng), sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{Addr, AddrRange, CountingSink};

    fn code() -> CodeCache {
        CodeCache::new(AddrRange::new(Addr(0x10_0000), 16 << 20))
    }

    #[test]
    fn footprint_scales_with_count() {
        let mut c = code();
        let small = MethodSet::install(&mut c, 50, 512, 1.0);
        let big = MethodSet::install(&mut c, 400, 512, 1.0);
        assert!(big.footprint(&c) > 4 * small.footprint(&c));
    }

    #[test]
    fn sampling_is_zipf_skewed() {
        let mut c = code();
        let set = MethodSet::install(&mut c, 100, 256, 1.1);
        let mut rng = SimRng::seed_from_u64(1);
        let hottest = set.methods[0];
        let mut hot_hits = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if set.sample(&mut rng) == hottest {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / N as f64;
        assert!(
            frac > 0.10 && frac < 0.35,
            "hottest of 100 methods should take a large share, got {frac}"
        );
    }

    #[test]
    fn exec_path_emits_code_fetches() {
        let mut c = code();
        let set = MethodSet::install(&mut c, 10, 640, 1.0);
        let mut rng = SimRng::seed_from_u64(2);
        let mut sink = CountingSink::new();
        set.exec_path(&c, 5, &mut rng, &mut sink);
        assert!(sink.ifetches >= 5, "each call fetches at least one line");
        assert!(sink.instructions >= sink.ifetches * 16);
    }

    #[test]
    fn sampling_covers_the_tail_eventually() {
        let mut c = code();
        let set = MethodSet::install(&mut c, 50, 128, 0.8);
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            seen.insert(set.sample(&mut rng));
        }
        assert!(seen.len() > 40, "tail methods must appear: {}", seen.len());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_set_panics() {
        let mut c = code();
        let _ = MethodSet::install(&mut c, 0, 128, 1.0);
    }
}
