//! A dependency-free log2-bucketed latency histogram.
//!
//! The paper's latency claims are distributional — a mean memory stall
//! says nothing about the bimodal hit/copyback split Figure 7 turns on —
//! so the simulator records full shapes. Buckets are powers of two:
//! bucket 0 holds the value 0, bucket `i >= 1` holds
//! `2^(i-1) ..= 2^i - 1`, and the top bucket saturates. The bucket count
//! is fixed ([`Histogram::BUCKETS`]) so serialized snapshots stay flat
//! and two histograms always merge elementwise, regardless of what they
//! observed.
//!
//! Quantiles are deterministic integers: the first bucket whose
//! cumulative count reaches the rank, reported as that bucket's upper
//! bound. That keeps p50/p90/p99 stable across platforms — no float
//! interpolation — at the price of log2 resolution, which is exactly
//! the resolution the buckets hold anyway.

use std::fmt;

use crate::runlog::{Codec, Fields};

/// A fixed-shape log2 histogram of `u64` samples (latencies in cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Number of buckets. Bucket 0 is the value 0; bucket `i` covers
    /// `2^(i-1) ..= 2^i - 1`; the last bucket holds everything from
    /// `2^(BUCKETS-2)` up (about 5.5e11 — beyond any plausible
    /// single-event latency in cycles).
    pub const BUCKETS: usize = 40;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(Histogram::BUCKETS - 1)
        }
    }

    /// The largest value bucket `i` can hold (used as the quantile
    /// representative). The saturating top bucket reports its lower
    /// bound — an honest "at least this much" rather than `u64::MAX`.
    pub fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i < Histogram::BUCKETS - 1 => (1u64 << i) - 1,
            _ => 1u64 << (Histogram::BUCKETS - 2),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.buckets[Histogram::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether the histogram holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; Histogram::BUCKETS] {
        &self.buckets
    }

    /// Folds `other` into `self` elementwise. Because the shape is
    /// fixed, merging is total, associative, and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a deterministic integer: the
    /// upper bound of the first bucket whose cumulative count reaches
    /// rank `ceil(q * count)`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return Histogram::bucket_bound(i);
            }
        }
        Histogram::bucket_bound(Histogram::BUCKETS - 1)
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializes as a flat JSON object:
    /// `{"count":N,"sum":S,"buckets":[...]}` (always
    /// [`Histogram::BUCKETS`] bucket entries) — the same members a
    /// RunLog `hist` line carries inline.
    pub fn to_json(&self) -> String {
        crate::runlog::write_object(&mut self.clone(), None)
    }

    /// Rebuilds a histogram from parsed bucket counts (the report
    /// reader). Fails if the bucket count is not [`Histogram::BUCKETS`]
    /// or the declared `count` disagrees with the bucket total.
    pub fn from_parts(count: u64, sum: u64, buckets: &[u64]) -> Result<Self, String> {
        if buckets.len() != Histogram::BUCKETS {
            return Err(format!(
                "histogram has {} buckets, expected {}",
                buckets.len(),
                Histogram::BUCKETS
            ));
        }
        let total = buckets.iter().try_fold(0u64, |t, &b| t.checked_add(b));
        if total != Some(count) {
            let total = total.map_or("more than u64::MAX".into(), |t| t.to_string());
            return Err(format!(
                "histogram declares count {count} but buckets sum to {total}"
            ));
        }
        let mut h = Histogram::new();
        h.buckets.copy_from_slice(buckets);
        h.count = count;
        h.sum = sum;
        Ok(h)
    }
}

impl Fields for Histogram {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("count", &mut self.count);
        c.field("sum", &mut self.sum);
        c.field("buckets", &mut self.buckets);
    }
    fn validate(&self) -> Result<(), String> {
        Histogram::from_parts(self.count, self.sum, &self.buckets).map(drop)
    }
}

impl fmt::Display for Histogram {
    /// One row per non-empty bucket: `[lo..hi]  count  bar`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            let hi = Histogram::bucket_bound(i);
            let bar = "#".repeat(((b as f64 / peak as f64) * 40.0).ceil() as usize);
            writeln!(f, "  [{lo:>12} .. {hi:>12}]  {b:>10}  {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_split_out() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), Histogram::BUCKETS - 1);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2);
        assert!((h.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 9, 200]);
        let b = mk(&[0, 0, 64, 1 << 30]);
        let c = mk(&[7, 7, 7]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::new();
        // A spread-out sample: powers of 3 mod a big range.
        let mut v = 1u64;
        for _ in 0..500 {
            h.record(v % 100_000);
            v = v.wrapping_mul(3).wrapping_add(17);
        }
        let mut last = 0u64;
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let cur = h.quantile(q);
            assert!(
                cur >= last,
                "quantile({q}) = {cur} fell below quantile at previous step = {last}"
            );
            last = cur;
        }
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8..15]
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512..1023]
        }
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p90(), 15);
        assert_eq!(h.p99(), 1023);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), 0, "quantile({q}) on empty histogram");
        }
        assert!(h.is_empty());
        assert_eq!(h.to_json(), {
            let mut s = String::from("{\"count\":0,\"sum\":0,\"buckets\":[0");
            s.push_str(&",0".repeat(Histogram::BUCKETS - 1));
            s.push_str("]}");
            s
        });
    }

    #[test]
    fn single_bucket_histogram_pins_every_quantile() {
        // All mass in one bucket: every quantile is that bucket's upper
        // bound, regardless of rank.
        let mut h = Histogram::new();
        h.record_n(10, 1_000); // bucket [8..15]
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 15, "quantile({q})");
        }
        // Out-of-range q clamps instead of indexing out of the buckets.
        assert_eq!(h.quantile(-1.0), 15);
        assert_eq!(h.quantile(2.0), 15);

        // A single sample of zero stays in the zero bucket.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.p50(), 0);
        assert_eq!(z.p99(), 0);
        assert_eq!(z.mean(), 0.0);

        // The saturating top bucket reports its lower bound, not
        // u64::MAX.
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.p50(), 1u64 << (Histogram::BUCKETS - 2));
    }

    #[test]
    fn json_round_trips_through_from_parts() {
        let mut h = Histogram::new();
        for v in [0, 3, 3, 70, 5000] {
            h.record(v);
        }
        let text = h.to_json();
        let v = crate::json::parse(&text).unwrap();
        let count = v.get("count").and_then(crate::json::Json::as_u64).unwrap();
        let sum = v.get("sum").and_then(crate::json::Json::as_u64).unwrap();
        let buckets: Vec<u64> = match v.get("buckets").unwrap() {
            crate::json::Json::Arr(items) => items.iter().map(|b| b.as_u64().unwrap()).collect(),
            other => panic!("expected array, got {other:?}"),
        };
        let back = Histogram::from_parts(count, sum, &buckets).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_parts_rejects_malformed_shapes() {
        assert!(Histogram::from_parts(1, 0, &[0; 3]).is_err());
        let mut buckets = [0u64; Histogram::BUCKETS];
        buckets[1] = 2;
        assert!(Histogram::from_parts(1, 0, &buckets).is_err());
    }
}
