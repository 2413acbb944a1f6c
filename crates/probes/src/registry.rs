//! The counter registry: static descriptor tables over live stats
//! structs, and flat ordered snapshots with deltas.
//!
//! Every stats struct in the simulation crates registers itself by
//! implementing [`CounterSet`]: a `'static` table of [`CounterDesc`]
//! (dot-separated name, [`CounterKind`]) plus a `values` method that
//! reads the current field values *in descriptor order*. Implementations
//! destructure their struct exhaustively, so adding a field without
//! registering it is a compile error — the registry cannot silently
//! drift from the structs it describes.
//!
//! A [`Snapshot`] is the uniform export: a flat, ordered `name → u64`
//! sequence assembled from any number of counter sets, diffable against
//! an earlier snapshot of the same shape (the `cpustat` interval-sample
//! workflow).

use std::fmt;

use crate::json;

/// What a counter's value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// A monotonic event count (references, transactions, snoops).
    Count,
    /// A monotonic cycle total.
    Cycles,
    /// A derived ratio scaled to parts-per-million (so snapshots stay
    /// flat `u64`); deltas carry the *later* value, ratios of deltas
    /// are computed by renderers from the underlying counts. By
    /// convention ratio counter names end in `_ppm`, which is how
    /// kind-blind consumers (the JSONL report) recognize them.
    Ratio,
}

impl CounterKind {
    /// Short unit suffix used by renderers (`cpustat` prints raw
    /// numbers; we annotate).
    pub(crate) fn unit(self) -> &'static str {
        match self {
            CounterKind::Count => "events",
            CounterKind::Cycles => "cycles",
            CounterKind::Ratio => "ppm",
        }
    }
}

/// How much run-to-run movement a counter is allowed before a
/// `simdiff` comparison flags it as drift.
///
/// The class is declared on the descriptor, next to the kind, because
/// the code that maintains a counter is the only place that knows
/// whether it is a pure function of the seeded simulation (`Exact`) or
/// carries statistical/timing noise (`Tolerance`): extrapolated
/// sampled-mode estimates, queueing-model occupancies, ppm ratios of
/// small denominators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftClass {
    /// Deterministic: any difference between two same-seed runs is a
    /// regression. The default.
    Exact,
    /// Sampled or timing-sensitive: relative drift up to this many
    /// parts-per-million is in-band.
    Tolerance(u64),
}

/// One registered counter: a dot-separated name and its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDesc {
    /// Dot-separated hierarchical name, e.g. `bus.snoop_cb`.
    pub name: &'static str,
    /// What the value means.
    pub kind: CounterKind,
    /// How much run-to-run drift is in-band for `simdiff`.
    pub drift: DriftClass,
}

impl CounterDesc {
    /// Shorthand constructor for descriptor tables. Counters default to
    /// [`DriftClass::Exact`]; mark noisy ones with [`with_drift`].
    ///
    /// [`with_drift`]: CounterDesc::with_drift
    pub const fn new(name: &'static str, kind: CounterKind) -> Self {
        CounterDesc {
            name,
            kind,
            drift: DriftClass::Exact,
        }
    }

    /// Declares the counter's drift class (builder-style, usable in
    /// `const` descriptor tables).
    pub const fn with_drift(mut self, drift: DriftClass) -> Self {
        self.drift = drift;
        self
    }
}

/// A stats struct that publishes its counters to the registry.
///
/// The contract: `values` pushes exactly `descriptors().len()` values,
/// in descriptor order, reading (never mutating) the live fields.
/// Implementations should destructure `self` exhaustively so that a new
/// field breaks compilation until it is registered.
pub trait CounterSet {
    /// The static descriptor table.
    fn descriptors(&self) -> &'static [CounterDesc];

    /// Appends the current value of every descriptor, in order.
    fn values(&self, out: &mut Vec<u64>);
}

/// Scales a `0..=1` ratio into the registry's parts-per-million fixed
/// point (saturating; NaN maps to 0).
pub fn ratio_ppm(r: f64) -> u64 {
    if r.is_finite() && r > 0.0 {
        (r * 1_000_000.0).round() as u64
    } else {
        0
    }
}

/// A flat, ordered `name → u64` sample of one or more counter sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    names: Vec<&'static str>,
    kinds: Vec<CounterKind>,
    values: Vec<u64>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Samples `set`, appending its counters in descriptor order.
    ///
    /// # Panics
    ///
    /// Panics if the set pushes a different number of values than it
    /// declares descriptors — the registry contract.
    pub fn record(&mut self, set: &dyn CounterSet) {
        let descs = set.descriptors();
        let before = self.values.len();
        set.values(&mut self.values);
        assert_eq!(
            self.values.len() - before,
            descs.len(),
            "counter set pushed a different number of values than it registered"
        );
        for d in descs {
            self.names.push(d.name);
            self.kinds.push(d.kind);
        }
    }

    /// Builds a snapshot from one set.
    pub fn of(set: &dyn CounterSet) -> Self {
        let mut s = Snapshot::new();
        s.record(set);
        s
    }

    /// Iterates `(name, kind, value)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, CounterKind, u64)> + '_ {
        self.names
            .iter()
            .zip(&self.kinds)
            .zip(&self.values)
            .map(|((&n, &k), &v)| (n, k, v))
    }

    /// The value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values[i])
    }

    /// Whether every counter name appears exactly once.
    pub fn names_unique(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.names.iter().all(|&n| seen.insert(n))
    }

    /// Counter deltas since an `earlier` snapshot.
    /// `Count`/`Cycles` counters subtract (they are monotonic);
    /// `Ratio` counters carry the later value — a ratio of a window is
    /// not the difference of two cumulative ratios. A counter absent in
    /// `earlier` (a set registered mid-run) deltas against 0 rather
    /// than panicking; the fast path is still the common same-shape
    /// case, which compares the name vectors once.
    ///
    /// # Panics
    ///
    /// Panics if a monotonic counter went backwards.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let same_shape = self.names == earlier.names;
        let values = self
            .iter()
            .enumerate()
            .map(|(i, (name, kind, now))| {
                let then = if same_shape {
                    earlier.values[i]
                } else {
                    earlier.get(name).unwrap_or(0)
                };
                match kind {
                    CounterKind::Ratio => now,
                    _ => now
                        .checked_sub(then)
                        .unwrap_or_else(|| panic!("counter {name} went backwards")),
                }
            })
            .collect();
        Snapshot {
            names: self.names.clone(),
            kinds: self.kinds.clone(),
            values,
        }
    }

    /// Renders the snapshot as a JSON object (`{"name": value, ...}`)
    /// in registration order.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, _, v)) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json::quote(name));
            s.push(':');
            s.push_str(&v.to_string());
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Snapshot {
    /// `cpustat`-style dump: one `name value` row per counter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.names.iter().map(|n| n.len()).max().unwrap_or(0);
        for (name, kind, v) in self.iter() {
            writeln!(f, "{name:<width$}  {v:>16} {}", kind.unit())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        a: u64,
        b: u64,
    }

    impl CounterSet for Fake {
        fn descriptors(&self) -> &'static [CounterDesc] {
            const DESCS: [CounterDesc; 2] = [
                CounterDesc::new("fake.a", CounterKind::Count),
                CounterDesc::new("fake.b", CounterKind::Cycles),
            ];
            &DESCS
        }

        fn values(&self, out: &mut Vec<u64>) {
            let Fake { a, b } = self;
            out.push(*a);
            out.push(*b);
        }
    }

    #[test]
    fn snapshot_records_in_order() {
        let s = Snapshot::of(&Fake { a: 3, b: 9 });
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.get("fake.a"), Some(3));
        assert_eq!(s.get("fake.b"), Some(9));
        assert!(s.names_unique());
        let rows: Vec<_> = s.iter().collect();
        assert_eq!(rows[0], ("fake.a", CounterKind::Count, 3));
        assert_eq!(rows[1], ("fake.b", CounterKind::Cycles, 9));
    }

    #[test]
    fn delta_subtracts_monotonic_counters() {
        let early = Snapshot::of(&Fake { a: 3, b: 9 });
        let late = Snapshot::of(&Fake { a: 10, b: 29 });
        let d = late.delta(&early);
        assert_eq!(d.get("fake.a"), Some(7));
        assert_eq!(d.get("fake.b"), Some(20));
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn delta_rejects_backwards_counters() {
        let early = Snapshot::of(&Fake { a: 5, b: 0 });
        let late = Snapshot::of(&Fake { a: 4, b: 0 });
        let _ = late.delta(&early);
    }

    struct Ppm(u64);

    impl CounterSet for Ppm {
        fn descriptors(&self) -> &'static [CounterDesc] {
            const DESCS: [CounterDesc; 1] = [CounterDesc::new("fake.rate_ppm", CounterKind::Ratio)];
            &DESCS
        }

        fn values(&self, out: &mut Vec<u64>) {
            let Ppm(v) = self;
            out.push(*v);
        }
    }

    #[test]
    fn delta_carries_ratio_counters_not_differences() {
        // Cumulative ppm went 800k -> 600k across the interval; the
        // interval value is the later reading, never a (negative)
        // difference — interval consumers average these, not sum them.
        let early = Snapshot::of(&Ppm(800_000));
        let late = Snapshot::of(&Ppm(600_000));
        let d = late.delta(&early);
        assert_eq!(d.get("fake.rate_ppm"), Some(600_000));
    }

    #[test]
    fn delta_treats_counters_absent_earlier_as_zero() {
        // A set registered mid-run: the earlier snapshot lacks fake.*
        // entirely. The delta must not panic and reads as "since 0".
        let early = Snapshot::of(&Ppm(100));
        let mut late = Snapshot::of(&Ppm(200));
        late.record(&Fake { a: 7, b: 11 });
        let d = late.delta(&early);
        assert_eq!(d.get("fake.a"), Some(7));
        assert_eq!(d.get("fake.b"), Some(11));
        assert_eq!(d.get("fake.rate_ppm"), Some(200));
        // Fully disjoint shapes work too.
        let empty = Snapshot::new();
        let d2 = Snapshot::of(&Fake { a: 1, b: 2 }).delta(&empty);
        assert_eq!(d2.get("fake.a"), Some(1));
    }

    #[test]
    fn ratio_ppm_scales_and_saturates() {
        assert_eq!(ratio_ppm(0.5), 500_000);
        assert_eq!(ratio_ppm(0.0), 0);
        assert_eq!(ratio_ppm(f64::NAN), 0);
    }

    #[test]
    fn json_object_lists_counters() {
        let s = Snapshot::of(&Fake { a: 1, b: 2 });
        assert_eq!(s.to_json(), "{\"fake.a\":1,\"fake.b\":2}");
    }
}
