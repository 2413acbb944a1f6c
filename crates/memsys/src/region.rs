//! Address-region classification for cycle attribution.
//!
//! The paper's analysis hinges on knowing *what data* a stall was paid on
//! — lock words, the shared heap, compiled code (Sections 5.1-5.2). A
//! [`RegionMap`] is a set of named, non-overlapping address ranges (heap
//! generations, code cache, lock words, stacks, kernel structures) built
//! once at machine construction; classifying an access is then a binary
//! search, cheap enough to run on every reference the attribution
//! profiler observes.

use crate::addr::{Addr, AddrRange};

/// The label returned for addresses no registered region covers.
pub const OTHER_REGION: &str = "other";

/// A sorted set of named, disjoint address regions.
#[derive(Debug, Clone, Default)]
pub struct RegionMap {
    /// Sorted by range start; disjoint by construction.
    entries: Vec<(AddrRange, &'static str)>,
}

impl RegionMap {
    /// Creates an empty map (everything classifies as [`OTHER_REGION`]).
    pub fn new() -> Self {
        RegionMap::default()
    }

    /// Registers `range` under `name`, keeping the map sorted.
    ///
    /// Empty ranges are ignored (scaled configurations may shrink a
    /// region to nothing).
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps a region already in the map.
    pub fn insert(&mut self, range: AddrRange, name: &'static str) {
        if range.is_empty() {
            return;
        }
        let at = self
            .entries
            .partition_point(|(r, _)| r.start() < range.start());
        if let Some((prev, n)) = at.checked_sub(1).and_then(|i| self.entries.get(i)) {
            assert!(!prev.overlaps(&range), "region {name} overlaps {n}");
        }
        if let Some((next, n)) = self.entries.get(at) {
            assert!(!next.overlaps(&range), "region {name} overlaps {n}");
        }
        self.entries.insert(at, (range, name));
    }

    /// The region containing `addr`, or [`OTHER_REGION`].
    #[inline]
    pub fn classify(&self, addr: Addr) -> &'static str {
        let at = self.entries.partition_point(|(r, _)| r.start() <= addr);
        match at.checked_sub(1).and_then(|i| self.entries.get(i)) {
            Some((r, name)) if r.contains(addr) => name,
            _ => OTHER_REGION,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> RegionMap {
        let mut m = RegionMap::new();
        m.insert(AddrRange::new(Addr(0x1000), 0x1000), "code");
        m.insert(AddrRange::new(Addr(0x4000), 0x100), "lock");
        m.insert(AddrRange::new(Addr(0x2000), 0x800), "eden");
        m
    }

    #[test]
    fn classifies_interior_and_boundary_addresses() {
        let m = map();
        assert_eq!(m.classify(Addr(0x1000)), "code");
        assert_eq!(m.classify(Addr(0x1fff)), "code");
        assert_eq!(m.classify(Addr(0x2000)), "eden");
        assert_eq!(m.classify(Addr(0x40ff)), "lock");
    }

    #[test]
    fn gaps_and_extremes_fall_back_to_other() {
        let m = map();
        assert_eq!(m.classify(Addr(0)), OTHER_REGION);
        assert_eq!(m.classify(Addr(0x2800)), OTHER_REGION);
        assert_eq!(m.classify(Addr(0x4100)), OTHER_REGION);
        assert_eq!(m.classify(Addr(u64::MAX)), OTHER_REGION);
    }

    #[test]
    fn empty_ranges_are_ignored() {
        let mut m = RegionMap::new();
        m.insert(AddrRange::new(Addr(0x1000), 0), "nothing");
        assert_eq!(m.classify(Addr(0x1000)), OTHER_REGION);
        // An ignored empty range cannot collide with a later region
        // spanning its address.
        m.insert(AddrRange::new(Addr(0x800), 0x1000), "code");
        assert_eq!(m.classify(Addr(0x1000)), "code");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_insert_panics() {
        let mut m = map();
        m.insert(AddrRange::new(Addr(0x1800), 0x1000), "bad");
    }

    #[test]
    fn empty_map_classifies_everything_as_other() {
        let m = RegionMap::new();
        assert_eq!(m.classify(Addr(0x1234)), OTHER_REGION);
    }
}
