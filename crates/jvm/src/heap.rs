//! Generational heap geometry and allocation spaces.
//!
//! Mirrors the paper's tuned HotSpot 1.3.1 configuration (Section 3.2): a
//! 1424 MB heap with a 400 MB new generation (eden plus two survivor
//! semi-spaces) in front of a tenured old generation. The geometry is
//! configurable so that reference-driven multiprocessor experiments can run
//! with a proportionally scaled heap while analytic experiments (Figure 11)
//! use the paper's real sizes.

use memsys::{Addr, AddrRange, MemSink};

use crate::object::{Lifetime, ObjectId, ObjectRecord, ObjectTable, Space};

/// Sizes of the heap spaces in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapGeometry {
    /// Eden size.
    pub eden: u64,
    /// Size of *each* survivor semi-space.
    pub survivor: u64,
    /// Old-generation size.
    pub old: u64,
}

impl HeapGeometry {
    /// The paper's configuration: 1424 MB heap, 400 MB new generation
    /// (320 MB eden + 2 x 40 MB survivors), 1024 MB old generation.
    pub(crate) fn paper() -> Self {
        HeapGeometry {
            eden: 320 << 20,
            survivor: 40 << 20,
            old: 1024 << 20,
        }
    }

    /// The paper geometry scaled down by `divisor` (for reference-driven
    /// runs where simulating 320 MB of allocation per collection would be
    /// wasteful). Ratios between the spaces — which set collection
    /// frequency and cost — are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn paper_scaled(divisor: u64) -> Self {
        assert!(divisor > 0, "scale divisor must be positive");
        let p = HeapGeometry::paper();
        HeapGeometry {
            eden: p.eden / divisor,
            survivor: p.survivor / divisor,
            old: p.old / divisor,
        }
    }

    /// Total heap bytes.
    pub fn total(&self) -> u64 {
        self.eden + 2 * self.survivor + self.old
    }
}

/// Heap tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Space sizes.
    pub geometry: HeapGeometry,
    /// TLAB chunk size carved from eden per refill.
    pub tlab_bytes: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            geometry: HeapGeometry::paper(),
            tlab_bytes: 64 << 10,
        }
    }
}

/// Cumulative heap statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes ever allocated.
    pub allocated_bytes: u64,
    /// Objects ever allocated.
    pub allocated_objects: u64,
    /// Minor (new-generation) collections.
    pub minor_gcs: u64,
    /// Major (old-generation) collections.
    pub major_gcs: u64,
    /// Bytes copied by collectors.
    pub copied_bytes: u64,
    /// Bytes promoted to the old generation.
    pub promoted_bytes: u64,
    /// Live bytes measured immediately after the last collection —
    /// the paper's Figure 11 metric.
    pub live_after_last_gc: u64,
}

/// The generational heap.
#[derive(Debug, Clone)]
pub struct Heap {
    pub(crate) cfg: HeapConfig,
    pub(crate) eden: AddrRange,
    pub(crate) survivors: [AddrRange; 2],
    pub(crate) old: AddrRange,
    /// Bump offsets within each space.
    pub(crate) eden_used: u64,
    pub(crate) survivor_used: u64,
    pub(crate) old_used: u64,
    /// Index of the *from* survivor semi-space.
    pub(crate) from_space: usize,
    pub(crate) table: ObjectTable,
    /// Objects allocated in eden since the last minor collection.
    pub(crate) young: Vec<ObjectId>,
    /// Objects currently in the from-survivor space.
    pub(crate) survivor_objs: Vec<ObjectId>,
    /// Objects in the old generation.
    pub(crate) old_objs: Vec<ObjectId>,
    /// Live bytes currently in the old generation (maintained on promote /
    /// free / major collection).
    pub(crate) old_live_bytes: u64,
    pub(crate) epoch: u64,
    pub(crate) stats: HeapStats,
}

impl Heap {
    /// Lays a heap with configuration `cfg` out inside `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than the configured geometry.
    pub fn new(cfg: HeapConfig, mut region: AddrRange) -> Self {
        let g = cfg.geometry;
        assert!(
            region.len() >= g.total(),
            "heap region {} too small for geometry total {}",
            region.len(),
            g.total()
        );
        let eden = region.take(g.eden).expect("sized above");
        let s0 = region.take(g.survivor).expect("sized above");
        let s1 = region.take(g.survivor).expect("sized above");
        let old = region.take(g.old).expect("sized above");
        Heap {
            cfg,
            eden,
            survivors: [s0, s1],
            old,
            eden_used: 0,
            survivor_used: 0,
            old_used: 0,
            from_space: 0,
            table: ObjectTable::new(),
            young: Vec::new(),
            survivor_objs: Vec::new(),
            old_objs: Vec::new(),
            old_live_bytes: 0,
            epoch: 0,
            stats: HeapStats::default(),
        }
    }

    /// The heap configuration.
    pub(crate) fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Eden's address range (region classification).
    pub fn eden_range(&self) -> AddrRange {
        self.eden
    }

    /// The two survivor semi-spaces' address ranges.
    pub fn survivor_ranges(&self) -> [AddrRange; 2] {
        self.survivors
    }

    /// The old generation's address range.
    pub fn old_range(&self) -> AddrRange {
        self.old
    }

    /// Current logical epoch (advanced by the workload, e.g. per
    /// transaction; session lifetimes are expressed in epochs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch counter by `n`.
    pub fn advance_epoch(&mut self, n: u64) {
        self.epoch += n;
    }

    /// Carves a TLAB chunk out of eden; `None` when eden is exhausted
    /// (time for a minor collection).
    pub(crate) fn take_eden_chunk(&mut self, bytes: u64) -> Option<AddrRange> {
        if self.eden_used + bytes > self.eden.len() {
            return None;
        }
        let start = Addr(self.eden.start().0 + self.eden_used);
        self.eden_used += bytes;
        Some(AddrRange::new(start, bytes))
    }

    /// Registers an allocation performed by a TLAB.
    pub(crate) fn register_young(&mut self, addr: Addr, size: u32, lifetime: Lifetime) -> ObjectId {
        self.stats.allocated_bytes += size as u64;
        self.stats.allocated_objects += 1;
        let id = self.table.insert(ObjectRecord {
            addr,
            size,
            lifetime,
            space: Space::Eden,
            age: 0,
            freed: false,
        });
        self.young.push(id);
        id
    }

    /// Allocates a permanent object directly in the old generation
    /// (bulk database/cache construction before measurement). Emits no
    /// references — setup is outside the measurement window.
    ///
    /// # Panics
    ///
    /// Panics if the old generation cannot hold the object even after the
    /// caller has had a chance to collect (callers building oversized
    /// databases should scale the geometry instead).
    pub fn alloc_permanent_old(&mut self, size: u32) -> ObjectId {
        assert!(
            self.old_used + size as u64 <= self.old.len(),
            "old generation exhausted during setup (old={} used={} size={})",
            self.old.len(),
            self.old_used,
            size
        );
        let addr = Addr(self.old.start().0 + self.old_used);
        self.old_used += size as u64;
        self.old_live_bytes += size as u64;
        self.stats.allocated_bytes += size as u64;
        self.stats.allocated_objects += 1;
        let id = self.table.insert(ObjectRecord {
            addr,
            size,
            lifetime: Lifetime::Permanent,
            space: Space::Old,
            age: 0,
            freed: false,
        });
        self.old_objs.push(id);
        id
    }

    /// Current address of an object (moves across collections).
    pub fn addr_of(&self, id: ObjectId) -> Addr {
        self.table.get(id).addr
    }

    /// Size of an object in bytes.
    pub fn size_of(&self, id: ObjectId) -> u32 {
        self.table.get(id).size
    }

    /// The object's full address range.
    pub fn range_of(&self, id: ObjectId) -> AddrRange {
        let r = self.table.get(id);
        AddrRange::new(r.addr, r.size as u64)
    }

    /// Whether `id` is live at the current epoch.
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.table.get(id).is_live(self.epoch)
    }

    /// Marks a permanent object as garbage (severed from the object graph).
    pub fn free(&mut self, id: ObjectId) {
        let rec = self.table.get_mut(id);
        debug_assert!(!rec.freed, "double free of {id:?}");
        rec.freed = true;
        if rec.space == Space::Old {
            self.old_live_bytes = self.old_live_bytes.saturating_sub(rec.size as u64);
        }
    }

    /// Reads the whole object through `sink` (field scan).
    pub fn read_object(&self, id: ObjectId, sink: &mut (impl MemSink + ?Sized)) {
        sink.sweep(memsys::AccessKind::Load, self.range_of(id));
    }

    /// Reads the first `lines` cache lines of an object (field access:
    /// header plus a few fields, not a full scan).
    pub fn read_object_prefix(&self, id: ObjectId, lines: u64, sink: &mut (impl MemSink + ?Sized)) {
        let r = self.range_of(id);
        let len = r.len().min(lines * memsys::LINE_BYTES);
        sink.sweep(
            memsys::AccessKind::Load,
            memsys::AddrRange::new(r.start(), len),
        );
    }

    /// Writes the whole object through `sink`.
    pub fn write_object(&self, id: ObjectId, sink: &mut (impl MemSink + ?Sized)) {
        sink.sweep(memsys::AccessKind::Store, self.range_of(id));
    }

    /// Fraction of eden consumed.
    pub fn eden_occupancy(&self) -> f64 {
        self.eden_used as f64 / self.eden.len() as f64
    }

    /// Live bytes: survivor occupancy plus live old-generation bytes.
    /// Immediately after a collection this equals the paper's
    /// "heap size after collection" (Figure 11).
    pub fn live_bytes(&self) -> u64 {
        self.survivor_used + self.old_live_bytes
    }

    /// Old-generation occupancy fraction (used and not yet compacted).
    pub(crate) fn old_occupancy(&self) -> f64 {
        self.old_used as f64 / self.old.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> AddrRange {
        AddrRange::new(Addr(0x2000_0000), 64 << 20)
    }

    fn small_cfg() -> HeapConfig {
        HeapConfig {
            geometry: HeapGeometry {
                eden: 8 << 20,
                survivor: 1 << 20,
                old: 32 << 20,
            },
            tlab_bytes: 64 << 10,
        }
    }

    #[test]
    fn paper_geometry_matches_section_3_2() {
        let g = HeapGeometry::paper();
        assert_eq!(g.eden + 2 * g.survivor, 400 << 20, "400 MB new generation");
        assert_eq!(g.total(), 1424 << 20, "1424 MB heap");
    }

    #[test]
    fn scaled_geometry_preserves_ratios() {
        let p = HeapGeometry::paper();
        let s = HeapGeometry::paper_scaled(16);
        assert_eq!(s.eden * 16, p.eden);
        assert_eq!(s.old * 16, p.old);
    }

    #[test]
    fn spaces_do_not_overlap() {
        let h = Heap::new(small_cfg(), region());
        assert!(!h.eden.overlaps(&h.survivors[0]));
        assert!(!h.eden.overlaps(&h.survivors[1]));
        assert!(!h.survivors[0].overlaps(&h.survivors[1]));
        assert!(!h.old.overlaps(&h.eden));
        assert!(!h.old.overlaps(&h.survivors[0]));
    }

    #[test]
    fn eden_chunks_are_disjoint_and_exhaust() {
        let mut h = Heap::new(small_cfg(), region());
        let a = h.take_eden_chunk(4 << 20).unwrap();
        let b = h.take_eden_chunk(4 << 20).unwrap();
        assert!(!a.overlaps(&b));
        assert!(h.take_eden_chunk(1).is_none(), "eden exhausted");
    }

    #[test]
    fn permanent_old_allocation_counts_live_bytes() {
        let mut h = Heap::new(small_cfg(), region());
        let id = h.alloc_permanent_old(1024);
        assert_eq!(h.live_bytes(), 1024);
        assert!(h.is_live(id));
        h.free(id);
        assert_eq!(h.live_bytes(), 0);
        assert!(!h.is_live(id));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_geometry_panics() {
        let _ = Heap::new(HeapConfig::default(), region());
    }

    #[test]
    fn epoch_advances() {
        let mut h = Heap::new(small_cfg(), region());
        h.advance_epoch(3);
        assert_eq!(h.epoch(), 3);
    }
}
