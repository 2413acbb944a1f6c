//! The garbage collector: single-threaded, stop-the-world, generational.
//!
//! Models HotSpot 1.3.1's collector as described in the paper (Sections 3.2
//! and 4.5): a copying collector for the new generation (eden + two
//! survivor semi-spaces, promotion by age), and a mark-compact collector
//! for the old generation. Collection is *single-threaded*: the simulation
//! harness runs all collector references on one processor while every other
//! processor idles — the mechanism behind the paper's GC-idle time
//! (Figure 5) and the collapse of cache-to-cache transfers during
//! collection (Figure 10).
//!
//! Collector memory traffic is emitted through a [`MemSink`]: live objects
//! are read from from-space and written to to-space line by line. Because
//! eden is far larger than any L2 cache, the mutators' dirty lines have
//! long been written back by collection time, so those reads find memory,
//! not remote caches — reproducing Figure 10's near-zero snoop-copyback
//! rate during GC *mechanistically*.

use memsys::{AccessKind, AddrRange, MemSink};

use crate::heap::Heap;
use crate::object::{ObjectId, Space};

/// Which collection ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// New-generation copying collection.
    Minor,
    /// Old-generation mark-compact collection.
    Major,
}

/// Result of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Minor or major.
    pub kind: GcKind,
    /// Objects examined.
    pub scanned_objects: u64,
    /// Bytes copied (survivor copies + promotions + compaction slides).
    pub copied_bytes: u64,
    /// Bytes promoted to the old generation (minor only).
    pub promoted_bytes: u64,
    /// Garbage bytes reclaimed.
    pub freed_bytes: u64,
    /// Heap occupancy immediately after the collection — the quantity the
    /// paper plots in Figure 11.
    pub heap_after: u64,
}

/// Old-generation occupancy above which a major collection is triggered.
pub const MAJOR_GC_THRESHOLD: f64 = 0.85;

/// Minor collections an object must survive before promotion.
const TENURE_AGE: u8 = 1;

/// Collector instruction costs (charged through the sink).
const GC_SETUP_INSTRUCTIONS: u64 = 20_000;
const SCAN_INSTRUCTIONS_PER_OBJECT: u64 = 12;
const COPY_INSTRUCTIONS_PER_8_BYTES: u64 = 1;

impl Heap {
    /// Heap occupancy (survivor + old usage): what `-verbose:gc` reports
    /// after a collection.
    pub fn occupied_bytes(&self) -> u64 {
        self.survivor_used + self.old_used
    }

    /// Whether the old generation has crossed the major-collection
    /// threshold.
    pub fn needs_major_gc(&self) -> bool {
        self.old_occupancy() > MAJOR_GC_THRESHOLD
    }

    /// Runs a minor (new-generation) collection, emitting collector
    /// references through `sink`. Live young objects are copied to the
    /// to-survivor space; objects that have survived `TENURE_AGE`
    /// collections, or that overflow the survivor space, are promoted to the old
    /// generation. If promotion would overflow the old generation a major
    /// collection is run inline first.
    ///
    /// # Panics
    ///
    /// Panics if the old generation cannot hold the promoted bytes even
    /// after a major collection ("OutOfMemoryError").
    pub fn minor_gc(&mut self, sink: &mut (impl MemSink + ?Sized)) -> GcOutcome {
        sink.instructions(GC_SETUP_INSTRUCTIONS);
        let to_space = 1 - self.from_space;
        let mut to_top: u64 = 0;
        let mut out = GcOutcome {
            kind: GcKind::Minor,
            scanned_objects: 0,
            copied_bytes: 0,
            promoted_bytes: 0,
            freed_bytes: 0,
            heap_after: 0,
        };

        // Survivors first (they are oldest), then eden.
        let candidates: Vec<ObjectId> = self
            .survivor_objs
            .drain(..)
            .chain(self.young.drain(..))
            .collect();
        let mut new_survivors = Vec::new();

        for id in candidates {
            out.scanned_objects += 1;
            sink.instructions(SCAN_INSTRUCTIONS_PER_OBJECT);
            let rec = *self.table.get(id);
            if !rec.is_live(self.epoch) {
                out.freed_bytes += rec.size as u64;
                self.table.remove(id);
                continue;
            }
            let size = rec.size as u64;
            let promote = rec.age >= TENURE_AGE || to_top + size > self.survivors[to_space].len();
            let dest = if promote {
                if self.old_used + size > self.old.len() {
                    let major = self.major_gc(sink);
                    out.freed_bytes += major.freed_bytes;
                    out.copied_bytes += major.copied_bytes;
                    assert!(
                        self.old_used + size <= self.old.len(),
                        "OutOfMemoryError: old generation exhausted"
                    );
                }
                let a = memsys::Addr(self.old.start().0 + self.old_used);
                self.old_used += size;
                self.old_live_bytes += size;
                out.promoted_bytes += size;
                a
            } else {
                let a = memsys::Addr(self.survivors[to_space].start().0 + to_top);
                to_top += size;
                a
            };
            // The copy: read the from-space lines, write the to-space lines.
            sink.instructions(size.div_ceil(8) * COPY_INSTRUCTIONS_PER_8_BYTES);
            sink.sweep(AccessKind::Load, AddrRange::new(rec.addr, size));
            sink.sweep(AccessKind::Store, AddrRange::new(dest, size));
            out.copied_bytes += size;

            let rec = self.table.get_mut(id);
            rec.addr = dest;
            rec.age = rec.age.saturating_add(1);
            if promote {
                rec.space = Space::Old;
                self.old_objs.push(id);
            } else {
                rec.space = Space::Survivor;
                new_survivors.push(id);
            }
        }

        self.survivor_objs = new_survivors;
        self.from_space = to_space;
        self.survivor_used = to_top;
        self.eden_used = 0;
        self.stats.minor_gcs += 1;
        self.stats.copied_bytes += out.copied_bytes;
        self.stats.promoted_bytes += out.promoted_bytes;
        out.heap_after = self.occupied_bytes();
        self.stats.live_after_last_gc = out.heap_after;
        out
    }

    /// Runs a major (old-generation) mark-compact collection.
    ///
    /// Live objects are slid toward the bottom of the old generation;
    /// the mark phase reads every live object, and objects that move are
    /// written at their new location.
    pub fn major_gc(&mut self, sink: &mut (impl MemSink + ?Sized)) -> GcOutcome {
        sink.instructions(GC_SETUP_INSTRUCTIONS);
        let mut out = GcOutcome {
            kind: GcKind::Major,
            scanned_objects: 0,
            copied_bytes: 0,
            promoted_bytes: 0,
            freed_bytes: 0,
            heap_after: 0,
        };
        let mut new_top: u64 = 0;
        let mut live_bytes: u64 = 0;
        let old_objs = std::mem::take(&mut self.old_objs);
        let mut kept = Vec::with_capacity(old_objs.len());

        for id in old_objs {
            out.scanned_objects += 1;
            sink.instructions(SCAN_INSTRUCTIONS_PER_OBJECT);
            let rec = *self.table.get(id);
            if !rec.is_live(self.epoch) {
                out.freed_bytes += rec.size as u64;
                self.table.remove(id);
                continue;
            }
            let size = rec.size as u64;
            let dest = memsys::Addr(self.old.start().0 + new_top);
            new_top += size;
            live_bytes += size;
            // Mark: read the object. Compact: write it if it moves.
            sink.sweep(AccessKind::Load, AddrRange::new(rec.addr, size));
            if dest != rec.addr {
                sink.instructions(size.div_ceil(8) * COPY_INSTRUCTIONS_PER_8_BYTES);
                sink.sweep(AccessKind::Store, AddrRange::new(dest, size));
                out.copied_bytes += size;
                self.table.get_mut(id).addr = dest;
            }
            kept.push(id);
        }

        self.old_objs = kept;
        self.old_used = new_top;
        self.old_live_bytes = live_bytes;
        self.stats.major_gcs += 1;
        self.stats.copied_bytes += out.copied_bytes;
        out.heap_after = self.occupied_bytes();
        self.stats.live_after_last_gc = out.heap_after;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Tlab;
    use crate::heap::{HeapConfig, HeapGeometry};
    use crate::object::Lifetime;
    use memsys::{Addr, CountingSink};

    fn heap() -> Heap {
        Heap::new(
            HeapConfig {
                geometry: HeapGeometry {
                    eden: 1 << 20,
                    survivor: 256 << 10,
                    old: 2 << 20,
                },
                tlab_bytes: 8 << 10,
            },
            AddrRange::new(Addr(0x4000_0000), 16 << 20),
        )
    }

    fn fill_eden(
        h: &mut Heap,
        t: &mut Tlab,
        size: u32,
        lifetime: Lifetime,
    ) -> Vec<crate::object::ObjectId> {
        let mut sink = CountingSink::new();
        let mut ids = Vec::new();
        while let Some(id) = t.alloc(h, size, lifetime, &mut sink).ok() {
            ids.push(id);
        }
        t.retire();
        ids
    }

    #[test]
    fn ephemeral_garbage_is_fully_reclaimed() {
        let mut h = heap();
        let mut t = Tlab::new();
        fill_eden(&mut h, &mut t, 512, Lifetime::Ephemeral);
        let mut sink = CountingSink::new();
        let out = h.minor_gc(&mut sink);
        assert_eq!(out.copied_bytes, 0, "nothing live to copy");
        assert!(out.freed_bytes > (900 << 10), "almost all of eden freed");
        assert_eq!(h.eden_occupancy(), 0.0);
        assert_eq!(h.occupied_bytes(), 0);
    }

    #[test]
    fn live_session_objects_are_copied_to_survivor() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let id = t
            .alloc(
                &mut h,
                1024,
                Lifetime::Session { expires_epoch: 100 },
                &mut sink,
            )
            .ok()
            .unwrap();
        let before = h.addr_of(id);
        let out = h.minor_gc(&mut sink);
        assert_eq!(out.copied_bytes, 1024);
        assert_ne!(h.addr_of(id), before, "copying GC moves objects");
        assert!(h.is_live(id));
        assert_eq!(h.occupied_bytes(), 1024);
    }

    #[test]
    fn expired_sessions_die_at_collection() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        t.alloc(
            &mut h,
            1024,
            Lifetime::Session { expires_epoch: 5 },
            &mut sink,
        );
        h.advance_epoch(10);
        let out = h.minor_gc(&mut sink);
        assert_eq!(out.copied_bytes, 0);
        assert!(out.freed_bytes >= 1024);
    }

    #[test]
    fn objects_promote_after_tenure_age() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let _id = t
            .alloc(&mut h, 512, Lifetime::Permanent, &mut sink)
            .ok()
            .unwrap();
        let o1 = h.minor_gc(&mut sink);
        assert_eq!(o1.promoted_bytes, 0, "first survival stays in survivor");
        let o2 = h.minor_gc(&mut sink);
        assert_eq!(o2.promoted_bytes, 512, "second collection promotes");
        assert!(h.old_occupancy() > 0.0);
    }

    #[test]
    fn gc_emits_copy_traffic_through_sink() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        t.alloc(&mut h, 4096, Lifetime::Permanent, &mut sink);
        let before = (sink.loads, sink.stores);
        h.minor_gc(&mut sink);
        assert!(sink.loads > before.0, "from-space reads");
        assert!(sink.stores > before.1, "to-space writes");
        assert!(sink.instructions > GC_SETUP_INSTRUCTIONS);
    }

    #[test]
    fn survivor_overflow_promotes_early() {
        let mut h = heap();
        let mut t = Tlab::new();
        // 400 KB of session data > 256 KB survivor space.
        let mut sink = CountingSink::new();
        for _ in 0..100 {
            t.alloc(
                &mut h,
                4096,
                Lifetime::Session {
                    expires_epoch: u64::MAX,
                },
                &mut sink,
            );
        }
        let out = h.minor_gc(&mut sink);
        assert!(out.promoted_bytes > 0, "overflow must promote early");
    }

    #[test]
    fn major_gc_compacts_freed_permanents() {
        let mut h = heap();
        let ids: Vec<_> = (0..100).map(|_| h.alloc_permanent_old(4096)).collect();
        let occupied = h.occupied_bytes();
        for id in ids.iter().take(50) {
            h.free(*id);
        }
        assert_eq!(h.occupied_bytes(), occupied, "free alone reclaims nothing");
        let mut sink = CountingSink::new();
        let out = h.major_gc(&mut sink);
        assert_eq!(out.freed_bytes, 50 * 4096);
        assert_eq!(h.occupied_bytes(), occupied - 50 * 4096);
        // Remaining objects compacted to the bottom: all addresses inside
        // the first half of the old generation.
        for id in ids.iter().skip(50) {
            assert!(h.addr_of(*id).0 < h.occupied_bytes() + 0x4000_0000 + (16 << 20));
        }
    }

    #[test]
    fn major_gc_threshold_detection() {
        let mut h = heap();
        assert!(!h.needs_major_gc());
        // Fill old gen past 85%.
        while h.old_occupancy() < 0.9 {
            h.alloc_permanent_old(64 << 10);
        }
        assert!(h.needs_major_gc());
    }

    #[test]
    fn full_allocation_gc_cycle_reaches_steady_state() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let mut gcs = 0;
        for i in 0..200_000u64 {
            h.advance_epoch(1);
            // Short-lived session objects: each lives 50 epochs.
            let lifetime = Lifetime::Session {
                expires_epoch: h.epoch() + 50,
            };
            loop {
                match t.alloc(&mut h, 256, lifetime, &mut sink) {
                    crate::alloc::AllocOutcome::Ok(_) => break,
                    crate::alloc::AllocOutcome::NeedsGc => {
                        t.retire();
                        h.minor_gc(&mut sink);
                        gcs += 1;
                    }
                }
            }
            let _ = i;
        }
        assert!(gcs >= 3, "several collections must have run, got {gcs}");
        // Steady state: occupied stays bounded well below the old gen size.
        assert!(h.occupied_bytes() < (2 << 20));
    }
}
