//! Thread-local allocation buffers (TLABs).
//!
//! Each Java thread bump-allocates from a private chunk of eden, exactly as
//! HotSpot does. TLABs give the reference stream its real spatial
//! properties: a thread's consecutive allocations are contiguous (good
//! locality, one compulsory miss per line), and different threads allocate
//! in *different* chunks (no allocation-time false sharing).

use memsys::{AccessKind, Addr, AddrRange, MemSink};

use crate::heap::Heap;
use crate::object::{Lifetime, ObjectId};

/// A thread's private allocation buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tlab {
    cur: u64,
    end: u64,
}

/// Result of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The object was allocated.
    Ok(ObjectId),
    /// Eden is exhausted: the caller must trigger a minor collection and
    /// retry.
    NeedsGc,
}

impl AllocOutcome {
    /// The id, if allocation succeeded.
    pub fn ok(self) -> Option<ObjectId> {
        match self {
            AllocOutcome::Ok(id) => Some(id),
            AllocOutcome::NeedsGc => None,
        }
    }
}

impl Tlab {
    /// Creates an empty (unfilled) TLAB.
    pub fn new() -> Self {
        Tlab::default()
    }

    /// Bytes remaining in the current chunk.
    pub(crate) fn remaining(&self) -> u64 {
        self.end - self.cur
    }

    /// Invalidates the TLAB (must be done when a collection empties eden).
    pub fn retire(&mut self) {
        self.cur = 0;
        self.end = 0;
    }

    /// Ensures at least `bytes` can be allocated without touching eden
    /// again, refilling the TLAB if needed. Returns `false` when eden is
    /// exhausted (the caller should request a collection *before* starting
    /// a transaction, so collections only happen at clean boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the configured TLAB chunk size.
    pub fn ensure(&mut self, heap: &mut Heap, bytes: u64) -> bool {
        let chunk = heap.config().tlab_bytes;
        assert!(
            bytes <= chunk,
            "cannot reserve {bytes} B in a {chunk}-B TLAB chunk"
        );
        if self.remaining() >= bytes {
            return true;
        }
        match heap.take_eden_chunk(chunk) {
            Some(r) => {
                self.cur = r.start().0;
                self.end = r.end().0;
                true
            }
            None => false,
        }
    }

    /// Allocates `size` bytes for an object with the given `lifetime`,
    /// writing the object's initialization stores through `sink` (header +
    /// zeroing: one store per line — the allocation stream's compulsory
    /// misses).
    ///
    /// Objects larger than the TLAB chunk are carved directly from eden.
    pub fn alloc(
        &mut self,
        heap: &mut Heap,
        size: u32,
        lifetime: Lifetime,
        sink: &mut (impl MemSink + ?Sized),
    ) -> AllocOutcome {
        let aligned = u64::from(size.max(16)).div_ceil(8) * 8;
        let chunk_size = heap.config().tlab_bytes;
        let addr = if aligned > chunk_size {
            // Humongous allocation straight from eden.
            match heap.take_eden_chunk(aligned) {
                Some(r) => r.start(),
                None => return AllocOutcome::NeedsGc,
            }
        } else {
            if self.remaining() < aligned {
                match heap.take_eden_chunk(chunk_size) {
                    Some(r) => {
                        self.cur = r.start().0;
                        self.end = r.end().0;
                    }
                    None => return AllocOutcome::NeedsGc,
                }
            }
            let a = Addr(self.cur);
            self.cur += aligned;
            a
        };
        // ~4 instructions of allocation path per 32 bytes initialized.
        sink.instructions(4 + aligned / 8);
        sink.sweep(AccessKind::Store, AddrRange::new(addr, aligned));
        let size32 = u32::try_from(aligned).expect("object size fits u32");
        AllocOutcome::Ok(heap.register_young(addr, size32, lifetime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{HeapConfig, HeapGeometry};
    use memsys::CountingSink;

    fn heap() -> Heap {
        Heap::new(
            HeapConfig {
                geometry: HeapGeometry {
                    eden: 1 << 20,
                    survivor: 256 << 10,
                    old: 4 << 20,
                },
                tlab_bytes: 4096,
            },
            AddrRange::new(Addr(0x4000_0000), 16 << 20),
        )
    }

    #[test]
    fn consecutive_allocations_are_contiguous() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let a = t
            .alloc(&mut h, 64, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        let b = t
            .alloc(&mut h, 64, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        assert_eq!(h.addr_of(b).0, h.addr_of(a).0 + 64);
    }

    #[test]
    fn two_threads_allocate_in_disjoint_chunks() {
        let mut h = heap();
        let mut t1 = Tlab::new();
        let mut t2 = Tlab::new();
        let mut sink = CountingSink::new();
        let a = t1
            .alloc(&mut h, 64, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        let b = t2
            .alloc(&mut h, 64, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        let dist = h.addr_of(b).0.abs_diff(h.addr_of(a).0);
        assert!(dist >= 4096, "different TLAB chunks, no false sharing");
    }

    #[test]
    fn init_stores_cover_object_lines() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        t.alloc(&mut h, 256, Lifetime::Ephemeral, &mut sink);
        assert!(sink.stores >= 256 / 64, "one init store per line at least");
        assert!(sink.instructions > 0);
    }

    #[test]
    fn humongous_allocation_bypasses_tlab() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let big = t
            .alloc(&mut h, 32 << 10, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        assert!(h.size_of(big) >= 32 << 10);
        assert_eq!(t.remaining(), 0, "TLAB untouched by humongous path");
    }

    #[test]
    fn exhausted_eden_requests_gc() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let mut needs_gc = false;
        for _ in 0..100_000 {
            if t.alloc(&mut h, 1024, Lifetime::Ephemeral, &mut sink) == AllocOutcome::NeedsGc {
                needs_gc = true;
                break;
            }
        }
        assert!(needs_gc, "1 MB eden must exhaust");
        assert!(h.eden_occupancy() > 0.95);
    }

    #[test]
    fn minimum_object_size_is_applied() {
        let mut h = heap();
        let mut t = Tlab::new();
        let mut sink = CountingSink::new();
        let id = t
            .alloc(&mut h, 1, Lifetime::Ephemeral, &mut sink)
            .ok()
            .unwrap();
        assert!(h.size_of(id) >= 16, "Java object header minimum");
    }
}
