//! Java object monitors (inflated locks).
//!
//! Contended Java monitors inflate to heavyweight locks whose lock word is
//! written by every acquiring thread — making each hot lock a dedicated,
//! heavily written cache line that ping-pongs between processors. The
//! paper attributes a large share of both workloads' communication to "a
//! few highly contended locks": the hottest single line carries 20% of all
//! SPECjbb cache-to-cache transfers and 14% of ECperf's (Section 5.2).
//!
//! [`LockSet`] places each lock word on its own line and emits the
//! CAS-style acquire/release traffic. *Blocking* (who waits for whom, and
//! for how long) is scheduling policy and lives in the simulation harness;
//! this module only owns the lock words' memory behavior.

use memsys::{Addr, AddrRange, MemSink};

/// Identifies a monitor in a [`LockSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Instruction cost of an uncontended monitor enter/exit pair half.
const LOCK_PATH_INSTRUCTIONS: u64 = 25;

/// A region of inflated monitor lock words, one cache line apiece.
#[derive(Debug, Clone)]
pub struct LockSet {
    region: AddrRange,
    count: u32,
}

impl LockSet {
    /// Creates a lock set allocating lock words from `region`.
    pub fn new(region: AddrRange) -> Self {
        LockSet { region, count: 0 }
    }

    /// Creates (inflates) a new monitor.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of lines.
    pub fn create(&mut self) -> LockId {
        let offset = self.count as u64 * memsys::LINE_BYTES;
        assert!(
            offset + memsys::LINE_BYTES <= self.region.len(),
            "lock region exhausted after {} locks",
            self.count
        );
        let id = LockId(self.count);
        self.count += 1;
        id
    }

    /// The region lock words are carved from (region classification).
    pub fn region(&self) -> AddrRange {
        self.region
    }

    /// The lock word's address.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this set.
    pub(crate) fn addr(&self, id: LockId) -> Addr {
        assert!(id.0 < self.count, "unknown lock {id:?}");
        Addr(self.region.start().0 + id.0 as u64 * memsys::LINE_BYTES)
    }

    /// Emits the memory traffic of acquiring the monitor (CAS on the lock
    /// word: a load and a store to the same line).
    pub fn emit_acquire(&self, id: LockId, sink: &mut (impl MemSink + ?Sized)) {
        let a = self.addr(id);
        sink.instructions(LOCK_PATH_INSTRUCTIONS);
        sink.load(a);
        sink.store(a);
    }

    /// Emits the memory traffic of releasing the monitor.
    pub fn emit_release(&self, id: LockId, sink: &mut (impl MemSink + ?Sized)) {
        let a = self.addr(id);
        sink.instructions(LOCK_PATH_INSTRUCTIONS);
        sink.store(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{AccessKind, CountingSink, MemorySystem, RecordingSink};

    fn set() -> LockSet {
        LockSet::new(AddrRange::new(Addr(0x1_0000), 64 * 100))
    }

    #[test]
    fn each_lock_gets_its_own_line() {
        let mut s = set();
        let a = s.create();
        let b = s.create();
        assert_ne!(s.addr(a).line(), s.addr(b).line());
    }

    #[test]
    fn acquire_is_a_read_modify_write() {
        let mut s = set();
        let l = s.create();
        let mut sink = RecordingSink::new();
        s.emit_acquire(l, &mut sink);
        assert_eq!(sink.refs.len(), 2);
        assert_eq!(sink.refs[0].0, AccessKind::Load);
        assert_eq!(sink.refs[1].0, AccessKind::Store);
        assert_eq!(sink.refs[0].1.line(), sink.refs[1].1.line());
    }

    #[test]
    fn contended_lock_ping_pongs_between_caches() {
        let mut s = set();
        let l = s.create();
        let mut sys = MemorySystem::e6000(2).unwrap();
        // Warm both caches, then alternate acquires: every ownership change
        // after the first is a cache-to-cache transfer.
        struct SysSink<'a>(&'a mut MemorySystem, usize);
        impl memsys::MemSink for SysSink<'_> {
            fn instructions(&mut self, _n: u64) {}
            fn access(&mut self, kind: AccessKind, addr: Addr) {
                self.0.access(self.1, kind, addr);
            }
        }
        for round in 0..10 {
            let cpu = round % 2;
            let mut sink = SysSink(&mut sys, cpu);
            s.emit_acquire(l, &mut sink);
            s.emit_release(l, &mut sink);
        }
        assert!(
            sys.stats().total_c2c() >= 8,
            "alternating acquires must bounce the line: {}",
            sys.stats().total_c2c()
        );
    }

    #[test]
    fn release_charges_instructions() {
        let mut s = set();
        let l = s.create();
        let mut sink = CountingSink::new();
        s.emit_release(l, &mut sink);
        assert!(sink.instructions > 0);
        assert_eq!(sink.stores, 1);
    }

    #[test]
    #[should_panic(expected = "unknown lock")]
    fn foreign_lock_id_panics() {
        let s = set();
        let _ = s.addr(LockId(3));
    }
}
