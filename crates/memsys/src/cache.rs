//! A set-associative, true-LRU tag store, optionally split into
//! partitions that share one geometry.
//!
//! The cache tracks tags and coherence states only (the simulator never
//! stores data). Storage is flattened into contiguous per-set way arrays
//! kept in MRU-first order, so a hit is a short scan and an LRU update is a
//! small rotate — fast enough to stream hundreds of millions of references.
//!
//! Each way is one packed `u64` word, `tag << 3 | state` ([`LineState`]
//! discriminants fit in three bits and `Invalid` is 0, so an empty slot is
//! simply 0). Splitting tags and states into parallel arrays reads more
//! naturally but doubles the *random cache lines* a set walk touches, and
//! on big-footprint shapes (16 L2s of metadata overflow a host L2) those
//! line fetches — not instructions — are what a probe costs.
//!
//! The hot-path contract is *decompose once, reuse everywhere*: callers
//! split an address into its `(set, tag)` key with [`Cache::locate`] and
//! thread that key through [`Cache::touch_at`], [`Cache::insert_at`],
//! `Cache::update_at` and friends, so a multi-step protocol action
//! (touch, then upgrade; miss, then fill) never re-derives the index and
//! never walks a set twice where one walk suffices.
//!
//! ## Partitions
//!
//! [`Cache::partitioned`] builds `parts` independent LRU caches of one
//! geometry in a single table — the memory system keeps every L2 group's
//! tags this way. The table is *set-major*: slot
//! `(set × parts + part) × ways + way`, so one set's ways across every
//! partition form one contiguous row. The keyed entry points address a
//! partition's set by its *row* `set × parts + part` ([`Cache::row`]);
//! with one partition the row is the set. [`Cache::holders`] scans a
//! whole row branch-free and answers which partitions hold a line valid —
//! the snooping bus's "who has it?" in one pass over adjacent words.
//!
//! Caches built with `Cache::with_presence` additionally carry a per-line
//! presence bitmask maintained by the level above (the memory system uses
//! it to remember which L1s above an inclusive L2 may hold each line, so
//! inclusion invalidations skip processors that never touched it).

use crate::addr::{Addr, LineAddr};
use crate::config::CacheConfig;
use crate::protocol::LineState;

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The victim's line address.
    pub line: LineAddr,
    /// Its state at eviction (dirty states require a writeback).
    pub state: LineState,
    /// The presence mask tracked for the victim (`Cache::with_presence`);
    /// `u64::MAX` ("assume everywhere") when tracking is disabled.
    pub presence: u64,
}

/// Bits of a packed way word holding the [`LineState`] discriminant.
const STATE_BITS: u32 = 3;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// Packs a way word. The tag is the line address above the index bits, so
/// even at the minimum 8-byte block size it fits the remaining 61 bits.
#[inline]
fn pack(tag: u64, state: LineState) -> u64 {
    debug_assert!(tag >> (64 - STATE_BITS) == 0, "tag overflows packed word");
    (tag << STATE_BITS) | state as u64
}

#[inline]
fn word_state(word: u64) -> LineState {
    LineState::from_code(word & STATE_MASK)
}

#[inline]
fn word_tag(word: u64) -> u64 {
    word >> STATE_BITS
}

/// A set-associative, true-LRU cache of coherence states, holding one or
/// more same-geometry partitions in one set-major table.
#[derive(Debug, Clone)]
pub struct Cache {
    block_bits: u32,
    /// Log2 of the set count, precomputed so `locate`/`line_addr` never
    /// pay a `count_ones` per reference.
    index_bits: u32,
    set_mask: u64,
    ways: usize,
    /// Log2 of `ways` (a power of two), so a row scan maps a slot to its
    /// partition with a shift, never a division.
    way_bits: u32,
    parts: usize,
    /// `sets * parts * ways` packed `tag << 3 | state` words, row
    /// `set * parts + part`, MRU-first within each row; 0 (tag 0,
    /// [`LineState::Invalid`]) is an empty way.
    meta: Vec<u64>,
    /// Optional per-line presence masks (same slot layout as `meta`),
    /// moved with their lines on LRU rotates and cleared on fill and
    /// invalidation. `None` unless built via [`Cache::with_presence`].
    presence: Option<Box<[u64]>>,
}

impl Cache {
    /// The most partitions [`Cache::holders`] can answer for: one bit
    /// each in a `u64`.
    pub const MAX_HOLDER_PARTS: usize = 64;

    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::partitioned(cfg, 1)
    }

    /// Creates `parts` empty, independent caches of one geometry in a
    /// single set-major table (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn partitioned(cfg: CacheConfig, parts: usize) -> Self {
        assert!(parts > 0, "a cache needs at least one partition");
        let sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        Cache {
            block_bits: cfg.block_bits(),
            index_bits: (sets as u64).trailing_zeros(),
            set_mask: (sets as u64) - 1,
            ways,
            way_bits: ways.trailing_zeros(),
            parts,
            meta: crate::mem::huge_vec(sets * parts * ways, 0), // big tables only; see `crate::mem`
            presence: None,
        }
    }

    /// Adds a per-line presence mask to every partition (see
    /// [`Cache::or_presence_mru`]).
    pub(crate) fn with_presence(mut self) -> Self {
        self.presence = Some(vec![0; self.meta.len()].into_boxed_slice());
        self
    }

    /// Number of partitions.
    pub(crate) fn parts(&self) -> usize {
        self.parts
    }

    /// Decomposes an address into this geometry's `(set, tag)` key.
    ///
    /// Every cache built from the same [`CacheConfig`] decomposes
    /// identically, so one key drives lookups in every partition and in
    /// a whole bank of caches.
    #[inline]
    pub fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 >> self.block_bits;
        ((line & self.set_mask) as usize, line >> self.index_bits)
    }

    /// The row of `part`'s copy of `set` — the `set` argument of the keyed
    /// entry points for that partition.
    #[inline]
    pub fn row(&self, set: usize, part: usize) -> usize {
        debug_assert!(part < self.parts, "partition {part} out of range");
        set * self.parts + part
    }

    #[inline]
    fn line_addr(&self, row: usize, tag: u64) -> LineAddr {
        // Reconstruct a line address in units of *this cache's* block size,
        // then convert to coherence-unit line addressing via the base().
        let set = (row / self.parts) as u64;
        Addr(((tag << self.index_bits) | set) << self.block_bits).line()
    }

    /// The key of `addr` for the addressed entry points, which serve
    /// one-partition caches (partitioned ones use the keyed forms with
    /// [`Cache::row`]).
    #[inline]
    fn key(&self, addr: Addr) -> (usize, u64) {
        debug_assert_eq!(
            self.parts, 1,
            "addressed entry point on a partitioned cache"
        );
        self.locate(addr)
    }

    /// The partitions holding `(set, tag)` valid, as a bitset (bit `p` for
    /// partition `p`), from one branch-free scan of the set's row.
    ///
    /// # Panics
    ///
    /// Panics in debug builds past [`Cache::MAX_HOLDER_PARTS`] partitions.
    #[inline]
    pub fn holders(&self, set: usize, tag: u64) -> u64 {
        debug_assert!(self.parts <= Self::MAX_HOLDER_PARTS);
        let width = self.parts * self.ways;
        let row = &self.meta[set * width..(set + 1) * width];
        let mut mask = 0;
        for (i, &word) in row.iter().enumerate() {
            let hit = (word_tag(word) == tag) & (word & STATE_MASK != 0);
            mask |= (hit as u64) << (i >> self.way_bits);
        }
        mask
    }

    /// Finds the slot holding `(set, tag)`, valid lines only.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        for w in 0..self.ways {
            let word = self.meta[base + w];
            if word_tag(word) == tag && word & STATE_MASK != 0 {
                return Some(base + w);
            }
        }
        None
    }

    /// Looks up `addr` without disturbing LRU order.
    ///
    /// Returns the line's state if present and valid.
    pub(crate) fn probe(&self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.key(addr);
        self.probe_at(set, tag)
    }

    /// Keyed `Cache::probe`.
    #[inline]
    pub fn probe_at(&self, set: usize, tag: u64) -> Option<LineState> {
        self.find(set, tag).map(|slot| word_state(self.meta[slot]))
    }

    /// Looks up `addr`, promoting it to MRU on a hit.
    pub fn touch(&mut self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.key(addr);
        self.touch_at(set, tag)
    }

    /// Keyed [`Cache::touch`]. After a hit the line occupies the set's
    /// MRU way, which is what makes `Cache::set_state_mru` O(1).
    #[inline]
    pub fn touch_at(&mut self, set: usize, tag: u64) -> Option<LineState> {
        let slot = self.find(set, tag)?;
        let st = word_state(self.meta[slot]);
        let base = set * self.ways;
        self.promote(base, slot - base);
        Some(st)
    }

    #[inline]
    fn promote(&mut self, base: usize, way: usize) {
        if way == 0 {
            return;
        }
        let word = self.meta[base + way];
        self.meta.copy_within(base..base + way, base + 1);
        self.meta[base] = word;
        if let Some(p) = &mut self.presence {
            let pv = p[base + way];
            p.copy_within(base..base + way, base + 1);
            p[base] = pv;
        }
    }

    /// Inserts (fills) `addr` with `state`, evicting the LRU way if the set
    /// is full. Returns the evicted line, if any. The filled line becomes
    /// MRU.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present — fills must
    /// follow a miss.
    pub fn insert(&mut self, addr: Addr, state: LineState) -> Option<Evicted> {
        let (set, tag) = self.key(addr);
        self.insert_at(set, tag, state)
    }

    /// Keyed [`Cache::insert`]. The filled line's presence mask starts
    /// empty.
    pub fn insert_at(&mut self, set: usize, tag: u64, state: LineState) -> Option<Evicted> {
        debug_assert!(
            self.find(set, tag).is_none(),
            "fill of already-present line (set {set}, tag {tag:#x})"
        );
        let base = set * self.ways;
        // Prefer filling an invalid way (the LRU-most one to keep order tidy).
        let mut victim = self.ways - 1;
        for w in (0..self.ways).rev() {
            if word_state(self.meta[base + w]) == LineState::Invalid {
                victim = w;
                break;
            }
        }
        let old = self.meta[base + victim];
        let evicted = if word_state(old) != LineState::Invalid {
            Some(Evicted {
                line: self.line_addr(set, word_tag(old)),
                state: word_state(old),
                presence: self
                    .presence
                    .as_ref()
                    .map_or(u64::MAX, |p| p[base + victim]),
            })
        } else {
            None
        };
        self.meta[base + victim] = pack(tag, state);
        if let Some(p) = &mut self.presence {
            p[base + victim] = 0;
        }
        self.promote(base, victim);
        evicted
    }

    /// Rewrites the state of the line a [`Cache::touch_at`] hit just
    /// promoted to MRU — the O(1) second half of a touch-then-upgrade
    /// (the store path's E→M and S/O→M transitions), replacing what used
    /// to be a second full set walk.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the MRU way does not hold `(set, tag)`.
    #[inline]
    pub(crate) fn set_state_mru(&mut self, set: usize, tag: u64, state: LineState) {
        let base = set * self.ways;
        debug_assert!(
            word_state(self.meta[base]).is_valid() && word_tag(self.meta[base]) == tag,
            "set_state_mru without a preceding touch hit"
        );
        self.meta[base] = pack(tag, state);
    }

    /// Reads, transforms and (if changed) rewrites a line's state in one
    /// walk, returning the *old* state — the snoop paths' read-downgrade
    /// in a single probe. `f` must not produce [`LineState::Invalid`]
    /// (use [`Cache::invalidate_at`] for that, which also harvests the
    /// presence mask).
    #[inline]
    pub(crate) fn update_at(
        &mut self,
        set: usize,
        tag: u64,
        f: impl FnOnce(LineState) -> LineState,
    ) -> Option<LineState> {
        let slot = self.find(set, tag)?;
        let old = word_state(self.meta[slot]);
        let next = f(old);
        debug_assert!(next.is_valid(), "update_at must not invalidate");
        if next != old {
            self.meta[slot] = pack(tag, next);
        }
        Some(old)
    }

    /// Keyed [`Cache::invalidate`] that also harvests the line's presence
    /// mask (`u64::MAX` when tracking is disabled) — one walk gives the
    /// snoop-write path the old state *and* which upper caches to purge.
    pub(crate) fn invalidate_at(&mut self, set: usize, tag: u64) -> Option<(LineState, u64)> {
        let slot = self.find(set, tag)?;
        let old = word_state(self.meta[slot]);
        self.meta[slot] = 0;
        let mask = match &mut self.presence {
            Some(p) => std::mem::take(&mut p[slot]),
            None => u64::MAX,
        };
        Some((old, mask))
    }

    /// ORs `bits` into the MRU line's presence mask (no-op when the cache
    /// does not track presence). The caller must have just touched or
    /// inserted `(set, tag)` so it occupies the MRU way.
    #[inline]
    pub(crate) fn or_presence_mru(&mut self, set: usize, tag: u64, bits: u64) {
        let base = set * self.ways;
        let _ = tag;
        if let Some(p) = &mut self.presence {
            debug_assert!(
                word_state(self.meta[base]).is_valid() && word_tag(self.meta[base]) == tag,
                "or_presence_mru without a preceding touch or fill"
            );
            p[base] |= bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B = 256B cache.
        Cache::new(CacheConfig::new(256, 2, 64).unwrap())
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(Addr(0)), None);
        assert_eq!(c.insert(Addr(0), LineState::Shared), None);
        assert_eq!(c.probe(Addr(0)), Some(LineState::Shared));
        assert_eq!(c.probe(Addr(63)), Some(LineState::Shared), "same line");
        assert_eq!(c.probe(Addr(64)), None, "next line maps to other set");
    }

    #[test]
    fn locate_matches_geometry() {
        let c = Cache::new(CacheConfig::new(1 << 14, 4, 64).unwrap());
        // 64 sets: index bits 6..12, block bits 0..6.
        let (set, tag) = c.locate(Addr(0xdead_b000));
        assert_eq!(set, (0xdead_b000u64 >> 6) as usize & 63);
        assert_eq!(tag, 0xdead_b000u64 >> 12);
    }

    #[test]
    fn keyed_entry_points_agree_with_addressed_ones() {
        let mut a = small();
        let mut b = small();
        let addr = Addr(0x140);
        let (set, tag) = a.locate(addr);
        assert_eq!(a.insert_at(set, tag, LineState::Exclusive), None);
        assert_eq!(b.insert(addr, LineState::Exclusive), None);
        assert_eq!(a.probe_at(set, tag), b.probe(addr));
        assert_eq!(a.touch_at(set, tag), b.touch(addr));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines whose (line % 2 == 0): byte addrs 0, 128, 256...
        c.insert(Addr(0), LineState::Shared);
        c.insert(Addr(128), LineState::Shared);
        // Touch line 0 so line at 128 becomes LRU.
        assert!(c.touch(Addr(0)).is_some());
        let ev = c.insert(Addr(256), LineState::Shared).unwrap();
        assert_eq!(ev.line, Addr(128).line());
        assert_eq!(c.probe(Addr(0)), Some(LineState::Shared));
        assert_eq!(c.probe(Addr(128)), None);
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        c.insert(Addr(128), LineState::Shared);
        c.touch(Addr(128));
        let ev = c.insert(Addr(256), LineState::Shared).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.line, Addr(0).line());
    }

    #[test]
    fn invalid_way_preferred_over_eviction() {
        let mut c = small();
        c.insert(Addr(0), LineState::Shared);
        assert_eq!(c.insert(Addr(128), LineState::Shared), None);
        assert_eq!(c.probe(Addr(0)), Some(LineState::Shared));
    }

    #[test]
    fn invalidate_at_clears_the_line() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        let (set, tag) = c.locate(Addr(0));
        assert_eq!(
            c.invalidate_at(set, tag),
            Some((LineState::Modified, u64::MAX))
        );
        assert_eq!(c.probe(Addr(0)), None);
        assert_eq!(c.invalidate_at(set, tag), None);
    }

    #[test]
    fn set_state_mru_rewrites_touched_line() {
        let mut c = small();
        c.insert(Addr(0), LineState::Exclusive);
        c.insert(Addr(128), LineState::Shared);
        let (set, tag) = c.locate(Addr(0));
        assert_eq!(c.touch_at(set, tag), Some(LineState::Exclusive));
        c.set_state_mru(set, tag, LineState::Modified);
        assert_eq!(c.probe(Addr(0)), Some(LineState::Modified));
        assert_eq!(c.probe(Addr(128)), Some(LineState::Shared));
    }

    #[test]
    fn update_at_returns_old_state_in_one_walk() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        let (set, tag) = c.locate(Addr(0));
        let old = c.update_at(set, tag, |s| s.after_remote_read());
        assert_eq!(old, Some(LineState::Modified));
        assert_eq!(c.probe(Addr(0)), Some(LineState::Owned));
        assert_eq!(c.update_at(set, tag + 1, |s| s), None);
    }

    #[test]
    fn presence_mask_follows_the_line() {
        let mut c = Cache::new(CacheConfig::new(256, 2, 64).unwrap()).with_presence();
        let (set, tag) = c.locate(Addr(0));
        c.insert_at(set, tag, LineState::Exclusive);
        c.or_presence_mru(set, tag, 0b101);
        // A second fill pushes line 0 off MRU; its mask must move with it,
        // and the new line starts with an empty mask.
        c.insert(Addr(128), LineState::Shared);
        let (set2, tag2) = c.locate(Addr(128));
        assert_eq!(c.invalidate_at(set2, tag2), Some((LineState::Shared, 0)));
        // Invalidation harvests and clears the mask.
        assert_eq!(
            c.invalidate_at(set, tag),
            Some((LineState::Exclusive, 0b101))
        );
        assert_eq!(c.invalidate_at(set, tag), None);
    }

    #[test]
    fn eviction_carries_presence_and_untracked_caches_report_full() {
        let mut c = Cache::new(CacheConfig::new(256, 2, 64).unwrap()).with_presence();
        c.insert(Addr(0), LineState::Shared);
        let (set, tag) = c.locate(Addr(0));
        c.or_presence_mru(set, tag, 0b11);
        c.insert(Addr(128), LineState::Shared);
        c.touch(Addr(128));
        let ev = c.insert(Addr(256), LineState::Shared).unwrap();
        assert_eq!(ev.line, Addr(0).line());
        assert_eq!(ev.presence, 0b11);

        let mut plain = small();
        plain.insert(Addr(0), LineState::Shared);
        let (set, tag) = plain.locate(Addr(0));
        assert_eq!(
            plain.invalidate_at(set, tag),
            Some((LineState::Shared, u64::MAX))
        );
    }

    #[test]
    fn evicted_line_address_reconstructed() {
        let cfg = CacheConfig::new(1 << 14, 4, 64).unwrap();
        let mut c = Cache::new(cfg);
        let addr = Addr(0xdead_b000);
        c.insert(addr, LineState::Owned);
        // Fill the same set with conflicting lines to force eviction.
        let sets = cfg.sets();
        let stride = sets * 64;
        let mut evicted = None;
        for i in 1..=4 {
            evicted = c.insert(Addr(addr.0 + i * stride), LineState::Shared);
            if evicted.is_some() {
                break;
            }
        }
        assert_eq!(evicted.unwrap().line, addr.line());
    }

    #[test]
    fn partitions_share_a_row_and_report_holders() {
        // 2 sets x 2 ways per partition, 3 partitions.
        let mut c = Cache::partitioned(CacheConfig::new(256, 2, 64).unwrap(), 3).with_presence();
        let (set, tag) = c.locate(Addr(0x40));
        assert_eq!(c.holders(set, tag), 0);
        c.insert_at(c.row(set, 0), tag, LineState::Shared);
        c.insert_at(c.row(set, 2), tag, LineState::Owned);
        assert_eq!(c.holders(set, tag), 0b101);
        assert_eq!(c.holders(set ^ 1, tag), 0, "other set untouched");
        // Two more fills evict partition 2's copy and leave 0's alone.
        let (_, t2) = c.locate(Addr(0x40 + 128));
        let (_, t3) = c.locate(Addr(0x40 + 256));
        c.insert_at(c.row(set, 2), t2, LineState::Shared);
        let ev = c.insert_at(c.row(set, 2), t3, LineState::Shared).unwrap();
        assert_eq!((ev.line, ev.state), (Addr(0x40).line(), LineState::Owned));
        assert_eq!(c.holders(set, tag), 0b001);
        assert_eq!(c.holders(set, t3), 0b100);
        assert_eq!(
            c.invalidate_at(c.row(set, 0), tag),
            Some((LineState::Shared, 0))
        );
        assert_eq!(c.holders(set, tag), 0);
    }
}
