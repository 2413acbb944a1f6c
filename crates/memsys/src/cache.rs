//! A single set-associative cache with true-LRU replacement.
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
//! [`Cache::set_state_at`] and friends, so a multi-step protocol action
//! (touch, then upgrade; miss, then fill) never re-derives the index and
//! never walks a set twice where one walk suffices. Because every cache in
//! one level of a [`MemorySystem`](crate::system::MemorySystem) shares a
//! geometry, the same key addresses the same line in *all* of them — the
//! snoop paths decompose once per bus transaction, not once per cache.
//!
//! Caches built with [`Cache::with_presence`] additionally carry a per-line
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
    /// The presence mask tracked for the victim ([`Cache::with_presence`]);
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

/// A set-associative, true-LRU cache of coherence states.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    block_bits: u32,
    /// Log2 of the set count, precomputed so `locate`/`line_addr` never
    /// pay a `count_ones` per reference.
    index_bits: u32,
    set_mask: u64,
    ways: usize,
    /// `sets * ways` packed `tag << 3 | state` words, MRU-first within
    /// each set; 0 (tag 0, [`LineState::Invalid`]) is an empty way.
    meta: Vec<u64>,
    /// Optional per-line presence masks (same slot layout as `meta`),
    /// moved with their lines on LRU rotates and cleared on fill and
    /// invalidation. `None` unless built via [`Cache::with_presence`].
    presence: Option<Box<[u64]>>,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        Cache {
            cfg,
            block_bits: cfg.block_bits(),
            index_bits: (sets as u64).trailing_zeros(),
            set_mask: (sets as u64) - 1,
            ways,
            meta: crate::mem::huge_vec(sets * ways, 0), // big caches only; see `crate::mem`
            presence: None,
        }
    }

    /// Creates an empty cache that also tracks a per-line presence mask
    /// (see [`Cache::or_presence_mru`]).
    pub fn with_presence(cfg: CacheConfig) -> Self {
        let mut c = Cache::new(cfg);
        c.presence = Some(vec![0; c.meta.len()].into_boxed_slice());
        c
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Decomposes an address into this geometry's `(set, tag)` key.
    ///
    /// Every cache built from the same [`CacheConfig`] decomposes
    /// identically, so one key drives lookups in a whole bank of caches
    /// (the snoop paths rely on this).
    #[inline]
    pub fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 >> self.block_bits;
        ((line & self.set_mask) as usize, line >> self.index_bits)
    }

    /// Recombines a `(set, tag)` key into the raw line index
    /// (`byte address >> block_bits`) — the key the sharer directory is
    /// indexed by.
    #[inline]
    pub fn line_index(&self, set: usize, tag: u64) -> u64 {
        (tag << self.index_bits) | set as u64
    }

    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> LineAddr {
        // Reconstruct a line address in units of *this cache's* block size,
        // then convert to coherence-unit line addressing via the base().
        Addr(self.line_index(set, tag) << self.block_bits).line()
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
    pub fn probe(&self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.locate(addr);
        self.probe_at(set, tag)
    }

    /// Keyed [`Cache::probe`].
    #[inline]
    pub fn probe_at(&self, set: usize, tag: u64) -> Option<LineState> {
        self.find(set, tag).map(|slot| word_state(self.meta[slot]))
    }

    /// Looks up `addr`, promoting it to MRU on a hit.
    pub fn touch(&mut self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.locate(addr);
        self.touch_at(set, tag)
    }

    /// Keyed [`Cache::touch`]. After a hit the line occupies the set's
    /// MRU way, which is what makes [`Cache::set_state_mru`] O(1).
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
        let (set, tag) = self.locate(addr);
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

    /// Hints the CPU to pull `set`'s way words toward L1 — the L2 arrays
    /// of a many-processor system overflow the host's caches, and this
    /// fetch is the longest dependent load on the access path. Issued at
    /// access entry so it overlaps the (small, cache-resident) L1 probe.
    /// A hint only; no architectural effect.
    #[inline]
    pub fn prefetch_set(&self, set: usize) {
        // Discarded volatile load, not a prefetch instruction: prefetches
        // whose translation misses the TLB are dropped, and big L2 arrays
        // are where that happens (see `Directory::prefetch`).
        unsafe {
            let p = self.meta.as_ptr().add(set * self.ways);
            std::ptr::read_volatile(p.cast::<u8>());
            crate::mem::prefetch_write(p.cast());
        }
    }

    /// The line index ([`Cache::line_index`]) that [`Cache::insert_at`]
    /// would evict from `set` right now, or `None` while a free way
    /// remains. Lets the miss path start fetching eviction-side metadata
    /// (the sharer directory's slot for the victim) before the snoop and
    /// fill that will actually retire it.
    #[inline]
    pub fn victim_line_index(&self, set: usize) -> Option<u64> {
        let base = set * self.ways;
        for w in (0..self.ways).rev() {
            if word_state(self.meta[base + w]) == LineState::Invalid {
                return None;
            }
        }
        Some(self.line_index(set, word_tag(self.meta[base + self.ways - 1])))
    }

    /// Overwrites the state of a present line; returns the old state, or
    /// `None` if the line is not cached.
    pub fn set_state(&mut self, addr: Addr, state: LineState) -> Option<LineState> {
        let (set, tag) = self.locate(addr);
        self.set_state_at(set, tag, state)
    }

    /// Keyed [`Cache::set_state`]. Setting [`LineState::Invalid`] clears
    /// the line's presence mask.
    pub fn set_state_at(&mut self, set: usize, tag: u64, state: LineState) -> Option<LineState> {
        let slot = self.find(set, tag)?;
        let old = word_state(self.meta[slot]);
        self.meta[slot] = pack(tag, state);
        if !state.is_valid() {
            if let Some(p) = &mut self.presence {
                p[slot] = 0;
            }
        }
        Some(old)
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
    pub fn set_state_mru(&mut self, set: usize, tag: u64, state: LineState) {
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
    pub fn update_at(
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

    /// Invalidates a line if present; returns its prior state.
    pub fn invalidate(&mut self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.locate(addr);
        self.invalidate_at(set, tag).map(|(state, _)| state)
    }

    /// Keyed [`Cache::invalidate`] that also harvests the line's presence
    /// mask (`u64::MAX` when tracking is disabled) — one walk gives the
    /// snoop-write path the old state *and* which upper caches to purge.
    pub fn invalidate_at(&mut self, set: usize, tag: u64) -> Option<(LineState, u64)> {
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
    pub fn or_presence_mru(&mut self, set: usize, tag: u64, bits: u64) {
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

    /// The presence mask tracked for `addr`, if the cache tracks presence
    /// and holds the line (tests and diagnostics).
    pub fn presence_of(&self, addr: Addr) -> Option<u64> {
        let p = self.presence.as_ref()?;
        let (set, tag) = self.locate(addr);
        self.find(set, tag).map(|slot| p[slot])
    }

    /// Iterates over every valid resident line and its state (O(capacity);
    /// directory audits, tests and diagnostics).
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, LineState)> + '_ {
        (0..self.meta.len()).filter_map(move |slot| {
            let word = self.meta[slot];
            let st = word_state(word);
            st.is_valid()
                .then(|| (self.line_addr(slot / self.ways, word_tag(word)), st))
        })
    }

    /// Number of valid lines currently resident (O(capacity); for tests and
    /// diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.meta.iter().filter(|w| *w & STATE_MASK != 0).count()
    }

    /// Clears the cache to the empty state.
    pub fn clear(&mut self) {
        self.meta.fill(0);
        if let Some(p) = &mut self.presence {
            p.fill(0);
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
        assert_eq!(c.line_index(set, tag), 0xdead_b000u64 >> 6);
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
        assert_eq!(
            a.set_state_at(set, tag, LineState::Owned),
            b.set_state(addr, LineState::Owned)
        );
        assert_eq!(
            a.invalidate_at(set, tag).map(|(s, _)| s),
            b.invalidate(addr)
        );
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
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = small();
        c.insert(Addr(0), LineState::Exclusive);
        assert_eq!(
            c.set_state(Addr(0), LineState::Modified),
            Some(LineState::Exclusive)
        );
        assert_eq!(c.probe(Addr(0)), Some(LineState::Modified));
        assert_eq!(c.invalidate(Addr(0)), Some(LineState::Modified));
        assert_eq!(c.probe(Addr(0)), None);
        assert_eq!(c.invalidate(Addr(0)), None);
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
        let mut c = Cache::with_presence(CacheConfig::new(256, 2, 64).unwrap());
        let (set, tag) = c.locate(Addr(0));
        c.insert_at(set, tag, LineState::Exclusive);
        c.or_presence_mru(set, tag, 0b101);
        assert_eq!(c.presence_of(Addr(0)), Some(0b101));
        // A second fill pushes line 0 off MRU; its mask must move with it.
        c.insert(Addr(128), LineState::Shared);
        assert_eq!(c.presence_of(Addr(0)), Some(0b101));
        assert_eq!(c.presence_of(Addr(128)), Some(0));
        // Invalidation harvests and clears the mask.
        assert_eq!(
            c.invalidate_at(set, tag),
            Some((LineState::Exclusive, 0b101))
        );
        assert_eq!(c.presence_of(Addr(0)), None);
    }

    #[test]
    fn eviction_carries_presence_and_untracked_caches_report_full() {
        let mut c = Cache::with_presence(CacheConfig::new(256, 2, 64).unwrap());
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
    fn resident_iterates_valid_lines() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        c.insert(Addr(64), LineState::Shared);
        let mut lines: Vec<_> = c.resident().collect();
        lines.sort_by_key(|&(line, _)| line);
        assert_eq!(
            lines,
            vec![
                (Addr(0).line(), LineState::Modified),
                (Addr(64).line(), LineState::Shared)
            ]
        );
    }

    #[test]
    fn evicted_line_address_reconstructed() {
        let mut c = Cache::new(CacheConfig::new(1 << 14, 4, 64).unwrap());
        let addr = Addr(0xdead_b000);
        c.insert(addr, LineState::Owned);
        // Fill the same set with conflicting lines to force eviction.
        let sets = c.config().sets();
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
    fn clear_empties_cache() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
    }
}
