//! A set-associative, true-LRU tag store, optionally split into
//! partitions that share one geometry.
//!
//! The cache tracks tags and coherence states only (the simulator never
//! stores data). Storage is flattened into contiguous per-set way arrays
//! kept in MRU-first order, so a hit is a short scan and an LRU update is a
//! small rotate — fast enough to stream hundreds of millions of references.
//!
//! Each way is one packed `u32` word, `tag << 3 | state` ([`LineState`]
//! discriminants fit in three bits), so a tag has 29 bits. Simulated
//! addresses stay below 2^32 (`MemorySystem::access` asserts it), which
//! leaves the paper's 1 MB L2 a 14-bit tag. A fill asserts its tag fits;
//! a lookup whose tag does not fit misses without comparing, so a
//! truncated key can never alias a stored word. Splitting tags and states
//! into parallel arrays reads more naturally but doubles the *random cache
//! lines* a set walk touches, and on big-footprint shapes those line
//! fetches — not instructions — are what a probe costs.
//!
//! **An invalid way is always stored as 0.** Fills never write
//! [`LineState::Invalid`] and invalidation writes the whole word to 0, so
//! "valid and tagged `tag`" is `(w | 7) == (tag << 3 | 7) && w != 0` —
//! one compare of the word against a key, with no state decode. The set
//! walk and the row scan both answer from one kernel, `slot_hits`, which
//! tests four words per SSE2 compare on x86-64 (SSE2 is the baseline
//! there, so no runtime detection) and the same predicate word by word
//! elsewhere and on the tail below four words.
//!
//! The hot-path contract is *decompose once, reuse everywhere*: callers
//! split an address into its `(set, tag)` key with [`Cache::locate`] and
//! thread that key through [`Cache::touch_at`], [`Cache::insert_at`]
//! and friends, so a multi-step protocol action (touch, then upgrade;
//! miss, then fill) never re-derives the index and never walks a set
//! twice where one walk suffices. A slot, once found, is acted on by
//! index (`Cache::update_slot`, `Cache::invalidate_slot`).
//!
//! ## Partitions
//!
//! [`Cache::partitioned`] builds `parts` independent LRU caches of one
//! geometry in a single table — the memory system keeps every L2 group's
//! tags this way. The table is *set-major*: slot
//! `(set × parts + part) × ways + way`, so one set's ways across every
//! partition form one contiguous row. The keyed entry points address a
//! partition's set by its *row* `set × parts + part` ([`Cache::row`]);
//! with one partition the row is the set. `Cache::holder_slots` scans
//! a whole row with `slot_hits`, one 64-slot block at a time, and
//! yields the slots holding a line valid outside one skipped partition
//! — the snooping bus's "who has it?" in one pass over adjacent words
//! (16 groups × 4 ways is a 256 B row, four host cache lines), with the
//! answer in a form the snoop can act on without walking any holder's
//! set again. [`Cache::holders`] folds the same scan into a partition
//! bitset.
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
pub(crate) const STATE_BITS: u32 = 3;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;
/// Bits of a packed way word left for the tag.
const TAG_BITS: u32 = u32::BITS - STATE_BITS;

/// Packs a valid way word (an invalid way is 0, never a packed word).
#[inline]
fn pack(tag: u64, state: LineState) -> u32 {
    debug_assert!(tag >> TAG_BITS == 0, "tag overflows packed word");
    debug_assert!(state.is_valid(), "an invalid way is stored as 0");
    ((tag as u32) << STATE_BITS) | state as u32
}

#[inline]
fn word_state(word: u32) -> LineState {
    LineState::from_code(word & STATE_MASK)
}

#[inline]
fn word_tag(word: u32) -> u64 {
    u64::from(word >> STATE_BITS)
}

/// The key a valid way holding `tag` matches once its state bits are set
/// (see `slot_hits`), or `None` when `tag` is too wide for a way word —
/// no fill can have stored it, so the lookup misses.
#[inline]
fn match_key(tag: u64) -> Option<u32> {
    (tag >> TAG_BITS == 0).then_some(((tag as u32) << STATE_BITS) | STATE_MASK)
}

/// Whether way word `w` holds a valid line whose key is `key`
/// (`match_key`). Exact because an invalid way is 0: a nonzero word has
/// a valid state.
#[inline(always)]
fn word_hits(w: u32, key: u32) -> bool {
    (w | STATE_MASK) == key && w != 0
}

/// Bit `i` is set when `word_hits(words[i], key)`. On x86-64 it tests four
/// words per SSE2 compare and the tail below four words one at a time;
/// elsewhere every word goes one at a time.
#[inline(always)]
fn slot_hits(words: &[u32], key: u32) -> u64 {
    debug_assert!(words.len() <= 64, "slot_hits answers 64 words at most");
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        use std::arch::x86_64::{
            _mm_andnot_si128, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps,
            _mm_or_si128, _mm_set1_epi32, _mm_setzero_si128,
        };
        let quads = words.len() / 4;
        let mut hits = 0u64;
        // SAFETY: the cfg guarantees SSE2, which every x86-64 target
        // enables. Load `q` reads words[4q..4q + 4], inside the slice for
        // every q < len / 4, and `_mm_loadu_si128` needs no alignment.
        unsafe {
            let state = _mm_set1_epi32(STATE_MASK as i32);
            let want = _mm_set1_epi32(key as i32);
            let zero = _mm_setzero_si128();
            for q in 0..quads {
                let w = _mm_loadu_si128(words.as_ptr().add(4 * q).cast());
                let tagged = _mm_cmpeq_epi32(_mm_or_si128(w, state), want);
                let hit = _mm_andnot_si128(_mm_cmpeq_epi32(w, zero), tagged);
                hits |= (_mm_movemask_ps(_mm_castsi128_ps(hit)) as u64) << (4 * q);
            }
        }
        // Fewer than four words remain; a fixed three-step loop keeps the
        // tail straight-line code the set walk can inline.
        let tail = &words[4 * quads..];
        for i in 0..3 {
            if let Some(&w) = tail.get(i) {
                hits |= u64::from(word_hits(w, key)) << (4 * quads + i);
            }
        }
        hits
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    words
        .iter()
        .enumerate()
        .fold(0, |hits, (i, &w)| hits | u64::from(word_hits(w, key)) << i)
}

/// The first way of a set wider than 64 ways holding `key`'s line: the
/// set walk for associativities `slot_hits` cannot answer in one call.
#[cold]
fn first_hit_wide(ways: &[u32], key: u32) -> Option<usize> {
    ways.chunks(64).enumerate().find_map(|(block, words)| {
        let hits = slot_hits(words, key);
        (hits != 0).then(|| block * 64 + hits.trailing_zeros() as usize)
    })
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
    /// `set * parts + part`, MRU-first within each row; an empty way is
    /// always 0 (see the module docs).
    meta: Vec<u32>,
    /// Optional per-line presence masks (same slot layout as `meta`),
    /// moved with their lines on LRU rotates and cleared on fill and
    /// invalidation. `None` unless built via [`Cache::with_presence`].
    presence: Option<Box<[u64]>>,
}

/// One scan of a row for a line's holders ([`Cache::holder_slots`]).
/// It holds no borrow, so the caller may act on each slot it yields
/// before asking for the next: acting on a slot never changes another.
#[derive(Debug, Clone)]
pub(crate) struct HolderSlots {
    /// First slot of the row.
    row: usize,
    /// First slot of the block `hits` covers.
    block: usize,
    /// One past the row's last slot.
    end: usize,
    key: u32,
    /// The current block's hits not yet yielded (bit `i` is slot
    /// `block + i`).
    hits: u64,
    /// The skipped partition's slots, `skip_lo..skip_hi`.
    skip_lo: usize,
    skip_hi: usize,
}

impl HolderSlots {
    /// The next holder as `(partition, slot)`, scanning the row's next
    /// 64-slot block of `cache` (the cache that started the scan) when
    /// this one is spent.
    #[inline]
    pub(crate) fn next(&mut self, cache: &Cache) -> Option<(usize, usize)> {
        while self.hits == 0 {
            self.block += 64;
            if self.block >= self.end {
                return None;
            }
            self.hits = cache.block_hits(self);
        }
        let slot = self.block + self.hits.trailing_zeros() as usize;
        self.hits &= self.hits - 1;
        Some(((slot - self.row) >> cache.way_bits, slot))
    }
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
        let set = if self.parts == 1 {
            row
        } else {
            row / self.parts
        } as u64;
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
    /// partition `p`): `Cache::holder_slots` folded by partition.
    ///
    /// # Panics
    ///
    /// Panics in debug builds past [`Cache::MAX_HOLDER_PARTS`] partitions.
    pub fn holders(&self, set: usize, tag: u64) -> u64 {
        debug_assert!(self.parts <= Self::MAX_HOLDER_PARTS);
        let mut scan = self.holder_slots(set, tag, None);
        let mut mask = 0;
        while let Some((part, _)) = scan.next(self) {
            mask |= 1 << part;
        }
        mask
    }

    /// Starts one scan of `set`'s row, in 64-slot blocks, for the slots
    /// holding `(set, tag)` valid outside partition `skip`. A partition
    /// holds a line in at most one way, so each slot found is one
    /// holder; [`HolderSlots::next`] yields them in ascending partition
    /// order, and the slot-keyed entry points act on them without a
    /// second walk.
    #[inline]
    pub(crate) fn holder_slots(&self, set: usize, tag: u64, skip: Option<usize>) -> HolderSlots {
        let width = self.parts * self.ways;
        let row = set * width;
        let (skip_lo, skip_hi) =
            skip.map_or((0, 0), |p| (row + p * self.ways, row + (p + 1) * self.ways));
        let mut scan = HolderSlots {
            row,
            block: row,
            end: row + width,
            key: 0,
            hits: 0,
            skip_lo,
            skip_hi,
        };
        match match_key(tag) {
            Some(key) => {
                scan.key = key;
                scan.hits = self.block_hits(&scan);
            }
            // No fill can have stored a too-wide tag: nothing to find.
            None => scan.block = scan.end,
        }
        scan
    }

    /// The hit bits of `scan`'s current block, the skipped partition's
    /// slots cleared.
    #[inline(always)]
    fn block_hits(&self, scan: &HolderSlots) -> u64 {
        let end = scan.end.min(scan.block + 64);
        let hits = slot_hits(&self.meta[scan.block..end], scan.key);
        let (lo, hi) = (scan.skip_lo.max(scan.block), scan.skip_hi.min(end));
        if lo >= hi {
            return hits;
        }
        let len = hi - lo;
        let skipped = if len == 64 {
            u64::MAX
        } else {
            ((1 << len) - 1) << (lo - scan.block)
        };
        hits & !skipped
    }

    /// Rewrites a valid slot's state with `f`, returning the *old* state
    /// — the snoop read-downgrade on a slot [`Cache::holder_slots`] or
    /// `Cache::find` located. `f` must not produce
    /// [`LineState::Invalid`] (use [`Cache::invalidate_slot`]).
    #[inline]
    pub(crate) fn update_slot(
        &mut self,
        slot: usize,
        f: impl FnOnce(LineState) -> LineState,
    ) -> LineState {
        let word = self.meta[slot];
        debug_assert_ne!(word, 0, "update of an invalid slot");
        let old = word_state(word);
        let next = f(old);
        debug_assert!(next.is_valid(), "update_slot must not invalidate");
        if next != old {
            self.meta[slot] = pack(word_tag(word), next);
        }
        old
    }

    /// Invalidates a valid slot, returning its old state and harvested
    /// presence mask (`u64::MAX` when tracking is disabled) — one step
    /// gives the snoop-write path the state *and* which upper caches to
    /// purge.
    #[inline]
    pub(crate) fn invalidate_slot(&mut self, slot: usize) -> (LineState, u64) {
        let word = std::mem::take(&mut self.meta[slot]);
        debug_assert_ne!(word, 0, "invalidation of an invalid slot");
        let mask = match &mut self.presence {
            Some(p) => std::mem::take(&mut p[slot]),
            None => u64::MAX,
        };
        (word_state(word), mask)
    }

    /// Finds the slot holding `(set, tag)`, valid lines only.
    #[inline(always)]
    pub(crate) fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let key = match_key(tag)?;
        let base = set * self.ways;
        let ways = &self.meta[base..base + self.ways];
        if ways.len() > 64 {
            return first_hit_wide(ways, key).map(|way| base + way);
        }
        let hits = slot_hits(ways, key);
        (hits != 0).then(|| base + hits.trailing_zeros() as usize)
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

    /// Moves `way` of the set at `base` to MRU by rotating the set's
    /// first `way + 1` slots in place.
    #[inline]
    fn promote(&mut self, base: usize, way: usize) {
        if way == 0 {
            return;
        }
        self.meta[base..=base + way].rotate_right(1);
        if let Some(p) = &mut self.presence {
            p[base..=base + way].rotate_right(1);
        }
    }

    /// Inserts (fills) `addr` with `state`, evicting the LRU way if the set
    /// is full. Returns the evicted line, if any. The filled line becomes
    /// MRU.
    ///
    /// # Panics
    ///
    /// Panics if the tag is wider than a way word's 29 bits, and in debug
    /// builds if the line is already present — fills must follow a miss.
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
        assert!(tag >> TAG_BITS == 0, "tag wider than a way word");
        let base = set * self.ways;
        // Prefer filling an invalid way (the LRU-most one to keep order tidy).
        let mut victim = self.ways - 1;
        for w in (0..self.ways).rev() {
            if self.meta[base + w] == 0 {
                victim = w;
                break;
            }
        }
        let old = self.meta[base + victim];
        let evicted = if old != 0 {
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

    /// Keyed [`Cache::invalidate_slot`]: the line's old state and
    /// presence mask, or `None` if `(set, tag)` is not valid here.
    pub(crate) fn invalidate_at(&mut self, set: usize, tag: u64) -> Option<(LineState, u64)> {
        let slot = self.find(set, tag)?;
        Some(self.invalidate_slot(slot))
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

    /// The kernel against its predicate on decoded words, for every row
    /// length up to 64: empty (0) words and tag-0 lines are both common,
    /// because addresses below 256 KiB have L2 tag 0.
    #[test]
    fn slot_hits_matches_its_scalar_predicate() {
        let mut rng = prng::SimRng::seed_from_u64(25);
        for len in 0..=64 {
            for _ in 0..32 {
                let words: Vec<u32> = (0..len)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 0,
                        _ => {
                            let state = LineState::from_code(rng.gen_range(1..5u32));
                            pack(rng.gen_range(0..3u64), state)
                        }
                    })
                    .collect();
                for tag in [0, 1, 2, (1 << TAG_BITS) - 1] {
                    let want = words.iter().enumerate().fold(0u64, |m, (i, &w)| {
                        let hit = word_state(w).is_valid() && word_tag(w) == tag;
                        m | u64::from(hit) << i
                    });
                    let key = match_key(tag).unwrap();
                    assert_eq!(slot_hits(&words, key), want, "len {len}, tag {tag}");
                }
            }
        }
    }

    /// The row scan against decoded fields, for rows of 4 to 256 slots
    /// (one to four 64-slot blocks): it yields exactly the slots holding
    /// the tag valid outside the skipped partition, in ascending order,
    /// each with its partition. Tag 0 (the kernel lines) must not match
    /// an empty word, and a too-wide tag matches nothing.
    #[test]
    fn holder_slots_match_decoded_fields() {
        let mut rng = prng::SimRng::seed_from_u64(27);
        let cfg = CacheConfig::new(1024, 4, 64).unwrap(); // 4 sets x 4 ways
        for parts in [1, 16, 32, 64] {
            let mut c = Cache::partitioned(cfg, parts);
            for w in c.meta.iter_mut() {
                if rng.gen_range(0..4u32) != 0 {
                    let state = LineState::from_code(rng.gen_range(1..5u32));
                    *w = pack(rng.gen_range(0..3u64), state);
                }
            }
            let width = parts * 4;
            for set in 0..4 {
                let row = set * width;
                for tag in [0, 1, 2, 1 << TAG_BITS] {
                    for skip in [None, Some(0), Some(parts / 2), Some(parts - 1)] {
                        let want: Vec<(usize, usize)> = (row..row + width)
                            .map(|slot| ((slot - row) / 4, slot))
                            .filter(|&(part, slot)| {
                                let w = c.meta[slot];
                                word_state(w).is_valid() && word_tag(w) == tag && Some(part) != skip
                            })
                            .collect();
                        let mut got = Vec::new();
                        let mut scan = c.holder_slots(set, tag, skip);
                        while let Some(hit) = scan.next(&c) {
                            got.push(hit);
                        }
                        assert_eq!(
                            got, want,
                            "{parts} parts, set {set}, tag {tag}, skip {skip:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sets_wider_than_64_ways_are_walked_in_blocks() {
        // One set of 128 ways: the set walk takes the blocked path.
        let mut c = Cache::new(CacheConfig::new(128 * 64, 128, 64).unwrap());
        let stride = 64;
        for i in 0..128 {
            assert_eq!(c.insert(Addr(i * stride), LineState::Shared), None);
        }
        for i in 0..128 {
            assert_eq!(
                c.probe(Addr(i * stride)),
                Some(LineState::Shared),
                "line {i}"
            );
        }
        // Line 0 is LRU; touching it makes line 1 the victim.
        assert!(c.touch(Addr(0)).is_some());
        let ev = c.insert(Addr(128 * stride), LineState::Shared).unwrap();
        assert_eq!(ev.line, Addr(stride).line());
        assert_eq!(c.probe(Addr(stride)), None);
    }

    #[test]
    fn tags_wider_than_a_word_miss() {
        let mut c = Cache::partitioned(CacheConfig::new(256, 2, 64).unwrap(), 2);
        let (set, tag) = c.locate(Addr(0));
        c.insert_at(c.row(set, 1), tag, LineState::Shared);
        // Truncated to 32 bits, this tag's key would alias tag 0's.
        let wide = tag + (1 << TAG_BITS);
        assert_eq!(match_key(wide), None);
        assert_eq!(c.probe_at(c.row(set, 1), wide), None);
        assert_eq!(c.holders(set, wide), 0);
        assert_eq!(c.holders(set, tag), 0b10);
    }

    #[test]
    #[should_panic(expected = "wider than a way word")]
    fn fill_with_a_tag_wider_than_a_word_panics() {
        let mut c = small();
        c.insert_at(0, 1 << TAG_BITS, LineState::Shared);
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
    fn update_slot_returns_old_state() {
        let mut c = small();
        c.insert(Addr(0), LineState::Modified);
        let (set, tag) = c.locate(Addr(0));
        let slot = c.find(set, tag).unwrap();
        let old = c.update_slot(slot, |s| s.after_remote_read());
        assert_eq!(old, LineState::Modified);
        assert_eq!(c.probe(Addr(0)), Some(LineState::Owned));
        assert_eq!(c.find(set, tag + 1), None);
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
