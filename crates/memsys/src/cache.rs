//! A set-associative, true-LRU tag store whose associativity is part of
//! its type, optionally split into partitions that share one geometry.
//!
//! The cache tracks tags and coherence states only (the simulator never
//! stores data). Storage is one `[u32; WAYS]` array per set, kept in
//! MRU-first order, so a hit is one compare of the set's words and an
//! LRU update is a fixed-width shift of the set's first ways. `WAYS` is
//! a const generic: the memory system's L1s are `Cache<2>`, its L2 tag
//! table and the Figure 12/13 sweep caches `Cache<4>`, and the set walk,
//! the fill and the promote are straight-line code the compiler unrolls
//! for that width and inlines into the access path. No instance decides
//! its width at run time; [`Cache::new`] rejects a [`CacheConfig`] whose
//! `ways` is not `WAYS`.
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
//! elsewhere and below four words: a 4-way set is one compare, a 2-way
//! set two scalar ones.
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
//! `(set × parts + part) × WAYS + way`, so one set's ways across every
//! partition form one contiguous row. The keyed entry points address a
//! partition's set by its *row* `set × parts + part` ([`Cache::row`]);
//! with one partition the row is the set. `Cache::holder_slots` scans
//! a whole row with `slot_hits`, one 64-slot block at a time, and
//! yields the slots holding a line valid outside one skipped partition
//! — the snooping bus's "who has it?" in one pass over adjacent words
//! (16 groups × 4 ways is a 256 B row, four host cache lines), with the
//! answer in a form the snoop can act on without walking any holder's
//! set again.
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
#[inline(always)]
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

/// Moves `way` of `set` to MRU, shifting ways `0..way` down by one: a
/// fixed-width select per way, which `WAYS` unrolls.
#[inline(always)]
fn promote<T: Copy, const WAYS: usize>(set: &mut [T; WAYS], way: usize) {
    let hit = set[way];
    for i in (1..WAYS).rev() {
        if i <= way {
            set[i] = set[i - 1];
        }
    }
    set[0] = hit;
}

/// The way a fill replaces: the LRU-most invalid way, else the LRU way.
#[inline(always)]
fn victim<const WAYS: usize>(set: &[u32; WAYS]) -> usize {
    let mut victim = WAYS - 1;
    for (way, &w) in set.iter().enumerate() {
        if w == 0 {
            victim = way;
        }
    }
    victim
}

/// The most partitions a row scan can name: one bit each in a `u64`.
const HOLDER_PARTS: usize = 64;

/// A set-associative, true-LRU cache of coherence states with `WAYS`
/// ways per set, holding one or more same-geometry partitions in one
/// set-major table.
#[derive(Debug, Clone)]
pub struct Cache<const WAYS: usize> {
    block_bits: u32,
    /// Log2 of the set count, precomputed so `locate`/`line_addr` never
    /// pay a `count_ones` per reference.
    index_bits: u32,
    set_mask: u64,
    parts: usize,
    /// `sets * parts` rows of packed `tag << 3 | state` words, row
    /// `set * parts + part`, MRU-first within each row; an empty way is
    /// always 0 (see the module docs).
    meta: Vec<[u32; WAYS]>,
    /// Optional per-line presence masks (same layout as `meta`), moved
    /// with their lines on promotes and cleared on fill and
    /// invalidation. `None` unless built via [`Cache::with_presence`].
    presence: Option<Box<[[u64; WAYS]]>>,
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
    pub(crate) fn next<const WAYS: usize>(
        &mut self,
        cache: &Cache<WAYS>,
    ) -> Option<(usize, usize)> {
        while self.hits == 0 {
            self.block += 64;
            if self.block >= self.end {
                return None;
            }
            self.hits = cache.block_hits(self);
        }
        let slot = self.block + self.hits.trailing_zeros() as usize;
        self.hits &= self.hits - 1;
        Some(((slot - self.row) / WAYS, slot))
    }
}

impl Cache<4> {
    /// The most partitions the snoop filter's row scan over the L2 tag
    /// table (a `Cache<4>`) can answer for: one bit each in a `u64`.
    pub const MAX_HOLDER_PARTS: usize = HOLDER_PARTS;
}

impl<const WAYS: usize> Cache<WAYS> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways` is not `WAYS`.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::partitioned(cfg, 1)
    }

    /// Creates `parts` empty, independent caches of one geometry in a
    /// single set-major table (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or `cfg.ways` is not `WAYS`.
    pub fn partitioned(cfg: CacheConfig, parts: usize) -> Self {
        const {
            assert!(
                WAYS.is_power_of_two() && WAYS <= 64,
                "a set is a power of two of at most 64 ways"
            );
        }
        assert!(parts > 0, "a cache needs at least one partition");
        assert_eq!(
            cfg.ways as usize, WAYS,
            "a {WAYS}-way cache built from a {cfg} geometry"
        );
        let sets = cfg.sets() as usize;
        Cache {
            block_bits: cfg.block_bits(),
            index_bits: (sets as u64).trailing_zeros(),
            set_mask: (sets as u64) - 1,
            parts,
            meta: crate::mem::huge_vec(sets * parts, [0; WAYS]), // big tables only; see `crate::mem`
            presence: None,
        }
    }

    /// Adds a per-line presence mask to every partition (see
    /// [`Cache::or_presence_mru`]).
    pub(crate) fn with_presence(mut self) -> Self {
        self.presence = Some(vec![[0; WAYS]; self.meta.len()].into_boxed_slice());
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
    #[inline(always)]
    pub fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 >> self.block_bits;
        ((line & self.set_mask) as usize, line >> self.index_bits)
    }

    /// The row of `part`'s copy of `set` — the `set` argument of the keyed
    /// entry points for that partition.
    #[inline(always)]
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
    #[inline(always)]
    fn key(&self, addr: Addr) -> (usize, u64) {
        debug_assert_eq!(
            self.parts, 1,
            "addressed entry point on a partitioned cache"
        );
        self.locate(addr)
    }

    /// The partitions holding `(set, tag)` valid, as a bitset (bit `p` for
    /// partition `p`): `Cache::holder_slots` folded by partition.
    #[cfg(test)]
    pub(crate) fn holders(&self, set: usize, tag: u64) -> u64 {
        debug_assert!(self.parts <= HOLDER_PARTS);
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
        let width = self.parts * WAYS;
        let row = set * width;
        let (skip_lo, skip_hi) = skip.map_or((0, 0), |p| (row + p * WAYS, row + (p + 1) * WAYS));
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
        let hits = slot_hits(&self.meta.as_flattened()[scan.block..end], scan.key);
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
        let word = &mut self.meta.as_flattened_mut()[slot];
        debug_assert_ne!(*word, 0, "update of an invalid slot");
        let old = word_state(*word);
        let next = f(old);
        debug_assert!(next.is_valid(), "update_slot must not invalidate");
        if next != old {
            *word = pack(word_tag(*word), next);
        }
        old
    }

    /// Invalidates a valid slot, returning its old state and harvested
    /// presence mask (`u64::MAX` when tracking is disabled) — one step
    /// gives the snoop-write path the state *and* which upper caches to
    /// purge.
    #[inline]
    pub(crate) fn invalidate_slot(&mut self, slot: usize) -> (LineState, u64) {
        let word = std::mem::take(&mut self.meta.as_flattened_mut()[slot]);
        debug_assert_ne!(word, 0, "invalidation of an invalid slot");
        let mask = match &mut self.presence {
            Some(p) => std::mem::take(&mut p.as_flattened_mut()[slot]),
            None => u64::MAX,
        };
        (word_state(word), mask)
    }

    /// The way of `row` holding `(row, tag)` valid, if any.
    #[inline(always)]
    fn way_of(&self, row: usize, tag: u64) -> Option<usize> {
        let key = match_key(tag)?;
        let hits = slot_hits(&self.meta[row], key);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Finds the slot holding `(set, tag)`, valid lines only.
    #[inline(always)]
    pub(crate) fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.way_of(set, tag).map(|way| set * WAYS + way)
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
        self.way_of(set, tag)
            .map(|way| word_state(self.meta[set][way]))
    }

    /// Looks up `addr`, promoting it to MRU on a hit.
    #[inline(always)]
    pub fn touch(&mut self, addr: Addr) -> Option<LineState> {
        let (set, tag) = self.key(addr);
        self.touch_at(set, tag)
    }

    /// Keyed [`Cache::touch`]. After a hit the line occupies the set's
    /// MRU way, which is what makes `Cache::set_state_mru` O(1).
    #[inline(always)]
    pub fn touch_at(&mut self, set: usize, tag: u64) -> Option<LineState> {
        let way = self.way_of(set, tag)?;
        let ways = &mut self.meta[set];
        let st = word_state(ways[way]);
        promote(ways, way);
        if let Some(p) = &mut self.presence {
            promote(&mut p[set], way);
        }
        Some(st)
    }

    /// Inserts (fills) `addr` with `state`, evicting the LRU way if the set
    /// is full. Returns the evicted line, if any. The filled line becomes
    /// MRU.
    ///
    /// # Panics
    ///
    /// Panics if the tag is wider than a way word's 29 bits, and in debug
    /// builds if the line is already present — fills must follow a miss.
    #[inline(always)]
    pub fn insert(&mut self, addr: Addr, state: LineState) -> Option<Evicted> {
        let (set, tag) = self.key(addr);
        self.insert_at(set, tag, state)
    }

    /// Keyed [`Cache::insert`]. The filled line replaces the LRU-most
    /// invalid way, else the LRU way, and its presence mask starts
    /// empty.
    #[inline(always)]
    pub fn insert_at(&mut self, set: usize, tag: u64, state: LineState) -> Option<Evicted> {
        debug_assert!(
            self.find(set, tag).is_none(),
            "fill of already-present line (set {set}, tag {tag:#x})"
        );
        assert!(tag >> TAG_BITS == 0, "tag wider than a way word");
        let ways = &mut self.meta[set];
        let way = victim(ways);
        let old = std::mem::replace(&mut ways[way], pack(tag, state));
        promote(ways, way);
        let presence = match &mut self.presence {
            Some(p) => {
                let masks = &mut p[set];
                let mask = std::mem::take(&mut masks[way]);
                promote(masks, way);
                mask
            }
            None => u64::MAX,
        };
        (old != 0).then(|| Evicted {
            line: self.line_addr(set, word_tag(old)),
            state: word_state(old),
            presence,
        })
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
        let mru = &mut self.meta[set][0];
        debug_assert!(
            word_state(*mru).is_valid() && word_tag(*mru) == tag,
            "set_state_mru without a preceding touch hit"
        );
        *mru = pack(tag, state);
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
    #[inline(always)]
    pub(crate) fn or_presence_mru(&mut self, set: usize, tag: u64, bits: u64) {
        let _ = tag;
        if let Some(p) = &mut self.presence {
            debug_assert!(
                word_state(self.meta[set][0]).is_valid() && word_tag(self.meta[set][0]) == tag,
                "or_presence_mru without a preceding touch or fill"
            );
            p[set][0] |= bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache<2> {
        // 2 sets x 2 ways x 64B = 256B cache.
        Cache::new(CacheConfig::new(256, 2, 64).unwrap())
    }

    /// A reference model of a set-associative LRU cache: per-set vectors
    /// in MRU order, implemented as naively as possible. An invalidated
    /// line leaves the list, so the set has room again.
    struct RefCache {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            RefCache {
                sets: vec![Vec::new(); cfg.sets() as usize],
                ways: cfg.ways as usize,
            }
        }

        /// Whether `(set, tag)` is resident, without touching LRU order.
        fn holds(&self, set: usize, tag: u64) -> bool {
            self.sets[set].contains(&tag)
        }

        /// Whether the access hit, applying the LRU update or the fill;
        /// a fill into a full set returns the LRU tag it evicted.
        fn access(&mut self, set: usize, tag: u64) -> (bool, Option<u64>) {
            let s = &mut self.sets[set];
            if let Some(pos) = s.iter().position(|&t| t == tag) {
                s.remove(pos);
                s.insert(0, tag);
                return (true, None);
            }
            let evicted = if s.len() == self.ways { s.pop() } else { None };
            s.insert(0, tag);
            (false, evicted)
        }

        /// Removes `(set, tag)`, returning whether it was resident.
        fn invalidate(&mut self, set: usize, tag: u64) -> bool {
            let s = &mut self.sets[set];
            let pos = s.iter().position(|&t| t == tag);
            pos.map(|p| s.remove(p)).is_some()
        }
    }

    /// One access of the property tests to `cache` and its reference:
    /// a touch, then a fill on a miss. Both must agree on the hit and on
    /// the line a fill evicts.
    fn touch_or_fill<const WAYS: usize>(
        cache: &mut Cache<WAYS>,
        reference: &mut RefCache,
        row: usize,
        set: usize,
        tag: u64,
        what: &str,
    ) {
        let hit = cache.touch_at(row, tag).is_some();
        let evicted = if hit {
            None
        } else {
            cache.insert_at(row, tag, LineState::Shared).map(|e| e.line)
        };
        let (ref_hit, ref_evicted) = reference.access(set, tag);
        assert_eq!(hit, ref_hit, "{what}: hit diverged");
        let ref_line = ref_evicted.map(|t| cache.line_addr(row, t));
        assert_eq!(evicted, ref_line, "{what}: eviction diverged");
    }

    /// The production cache and the naive reference model agree on every
    /// hit, fill victim and invalidation over arbitrary streams that mix
    /// touches, fills and invalidations, so fills land in sets with
    /// holes anywhere — the rule that a fill takes the LRU-most invalid
    /// way and evicts only from a full set.
    fn matches_reference_lru<const WAYS: usize>() {
        for seed in 0..64u64 {
            let mut rng = prng::SimRng::seed_from_u64(seed);
            let n = rng.gen_range(1..600usize);
            let cfg = CacheConfig::new(512 * WAYS as u64, WAYS as u32, 64).unwrap();
            let mut cache = Cache::<WAYS>::new(cfg);
            let mut reference = RefCache::new(cfg);
            for _ in 0..n {
                let a = Addr(rng.gen_range(0..(1u64 << 12)));
                let (set, tag) = cache.locate(a);
                let what = format!("{WAYS} ways, seed {seed}, {a}");
                if rng.gen_range(0..4u32) == 0 {
                    let was = cache.invalidate_at(set, tag).is_some();
                    assert_eq!(was, reference.invalidate(set, tag), "{what}: invalidate");
                } else {
                    touch_or_fill(&mut cache, &mut reference, set, set, tag, &what);
                }
                assert_eq!(
                    cache.probe(a).is_some(),
                    reference.holds(set, tag),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn cache_matches_reference_lru() {
        matches_reference_lru::<2>();
        matches_reference_lru::<4>();
    }

    /// A partitioned cache is independent LRU caches in one table: a
    /// seeded stream interleaved over the partitions hits and evicts
    /// exactly where one reference cache per partition does, a
    /// snoop-style invalidation of every holder a row scan finds empties
    /// exactly the partitions whose reference holds the line, and
    /// `holders` names exactly those partitions.
    fn partitions_match_reference_lru<const WAYS: usize>() {
        for (seed, parts) in [1usize, 2, 3, 5, 8, 16, 64].into_iter().enumerate() {
            let mut rng = prng::SimRng::seed_from_u64(seed as u64);
            let cfg = CacheConfig::new(256 * WAYS as u64, WAYS as u32, 64).unwrap();
            let mut cache = Cache::<WAYS>::partitioned(cfg, parts);
            let mut reference: Vec<RefCache> = (0..parts).map(|_| RefCache::new(cfg)).collect();
            for _ in 0..4000 {
                let p = rng.gen_range(0..parts);
                let a = Addr(rng.gen_range(0..(1u64 << 12)));
                let (set, tag) = cache.locate(a);
                let what = format!("{WAYS} ways, {parts} parts, partition {p}, {a}");
                match rng.gen_range(0..8u32) {
                    0 => {
                        // Invalidate every copy outside `p`, as a write snoop does.
                        let mut scan = cache.holder_slots(set, tag, Some(p));
                        while let Some((q, slot)) = scan.next(&cache) {
                            assert!(reference[q].invalidate(set, tag), "{what}: holder {q}");
                            let _ = cache.invalidate_slot(slot);
                        }
                    }
                    1 => {
                        let row = cache.row(set, p);
                        let was = cache.invalidate_at(row, tag).is_some();
                        assert_eq!(was, reference[p].invalidate(set, tag), "{what}");
                    }
                    _ => {
                        let row = cache.row(set, p);
                        touch_or_fill(&mut cache, &mut reference[p], row, set, tag, &what);
                    }
                }
                let valid = (0..parts)
                    .filter(|&q| reference[q].holds(set, tag))
                    .fold(0u64, |m, q| m | 1 << q);
                assert_eq!(cache.holders(set, tag), valid, "{what}");
            }
        }
    }

    #[test]
    fn partitions_are_independent_lru_caches() {
        partitions_match_reference_lru::<2>();
        partitions_match_reference_lru::<4>();
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

    /// The fixed-width promote and victim rule against their plain
    /// definitions (`rotate_right` of the set's prefix; the last empty
    /// way, else the last way), for every way and every pattern of empty
    /// ways of a 2- and a 4-way set.
    #[test]
    fn promote_and_victim_match_their_definitions() {
        fn check<const WAYS: usize>() {
            for way in 0..WAYS {
                let mut set: [u32; WAYS] = std::array::from_fn(|i| i as u32 + 1);
                let mut want = set;
                want[..=way].rotate_right(1);
                promote(&mut set, way);
                assert_eq!(set, want, "{WAYS} ways, promote way {way}");
            }
            for empty in 0..1u32 << WAYS {
                let set: [u32; WAYS] =
                    std::array::from_fn(|i| if empty >> i & 1 == 1 { 0 } else { 9 });
                let want = (0..WAYS).rev().find(|&i| set[i] == 0).unwrap_or(WAYS - 1);
                assert_eq!(victim(&set), want, "{WAYS} ways, empty ways {empty:#b}");
            }
        }
        check::<2>();
        check::<4>();
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
            let mut c = Cache::<4>::partitioned(cfg, parts);
            for w in c.meta.as_flattened_mut() {
                if rng.gen_range(0..4u32) != 0 {
                    let state = LineState::from_code(rng.gen_range(1..5u32));
                    *w = pack(rng.gen_range(0..3u64), state);
                }
            }
            let width = parts * 4;
            let words = c.meta.as_flattened();
            for set in 0..4 {
                let row = set * width;
                for tag in [0, 1, 2, 1 << TAG_BITS] {
                    for skip in [None, Some(0), Some(parts / 2), Some(parts - 1)] {
                        let want: Vec<(usize, usize)> = (row..row + width)
                            .map(|slot| ((slot - row) / 4, slot))
                            .filter(|&(part, slot)| {
                                let w = words[slot];
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
    #[should_panic(expected = "a 2-way cache built from a 16KB/4way/64B geometry")]
    fn geometry_of_another_associativity_panics() {
        let _ = Cache::<2>::new(CacheConfig::new(16 << 10, 4, 64).unwrap());
    }

    #[test]
    fn tags_wider_than_a_word_miss() {
        let mut c = Cache::<2>::partitioned(CacheConfig::new(256, 2, 64).unwrap(), 2);
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
        let c = Cache::<4>::new(CacheConfig::new(1 << 14, 4, 64).unwrap());
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
        let mut c = small().with_presence();
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
        let mut c = small().with_presence();
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
        let mut c = Cache::<4>::new(cfg);
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
        let mut c =
            Cache::<2>::partitioned(CacheConfig::new(256, 2, 64).unwrap(), 3).with_presence();
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
