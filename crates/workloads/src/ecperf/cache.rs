//! The application server's object-level cache (entity bean cache).
//!
//! Section 2.5 names object-level caching as one of the commercial
//! application server's three key performance features: "instances of
//! components (beans) are cached in memory, thereby reducing database
//! queries and memory allocations". Section 4.4 then attributes ECperf's
//! *super-linear* speedup to constructive interference in this cache —
//! one thread re-uses entities fetched by another.
//!
//! The model is a capacity-bounded LRU map with a *time-to-live*: a cached
//! bean must be revalidated against the database once it is older than the
//! TTL (container-managed persistence consistency). The TTL is what makes
//! the hit rate *throughput-dependent* — with more processors pushing more
//! transactions through the same cache, popular entities are re-touched
//! within their TTL and the per-transaction path length falls. That is
//! the constructive-interference mechanism, not a curve fit.

use std::collections::HashMap;

use jvm::object::ObjectId;

/// A cache key: entity type tag + primary key, packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BeanKey(pub u64);

impl BeanKey {
    /// Packs an entity type tag and primary key.
    pub fn new(type_tag: u8, key: u64) -> Self {
        debug_assert!(key < 1 << 48, "bean primary key too large");
        BeanKey(((type_tag as u64) << 48) | key)
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Present and fresh: use the cached bean.
    Hit(ObjectId),
    /// Present but older than the TTL: must revalidate (database round
    /// trip) and refresh.
    Stale(ObjectId),
    /// Absent: must load (database round trip) and insert.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: BeanKey,
    obj: ObjectId,
    loaded_at: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh hits.
    pub hits: u64,
    /// Stale probes (present but expired).
    pub stale: u64,
    /// Misses.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl CacheStats {
    /// Fresh-hit ratio over all probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.stale + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded LRU bean cache with TTL-based freshness.
#[derive(Debug, Clone)]
pub struct ObjectCache {
    capacity: usize,
    ttl: u64,
    map: HashMap<BeanKey, u32>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    stats: CacheStats,
}

impl ObjectCache {
    /// Creates a cache holding up to `capacity` beans, fresh for `ttl`
    /// cycles after load.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ObjectCache {
            capacity,
            ttl,
            map: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached beans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn unlink(&mut self, idx: u32) {
        let e = self.entries[idx as usize];
        if e.prev != NIL {
            self.entries[e.prev as usize].next = e.next;
        } else {
            self.head = e.next;
        }
        if e.next != NIL {
            self.entries[e.next as usize].prev = e.prev;
        } else {
            self.tail = e.prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.entries[idx as usize].prev = NIL;
        self.entries[idx as usize].next = self.head;
        if self.head != NIL {
            self.entries[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Probes the cache at virtual time `now`, promoting hits to MRU.
    pub fn lookup(&mut self, key: BeanKey, now: u64) -> CacheLookup {
        match self.map.get(&key).copied() {
            None => {
                self.stats.misses += 1;
                CacheLookup::Miss
            }
            Some(idx) => {
                let e = self.entries[idx as usize];
                self.unlink(idx);
                self.push_front(idx);
                if now.saturating_sub(e.loaded_at) <= self.ttl {
                    self.stats.hits += 1;
                    CacheLookup::Hit(e.obj)
                } else {
                    self.stats.stale += 1;
                    CacheLookup::Stale(e.obj)
                }
            }
        }
    }

    /// Inserts (or refreshes) `key -> obj` at time `now`. Returns the heap
    /// object of an evicted bean, which the caller must free, if the cache
    /// was full; also returns the *replaced* object when refreshing an
    /// existing key with a new bean instance.
    pub fn insert(&mut self, key: BeanKey, obj: ObjectId, now: u64) -> Option<ObjectId> {
        if let Some(&idx) = self.map.get(&key) {
            // Refresh in place.
            let old = self.entries[idx as usize].obj;
            self.entries[idx as usize].obj = obj;
            self.entries[idx as usize].loaded_at = now;
            self.unlink(idx);
            self.push_front(idx);
            return if old == obj { None } else { Some(old) };
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            let v = self.entries[victim as usize];
            self.unlink(victim);
            self.map.remove(&v.key);
            self.free.push(victim);
            self.stats.evictions += 1;
            evicted = Some(v.obj);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Entry {
                    key,
                    obj,
                    loaded_at: now,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                let i = u32::try_from(self.entries.len()).expect("cache index fits u32");
                self.entries.push(Entry {
                    key,
                    obj,
                    loaded_at: now,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u32) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn miss_then_hit_within_ttl() {
        let mut c = ObjectCache::new(4, 100);
        let k = BeanKey::new(1, 7);
        assert_eq!(c.lookup(k, 0), CacheLookup::Miss);
        assert_eq!(c.insert(k, obj(1), 0), None);
        assert_eq!(c.lookup(k, 50), CacheLookup::Hit(obj(1)));
        assert_eq!(c.lookup(k, 100), CacheLookup::Hit(obj(1)));
    }

    #[test]
    fn expired_entries_are_stale_not_missing() {
        let mut c = ObjectCache::new(4, 100);
        let k = BeanKey::new(1, 7);
        c.insert(k, obj(1), 0);
        assert_eq!(c.lookup(k, 101), CacheLookup::Stale(obj(1)));
    }

    #[test]
    fn refresh_restores_freshness_and_returns_replaced() {
        let mut c = ObjectCache::new(4, 100);
        let k = BeanKey::new(1, 7);
        c.insert(k, obj(1), 0);
        assert_eq!(c.insert(k, obj(2), 200), Some(obj(1)));
        assert_eq!(c.lookup(k, 250), CacheLookup::Hit(obj(2)));
    }

    #[test]
    fn lru_eviction_returns_victim_object() {
        let mut c = ObjectCache::new(2, 1000);
        c.insert(BeanKey::new(0, 1), obj(1), 0);
        c.insert(BeanKey::new(0, 2), obj(2), 0);
        c.lookup(BeanKey::new(0, 1), 1); // 1 is MRU; 2 is LRU
        let evicted = c.insert(BeanKey::new(0, 3), obj(3), 2);
        assert_eq!(evicted, Some(obj(2)));
        assert_eq!(c.lookup(BeanKey::new(0, 2), 3), CacheLookup::Miss);
        assert!(matches!(
            c.lookup(BeanKey::new(0, 1), 3),
            CacheLookup::Hit(_)
        ));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn higher_touch_rate_raises_hit_rate_under_ttl() {
        // The constructive-interference mechanism: same popularity, more
        // probes per unit time => more fresh hits.
        let run = |probes_per_tick: u64| {
            let mut c = ObjectCache::new(64, 1_000);
            let mut now = 0u64;
            for round in 0..4_000u64 {
                for p in 0..probes_per_tick {
                    let key = BeanKey::new(1, (round * 7 + p * 13) % 32);
                    if !matches!(c.lookup(key, now), CacheLookup::Hit(_)) {
                        c.insert(key, obj(1), now);
                    }
                }
                now += 100; // virtual time advances per round
            }
            c.stats().hit_rate()
        };
        let slow = run(1);
        let fast = run(8);
        assert!(
            fast > slow + 0.1,
            "throughput must raise TTL-bound hit rate: slow={slow:.3} fast={fast:.3}"
        );
    }

    #[test]
    fn distinct_type_tags_do_not_collide() {
        let a = BeanKey::new(1, 42);
        let b = BeanKey::new(2, 42);
        assert_ne!(a, b);
        let mut c = ObjectCache::new(4, 100);
        c.insert(a, obj(1), 0);
        assert_eq!(c.lookup(b, 0), CacheLookup::Miss);
    }

    #[test]
    fn heavy_churn_keeps_list_consistent() {
        let mut c = ObjectCache::new(16, 50);
        for i in 0..10_000u64 {
            // A hot set of 8 keys interleaved with a stream of one-shot
            // keys: exercises hits, misses, evictions and refreshes.
            let k = if i % 4 == 0 {
                BeanKey::new(9, i)
            } else {
                BeanKey::new(1, i % 8)
            };
            match c.lookup(k, i) {
                CacheLookup::Hit(_) => {}
                _ => {
                    c.insert(k, obj((i % 97) as u32), i);
                }
            }
            assert!(c.len() <= 16);
        }
        let s = c.stats();
        assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ObjectCache::new(0, 1);
    }
}
