//! One bounded, shareable LRU cache: the storage behind both the
//! compile-once [`LoweredCache`](crate::lowered::LoweredCache) and the
//! analyze-once `AnalysisCache` of `refidem-core`.
//!
//! Both caches hold values that are a pure function of their key
//! (procedures are immutable after construction), so a value is computed
//! once and shared behind an [`Arc`] by every later lookup. Each lookup
//! reports exactly what it did to the cache ([`Lookup`]), and a [`Tally`]
//! adds those outcomes up per run, which stays exact even when concurrent
//! workers share one cache.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// A keyed, shareable, size-bounded cache of immutable values.
///
/// The cache is a cheap handle: `Clone` shares the underlying storage, and
/// two handles compare equal when they share it (which lets configuration
/// types holding a cache keep a derived `PartialEq`). It holds at most
/// [`capacity`](KeyedCache::capacity) values and evicts the
/// least-recently-used entry when an insert would exceed the bound. The
/// default bound ([`DEFAULT_CAPACITY`](KeyedCache::DEFAULT_CAPACITY)) is far
/// above what the benchmark suite and the differential corpus populate, so
/// ordinary workloads never evict.
///
/// ```
/// use refidem_ir::cache::KeyedCache;
///
/// let cache: KeyedCache<&str, u64> = KeyedCache::fresh();
/// let first = cache.lookup("answer", || 42);
/// assert!(!first.hit, "first lookup computes");
/// let second = cache.lookup("answer", || unreachable!("cached"));
/// assert!(second.hit, "second lookup reuses the value");
/// assert!(std::sync::Arc::ptr_eq(&first.value, &second.value));
/// assert_eq!(cache.stats(), (1, 1)); // (hits, misses)
/// ```
pub struct KeyedCache<K, V> {
    inner: Arc<Mutex<Inner<K, V>>>,
}

/// One cached value plus the recency stamp LRU eviction orders by.
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    /// Monotonic lookup clock; every hit or insert stamps its entry.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> Inner<K, V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the map fits the bound.
    /// Returns how many entries were dropped. The scan is linear in the
    /// entry count — eviction only happens at the bound, and the bound is
    /// sized so ordinary workloads never reach it.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut dropped = 0u64;
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            dropped += 1;
        }
        self.evictions += dropped;
        dropped
    }
}

/// Per-call outcome of a [`KeyedCache::lookup`]: the value plus exactly
/// what this call did to the cache, so callers can attribute hit, miss and
/// eviction counts to a single run without racing other threads on the
/// shared lifetime counters.
#[derive(Clone, Debug)]
pub struct Lookup<V> {
    /// The value (cached or freshly computed).
    pub value: Arc<V>,
    /// True when the value was served from the cache.
    pub hit: bool,
    /// Entries this call evicted to make room (0 on a hit).
    pub evicted: u64,
}

/// A lookup outcome a [`Tally`] can count.
pub trait Counted {
    /// True when the lookup was served from the cache.
    fn hit(&self) -> bool;
    /// Entries the lookup evicted.
    fn evicted(&self) -> u64;
}

impl<V> Counted for Lookup<V> {
    fn hit(&self) -> bool {
        self.hit
    }

    fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Per-run attribution of cache traffic, accumulated by counting lookup
/// outcomes (exact under concurrent users of a shared cache, unlike
/// diffing the lifetime counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute their value.
    pub misses: u64,
    /// Entries evicted by this run's inserts.
    pub evictions: u64,
}

impl Tally {
    /// Folds one lookup outcome into the tally.
    pub fn count(&mut self, lookup: &impl Counted) {
        if lookup.hit() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.evictions += lookup.evicted();
    }
}

/// A snapshot of a cache's lifetime counters and occupancy (see
/// [`KeyedCache::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute their value.
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl<K, V> Clone for KeyedCache<K, V> {
    fn clone(&self) -> Self {
        KeyedCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Handle identity: two caches are equal when they share storage.
impl<K, V> PartialEq for KeyedCache<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<K, V> std::fmt::Debug for KeyedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("cache poisoned");
        f.debug_struct("KeyedCache")
            .field("entries", &inner.map.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .finish()
    }
}

impl<K: Clone + Eq + Hash, V> KeyedCache<K, V> {
    /// Default entry bound: far above what the benchmark suite and a
    /// differential corpus run populate, so only a deliberately long-lived
    /// process with an unbounded stream of *distinct* procedures ever
    /// evicts.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty cache that shares storage with nothing else, bounded
    /// at [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY) entries.
    pub fn fresh() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty, isolated cache holding at most `capacity` entries
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        KeyedCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("cache poisoned")
    }

    /// Returns the cached value for `key`, computing it with `compute` on a
    /// miss, along with exactly what this call did to the cache.
    pub fn lookup(&self, key: K, compute: impl FnOnce() -> V) -> Lookup<V> {
        match self.try_lookup(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(lookup) => lookup,
            Err(never) => match never {},
        }
    }

    /// [`lookup`](Self::lookup) with a fallible computation. A failure is
    /// returned as-is and never cached (and counts neither as hit nor
    /// miss).
    ///
    /// The computation runs *outside* the cache lock, so concurrent users
    /// never serialize on it; if two threads race on the same key both
    /// compute and one result wins — harmless, since equal keys produce
    /// interchangeable values. Inserting past the bound evicts
    /// least-recently-used entries.
    pub fn try_lookup<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Lookup<V>, E> {
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(found) = inner.map.get_mut(&key) {
                found.last_used = stamp;
                let value = found.value.clone();
                inner.hits += 1;
                return Ok(Lookup {
                    value,
                    hit: true,
                    evicted: 0,
                });
            }
        }
        let computed = Arc::new(compute()?);
        let mut inner = self.lock();
        inner.misses += 1;
        let stamp = inner.touch();
        let value = inner
            .map
            .entry(key)
            .or_insert(Slot {
                value: computed,
                last_used: stamp,
            })
            .value
            .clone();
        let evicted = inner.evict_to_capacity();
        Ok(Lookup {
            value,
            hit: false,
            evicted,
        })
    }

    /// `(hits, misses)` accumulated over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Lifetime counters plus occupancy and bound, in one snapshot.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.lock();
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }

    /// Entries dropped by LRU eviction over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Changes the entry bound (clamped to at least 1), evicting
    /// least-recently-used entries immediately if the cache is over the new
    /// bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        inner.evict_to_capacity();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the counters (the storage — and thus
    /// handle identity — is kept; the capacity bound is kept too).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(cache: &KeyedCache<u32, u32>, key: u32) -> Lookup<u32> {
        cache.lookup(key, || key * 10)
    }

    #[test]
    fn computes_once_per_key_and_clones_share_storage() {
        let cache = KeyedCache::with_capacity(7);
        let computes = std::cell::Cell::new(0);
        for _ in 0..3 {
            cache.lookup(1u32, || {
                computes.set(computes.get() + 1);
                7u32
            });
        }
        assert_eq!(computes.get(), 1);
        assert_eq!(cache.stats(), (2, 1));
        let alias = cache.clone();
        assert_eq!(alias, cache);
        assert_ne!(KeyedCache::<u32, u32>::fresh(), cache);
        // Clearing keeps the storage (and thus identity) and the bound.
        cache.clear();
        assert!(alias.is_empty());
        assert_eq!(alias, cache);
        assert_eq!(cache.capacity(), 7);
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = KeyedCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert!(!lookup(&cache, 1).hit);
        assert!(!lookup(&cache, 2).hit);
        // Touch 1 so 2 becomes the least recently used entry...
        assert!(lookup(&cache, 1).hit);
        // ...then a third insert must evict exactly 2.
        let third = lookup(&cache, 3);
        assert!(!third.hit);
        assert_eq!(third.evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(lookup(&cache, 1).hit, "recently used survives");
        assert!(!lookup(&cache, 2).hit, "LRU entry recomputes");
        assert_eq!(cache.evictions(), 2, "re-inserting 2 evicted 3 in turn");
        let c = cache.counters();
        assert_eq!((c.entries, c.capacity), (2, 2));
        assert_eq!(c.hits + c.misses, 6);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_clamps_to_one() {
        let cache = KeyedCache::with_capacity(8);
        for key in 1..=3 {
            lookup(&cache, key);
        }
        assert_eq!(cache.len(), 3);
        cache.set_capacity(0); // clamps to 1
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        // The survivor is the most recently used entry.
        assert!(lookup(&cache, 3).hit);
    }

    #[test]
    fn failed_computations_are_not_cached_or_counted() {
        let cache: KeyedCache<u32, u32> = KeyedCache::fresh();
        assert_eq!(cache.try_lookup(1, || Err("no")).unwrap_err(), "no");
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn tally_counts_each_outcome() {
        let cache = KeyedCache::with_capacity(1);
        let mut tally = Tally::default();
        for key in [1, 1, 2] {
            tally.count(&lookup(&cache, key));
        }
        assert_eq!(
            tally,
            Tally {
                hits: 1,
                misses: 2,
                evictions: 1
            }
        );
    }
}
