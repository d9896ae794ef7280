//! The least-recently-used map behind every cache in the workspace (the
//! plan cache's three maps and `qugen-serve`'s result cache): a logical
//! access clock stamps each lookup and insert, a full map evicts the
//! oldest stamp, and hit, miss and eviction counters are built in. Not
//! synchronized: owners wrap it in a mutex and store cheap-to-clone values
//! (`Arc`s), so a lookup returns a copy and can drop the lock.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a cache whether or not another thread panicked while holding it.
/// Caches hold immutable values (`Arc`s) and counters, so a panic cannot
/// leave one half-updated, and one panicking job must not break every
/// later user of a process-wide cache.
pub fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Traffic counters of one [`Lru`], monotonic since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LruStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to make room for an insert.
    pub evictions: u64,
}

/// A map holding at most `capacity` entries, evicting the least recently
/// used one on insert when full.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    stats: LruStats,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            stats: LruStats::default(),
            entries: HashMap::new(),
        }
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit, miss and eviction counters.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// A copy of `key`'s value, refreshing its recency; counts a hit or a
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((last_used, value)) => {
                *last_used = self.tick;
                self.stats.hits += 1;
                Some(value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces and refreshes) `key`. A new key inserted into
    /// a full map first evicts the least recently used entry, which is
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some((k, (_, v))) = oldest.and_then(|k| self.entries.remove_entry(&k)) {
                self.stats.evictions += 1;
                evicted = Some((k, v));
            }
        }
        self.entries.insert(key, (self.tick, value));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert!(lru.is_empty());
        lru.insert(1, 'a');
        assert_eq!(lru.insert(2, 'b'), Some((1, 'a')));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn hit_returns_the_inserted_result() {
        let mut lru = Lru::new(4);
        assert_eq!(lru.get(&1), None);
        lru.insert(1, "one");
        assert_eq!(lru.get(&1), Some("one"));
        assert_eq!(
            lru.stats(),
            LruStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, ());
        lru.insert(2, ());
        // Touch 1 so 2 becomes the victim.
        assert!(lru.get(&1).is_some());
        assert_eq!(lru.insert(3, ()), Some((2, ())));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&2).is_none(), "LRU entry was evicted");
        assert!(lru.get(&3).is_some());
        assert_eq!(lru.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut lru = Lru::new(2);
        lru.insert(1, 'a');
        lru.insert(2, 'b');
        assert_eq!(lru.insert(2, 'c'), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some('a'));
        assert_eq!(lru.get(&2), Some('c'), "the replacement value is kept");
        assert_eq!(lru.stats().evictions, 0);
    }
}
