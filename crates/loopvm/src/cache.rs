//! A small bounded LRU map with hit/miss/eviction counters.
//!
//! Used by the compile service's in-memory module tier (keyed by the
//! service's artifact key). The cache holds a handful of heavyweight
//! values, so the implementation favours simplicity: a `Vec` ordered
//! least→most recently used, with O(len) lookup — at the capacities
//! involved (≤ a few dozen) that is faster than hashing would be, and
//! eviction order falls out of the ordering for free.

/// Monotonic counters describing a cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

/// A least-recently-used map bounded to `capacity` entries.
///
/// A capacity of `0` disables storage entirely: every insert is dropped
/// on the floor and every lookup misses (useful to force a lower cache
/// tier, e.g. benchmarking disk hits without memory hits).
#[derive(Debug)]
pub struct Lru<K, V> {
    /// Entries ordered least recently used first.
    entries: Vec<(K, V)>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: PartialEq, V> Lru<K, V> {
    /// An empty cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru { entries: Vec::new(), capacity, stats: CacheStats::default() }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the cache, evicting least-recently-used entries if the
    /// new capacity is smaller than the current population.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters (hits/misses/evictions).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.stats.hits += 1;
                let e = self.entries.remove(i);
                self.entries.push(e);
                self.entries.last().map(|(_, v)| v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, marking it most recently used and
    /// evicting the least recently used entry when over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(i);
        }
        self.entries.push((key, value));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: Lru<u32, &str> = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 becomes MRU
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 1));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c: Lru<u32, u32> = Lru::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut c: Lru<u32, u32> = Lru::new(4);
        for k in 0..4 {
            c.insert(k, k);
        }
        c.set_capacity(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 3);
        assert_eq!(c.get(&3), Some(&3)); // MRU survived
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c: Lru<u32, u32> = Lru::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }
}
