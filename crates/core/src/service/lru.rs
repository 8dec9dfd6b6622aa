//! The memory tier's bounded LRU map.
//!
//! It holds a handful of heavyweight values (compiled modules keyed by
//! artifact key), so the implementation favours simplicity: a `Vec`
//! ordered least→most recently used, with O(len) lookup — at the
//! capacities involved (≤ a few dozen) that is faster than hashing would
//! be, and eviction order falls out of the ordering for free.

/// A least-recently-used map bounded to `capacity` entries.
///
/// A capacity of `0` disables storage entirely: every insert is dropped
/// on the floor and every lookup misses (useful to force a lower cache
/// tier, e.g. benchmarking disk hits without memory hits).
#[derive(Debug)]
pub(super) struct Lru<K, V> {
    /// Entries ordered least recently used first.
    entries: Vec<(K, V)>,
    capacity: usize,
    evictions: u64,
}

impl<K: PartialEq, V> Lru<K, V> {
    /// An empty cache bounded to `capacity` entries.
    pub(super) fn new(capacity: usize) -> Lru<K, V> {
        Lru { entries: Vec::new(), capacity, evictions: 0 }
    }

    /// Entries dropped so far to respect the capacity bound.
    pub(super) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub(super) fn get(&mut self, key: &K) -> Option<&V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        let e = self.entries.remove(i);
        self.entries.push(e);
        self.entries.last().map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, marking it most recently used and
    /// evicting the least recently used entry when over capacity.
    pub(super) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(i);
        }
        self.entries.push((key, value));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
    }

    /// Drops every entry (the eviction count is preserved).
    pub(super) fn clear(&mut self) {
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
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c: Lru<u32, u32> = Lru::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn a_full_cache_keeps_only_the_most_recent() {
        let mut c: Lru<u32, u32> = Lru::new(1);
        for k in 0..4 {
            c.insert(k, k);
        }
        assert_eq!(c.evictions(), 3);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(&3)); // MRU survived
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c: Lru<u32, u32> = Lru::new(0);
        c.insert(1, 1);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn clear_drops_entries_and_keeps_the_count() {
        let mut c: Lru<u32, u32> = Lru::new(1);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert_eq!(c.get(&2), None);
        assert_eq!(c.evictions(), 1);
    }
}
