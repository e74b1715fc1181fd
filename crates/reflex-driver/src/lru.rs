//! A small least-recently-used table for the env's per-program state.
//!
//! Tables here hold at most [`crate::RESIDENT_CAPACITY`] entries, so a
//! linear scan in recency order beats hashing: a lookup compares keys
//! until one matches, and a hit moves its entry to the back.

/// Entries in recency order, least recently used first.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
}

impl<K, V: Clone> Lru<K, V> {
    /// An empty table that keeps at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The value of the entry whose key satisfies `is_key`, marking it
    /// most recently used.
    pub(crate) fn get(&mut self, is_key: impl Fn(&K) -> bool) -> Option<V> {
        let at = self.entries.iter().rposition(|(k, _)| is_key(k))?;
        let entry = self.entries.remove(at);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// [`Lru::get`], or else inserts `make()`'s entry, evicting the least
    /// recently used one when full. An entry already present wins over the
    /// new one.
    pub(crate) fn get_or_insert(
        &mut self,
        is_key: impl Fn(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> V {
        if let Some(value) = self.get(is_key) {
            return value;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        let entry = make();
        let value = entry.1.clone();
        self.entries.push(entry);
        value
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::Lru;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        lru.get_or_insert(|k| *k == 1, || (1, "one"));
        lru.get_or_insert(|k| *k == 2, || (2, "two"));
        assert_eq!(lru.get(|k| *k == 1), Some("one"));
        lru.get_or_insert(|k| *k == 3, || (3, "three"));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(|k| *k == 2), None, "2 was least recently used");
        assert_eq!(lru.get(|k| *k == 1), Some("one"));
        assert_eq!(lru.get(|k| *k == 3), Some("three"));
    }

    #[test]
    fn the_first_insert_wins() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.get_or_insert(|k| *k == 1, || (1, "first")), "first");
        assert_eq!(lru.get_or_insert(|k| *k == 1, || (1, "second")), "first");
        assert_eq!(lru.len(), 1);
    }
}
