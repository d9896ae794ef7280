//! Model check of [`qsim::lru::Lru`] against a naive `Vec` LRU: random
//! get/insert sequences must agree on every returned value, every evicted
//! entry, the length bound and the hit/miss/eviction counters.

use proptest::prelude::*;
use qsim::lru::{Lru, LruStats};

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u8),
    Insert(u8, u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Get),
        (0u8..8, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
    ]
}

/// Entries ordered least to most recently used.
struct Model {
    capacity: usize,
    entries: Vec<(u8, u32)>,
    stats: LruStats,
}

impl Model {
    fn touch(&mut self, key: u8) -> Option<(u8, u32)> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(i))
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        match self.touch(key) {
            Some(entry) => {
                self.entries.push(entry);
                self.stats.hits += 1;
                Some(entry.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<(u8, u32)> {
        let mut evicted = None;
        if self.touch(key).is_none() && self.entries.len() >= self.capacity {
            evicted = Some(self.entries.remove(0));
            self.stats.evictions += 1;
        }
        self.entries.push((key, value));
        evicted
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_matches_the_naive_model(
        capacity in 1usize..6,
        ops in prop::collection::vec(arb_op(), 0..64),
    ) {
        let mut lru = Lru::new(capacity);
        let mut model = Model { capacity, entries: Vec::new(), stats: LruStats::default() };
        let mut lookups = 0;
        for op in ops {
            match op {
                Op::Get(k) => {
                    lookups += 1;
                    prop_assert_eq!(lru.get(&k), model.get(k), "get {}", k);
                }
                Op::Insert(k, v) => {
                    prop_assert_eq!(lru.insert(k, v), model.insert(k, v), "insert {}", k);
                }
            }
            prop_assert!(lru.len() <= lru.capacity());
            prop_assert_eq!(lru.len(), model.entries.len());
            prop_assert_eq!(lru.stats(), model.stats);
            prop_assert_eq!(lru.stats().hits + lru.stats().misses, lookups);
        }
        // Every surviving entry is still there with its latest value.
        for (k, v) in model.entries.clone() {
            prop_assert_eq!(lru.get(&k), Some(v));
        }
    }
}
