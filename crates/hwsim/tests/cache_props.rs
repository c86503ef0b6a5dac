//! Property tests locking down the memoizing cache: canonical-hash
//! injectivity under mutation, and the LRU invariants the determinism
//! suite leans on (bounded size; a hit always returns the last value
//! inserted for that key).

use h2o_hwsim::{arch_key, EvalCache, EvalCost};
use proptest::prelude::*;

fn cost(tag: f64) -> EvalCost {
    EvalCost {
        latency: tag,
        energy: 2.0 * tag,
        memory_bytes: 3.0 * tag,
        params: 4.0 * tag,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn equal_configs_hash_equal(sample in prop::collection::vec(0usize..64, 0..40)) {
        prop_assert_eq!(arch_key("space", &sample), arch_key("space", &sample));
        // A fresh clone hashes identically (no hidden address/state input).
        let clone = sample.clone();
        prop_assert_eq!(arch_key("space", &sample), arch_key("space", &clone));
    }

    fn single_field_mutation_changes_the_hash(
        sample in prop::collection::vec(0usize..64, 1..40),
        field in 0usize..40,
        bump in 1usize..64,
    ) {
        let field = field % sample.len();
        let mut mutated = sample.clone();
        // Guaranteed-different choice at exactly one decision.
        mutated[field] = (mutated[field] + bump) % 64;
        if mutated[field] != sample[field] {
            prop_assert_ne!(arch_key("space", &sample), arch_key("space", &mutated));
        }
    }

    fn truncation_and_space_rename_change_the_hash(
        sample in prop::collection::vec(0usize..64, 1..40),
    ) {
        // Dropping a decision must change the key (length is hashed).
        prop_assert_ne!(
            arch_key("space", &sample),
            arch_key("space", &sample[..sample.len() - 1])
        );
        // A different space name must change the key.
        prop_assert_ne!(arch_key("space", &sample), arch_key("spacf", &sample));
    }

    fn cache_never_exceeds_capacity(
        capacity in 1usize..32,
        keys in prop::collection::vec(0u64..1_000, 1..300),
    ) {
        let cache = EvalCache::new(capacity);
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, cost(i as f64));
            prop_assert!(
                cache.len() <= cache.capacity(),
                "{} entries in a {}-capacity cache", cache.len(), cache.capacity()
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, cache.len());
    }

    fn hit_returns_last_inserted_value(
        inserts in prop::collection::vec((0u64..16, 0.0f64..1e6), 1..200),
    ) {
        // A single shard whose capacity covers the whole key universe, so
        // nothing is evicted and every key reports its most recent insert.
        let cache = EvalCache::with_shards(16, 1);
        let mut last = std::collections::BTreeMap::new();
        for &(key, tag) in &inserts {
            cache.insert(key, cost(tag));
            last.insert(key, cost(tag));
        }
        for (key, expected) in last {
            prop_assert_eq!(cache.get(key), Some(expected));
        }
    }

    fn eviction_only_removes_the_least_recent(
        touch in prop::collection::vec(0u64..8, 1..100),
    ) {
        // Single-shard cache of 4: after any access pattern over 8 keys,
        // the resident set is exactly the 4 most recently touched keys.
        let cache = EvalCache::with_shards(4, 1);
        let mut recency: Vec<u64> = Vec::new();
        for &key in &touch {
            cache.insert(key, cost(key as f64));
            recency.retain(|&k| k != key);
            recency.push(key);
        }
        let resident: Vec<u64> = recency.iter().rev().take(4).copied().collect();
        for &key in &resident {
            prop_assert!(cache.get(key).is_some(), "recent key {} evicted", key);
        }
        for &key in recency.iter().rev().skip(4) {
            prop_assert!(cache.get(key).is_none(), "stale key {} resident", key);
        }
    }
}
