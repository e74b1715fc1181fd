//! The shared cross-property proof cache.
//!
//! The paper's §6.4 caches subproofs "at key cut points" *within* one
//! property's search; the Figure-6 kernels, however, re-derive the same
//! auxiliary invariants (monotone-counter guards, spawn-origin lemmas) for
//! property after property. This module lifts both caches out of the
//! per-property prover state into one concurrency-safe table shared by
//! every property of a program — including properties whose obligations
//! run on different pool workers of [`crate::reverify_core`].
//!
//! # Determinism by purity
//!
//! The cache memoizes **self-contained proof packages**:
//!
//! * an *invariant package* is the full certificate slice produced by
//!   proving `∀ vars, guard ⇒ (∃/∄) pattern` in a **fresh** prover context
//!   (empty local cache, depth 0, no shared-cache reads of its own);
//! * a *lemma package* is the self-contained [`LemmaCert`] for
//!   `∀ vars, [a] Enables [b]`, proved the same way (it may read invariant
//!   packages, which is harmless — see below).
//!
//! Because a package is computed from nothing but the program abstraction,
//! the options, and its key, it is a **pure function of the key**: a cache
//! hit returns byte-for-byte what a fresh computation would have produced.
//! Thread timing decides only *who pays* for a package, never its value —
//! which is how the engine's pool can share work across racing
//! properties and still emit certificates identical to the serial run's.
//! (Two threads may both miss and compute the same package concurrently;
//! the first insert wins and the duplicates are equal, so even that race
//! is invisible.) Failures are packages too — a standalone proof failure
//! is equally key-determined — so unprovable obligations are also shared.
//!
//! Purity has one structural requirement: a package computation must never
//! read the invariant table while one of its own keys is in flight, or the
//! answer would depend on the call chain (and a self-referential key would
//! recurse forever). Invariant packages therefore run with the shared
//! cache detached entirely; lemma packages run with it attached but can
//! only reach *invariant* packages (invariant search never proves lemmas),
//! so no package can ever wait on itself.
//!
//! # Soundness
//!
//! The cache does not extend the trusted base. Spliced packages end up as
//! ordinary invariant/lemma entries inside the emitted [`Certificate`],
//! and [`crate::check_certificate`] re-derives every step of every entry;
//! a corrupted cache can only produce certificates that fail the check,
//! never a wrong "Proved".
//!
//! [`Certificate`]: crate::Certificate

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use reflex_ast::{ActionPat, Ty};

use crate::canon::Guard;
use crate::certificate::{InvariantCert, LemmaCert};
use crate::options::ProofFailure;

/// Key of an invariant package: quantified variables (with the requesting
/// property's types), canonical guard, specialized pattern, polarity.
pub(crate) type SharedInvKey = (Vec<(String, Ty)>, Guard, ActionPat, bool);

/// Key of a lemma package: quantified variables and the two action
/// patterns of `∀ vars, [a] Enables [b]`.
pub(crate) type SharedLemmaKey = (Vec<(String, Ty)>, ActionPat, ActionPat);

/// A memoized invariant proof: the certificate slice the fresh-context
/// proof appended (root last, every internal reference pointing backwards
/// within the slice), or the key-determined failure.
pub(crate) type InvariantPackage = Result<Vec<InvariantCert>, ProofFailure>;

/// A memoized lemma proof (`None`: the lemma is not provable).
pub(crate) type LemmaPackage = Option<LemmaCert>;

/// Shards per table. Workers hammering the cache during obligation-level
/// scheduling contend on a key's shard, not the whole table.
const SHARD_COUNT: usize = 64;

/// A sharded, read-mostly concurrent map: a hit takes one shard's read
/// lock; a miss upgrades that shard to a write lock with an `or_insert`
/// double-check so racing computations of the same key keep the first
/// published package (they are equal anyway — packages are pure).
struct Sharded<K, V> {
    shards: Vec<RwLock<HashMap<K, Arc<V>>>>,
}

impl<K: Hash + Eq + Clone, V> Sharded<K, V> {
    fn new() -> Sharded<K, V> {
        Sharded {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, Arc<V>>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    fn get_or_compute(
        &self,
        key: &K,
        compute: impl FnOnce() -> V,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> Arc<V> {
        let shard = self.shard(key);
        if let Some(hit) = shard.read().expect("cache poisoned").get(key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let pkg = Arc::new(compute());
        Arc::clone(
            shard
                .write()
                .expect("cache poisoned")
                .entry(key.clone())
                .or_insert(pkg),
        )
    }

    fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache poisoned").len() as u64)
            .sum()
    }
}

impl<K, V> Default for Sharded<K, V>
where
    K: Hash + Eq + Clone,
{
    fn default() -> Self {
        Sharded::new()
    }
}

/// Concurrency-safe cross-property cache of invariant and lemma proofs.
///
/// Create one per program (or per [`crate::reverify_core`] run) and pass
/// it to [`crate::prove_with_cache`]; see the module docs for the
/// determinism and soundness arguments.
#[derive(Default)]
pub struct ProofCache {
    invariants: Sharded<SharedInvKey, InvariantPackage>,
    lemmas: Sharded<SharedLemmaKey, LemmaPackage>,
    invariant_hits: AtomicU64,
    invariant_misses: AtomicU64,
    lemma_hits: AtomicU64,
    lemma_misses: AtomicU64,
}

impl ProofCache {
    /// Creates an empty cache.
    pub fn new() -> ProofCache {
        ProofCache::default()
    }

    /// Returns the invariant package for `key`, computing (and publishing)
    /// it with `compute` on a miss.
    pub(crate) fn invariant_package(
        &self,
        key: &SharedInvKey,
        compute: impl FnOnce() -> InvariantPackage,
    ) -> Arc<InvariantPackage> {
        self.invariants
            .get_or_compute(key, compute, &self.invariant_hits, &self.invariant_misses)
    }

    /// Returns the lemma package for `key`, computing (and publishing) it
    /// with `compute` on a miss.
    pub(crate) fn lemma_package(
        &self,
        key: &SharedLemmaKey,
        compute: impl FnOnce() -> LemmaPackage,
    ) -> Arc<LemmaPackage> {
        self.lemmas
            .get_or_compute(key, compute, &self.lemma_hits, &self.lemma_misses)
    }

    /// A snapshot of the cache's occupancy and hit counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            invariant_entries: self.invariants.len(),
            lemma_entries: self.lemmas.len(),
            invariant_hits: self.invariant_hits.load(Ordering::Relaxed),
            invariant_misses: self.invariant_misses.load(Ordering::Relaxed),
            lemma_hits: self.lemma_hits.load(Ordering::Relaxed),
            lemma_misses: self.lemma_misses.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProofCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 threads race `get_or_compute` over an overlapping key space: no
    /// insert may be lost, every key must resolve to exactly one value on
    /// every thread (first publish wins), and the hit/miss counters must
    /// account for every request.
    #[test]
    fn sharded_map_under_contention_loses_no_inserts() {
        const KEYS: u64 = 257;
        const PER_THREAD: u64 = 1024;
        let map: Sharded<u64, (u64, u64)> = Sharded::new();
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let seen: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let (map, hits, misses) = (&map, &hits, &misses);
                    scope.spawn(move || {
                        (0..PER_THREAD)
                            .map(|i| {
                                let key = (t.wrapping_mul(31) + i) % KEYS;
                                let v = map.get_or_compute(&key, || (t, i), hits, misses);
                                (key, v.0 * PER_THREAD + v.1)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(map.len(), KEYS, "every key must be inserted exactly once");
        // The first published value for a key is the value forever, for
        // every thread.
        let mut value_of = std::collections::HashMap::new();
        for thread in &seen {
            for &(key, value) in thread {
                assert_eq!(
                    *value_of.entry(key).or_insert(value),
                    value,
                    "key {key} must resolve to one stable value"
                );
            }
        }
        assert_eq!(
            hits.load(Ordering::Relaxed) + misses.load(Ordering::Relaxed),
            8 * PER_THREAD,
            "every request is either a hit or a miss"
        );
        // Racing computations may both run (both count as misses), but at
        // least one miss per key is structural.
        assert!(misses.load(Ordering::Relaxed) >= KEYS);
    }
}

/// Occupancy and hit counters of a [`ProofCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct invariant packages stored.
    pub invariant_entries: u64,
    /// Distinct lemma packages stored.
    pub lemma_entries: u64,
    /// Invariant requests answered from the table.
    pub invariant_hits: u64,
    /// Invariant requests that computed a fresh package.
    pub invariant_misses: u64,
    /// Lemma requests answered from the table.
    pub lemma_hits: u64,
    /// Lemma requests that computed a fresh package.
    pub lemma_misses: u64,
}
