//! Concurrency substrate for the shared (`&self`) entropy oracles: sharded
//! interior-mutability caches and atomic statistics counters.
//!
//! Maimon's mining phase is embarrassingly parallel over attribute pairs
//! (§6, Fig. 13/14), but only if every worker can consult *one* entropy
//! oracle concurrently — otherwise each thread re-derives the same partitions
//! and the PLI cache of §6.3 stops paying for itself. The structures here
//! make the oracles `Sync` without a global lock:
//!
//! * [`ShardedCache`] splits the `AttrSet → value` map into 64 independently
//!   locked shards. A request only contends with requests whose attribute
//!   sets hash to the same shard, and [`ShardedCache::get_or_insert_with`]
//!   provides *compute-once* semantics: the first thread to request a set
//!   computes it while holding the shard lock, every later thread waits and
//!   then reads the cached value. This keeps the per-set work (and therefore
//!   the `calls`/`cache_hits`/`full_scans` counters) identical to a
//!   sequential run regardless of thread interleaving.
//! * [`AtomicOracleStats`] is the lock-free counterpart of
//!   [`OracleStats`](crate::OracleStats): relaxed atomic counters that never
//!   lose an increment under concurrency and can be snapshotted at any time.

use crate::oracle::OracleStats;
use relation::{AttrSet, FoldKeyHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of shards. A power of two so the Fibonacci-hash shard index is a
/// simple shift; 64 keeps contention negligible for the worker counts the
/// miner uses (≤ available parallelism) while staying cheap to sum over.
const SHARD_COUNT: usize = 64;

/// Maps an attribute set to its shard via Fibonacci hashing on the bitset
/// (nearby attribute sets differ in low bits, which multiplicative hashing
/// spreads across the high bits used for the index).
#[inline]
fn shard_index(attrs: AttrSet) -> usize {
    (attrs.bits().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// `AttrSet` keys hash as a single `u64` (the bitset), so the shared
/// Fibonacci hasher for folded keys ([`relation::FoldKeyHasher`] — one
/// multiply instead of SipHash) serves here too. The mining hot path
/// performs hundreds of thousands of cache lookups per run (virtually all
/// hits), where SipHash costs more than the probe itself; attribute-set
/// keys need no DoS resistance.
type AttrSetMap<V> = HashMap<AttrSet, V, BuildHasherDefault<FoldKeyHasher>>;

/// A concurrent `AttrSet → V` cache split into independently locked shards.
///
/// Lock discipline: a shard lock is only ever held for a single cache
/// operation — except in [`Self::get_or_insert_with`], which deliberately
/// holds the target shard's lock while computing a missing value (see the
/// module docs). Callers must therefore never re-enter the *same* cache from
/// inside a `get_or_insert_with` closure; touching a *different*
/// `ShardedCache` from the closure is fine (the oracles lock entropy-cache
/// shards before partition-cache shards, never the other way around).
pub(crate) struct ShardedCache<V> {
    shards: Vec<Mutex<AttrSetMap<V>>>,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(AttrSetMap::default())).collect(),
        }
    }

    /// Locks the shard of `attrs`. A panic while a shard was locked (say,
    /// inside a [`Self::get_or_insert_with`] computation) leaves the map
    /// consistent — the value was never inserted — so a poisoned lock is
    /// taken over rather than aborting every later query of the shard.
    fn shard(&self, attrs: AttrSet) -> MutexGuard<'_, AttrSetMap<V>> {
        lock(&self.shards[shard_index(attrs)])
    }

    /// Returns a clone of the cached value, if present.
    pub fn get(&self, attrs: AttrSet) -> Option<V> {
        self.shard(attrs).get(&attrs).cloned()
    }

    /// Inserts unconditionally (last writer wins; values for the same key are
    /// always equal in this crate, so the race is benign).
    pub fn insert(&self, attrs: AttrSet, value: V) {
        self.shard(attrs).insert(attrs, value);
    }

    /// Inserts `value` only while `count` is below `max`, reserving a budget
    /// slot atomically. Returns `true` if the entry was inserted. Re-inserting
    /// a present key neither replaces it nor consumes budget, so `count` is
    /// exactly the number of distinct cached entries.
    pub fn insert_bounded(
        &self,
        attrs: AttrSet,
        value: V,
        count: &AtomicUsize,
        max: usize,
    ) -> bool {
        let mut shard = self.shard(attrs);
        if shard.contains_key(&attrs) {
            return false;
        }
        let reserved = count
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| (c < max).then_some(c + 1))
            .is_ok();
        if !reserved {
            return false;
        }
        shard.insert(attrs, value);
        true
    }

    /// Compute-once lookup: returns the cached value and `true` on a hit;
    /// otherwise runs `compute` *while holding the shard lock*, caches the
    /// result and returns it with `false`. Concurrent requests for the same
    /// attribute set therefore perform the underlying computation exactly
    /// once, matching a sequential run's work counters.
    pub fn get_or_insert_with(&self, attrs: AttrSet, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut shard = self.shard(attrs);
        if let Some(value) = shard.get(&attrs) {
            return (value.clone(), true);
        }
        let value = compute();
        shard.insert(attrs, value.clone());
        (value, false)
    }

    /// Total number of cached entries (sums the shard sizes; callers use this
    /// for reporting, not for budget decisions — see [`Self::insert_bounded`]).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Snapshots every cached entry (shard by shard, so the result is not an
    /// atomic view across shards — fine for the delta-refresh path, which
    /// only runs while the successor oracle is being built single-threaded).
    pub fn entries(&self) -> Vec<(AttrSet, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            out.extend(shard.iter().map(|(&k, v)| (k, v.clone())));
        }
        out
    }
}

/// Locks `mutex`, taking over a poisoned lock: no cache operation leaves a
/// shard half-updated, so the data is always safe to use.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock-free counters backing [`OracleStats`] for shared (`&self`) oracles.
///
/// All increments use relaxed ordering: the counters are independent tallies,
/// not synchronization points, and are only read as a consistent set once the
/// mining workers have been joined.
///
/// Cache *hits* are the overwhelmingly common case on the mining hot path, so
/// they are not counted directly: the oracle records calls, trivial
/// (empty-set) calls and cache *misses*, and [`Self::snapshot`] derives
/// `cache_hits = calls − trivial − misses`. A hit therefore costs exactly one
/// atomic increment.
#[derive(Debug, Default)]
pub struct AtomicOracleStats {
    calls: AtomicU64,
    trivial_calls: AtomicU64,
    misses: AtomicU64,
    intersections: AtomicU64,
    count_only: AtomicU64,
    full_scans: AtomicU64,
    delta_refreshes: AtomicU64,
}

impl AtomicOracleStats {
    /// Creates counters pre-loaded from a snapshot, so a successor oracle
    /// (built by the append/delta path) reports *cumulative* work across its
    /// lineage. Hits are derived (`calls − trivial − misses`), so the seed
    /// folds the snapshot's trivial calls into `calls`/`misses` in a way
    /// that preserves the derived hit count.
    pub fn seeded(stats: OracleStats) -> Self {
        let seeded = AtomicOracleStats::default();
        seeded.calls.store(stats.calls, Ordering::Relaxed);
        seeded.misses.store(stats.calls.saturating_sub(stats.cache_hits), Ordering::Relaxed);
        seeded.intersections.store(stats.intersections, Ordering::Relaxed);
        seeded.count_only.store(stats.count_only_intersections, Ordering::Relaxed);
        seeded.full_scans.store(stats.full_scans, Ordering::Relaxed);
        seeded.delta_refreshes.store(stats.delta_refreshes, Ordering::Relaxed);
        seeded
    }
    /// Counts one `entropy()` call.
    #[inline]
    pub fn record_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one trivial call (empty or out-of-schema attribute set) that
    /// bypasses the cache entirely.
    #[inline]
    pub fn record_trivial_call(&self) {
        self.trivial_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one entropy-cache miss (an attribute set materialized for the
    /// first time).
    #[inline]
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one partition intersection.
    #[inline]
    pub fn record_intersection(&self) {
        self.intersections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one intersection that ran on the count-only fast path (group
    /// sizes only, no materialized partition). Recorded *in addition to*
    /// [`Self::record_intersection`]: `count_only_intersections` is the
    /// subset of `intersections` that skipped materialization.
    #[inline]
    pub fn record_count_only(&self) {
        self.count_only.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one full group-by scan over the relation.
    #[inline]
    pub fn record_full_scan(&self) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cached partition carried across an append by the delta
    /// path (`PliEntropyOracle::extend_to`).
    #[inline]
    pub fn record_delta_refresh(&self) {
        self.delta_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Exact once the workers touching
    /// the oracle have been joined; a snapshot taken *while* other threads
    /// are mid-call may catch a call before its miss was recorded.
    pub fn snapshot(&self) -> OracleStats {
        let calls = self.calls.load(Ordering::Relaxed);
        let trivial = self.trivial_calls.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        OracleStats {
            calls,
            cache_hits: calls.saturating_sub(trivial).saturating_sub(misses),
            intersections: self.intersections.load(Ordering::Relaxed),
            count_only_intersections: self.count_only.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            delta_refreshes: self.delta_refreshes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn compute_once_under_contention() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let computations = AtomicU64::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for bits in 1u64..=32 {
                        let attrs = AttrSet::from_bits(bits);
                        let (value, _hit) = cache.get_or_insert_with(attrs, || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            bits * 3
                        });
                        assert_eq!(value, bits * 3);
                    }
                });
            }
        });
        // Every key computed exactly once despite 8 threads racing.
        assert_eq!(computations.load(Ordering::Relaxed), 32);
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn a_panicking_computation_does_not_poison_its_shard() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let attrs = AttrSet::from_bits(0b101);
        let panicked = thread::scope(|scope| {
            scope.spawn(|| cache.get_or_insert_with(attrs, || panic!("computation failed"))).join()
        });
        assert!(panicked.is_err());
        assert!(cache.shards[shard_index(attrs)].is_poisoned());
        // The next call on that shard computes and caches the key.
        assert_eq!(cache.get_or_insert_with(attrs, || 7), (7, false));
        assert_eq!(cache.get_or_insert_with(attrs, || 8), (7, true));
        assert_eq!(cache.get(attrs), Some(7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_insert_respects_budget_exactly() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        let count = AtomicUsize::new(0);
        let mut inserted = 0;
        for bits in 1u64..=100 {
            if cache.insert_bounded(AttrSet::from_bits(bits), 0, &count, 10) {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 10);
        assert_eq!(cache.len(), 10);
        assert_eq!(count.load(Ordering::Relaxed), 10);
        // Duplicate keys never consume budget.
        let count = AtomicUsize::new(0);
        let cache: ShardedCache<u32> = ShardedCache::new();
        for _ in 0..5 {
            cache.insert_bounded(AttrSet::from_bits(7), 0, &count, 10);
        }
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn atomic_stats_survive_concurrent_increments() {
        let stats = AtomicOracleStats::default();
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        stats.record_call();
                        if i % 10 == 0 {
                            stats.record_miss();
                        }
                        if i % 100 == 0 {
                            stats.record_trivial_call();
                        }
                        stats.record_intersection();
                        if i % 2 == 0 {
                            stats.record_count_only();
                        }
                        stats.record_full_scan();
                    }
                });
            }
        });
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.calls, 4000);
        // hits = calls − trivial − misses = 4000 − 40 − 400.
        assert_eq!(snapshot.cache_hits, 3560);
        assert_eq!(snapshot.intersections, 4000);
        assert_eq!(snapshot.count_only_intersections, 2000);
        assert_eq!(snapshot.full_scans, 4000);
    }

    #[test]
    fn shard_index_stays_in_range() {
        for bits in [0u64, 1, 2, 3, u64::MAX, 0xdeadbeef, 1 << 63] {
            assert!(shard_index(AttrSet::from_bits(bits)) < SHARD_COUNT);
        }
    }
}
