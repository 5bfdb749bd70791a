//! The PLI-cache entropy engine of §6.3.
//!
//! The most expensive operation in Maimon is computing `H(X)` for very many
//! attribute sets `X`. The paper reduces each computation to main-memory
//! `CNT`/`TID` tables: the `CNT` table of `X` holds the non-singleton group
//! sizes of `X` (enough to evaluate Eq. 5) and the `TID` table maps group
//! values to tuple ids so that the tables of `X ∪ Y` can be derived by joining
//! the tables of `X` and `Y` on the tuple id. Both ideas are exactly the
//! *stripped partition* intersection of the TANE PLI cache, which is what
//! [`crate::partition::Pli`] implements natively — as a flat CSR arena (see
//! the `partition` module docs for the memory layout).
//!
//! This module adds the remaining ingredients of §6.3:
//!
//! 1. **Caching**: entropies are memoized for every attribute set ever
//!    requested; stripped partitions are memoized (as `Arc<Pli>`, so a cache
//!    read shares the arena instead of copying it) up to a configurable
//!    budget so that shared prefixes are intersected only once.
//! 2. **Block precomputation**: the attributes are split into ⌈n/L⌉ blocks of
//!    at most `L` attributes and the partitions of *all* subsets within a
//!    block are precomputed; an arbitrary `X` is then assembled by
//!    intersecting its (at most ⌈n/L⌉) per-block pieces, **smallest
//!    partition first** so the accumulator collapses as early as possible.
//! 3. **The count-only fast path**: the paper's `CNT`-table observation that
//!    Eq. (5) needs group *sizes*, not TID lists. The final intersection of
//!    an assembly produces a partition nothing will ever read again — its
//!    entropy goes straight into the entropy cache, and a future request for
//!    the same set hits that cache rather than re-deriving the partition —
//!    so the oracle computes it with [`Pli::intersect_counts`], which never
//!    materializes the result. Only intermediate merges (reusable as cached
//!    prefixes) are materialized and inserted into the partition cache.
//!
//! The partitions group the relation's distinct tuples, weighted by their
//! multiplicities (the `tuples` module's tuple table), not its rows: Eq. (5)
//! needs only the tuple histogram, and a relation of `N` rows with `G`
//! distinct tuples then intersects `O(G)` ids per miss.
//!
//! All transient intersection state lives in [`IntersectScratch`]es drawn
//! from a small pool (at most one per concurrently-missing worker thread),
//! so steady-state entropy queries — cache hits outright, and count-only
//! misses once the scratches are warm — allocate nothing.
//!
//! The oracle is shared: every method takes `&self` and both caches are
//! sharded compute-once maps ([`crate::concurrent`]), so a single
//! `PliEntropyOracle` serves all of the parallel miner's worker threads
//! without duplicating partitions.

use crate::concurrent::{AtomicOracleStats, ShardedCache};
use crate::oracle::{EntropyOracle, OracleStats};
use crate::partition::{IntersectScratch, Pli};
use crate::tuples::TupleTable;
use relation::{AttrSet, Relation, RelationError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use storage::{RelationBackend, StorageError};

/// Configuration for [`PliEntropyOracle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntropyConfig {
    /// Block size `L` of §6.3. `Some(L)` precomputes the partitions of every
    /// subset of every block of `L` consecutive attributes (2^L per block);
    /// `None` disables precomputation and assembles partitions from single
    /// attributes.
    pub block_size: Option<usize>,
    /// Maximum number of *composite* (non-single-attribute) partitions kept in
    /// the cache. Entropy values themselves are always cached (they are just
    /// one `f64` per attribute set).
    pub max_cached_plis: usize,
}

impl Default for EntropyConfig {
    /// Defaults to `L = 5`. The paper's experiments used `L = 10`, but the
    /// precomputation cost is `2^L` intersections *per block*: on this
    /// codebase's benchmark (`entropy_oracle/*` on the 560-row Adult-shaped
    /// dataset) `L = 10` spent ~152 ms against ~81 ms for `L = 5`, because a
    /// 10-attribute block front-loads 1013 intersections of which a typical
    /// mining workload touches a fraction. `L = 5` caps the per-block
    /// precomputation at 26 intersections while still answering most requests
    /// with at most ⌈n/5⌉ − 1 runtime intersections.
    fn default() -> Self {
        EntropyConfig { block_size: Some(5), max_cached_plis: 50_000 }
    }
}

impl EntropyConfig {
    /// Configuration with no block precomputation and no composite-partition
    /// caching beyond single attributes; every request is assembled from
    /// single-attribute partitions. Used as an ablation baseline.
    pub fn no_precompute() -> Self {
        EntropyConfig { block_size: None, max_cached_plis: 0 }
    }
}

/// Entropy oracle backed by cached stripped partitions (the §6.3 engine).
///
/// Construction reads the relation once, in one chunked scan, into a tuple
/// table: the distinct tuples in first-occurrence order with their
/// multiplicities. The tuples are kept as an in-memory [`Relation`] sharing
/// the source's dictionaries ([`PliEntropyOracle::tuples`]), and nothing
/// reads the source again, so the oracle is `'static` and `Send + Sync`
/// whatever it was built from. [`PliEntropyOracle::new`] takes the
/// in-memory store (`&Relation` arguments deep-clone the data once, while
/// `Relation` / `Arc<Relation>` arguments move or share it; a relation
/// with no repeated row is itself the tuple relation and is shared);
/// [`PliEntropyOracle::from_backend`] accepts any backend, e.g. a paged
/// out-of-core column store.
///
/// Every partition the oracle holds groups tuple ids, each weighted by its
/// multiplicity, so a relation of `N` rows and `G` distinct tuples
/// intersects `O(G)` ids per miss while entropies stay bit-identical to
/// grouping rows (Eq. 5 needs only the tuple histogram; see the `partition`
/// module docs).
pub struct PliEntropyOracle {
    /// The relation's distinct tuples and their multiplicities; every
    /// partition below groups its tuple ids.
    table: TupleTable,
    singles: Vec<Arc<Pli>>,
    pli_cache: ShardedCache<Arc<Pli>>,
    /// Number of entries in `pli_cache`, tracked atomically so the
    /// `max_cached_plis` budget stays exact under concurrent inserts.
    pli_count: AtomicUsize,
    entropy_cache: ShardedCache<f64>,
    /// Pool of reusable intersection scratches. Bounded by the number of
    /// threads that ever miss the entropy cache concurrently; lock ordering:
    /// this is a leaf lock, taken (briefly, pop/push only) while an entropy
    /// shard may be held, never while holding a partition shard.
    scratches: Mutex<Vec<IntersectScratch>>,
    config: EntropyConfig,
    stats: AtomicOracleStats,
    /// The [`StorageError`] the construction scan hit, if any. The oracle's
    /// query API is infallible by design (entropies are plain `f64`s on hot
    /// paths), so a failed scan leaves an oracle over no tuples and latches
    /// the error here; callers that need correctness (the session layer)
    /// check [`PliEntropyOracle::storage_fault`] and refuse to mount it.
    storage_fault: Option<Arc<StorageError>>,
}

impl PliEntropyOracle {
    /// Creates the oracle over the in-memory store, building single-attribute
    /// partitions and (if configured) the per-block subset precomputation.
    pub fn new(rel: impl Into<Arc<Relation>>, config: EntropyConfig) -> Self {
        let rel = rel.into();
        Self::build(&*rel, Some(&rel), config)
    }

    /// Creates the oracle over an arbitrary storage backend (e.g. a
    /// [`storage::PagedColumnarRelation`]), read once here and never again.
    /// Identical to [`PliEntropyOracle::new`] over the same rows.
    pub fn from_backend(source: Arc<dyn RelationBackend>, config: EntropyConfig) -> Self {
        Self::build(&*source, None, config)
    }

    fn build(
        source: &dyn RelationBackend,
        twin: Option<&Arc<Relation>>,
        config: EntropyConfig,
    ) -> Self {
        let (table, storage_fault) = match TupleTable::scan(source, twin) {
            Ok(table) => (table, None),
            Err(e) => (TupleTable::empty(source.schema()), Some(Arc::new(e))),
        };
        let singles = (0..source.arity()).map(|a| Arc::new(table.single(a))).collect();
        let oracle = PliEntropyOracle {
            table,
            singles,
            pli_cache: ShardedCache::new(),
            pli_count: AtomicUsize::new(0),
            entropy_cache: ShardedCache::new(),
            scratches: Mutex::new(Vec::new()),
            config,
            stats: AtomicOracleStats::default(),
            storage_fault,
        };
        if let Some(block) = config.block_size {
            oracle.precompute_blocks(block.max(1));
        }
        // Construction-time telemetry only: the query path (and especially
        // the cached-hit path, which must stay allocation-free) is untouched.
        let registry = obs::global();
        registry.describe("maimon_oracles_built_total", "PLI entropy oracles constructed");
        registry.counter("maimon_oracles_built_total", &[("kind", "pli")]).inc();
        registry.describe(
            "maimon_oracle_relation_rows",
            "Row count of the most recently constructed PLI oracle's relation",
        );
        registry
            .gauge("maimon_oracle_relation_rows", &[])
            .set(i64::try_from(oracle.n_rows()).unwrap_or(i64::MAX));
        oracle
    }

    /// Creates the oracle with the default configuration.
    pub fn with_defaults(rel: impl Into<Arc<Relation>>) -> Self {
        Self::new(rel, EntropyConfig::default())
    }

    /// Builds the successor oracle after appending `rows` to this oracle's
    /// relation.
    ///
    /// The batch is interned into a copy of the tuple relation: a repeated
    /// tuple gets its multiplicity bumped, a new one the next tuple id, and
    /// old tuples are never renumbered. Every cached partition — the
    /// single-attribute partitions and every composite in the partition
    /// cache — is then carried across the append by the delta path
    /// (`Pli::grown` over the tuple relations, counted as a
    /// `delta_refresh`), which keys exactly at any width, so no partition
    /// is regrouped from scratch. Cached *entropies* are re-derived
    /// from the refreshed partitions, never copied: an entropy memoized for
    /// the old relation is stale for the new one, so only attribute sets
    /// whose partitions are held come across — everything else recomputes
    /// lazily on first request, exactly as a fresh oracle would.
    ///
    /// Work counters are seeded from this oracle's
    /// ([`AtomicOracleStats::seeded`]), so `stats()` stays cumulative across
    /// the lineage, and `delta_refreshes` counts every partition carried
    /// over a session's lifetime.
    ///
    /// # Errors
    /// Returns the [`RelationError`] of a row whose arity mismatches the
    /// schema; this oracle is untouched either way.
    pub fn extend_to<S: AsRef<str>>(
        &self,
        rows: &[Vec<S>],
    ) -> Result<PliEntropyOracle, RelationError> {
        let (table, repeated) = self.table.extended(rows)?;
        let stats = AtomicOracleStats::seeded(self.stats.snapshot());
        let carry = |pli: &Pli, attrs: AttrSet| -> Arc<Pli> {
            stats.record_delta_refresh();
            Arc::new(table.carry(pli, attrs, &self.table, &repeated))
        };
        let singles: Vec<Arc<Pli>> =
            self.singles.iter().enumerate().map(|(a, p)| carry(p, AttrSet::singleton(a))).collect();
        let pli_cache = ShardedCache::new();
        let pli_count = AtomicUsize::new(0);
        let entropy_cache = ShardedCache::new();
        for (attrs, pli) in self.pli_cache.entries() {
            let refreshed = carry(&pli, attrs);
            entropy_cache.insert(attrs, refreshed.entropy());
            pli_cache.insert_bounded(attrs, refreshed, &pli_count, self.config.max_cached_plis);
        }
        Ok(PliEntropyOracle {
            table,
            singles,
            pli_cache,
            pli_count,
            entropy_cache,
            scratches: Mutex::new(Vec::new()),
            config: self.config,
            stats,
            // A successor of a faulted oracle stays refusable.
            storage_fault: self.storage_fault.clone(),
        })
    }

    /// The error the construction scan hit, if it failed. A non-`None`
    /// return means this oracle holds no tuples and its entropies must not
    /// be trusted; the session layer refuses to mount such an oracle.
    pub fn storage_fault(&self) -> Option<Arc<StorageError>> {
        self.storage_fault.clone()
    }

    /// The relation's distinct tuples in first-occurrence order, sharing
    /// its dictionaries: the elements every partition of this oracle
    /// groups, tuple id `t` being row `t`.
    pub fn tuples(&self) -> &Arc<Relation> {
        self.table.tuples()
    }

    /// Number of distinct tuples of the relation — the elements every
    /// partition of this oracle groups.
    pub fn distinct_tuples(&self) -> usize {
        self.table.len()
    }

    /// The partition of exactly `attrs` if the oracle holds it: a single
    /// attribute, or a composite in the partition cache. Its elements are
    /// the relation's distinct tuples, weighted by multiplicity.
    pub fn cached_partition(&self, attrs: AttrSet) -> Option<Arc<Pli>> {
        self.cached_pli(attrs)
    }

    /// Number of composite partitions currently cached (excluding the
    /// single-attribute partitions).
    pub fn cached_pli_count(&self) -> usize {
        self.pli_count.load(Ordering::Relaxed)
    }

    /// Number of entropy values currently cached.
    pub fn cached_entropy_count(&self) -> usize {
        self.entropy_cache.len()
    }

    fn take_scratch(&self) -> IntersectScratch {
        // Scratches carry no cross-call invariants (they are epoch-stamped),
        // so a pool poisoned by a panicking thread is safe to keep using.
        self.scratches
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop()
            .unwrap_or_default()
    }

    fn return_scratch(&self, scratch: IntersectScratch) {
        self.scratches.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).push(scratch);
    }

    fn precompute_blocks(&self, block: usize) {
        let mut scratch = self.take_scratch();
        let n = self.arity();
        let mut start = 0;
        'blocks: while start < n {
            let end = (start + block).min(n);
            let block_attrs: AttrSet = (start..end).collect();
            // Enumerate subsets in increasing size so that each subset can be
            // derived from an already-cached subset plus one single attribute.
            let mut subsets: Vec<AttrSet> =
                block_attrs.subsets().filter(|s| s.len() >= 2).collect();
            subsets.sort_by_key(|s| s.len());
            for subset in subsets {
                if self.pli_count.load(Ordering::Relaxed) >= self.config.max_cached_plis {
                    break 'blocks;
                }
                let last = subset.max_attr().expect("subset has at least two attributes");
                let rest = subset.without(last);
                let rest_pli = if rest.len() == 1 {
                    Arc::clone(&self.singles[rest.min_attr().unwrap()])
                } else {
                    self.pli_cache.get(rest).unwrap_or_else(|| Arc::new(self.table.partition(rest)))
                };
                let combined = rest_pli.intersect_with(&self.singles[last], &mut scratch);
                self.stats.record_intersection();
                self.entropy_cache.insert(subset, combined.entropy());
                self.pli_cache.insert_bounded(
                    subset,
                    Arc::new(combined),
                    &self.pli_count,
                    self.config.max_cached_plis,
                );
            }
            start = end;
        }
        self.return_scratch(scratch);
    }

    /// Looks up an already-cached partition for exactly `attrs`. The shared
    /// `Arc` is cloned — cache reads never copy a partition arena.
    fn cached_pli(&self, attrs: AttrSet) -> Option<Arc<Pli>> {
        if attrs.len() == 1 {
            return Some(Arc::clone(&self.singles[attrs.min_attr().unwrap()]));
        }
        self.pli_cache.get(attrs)
    }

    /// Splits `attrs` into pieces that are each individually cached: by block
    /// when block precomputation is enabled, by single attribute otherwise.
    fn decompose(&self, attrs: AttrSet) -> Vec<AttrSet> {
        if let Some(block) = self.config.block_size {
            let n = self.arity();
            let mut pieces = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + block.max(1)).min(n);
                let block_attrs: AttrSet = (start..end).collect();
                let piece = attrs.intersect(block_attrs);
                if !piece.is_empty() {
                    pieces.push(piece);
                }
                start = end;
            }
            pieces
        } else {
            attrs.iter().map(AttrSet::singleton).collect()
        }
    }

    /// Computes `H(attrs)` by assembling the partition of `attrs` from its
    /// cached pieces, smallest `covered_rows` first. Intermediate merges are
    /// materialized and cached opportunistically (they are reusable
    /// prefixes); the **final** merge is evaluated count-only
    /// ([`Pli::intersect_counts`]) and never cached — its entropy is about
    /// to be memoized by the entropy cache, and a full-set partition is
    /// never read through the partition cache again.
    fn compute_entropy(&self, attrs: AttrSet) -> f64 {
        if let Some(p) = self.cached_pli(attrs) {
            return p.entropy();
        }
        let mut plis: Vec<(AttrSet, Arc<Pli>)> = self
            .decompose(attrs)
            .into_iter()
            .map(|piece| {
                let pli = match self.cached_pli(piece) {
                    Some(p) => p,
                    None => {
                        // A piece can miss the cache when block precomputation
                        // was truncated by the budget; fall back to grouping
                        // the tuples directly.
                        self.stats.record_full_scan();
                        Arc::new(self.table.partition(piece))
                    }
                };
                (piece, pli)
            })
            .collect();
        if plis.len() == 1 {
            return plis[0].1.entropy();
        }
        // Size-ordered multi-way assembly: intersecting the smallest
        // partitions first shrinks the accumulator as fast as possible, so
        // the expensive later probes scan the fewest rows. Ties break on the
        // attribute bits to keep the sequential path fully deterministic.
        plis.sort_by_key(|(piece, pli)| (pli.covered_rows(), piece.bits()));
        let mut scratch = self.take_scratch();
        let mut iter = plis.into_iter();
        let (mut acc_attrs, mut acc) = iter.next().expect("at least two pieces");
        let mut entropy = 0.0;
        while let Some((piece_attrs, piece)) = iter.next() {
            let merged_attrs = acc_attrs.union(piece_attrs);
            self.stats.record_intersection();
            if iter.len() == 0 {
                // The final merge must reassemble exactly the requested set;
                // anything else means decompose() produced bad pieces and
                // the wrong entropy would be memoized under `attrs`.
                debug_assert_eq!(merged_attrs, attrs);
                self.stats.record_count_only();
                entropy = acc.intersect_counts(&piece, &mut scratch).entropy();
                break;
            }
            let merged = Arc::new(acc.intersect_with(&piece, &mut scratch));
            // Cache the intermediate prefix so future requests for exactly
            // this set skip the assembly.
            self.pli_cache.insert_bounded(
                merged_attrs,
                Arc::clone(&merged),
                &self.pli_count,
                self.config.max_cached_plis,
            );
            acc_attrs = merged_attrs;
            acc = merged;
        }
        self.return_scratch(scratch);
        entropy
    }
}

impl EntropyOracle for PliEntropyOracle {
    fn entropy(&self, attrs: AttrSet) -> f64 {
        self.stats.record_call();
        let attrs = attrs.intersect(self.all_attrs());
        if attrs.is_empty() {
            self.stats.record_trivial_call();
            return 0.0;
        }
        // Compute-once: concurrent requests for the same attribute set block
        // on the shard and then hit the cache, so every distinct set is
        // materialized exactly once per run regardless of thread count.
        let (h, _) = self.entropy_cache.get_or_insert_with(attrs, || {
            self.stats.record_miss();
            self.compute_entropy(attrs)
        });
        h
    }

    fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    fn arity(&self) -> usize {
        self.table.tuples().arity()
    }

    fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NaiveEntropyOracle;
    use relation::{random_uniform_relation, Relation, Schema};

    fn running_example() -> Relation {
        let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
        Relation::from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1", "d1", "e1", "f1"],
                vec!["a2", "b2", "c1", "d1", "e2", "f2"],
                vec!["a2", "b2", "c2", "d2", "e3", "f2"],
                vec!["a1", "b2", "c1", "d2", "e3", "f1"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_naive_oracle_on_running_example() {
        let rel = running_example();
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        for attrs in AttrSet::full(6).subsets() {
            let a = naive.entropy(attrs);
            let b = pli.entropy(attrs);
            assert!(
                (a - b).abs() < 1e-10,
                "entropy mismatch on {:?}: naive={} pli={}",
                attrs,
                a,
                b
            );
        }
    }

    #[test]
    fn matches_naive_oracle_on_random_relation_all_configs() {
        let rel = random_uniform_relation(300, &[4, 3, 5, 2, 6, 3, 2], 99).unwrap();
        let configs = [
            EntropyConfig::default(),
            EntropyConfig { block_size: Some(3), max_cached_plis: 10_000 },
            EntropyConfig { block_size: Some(10), max_cached_plis: 10_000 },
            EntropyConfig { block_size: None, max_cached_plis: 10_000 },
            EntropyConfig::no_precompute(),
        ];
        let naive = NaiveEntropyOracle::new(&rel);
        for config in configs {
            let pli = PliEntropyOracle::new(&rel, config);
            for attrs in AttrSet::full(7).subsets().filter(|s| s.len() <= 4) {
                let a = naive.entropy(attrs);
                let b = pli.entropy(attrs);
                assert!(
                    (a - b).abs() < 1e-9,
                    "entropy mismatch on {:?} with {:?}: naive={} pli={}",
                    attrs,
                    config,
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn entropy_of_empty_and_out_of_range_sets() {
        let rel = running_example();
        let pli = PliEntropyOracle::with_defaults(&rel);
        assert_eq!(pli.entropy(AttrSet::empty()), 0.0);
        assert_eq!(pli.entropy(AttrSet::singleton(50)), 0.0);
    }

    #[test]
    fn cache_hit_counting() {
        let rel = running_example();
        let pli =
            PliEntropyOracle::new(&rel, EntropyConfig { block_size: None, max_cached_plis: 1000 });
        let x = rel.schema().attrs(["A", "B", "C"]).unwrap();
        pli.entropy(x);
        let stats1 = pli.stats();
        pli.entropy(x);
        let stats2 = pli.stats();
        assert_eq!(stats2.cache_hits, stats1.cache_hits + 1);
        assert_eq!(stats2.intersections, stats1.intersections);
        assert_eq!(stats2.count_only_intersections, stats1.count_only_intersections);
    }

    #[test]
    fn prefix_caching_reduces_intersections() {
        let rel = random_uniform_relation(200, &[3, 3, 3, 3, 3, 3], 7).unwrap();
        let pli = PliEntropyOracle::new(
            &rel,
            EntropyConfig { block_size: None, max_cached_plis: 10_000 },
        );
        let abcd: AttrSet = [0usize, 1, 2, 3].into_iter().collect();
        let abcde: AttrSet = [0usize, 1, 2, 3, 4].into_iter().collect();
        pli.entropy(abcd);
        let after_first = pli.stats().intersections;
        // 4 singleton pieces fold with 3 intersections, the last count-only.
        assert_eq!(after_first, 3);
        assert_eq!(pli.stats().count_only_intersections, 1);
        // The second call must not repeat the first call's work from scratch:
        // the size-2 and size-3 prefixes of the first assembly are cached.
        pli.entropy(abcde);
        let after_second = pli.stats().intersections;
        assert!(after_second - after_first <= 4);
    }

    #[test]
    fn block_precompute_populates_cache() {
        let rel = random_uniform_relation(100, &[3, 3, 3, 3], 5).unwrap();
        let pli = PliEntropyOracle::new(
            &rel,
            EntropyConfig { block_size: Some(4), max_cached_plis: 1000 },
        );
        // All subsets of {0,1,2,3} with size >= 2: C(4,2)+C(4,3)+C(4,4) = 11.
        assert_eq!(pli.cached_pli_count(), 11);
        assert_eq!(pli.cached_entropy_count(), 11);
    }

    #[test]
    fn block_precompute_respects_budget() {
        let rel = random_uniform_relation(100, &[3, 3, 3, 3, 3, 3], 5).unwrap();
        let pli =
            PliEntropyOracle::new(&rel, EntropyConfig { block_size: Some(6), max_cached_plis: 5 });
        assert!(pli.cached_pli_count() <= 5);
    }

    #[test]
    fn stats_regression_pins_precompute_and_lookup_work() {
        // The block-size retune (L = 10 → L = 5 by default) is anchored by
        // exact counter goldens on an arity-7 relation; if these drift the
        // cost model of §6.3 changed, not just an implementation detail.
        let rel = random_uniform_relation(300, &[4, 3, 5, 2, 6, 3, 2], 99).unwrap();
        let full = AttrSet::full(7);

        // Default (L = 5): blocks {0..4} and {5,6}. Precompute intersects one
        // single into a cached rest per subset of size ≥ 2:
        // (2^5 − 5 − 1) + (2^2 − 2 − 1) = 26 + 1 = 27 intersections.
        let default = PliEntropyOracle::with_defaults(&rel);
        assert_eq!(default.stats().intersections, 27);
        assert_eq!(default.stats().count_only_intersections, 0);
        assert_eq!(default.stats().full_scans, 0);
        assert_eq!(default.cached_pli_count(), 27);
        // H(Ω) assembles the two per-block pieces with one more intersection
        // — the final merge, so it runs count-only and is never cached.
        default.entropy(full);
        assert_eq!(default.stats().intersections, 28);
        assert_eq!(default.stats().count_only_intersections, 1);
        assert_eq!(default.stats().full_scans, 0);
        assert_eq!(default.cached_pli_count(), 27);

        // L = 10 covers all 7 attributes in one block: 2^7 − 7 − 1 = 120
        // precompute intersections — the front-loading that made the old
        // default slower — after which H(Ω) is a pure cache hit.
        let l10 = PliEntropyOracle::new(
            &rel,
            EntropyConfig { block_size: Some(10), max_cached_plis: 50_000 },
        );
        assert_eq!(l10.stats().intersections, 120);
        l10.entropy(full);
        assert_eq!(l10.stats().intersections, 120);
        assert_eq!(l10.stats().count_only_intersections, 0);
        assert_eq!(l10.stats().cache_hits, 1);

        // No precomputation, no composite cache: H(Ω) folds the 7 singleton
        // partitions with 6 intersections (the last count-only) and caches
        // nothing.
        let bare = PliEntropyOracle::new(&rel, EntropyConfig::no_precompute());
        assert_eq!(bare.stats().intersections, 0);
        bare.entropy(full);
        assert_eq!(bare.stats().intersections, 6);
        assert_eq!(bare.stats().count_only_intersections, 1);
        assert_eq!(bare.cached_pli_count(), 0);

        // Singleton decomposition with caching: same 6 intersections, and the
        // 5 intermediate prefixes (sizes 2..=6) are cached for reuse; the
        // final merge is count-only and stays out of the partition cache.
        let cached = PliEntropyOracle::new(
            &rel,
            EntropyConfig { block_size: None, max_cached_plis: 10_000 },
        );
        cached.entropy(full);
        assert_eq!(cached.stats().intersections, 6);
        assert_eq!(cached.stats().count_only_intersections, 1);
        assert_eq!(cached.cached_pli_count(), 5);
    }

    #[test]
    fn extend_to_matches_fresh_oracle_bit_for_bit() {
        let base = random_uniform_relation(240, &[4, 3, 5, 2, 6, 3], 17).unwrap();
        let batch: Vec<Vec<String>> = (0..12)
            .map(|r| (0..base.arity()).map(|c| base.value(r * 3, c).to_string()).collect())
            .collect();
        let mut grown = base.clone();
        grown.append_rows(&batch).unwrap();

        let oracle = PliEntropyOracle::with_defaults(&base);
        // Warm the caches with a mining-shaped workload before the append.
        for attrs in AttrSet::full(6).subsets().filter(|s| s.len() >= 2 && s.len() <= 4) {
            oracle.entropy(attrs);
        }
        let successor = oracle.extend_to(&batch).unwrap();
        let fresh = PliEntropyOracle::with_defaults(&grown);
        for attrs in AttrSet::full(6).subsets() {
            assert_eq!(
                successor.entropy(attrs).to_bits(),
                fresh.entropy(attrs).to_bits(),
                "H({attrs:?}) must be bit-identical across the delta refresh"
            );
        }
        let stats = successor.stats();
        // 6 singles + every cached composite came across on the delta path.
        assert_eq!(stats.delta_refreshes, 6 + oracle.cached_pli_count() as u64, "got {stats:?}");
        assert!(oracle.cached_pli_count() >= 26, "precompute should have filled the cache");
        // Counters are cumulative across the lineage.
        assert!(stats.calls >= oracle.stats().calls);
        assert_eq!(oracle.stats().delta_refreshes, 0);
    }

    #[test]
    fn extend_to_stays_exact_past_a_u64_fold_overflow() {
        // 12 columns of cardinality 64: the widest cached prefixes need more
        // than 64 bits (64^12 = 2^72), so their carried partitions key in
        // two rounds. The batch repeats a tuple, adds tuples that match old
        // ones on long prefixes, and brings a new value on the last column.
        let cols = 12usize;
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| (0..128u32).map(|r| (r * 7 + c as u32 * 13) % 64).collect())
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let full = AttrSet::full(cols);
        let config = EntropyConfig { block_size: None, max_cached_plis: 100 };
        let oracle = PliEntropyOracle::new(&rel, config);
        oracle.entropy(full); // caches every composite prefix of the 12 columns
        let mut batch = vec![rel.row(0), rel.row(5)];
        let mut near = rel.row(1);
        near[cols - 1] = rel.value(2, cols - 1);
        batch.push(near.clone());
        batch.push(near);
        let mut fresh_value = rel.row(3);
        fresh_value[cols - 1] = "new";
        batch.push(fresh_value);
        let mut grown = rel.clone();
        grown.append_rows(&batch).unwrap();
        let successor = oracle.extend_to(&batch).unwrap();
        assert_eq!(successor.stats().delta_refreshes, 12 + 10);
        // Every carried partition, the 11-column prefix past 2^64 included,
        // equals a fresh oracle's grouping of the grown tuples.
        let fresh = PliEntropyOracle::new(&grown, config);
        assert_eq!(successor.distinct_tuples(), fresh.distinct_tuples());
        assert!((0..cols).all(|c| rel.column_cardinality(c) == 64), "64^11 = 2^66");
        for prefix in 1..cols {
            let attrs = AttrSet::full(prefix);
            let carried = successor.cached_partition(attrs).expect("the prefix is cached");
            assert_eq!(*carried, fresh.table.partition(attrs), "the first {prefix} columns");
        }
        for attrs in full.subsets().filter(|s| !s.is_empty()) {
            assert_eq!(successor.entropy(attrs).to_bits(), fresh.entropy(attrs).to_bits());
        }
    }

    #[test]
    fn no_precompute_config_still_correct() {
        let rel = running_example();
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::new(&rel, EntropyConfig::no_precompute());
        let x = rel.schema().attrs(["A", "C", "D", "F"]).unwrap();
        assert!((naive.entropy(x) - pli.entropy(x)).abs() < 1e-10);
        assert_eq!(pli.cached_pli_count(), 0);
    }

    #[test]
    fn scratch_pool_is_bounded_and_reused() {
        let rel = running_example();
        let pli = PliEntropyOracle::with_defaults(&rel);
        for attrs in AttrSet::full(6).subsets().filter(|s| s.len() >= 2) {
            pli.entropy(attrs);
        }
        // Single-threaded: every miss takes and returns the same scratch
        // (plus the one used during block precomputation).
        assert_eq!(pli.scratches.lock().unwrap().len(), 1);
    }

    #[test]
    fn empty_relation_has_zero_entropy_everywhere() {
        // Zero rows is a legal relation; every entropy must be 0 (not NaN)
        // for both engines, with and without precomputation.
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rel = Relation::from_code_columns(schema, vec![vec![], vec![], vec![]]).unwrap();
        assert_eq!(rel.n_rows(), 0);
        let naive = NaiveEntropyOracle::new(&rel);
        for config in [EntropyConfig::default(), EntropyConfig::no_precompute()] {
            let pli = PliEntropyOracle::new(&rel, config);
            for attrs in AttrSet::full(3).subsets() {
                let h = pli.entropy(attrs);
                assert_eq!(h, 0.0, "H({attrs:?}) must be 0 on an empty relation, got {h}");
                assert_eq!(naive.entropy(attrs), 0.0);
            }
        }
    }

    #[test]
    fn single_attribute_relation() {
        // Arity 1 exercises the degenerate block decomposition (one block,
        // no composite subsets to precompute).
        let schema = Schema::new(["A"]).unwrap();
        let rel = Relation::from_code_columns(schema, vec![vec![0, 0, 1, 1, 1, 2]]).unwrap();
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        assert_eq!(pli.cached_pli_count(), 0, "no composite subsets exist at arity 1");
        let h = pli.entropy(AttrSet::singleton(0));
        // Groups [2, 3, 1] of 6 rows: H = log₂6 − (2·log₂2 + 3·log₂3)/6.
        let expected = 6f64.log2() - (2.0 + 3.0 * 3f64.log2()) / 6.0;
        assert!((h - expected).abs() < 1e-12);
        assert!((naive.entropy(AttrSet::singleton(0)) - expected).abs() < 1e-12);
    }

    #[test]
    fn duplicate_rows_lower_the_full_entropy() {
        // Five rows, two of them identical: H(Ω) = (3/5)·log₂5 + (2/5)·log₂(5/2)
        // rather than log₂5. Duplicates are where stripped-partition
        // bookkeeping (singleton dropping) typically goes wrong.
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            &[vec!["x", "1"], vec!["x", "1"], vec!["y", "1"], vec!["y", "2"], vec!["z", "2"]],
        )
        .unwrap();
        let full = AttrSet::full(2);
        let expected = (3.0 / 5.0) * 5f64.log2() + (2.0 / 5.0) * (5f64 / 2.0).log2();
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        assert!((naive.entropy(full) - expected).abs() < 1e-12);
        assert!((pli.entropy(full) - expected).abs() < 1e-12);
        // An all-duplicate relation carries no information at all.
        let schema = Schema::new(["A", "B"]).unwrap();
        let constant = Relation::from_rows(schema, &vec![vec!["c", "c"]; 4]).unwrap();
        let pli = PliEntropyOracle::with_defaults(&constant);
        assert_eq!(pli.entropy(AttrSet::full(2)), 0.0);
    }

    #[test]
    fn mutual_information_agrees_with_naive() {
        let rel = random_uniform_relation(500, &[4, 4, 4, 4, 4], 11).unwrap();
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        let y = AttrSet::singleton(1);
        let z: AttrSet = [2usize, 3].into_iter().collect();
        let x = AttrSet::singleton(0);
        let a = naive.mutual_information(y, z, x);
        let b = pli.mutual_information(y, z, x);
        assert!((a - b).abs() < 1e-9);
    }
}
