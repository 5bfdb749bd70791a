//! The entropy oracle interface and the naive reference implementation.
//!
//! Every mining algorithm in the paper is written against an oracle
//! `getEntropy_R(X)` returning the empirical entropy `H(X)` of a set of
//! attributes (Eq. 5). The trait below is that oracle; the two
//! implementations are the naive full-scan group-by ([`NaiveEntropyOracle`])
//! and the PLI-cache engine of §6.3 (`PliEntropyOracle` in
//! [`crate::pli`]).
//!
//! Since the parallel-mining refactor the oracle is *shared*: `entropy` takes
//! `&self` and implementations are required to be [`Sync`], so one oracle
//! (and one cache) can serve every mining worker thread concurrently. Caches
//! use the sharded compute-once structures of [`crate::concurrent`], which
//! keep the work counters identical to a sequential run.

use crate::concurrent::{AtomicOracleStats, ShardedCache};
use relation::{AttrSet, Relation};
use std::sync::Arc;

/// Statistics accumulated by an entropy oracle, used by the scalability
/// experiments and the ablation benchmarks.
///
/// Under concurrency the counters are exact (atomic increments, nothing
/// lost). `calls`, `cache_hits` and `full_scans` are furthermore
/// *deterministic* — identical to a sequential run over the same workload —
/// because the caches compute each attribute set exactly once.
/// `intersections` and `count_only_intersections` of the PLI oracle may vary
/// with thread interleaving: they depend on which intermediate partition
/// prefixes happened to be cached first (an opportunistic optimization, not
/// a semantic one).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OracleStats {
    /// Number of `entropy()` calls made.
    pub calls: u64,
    /// Calls answered from the entropy cache.
    pub cache_hits: u64,
    /// Partition intersections performed (PLI oracle only), including the
    /// count-only ones.
    pub intersections: u64,
    /// The subset of `intersections` answered by the count-only fast path
    /// (`Pli::intersect_counts`): group sizes were computed for Eq. (5)
    /// without materializing — or caching — the refined partition.
    pub count_only_intersections: u64,
    /// Full group-by passes over the relation (naive oracle) or its distinct
    /// tuples (PLI fallback for a piece missing from the cache).
    pub full_scans: u64,
    /// Cached partitions carried across an append by the delta path
    /// (`PliEntropyOracle::extend_to`) instead of being regrouped from
    /// scratch.
    pub delta_refreshes: u64,
}

/// Oracle for the empirical entropy `H(X)` (in bits) of attribute sets of a
/// fixed relation instance.
///
/// The `Sync` bound is what allows `mine_mvds` to fan attribute pairs out
/// over a worker pool sharing a single oracle; implementations use interior
/// mutability for their caches.
pub trait EntropyOracle: Sync {
    /// Entropy of the empirical (uniform-over-tuples) distribution projected
    /// onto `attrs`. `H(∅) = 0` and `H(Ω) = log₂ N` when all tuples are
    /// distinct.
    fn entropy(&self, attrs: AttrSet) -> f64;

    /// Number of tuples of the underlying relation.
    fn n_rows(&self) -> usize;

    /// Number of attributes of the underlying relation.
    fn arity(&self) -> usize;

    /// Counters describing the work performed so far.
    fn stats(&self) -> OracleStats;

    /// The full signature Ω of the underlying relation.
    fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.arity())
    }

    /// Conditional entropy `H(Y | X) = H(XY) − H(X)`.
    fn conditional_entropy(&self, y: AttrSet, x: AttrSet) -> f64 {
        self.entropy(x.union(y)) - self.entropy(x)
    }

    /// Conditional mutual information
    /// `I(Y ; Z | X) = H(XY) + H(XZ) − H(XYZ) − H(X)` (Eq. 2). Clamped at
    /// zero to absorb floating-point noise (it is non-negative for empirical
    /// distributions by submodularity).
    fn mutual_information(&self, y: AttrSet, z: AttrSet, x: AttrSet) -> f64 {
        let v = self.entropy(x.union(y)) + self.entropy(x.union(z))
            - self.entropy(x.union(y).union(z))
            - self.entropy(x);
        if v < 0.0 {
            0.0
        } else {
            v
        }
    }
}

/// Computes entropy in bits from a multiset of group sizes and the total row
/// count: `log₂ N − (1/N)·Σ s·log₂ s`.
pub fn entropy_from_group_sizes(group_sizes: &[usize], n_rows: usize) -> f64 {
    if n_rows == 0 {
        return 0.0;
    }
    let n = n_rows as f64;
    let sum: f64 = group_sizes
        .iter()
        .filter(|&&s| s > 1)
        .map(|&s| {
            let s = s as f64;
            s * s.log2()
        })
        .sum();
    n.log2() - sum / n
}

/// Reference oracle: every entropy request does a full hash group-by over the
/// relation (cached per attribute set). This is what Maimon would do without
/// the §6.3 engine; it is used for correctness cross-checks and as the
/// baseline in the entropy ablation benchmark.
///
/// The oracle *owns* its relation (`Arc<Relation>`), so it is `'static` and
/// can outlive the binding that built it. Passing `&Relation` still works and
/// deep-clones the data once (see the `From<&Relation> for Arc<Relation>`
/// impl in the relation crate); pass an `Arc` to share storage.
pub struct NaiveEntropyOracle {
    rel: Arc<Relation>,
    cache: ShardedCache<f64>,
    stats: AtomicOracleStats,
}

impl NaiveEntropyOracle {
    /// Creates an oracle over the given relation (owned, `Arc`-shared, or
    /// borrowed — a borrow is deep-cloned once).
    pub fn new(rel: impl Into<Arc<Relation>>) -> Self {
        NaiveEntropyOracle {
            rel: rel.into(),
            cache: ShardedCache::new(),
            stats: AtomicOracleStats::default(),
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }
}

impl EntropyOracle for NaiveEntropyOracle {
    fn entropy(&self, attrs: AttrSet) -> f64 {
        self.stats.record_call();
        let attrs = attrs.intersect(self.all_attrs());
        if attrs.is_empty() {
            self.stats.record_trivial_call();
            return 0.0;
        }
        let (h, _) = self.cache.get_or_insert_with(attrs, || {
            self.stats.record_miss();
            self.stats.record_full_scan();
            let mut sizes =
                self.rel.group_sizes(attrs).expect("attribute set validated against schema");
            // The group-by hands back sizes in first-row order; sorting
            // fixes the floating-point summation order so H(X) is
            // bit-identical whatever the order of the rows.
            sizes.sort_unstable();
            entropy_from_group_sizes(&sizes, self.rel.n_rows())
        });
        h
    }

    fn n_rows(&self) -> usize {
        self.rel.n_rows()
    }

    fn arity(&self) -> usize {
        self.rel.arity()
    }

    fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

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
    fn entropy_of_empty_set_is_zero() {
        let rel = running_example();
        let oracle = NaiveEntropyOracle::new(&rel);
        assert_eq!(oracle.entropy(AttrSet::empty()), 0.0);
    }

    #[test]
    fn entropy_of_all_attrs_is_log_n() {
        let rel = running_example();
        let oracle = NaiveEntropyOracle::new(&rel);
        let h = oracle.entropy(AttrSet::full(6));
        assert!((h - 2.0).abs() < 1e-12, "H(ABCDEF) = log2 4 = 2, got {}", h);
    }

    #[test]
    fn entropy_of_bde_matches_paper_example_3_4() {
        // Example 3.4: the marginals of BDE are 1/4, 1/4, 1/2 so H(BDE) = 3/2.
        let rel = running_example();
        let oracle = NaiveEntropyOracle::new(&rel);
        let bde = rel.schema().attrs(["B", "D", "E"]).unwrap();
        assert!((oracle.entropy(bde) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn running_example_j_measure_terms() {
        // Example 3.4: J(T) = H(AF)+H(ACD)+H(ABD)+H(BDE)−H(A)−H(AD)−H(BD)−H(ABCDEF) = 0.
        let rel = running_example();
        let s = rel.schema().clone();
        let o = NaiveEntropyOracle::new(&rel);
        let h = |o: &NaiveEntropyOracle, names: &[&str]| {
            let set = s.attrs(names.iter().copied()).unwrap();
            o.entropy(set)
        };
        let j = h(&o, &["A", "F"])
            + h(&o, &["A", "C", "D"])
            + h(&o, &["A", "B", "D"])
            + h(&o, &["B", "D", "E"])
            - h(&o, &["A"])
            - h(&o, &["A", "D"])
            - h(&o, &["B", "D"])
            - h(&o, &["A", "B", "C", "D", "E", "F"]);
        assert!(j.abs() < 1e-12, "running example decomposes exactly, J = {}", j);
    }

    #[test]
    fn conditional_entropy_and_mutual_information() {
        let rel = running_example();
        let s = rel.schema().clone();
        let o = NaiveEntropyOracle::new(&rel);
        let a = s.attrs(["A"]).unwrap();
        let f = s.attrs(["F"]).unwrap();
        // A determines F in the running example, so H(F|A) = 0.
        assert!(o.conditional_entropy(f, a).abs() < 1e-12);
        // And F gives no extra information about the rest given A:
        let rest = s.attrs(["B", "C", "D", "E"]).unwrap();
        assert!(o.mutual_information(f, rest, a).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_is_nonnegative_and_clamped() {
        let rel = running_example();
        let o = NaiveEntropyOracle::new(&rel);
        for y in 0..6usize {
            for z in 0..6usize {
                if y == z {
                    continue;
                }
                let i = o.mutual_information(
                    AttrSet::singleton(y),
                    AttrSet::singleton(z),
                    AttrSet::empty(),
                );
                assert!(i >= 0.0);
            }
        }
    }

    #[test]
    fn monotonicity_of_entropy() {
        let rel = running_example();
        let o = NaiveEntropyOracle::new(&rel);
        let small = rel.schema().attrs(["B"]).unwrap();
        let large = rel.schema().attrs(["B", "E"]).unwrap();
        assert!(o.entropy(large) >= o.entropy(small) - 1e-12);
    }

    #[test]
    fn cache_hits_are_counted() {
        let rel = running_example();
        let o = NaiveEntropyOracle::new(&rel);
        let x = rel.schema().attrs(["A", "B"]).unwrap();
        o.entropy(x);
        o.entropy(x);
        o.entropy(x);
        let stats = o.stats();
        assert_eq!(stats.calls, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.full_scans, 1);
    }

    #[test]
    fn out_of_range_attrs_are_clipped_to_schema() {
        let rel = running_example();
        let o = NaiveEntropyOracle::new(&rel);
        let out = AttrSet::singleton(40);
        assert_eq!(o.entropy(out), 0.0);
    }

    #[test]
    fn shared_oracle_is_consistent_across_threads() {
        // Many threads hammering the same oracle: every answer must match the
        // value a fresh single-threaded oracle computes, and compute-once
        // caching must leave exactly one full scan per distinct attribute set.
        let rel = running_example();
        let shared = NaiveEntropyOracle::new(&rel);
        let reference = NaiveEntropyOracle::new(&rel);
        let subsets: Vec<AttrSet> = AttrSet::full(6).subsets().filter(|s| !s.is_empty()).collect();
        let expected: Vec<f64> = subsets.iter().map(|&s| reference.entropy(s)).collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (shared, subsets, expected) = (&shared, &subsets, &expected);
                scope.spawn(move || {
                    for i in 0..subsets.len() {
                        // Each thread walks the subsets in a different rotation
                        // so workloads overlap but are not lock-step.
                        let idx = (i + t * 17) % subsets.len();
                        assert_eq!(shared.entropy(subsets[idx]), expected[idx]);
                    }
                });
            }
        });
        let stats = shared.stats();
        assert_eq!(stats.calls, 4 * subsets.len() as u64);
        assert_eq!(stats.full_scans, subsets.len() as u64);
        assert_eq!(stats.cache_hits, stats.calls - stats.full_scans);
    }

    #[test]
    fn entropy_from_group_sizes_handles_edge_cases() {
        assert_eq!(entropy_from_group_sizes(&[], 0), 0.0);
        assert_eq!(entropy_from_group_sizes(&[1, 1, 1, 1], 4), 2.0);
        assert!((entropy_from_group_sizes(&[2, 2], 4) - 1.0).abs() < 1e-12);
        assert!(entropy_from_group_sizes(&[4], 4).abs() < 1e-12);
    }
}
