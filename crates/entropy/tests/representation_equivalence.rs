//! Representation-equivalence suite for the CSR partition engine.
//!
//! The flat-arena refactor must be *behaviorally invisible*: the CSR `Pli`
//! has to produce exactly the clusters — content **and** canonical order,
//! because `Pli::entropy` sums in cluster order and the miner's outputs are
//! locked bit-for-bit — that the legacy `Vec<Vec<u32>>` representation
//! produced. This suite keeps a faithful test-local copy of the legacy
//! engine (hash-map grouping + lexicographic cluster sort, exactly the
//! pre-refactor code) and checks on random relations that:
//!
//! * `Pli::from_column` / `Pli::from_attrs` match the legacy constructors,
//! * `Pli::intersect` / `Pli::intersect_with` match the legacy probe-table
//!   intersection,
//! * `Pli::intersect_counts` reports the same group-size sequence as
//!   materializing, with bit-identical entropy,
//! * a `PliEntropyOracle` replaying the same workload twice at `threads = 1`
//!   reports identical `OracleStats` (the intersection counters are
//!   deterministic sequentially; only thread interleaving may move work
//!   between `intersections` and cache hits).

use entropy::{EntropyOracle, IntersectScratch, Pli, PliEntropyOracle};
use proptest::prelude::*;
use relation::{AttrSet, Relation, Schema};

/// The pre-CSR stripped-partition engine, kept verbatim as a reference.
mod legacy {
    use relation::{AttrSet, Relation};
    use std::collections::HashMap;

    pub struct LegacyPli {
        pub clusters: Vec<Vec<u32>>,
        pub n_rows: usize,
    }

    impl LegacyPli {
        pub fn from_column(rel: &Relation, attr: usize) -> LegacyPli {
            let codes = rel.column_codes(attr);
            let cardinality = rel.column_cardinality(attr);
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cardinality];
            for (row, &code) in codes.iter().enumerate() {
                buckets[code as usize].push(row as u32);
            }
            let clusters: Vec<Vec<u32>> = buckets.into_iter().filter(|b| b.len() >= 2).collect();
            LegacyPli { clusters, n_rows: rel.n_rows() }
        }

        pub fn from_attrs(rel: &Relation, attrs: AttrSet) -> LegacyPli {
            let mut groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::with_capacity(rel.n_rows());
            for row in 0..rel.n_rows() {
                groups.entry(rel.key(row, attrs)).or_default().push(row as u32);
            }
            let mut clusters: Vec<Vec<u32>> =
                groups.into_values().filter(|g| g.len() >= 2).collect();
            clusters.sort();
            LegacyPli { clusters, n_rows: rel.n_rows() }
        }

        pub fn intersect(&self, other: &LegacyPli) -> LegacyPli {
            const NONE: u32 = u32::MAX;
            let mut probe = vec![NONE; self.n_rows];
            for (ci, cluster) in self.clusters.iter().enumerate() {
                for &row in cluster {
                    probe[row as usize] = ci as u32;
                }
            }
            let mut clusters = Vec::new();
            let mut partial: HashMap<u32, Vec<u32>> = HashMap::new();
            for cluster in &other.clusters {
                partial.clear();
                for &row in cluster {
                    let key = probe[row as usize];
                    if key != NONE {
                        partial.entry(key).or_default().push(row);
                    }
                }
                for (_, group) in partial.drain() {
                    if group.len() >= 2 {
                        clusters.push(group);
                    }
                }
            }
            clusters.sort();
            LegacyPli { clusters, n_rows: self.n_rows }
        }

        pub fn entropy(&self) -> f64 {
            if self.n_rows == 0 {
                return 0.0;
            }
            let n = self.n_rows as f64;
            let sum: f64 = self
                .clusters
                .iter()
                .map(|c| {
                    let s = c.len() as f64;
                    s * s.log2()
                })
                .sum();
            n.log2() - sum / n
        }
    }
}

use legacy::LegacyPli;

fn csr_clusters(pli: &Pli) -> Vec<Vec<u32>> {
    pli.clusters().map(|c| c.to_vec()).collect()
}

/// A random small relation; small per-column domains maximize duplicate
/// groups, which is where partition bookkeeping can go wrong.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=7, 0usize..=80, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| {
                let domain = 1 + (c as u64 % 5);
                (0..rows).map(|_| (next() % (domain + 1)) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

proptest! {
    #[test]
    fn constructors_match_legacy_exactly(rel in relation_strategy()) {
        for attr in 0..rel.arity() {
            let csr = Pli::from_column(&rel, attr);
            let old = LegacyPli::from_column(&rel, attr);
            prop_assert_eq!(csr_clusters(&csr), old.clusters.clone(), "from_column attr {}", attr);
            prop_assert_eq!(csr.entropy().to_bits(), old.entropy().to_bits());
        }
        for attrs in AttrSet::full(rel.arity()).subsets().filter(|s| !s.is_empty()) {
            let csr = Pli::from_attrs(&rel, attrs);
            let old = LegacyPli::from_attrs(&rel, attrs);
            prop_assert_eq!(csr_clusters(&csr), old.clusters.clone(), "from_attrs {:?}", attrs);
            prop_assert_eq!(csr.entropy().to_bits(), old.entropy().to_bits());
        }
    }

    #[test]
    fn intersections_match_legacy_exactly(rel in relation_strategy()) {
        let mut scratch = IntersectScratch::new();
        for a in 0..rel.arity() {
            for b in 0..rel.arity() {
                let left = Pli::from_column(&rel, a);
                let right = Pli::from_column(&rel, b);
                let old = LegacyPli::from_column(&rel, a)
                    .intersect(&LegacyPli::from_column(&rel, b));
                let merged = left.intersect_with(&right, &mut scratch);
                prop_assert_eq!(csr_clusters(&merged), old.clusters.clone(), "({}, {})", a, b);
                prop_assert_eq!(merged.entropy().to_bits(), old.entropy().to_bits());
                // The scratch-free wrapper is the same computation.
                prop_assert_eq!(&left.intersect(&right), &merged);
                // Count-only reports the same sizes, in the same canonical
                // order, with bit-identical entropy.
                let sizes: Vec<u32> = merged.clusters().map(|c| c.len() as u32).collect();
                let counts = left.intersect_counts(&right, &mut scratch);
                prop_assert_eq!(counts.sizes(), sizes.as_slice());
                prop_assert_eq!(counts.entropy().to_bits(), merged.entropy().to_bits());
            }
        }
    }

    #[test]
    fn sequential_oracle_stats_are_deterministic(rel in relation_strategy()) {
        // Two fresh oracles replaying the same workload sequentially must
        // agree on *every* counter — including `intersections` and
        // `count_only_intersections`, which are only allowed to vary under
        // thread interleaving — and on every entropy bit.
        let workload: Vec<AttrSet> =
            AttrSet::full(rel.arity()).subsets().filter(|s| s.len() >= 2).collect();
        let first = PliEntropyOracle::with_defaults(&rel);
        let second = PliEntropyOracle::with_defaults(&rel);
        for &attrs in &workload {
            prop_assert_eq!(
                first.entropy(attrs).to_bits(),
                second.entropy(attrs).to_bits(),
                "H({:?})",
                attrs
            );
        }
        prop_assert_eq!(first.stats(), second.stats());
        prop_assert_eq!(first.cached_pli_count(), second.cached_pli_count());
    }
}

#[test]
fn oracle_count_only_counter_fires_on_multi_block_sets() {
    // Deterministic anchor for the fast path: an arity-7 relation under the
    // default L = 5 blocking answers any set spanning both blocks with a
    // final count-only merge.
    let schema = Schema::with_arity(7).unwrap();
    let columns: Vec<Vec<u32>> =
        (0..7).map(|c| (0..64u32).map(|r| (r * (c as u32 + 3)) % 5).collect()).collect();
    let rel = Relation::from_code_columns(schema, columns).unwrap();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    assert_eq!(oracle.stats().count_only_intersections, 0, "precompute materializes everything");
    let spanning: AttrSet = [0usize, 2, 5].into_iter().collect();
    oracle.entropy(spanning);
    let stats = oracle.stats();
    assert_eq!(stats.count_only_intersections, 1);
    assert!(stats.intersections >= stats.count_only_intersections);
}
