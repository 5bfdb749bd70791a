//! Duplicate-heavy equivalence for the tuple-table oracle.
//!
//! [`PliEntropyOracle`] partitions distinct tuples weighted by their
//! multiplicities instead of rows. On relations with many more rows than
//! distinct tuples that must change nothing observable:
//!
//! * every subset's entropy is bit-identical to grouping the rows directly
//!   (first-occurrence group order, the canonical summation order) and
//!   agrees with [`NaiveEntropyOracle`] to rounding — the naive oracle sums
//!   its sizes sorted, so only the order of the float additions differs;
//! * [`PliEntropyOracle::extend_to`] stays bit-identical to a fresh oracle
//!   when an append repeats a stripped weight-1 tuple (promotion), repeats
//!   a clustered tuple, or adds new tuples, and every carried partition is
//!   counted as a delta refresh;
//! * the all-distinct and all-identical edge cases hold too.

use entropy::{
    entropy_from_group_sizes, EntropyConfig, EntropyOracle, NaiveEntropyOracle, PliEntropyOracle,
};
use proptest::prelude::*;
use relation::{AttrSet, Relation, Schema};
use std::collections::HashMap;

/// Entropy of the rows grouped by `attrs`, sizes summed in order of each
/// group's first row.
fn row_grouping_entropy(rel: &Relation, attrs: AttrSet) -> f64 {
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for r in 0..rel.n_rows() {
        let next = sizes.len();
        let g = *index.entry(rel.key(r, attrs)).or_insert(next);
        if g == next {
            sizes.push(0);
        }
        sizes[g] += 1;
    }
    entropy_from_group_sizes(&sizes, rel.n_rows())
}

fn configs() -> [EntropyConfig; 4] {
    [
        EntropyConfig::default(),
        EntropyConfig::no_precompute(),
        EntropyConfig { block_size: None, max_cached_plis: 10_000 },
        // A budget this small truncates precomputation, so pieces miss the
        // cache and go through the rescan fallback.
        EntropyConfig { block_size: Some(3), max_cached_plis: 2 },
    ]
}

fn assert_matches_row_grouping(rel: &Relation, label: &str) {
    let naive = NaiveEntropyOracle::new(rel);
    for config in configs() {
        let oracle = PliEntropyOracle::new(rel, config);
        for attrs in AttrSet::full(rel.arity()).subsets().filter(|s| !s.is_empty()) {
            let h = oracle.entropy(attrs);
            let expected = row_grouping_entropy(rel, attrs);
            assert_eq!(h.to_bits(), expected.to_bits(), "{label} {config:?}: H({attrs:?})");
            let reference = naive.entropy(attrs);
            assert!(
                (h - reference).abs() <= 1e-12,
                "{label}: H({attrs:?}) {h} vs naive {reference}"
            );
        }
    }
}

/// Small domains and many rows: far fewer distinct tuples than rows.
fn duplicate_heavy_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 40usize..=400, 1u64..10_000).prop_map(|(cols, rows, seed)| {
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
                let domain = 1 + (c as u64 % 3);
                (0..rows).map(|_| (next() % domain) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

/// Owned string rows `rows` of `rel`.
fn rows_of(rel: &Relation, rows: impl IntoIterator<Item = usize>) -> Vec<Vec<String>> {
    rows.into_iter().map(|r| rel.row(r).into_iter().map(str::to_string).collect()).collect()
}

/// Appends `batch` to `base` through a warmed oracle and checks the
/// successor against a fresh oracle over the grown relation.
fn assert_extend_matches_fresh(base: &Relation, batch: &[Vec<String>], label: &str) {
    let mut grown = base.clone();
    grown.append_rows(batch).unwrap();
    for config in configs() {
        let oracle = PliEntropyOracle::new(base, config);
        for attrs in AttrSet::full(base.arity()).subsets().filter(|s| s.len() >= 2) {
            oracle.entropy(attrs);
        }
        let successor = oracle.extend_to(&grown);
        let fresh = PliEntropyOracle::new(&grown, config);
        assert_eq!(successor.distinct_tuples(), fresh.distinct_tuples(), "{label}");
        for attrs in AttrSet::full(base.arity()).subsets() {
            assert_eq!(
                successor.entropy(attrs).to_bits(),
                fresh.entropy(attrs).to_bits(),
                "{label} {config:?}: H({attrs:?}) after the append"
            );
        }
        // Narrow domains always fold, so every carried partition — each
        // single plus each cached composite — took the delta path.
        let stats = successor.stats();
        assert_eq!(
            stats.delta_refreshes,
            (base.arity() + oracle.cached_pli_count()) as u64,
            "{label} {config:?}: {stats:?}"
        );
        assert_eq!(stats.full_rebuilds, 0, "{label} {config:?}");
    }
}

proptest! {
    #[test]
    fn duplicate_heavy_entropies_match_row_grouping(rel in duplicate_heavy_strategy()) {
        assert_matches_row_grouping(&rel, "duplicate-heavy");
        let oracle = PliEntropyOracle::with_defaults(&rel);
        let distinct = rel.distinct_count(AttrSet::full(rel.arity())).unwrap();
        prop_assert_eq!(oracle.distinct_tuples(), distinct);
    }

    #[test]
    fn duplicate_heavy_appends_match_fresh(
        rel in duplicate_heavy_strategy(),
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        // The batch repeats existing rows (bumping clustered tuples) and
        // adds rows with a brand-new value (new tuples).
        let mut batch = rows_of(&rel, picks.iter().map(|p| p % rel.n_rows()));
        let mut novel = batch[0].clone();
        novel[0] = "novel".to_string();
        batch.push(novel.clone());
        batch.push(novel);
        assert_extend_matches_fresh(&rel, &batch, "duplicate-heavy append");
    }
}

/// Rows drawn from a 2×2 domain, plus one row whose values appear nowhere
/// else: that tuple has weight 1 and is stripped from every partition.
fn base_with_loner() -> Relation {
    let schema = Schema::new(["A", "B", "C"]).unwrap();
    let mut rows: Vec<Vec<String>> = (0..40)
        .map(|i| vec![format!("a{}", i % 2), format!("b{}", (i / 2) % 2), format!("c{}", i % 2)])
        .collect();
    rows.push(vec!["lone_a".into(), "lone_b".into(), "lone_c".into()]);
    Relation::from_rows(schema, &rows).unwrap()
}

#[test]
fn repeating_a_stripped_tuple_promotes_it() {
    let base = base_with_loner();
    let loner = rows_of(&base, [base.n_rows() - 1]);
    assert_extend_matches_fresh(&base, &loner, "promotion");
    // Twice in one batch, and together with a new tuple sharing its A value.
    let mut batch = loner.clone();
    batch.extend(loner.clone());
    batch.push(vec!["lone_a".into(), "b0".into(), "c9".into()]);
    assert_extend_matches_fresh(&base, &batch, "promotion with a new tuple");
}

#[test]
fn repeating_a_clustered_tuple_only_moves_weights() {
    let base = base_with_loner();
    let batch = rows_of(&base, [0, 1, 0]);
    assert_extend_matches_fresh(&base, &batch, "clustered repeat");
}

#[test]
fn new_tuples_join_clusters_or_open_fresh_ones() {
    let base = base_with_loner();
    let batch: Vec<Vec<String>> = vec![
        // Existing values in a new combination.
        vec!["a0".into(), "b1".into(), "c1".into()],
        // A new value, twice: a new-only cluster of one tuple with weight 2.
        vec!["a7".into(), "b7".into(), "c7".into()],
        vec!["a7".into(), "b7".into(), "c7".into()],
        // Matches the stripped tuple on B only.
        vec!["a1".into(), "lone_b".into(), "c0".into()],
    ];
    assert_extend_matches_fresh(&base, &batch, "new tuples");
}

#[test]
fn all_distinct_relation_has_one_tuple_per_row() {
    let schema = Schema::new(["K", "V", "W"]).unwrap();
    let rows: Vec<Vec<String>> = (0..300)
        .map(|i| vec![format!("k{i}"), format!("v{}", i % 3), format!("w{}", i % 5)])
        .collect();
    let rel = Relation::from_rows(schema, &rows).unwrap();
    assert_matches_row_grouping(&rel, "all-distinct");
    let oracle = PliEntropyOracle::with_defaults(&rel);
    assert_eq!(oracle.distinct_tuples(), rel.n_rows());
    assert_eq!(oracle.entropy(AttrSet::full(3)).to_bits(), 300f64.log2().to_bits());
    assert_extend_matches_fresh(&rel, &rows_of(&rel, [3, 3, 7]), "all-distinct append");
}

#[test]
fn all_identical_relation_is_one_tuple() {
    let schema = Schema::new(["A", "B", "C"]).unwrap();
    let rel = Relation::from_rows(schema, &vec![vec!["x", "y", "z"]; 500]).unwrap();
    assert_matches_row_grouping(&rel, "all-identical");
    let oracle = PliEntropyOracle::with_defaults(&rel);
    assert_eq!(oracle.distinct_tuples(), 1);
    for attrs in AttrSet::full(3).subsets() {
        assert!(oracle.entropy(attrs).abs() < 1e-12, "H({attrs:?})");
    }
    let batch = vec![vec!["x".to_string(), "y".to_string(), "w".to_string()]; 2];
    assert_extend_matches_fresh(&rel, &batch, "all-identical append");
    assert_extend_matches_fresh(&rel, &rows_of(&rel, [0]), "all-identical repeat");
}
