//! The full-MVD search kernel ([`PairSearch`]: memoized, incremental
//! pairwise-consistent closure over fixed-size partition keys) must answer
//! every search exactly as the straightforward `getFullMVDs` it replaced:
//! the same full MVDs, the same `nodes_explored` (the DFS visits the same
//! nodes in the same order) and the same `truncated` flag, and the same
//! `is_separator` verdicts. Floating-point ties at ε are where a different
//! closure order could have shown, so the proptest relations use small
//! domains and take ε from their own mutual-information values.
//!
//! The reference below is that search, kept verbatim apart from the
//! `reference_` names. Three levels are checked against it:
//!
//! * the closure: every block order of one pre-closure partition closes to
//!   the same partition, which is what lets the kernel memoize closures by
//!   partition;
//! * proptest relations: every key of every pair, with and without the
//!   Fig. 17 optimization, `K ∈ {1, None}`, with and without a node limit,
//!   all through one context per pair and each call issued twice, so the
//!   memoized answers are compared too;
//! * every catalog dataset at CI scale, the same way at ε = 0.1 (one pass),
//!   plus keys over attributes 8–14 of a 15-column dataset;
//! * the whole mining phase, at the thread count `MAIMON_THREADS` selects,
//!   against exhaustive separators and full searches of the reference.

use maimon::entropy::{EntropyOracle, PliEntropyOracle};
use maimon::relation::{AttrSet, Relation, Schema};
use maimon::{
    j_partition, mine_mvds, within_epsilon, FullMvdSearch, MaimonConfig, Mvd, PairSearch,
    RunControl,
};
use maimon_datasets::{metanome_catalog, running_example_with_red_tuple};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Canonical representation of a dependent partition (sorted blocks), used as
/// the visited-set key.
fn canonical(blocks: &[AttrSet]) -> Vec<AttrSet> {
    let mut sorted = blocks.to_vec();
    sorted.sort();
    sorted
}

/// Repeatedly merges pairwise-inconsistent dependents (Fig. 16): while some
/// pair of blocks has `I(Cᵢ; Cⱼ | key) > ε`, merge it. Returns `None` if the
/// merging ends up putting `a` and `b` in the same block, in which case no
/// ε-MVD separating them exists below this node.
fn reference_pairwise_consistent<O: EntropyOracle + ?Sized>(
    oracle: &O,
    key: AttrSet,
    blocks: &[AttrSet],
    epsilon: f64,
    pair: (usize, usize),
) -> Option<Vec<AttrSet>> {
    let mut blocks = blocks.to_vec();
    loop {
        if blocks.len() < 2 {
            return None;
        }
        let block_of_a = blocks.iter().position(|c| c.contains(pair.0));
        let block_of_b = blocks.iter().position(|c| c.contains(pair.1));
        match (block_of_a, block_of_b) {
            (Some(i), Some(j)) if i != j => {}
            _ => return None,
        }
        let mut merged_any = false;
        'search: for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                let mi = oracle.mutual_information(blocks[i], blocks[j], key);
                if !within_epsilon(mi, epsilon) {
                    let merged = blocks[i].union(blocks[j]);
                    blocks.swap_remove(j);
                    blocks.swap_remove(i);
                    blocks.push(merged);
                    merged_any = true;
                    break 'search;
                }
            }
        }
        if !merged_any {
            // Pairwise consistent; re-check the separation once more.
            let block_of_a = blocks.iter().position(|c| c.contains(pair.0));
            let block_of_b = blocks.iter().position(|c| c.contains(pair.1));
            return match (block_of_a, block_of_b) {
                (Some(i), Some(j)) if i != j => Some(blocks),
                _ => None,
            };
        }
    }
}

/// Mines full ε-MVDs with key `key` in which `pair.0` and `pair.1` fall in
/// distinct dependents.
///
/// * `limit` (`K` in the paper) caps the number of MVDs returned; `None`
///   returns every full MVD found.
/// * `node_limit` caps the number of lattice nodes evaluated; when hit the
///   result is marked `truncated`.
/// * `use_optimization` toggles the pairwise-consistency pruning (Fig. 17).
/// * `ctl` carries cancellation and deadline plumbing: when it fires
///   mid-search the traversal stops at the next lattice node and the partial
///   result is returned flagged `truncated` — the same contract as the node
///   limit, never an error (pass [`RunControl::NONE`] to opt out).
fn reference_get_full_mvds<O: EntropyOracle + ?Sized>(
    oracle: &O,
    key: AttrSet,
    epsilon: f64,
    pair: (usize, usize),
    limit: Option<usize>,
    node_limit: Option<usize>,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> FullMvdSearch {
    let mut result = FullMvdSearch::default();
    let universe = oracle.all_attrs();
    let key = key.intersect(universe);
    let (a, b) = pair;
    let rest = universe.difference(key);
    if !rest.contains(a) || !rest.contains(b) || a == b {
        return result;
    }

    // ϕ₀ = key ↠ X₁ | … | X_k with singleton dependents.
    let initial: Vec<AttrSet> = rest.iter().map(AttrSet::singleton).collect();
    if initial.len() < 2 {
        return result;
    }
    let start = if use_optimization {
        match reference_pairwise_consistent(oracle, key, &initial, epsilon, pair) {
            Some(blocks) => blocks,
            None => return result,
        }
    } else {
        initial
    };

    let mut stack: Vec<Vec<AttrSet>> = vec![canonical(&start)];
    let mut visited: HashSet<Vec<AttrSet>> = HashSet::new();
    visited.insert(canonical(&start));

    while let Some(blocks) = stack.pop() {
        if let Some(k) = limit {
            if result.mvds.len() >= k {
                break;
            }
        }
        if let Some(max_nodes) = node_limit {
            if result.nodes_explored >= max_nodes {
                result.truncated = true;
                break;
            }
        }
        if ctl.should_stop() {
            result.truncated = true;
            break;
        }
        result.nodes_explored += 1;
        let j = j_partition(oracle, key, &blocks);
        if within_epsilon(j, epsilon) {
            if let Ok(mvd) = Mvd::new(key, blocks.clone()) {
                result.mvds.push(mvd);
            }
            continue;
        }
        // Expand neighbors: merge any two blocks, except the block containing
        // `a` with the block containing `b` (they must stay separated).
        let block_of_a = blocks.iter().position(|c| c.contains(a));
        let block_of_b = blocks.iter().position(|c| c.contains(b));
        let (ia, ib) = match (block_of_a, block_of_b) {
            (Some(i), Some(j)) => (i, j),
            _ => continue,
        };
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                if (i == ia && j == ib) || (i == ib && j == ia) {
                    continue;
                }
                let mut merged: Vec<AttrSet> = blocks
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &c)| c)
                    .collect();
                merged.push(blocks[i].union(blocks[j]));
                let next = if use_optimization {
                    match reference_pairwise_consistent(oracle, key, &merged, epsilon, pair) {
                        Some(blocks) => blocks,
                        None => continue,
                    }
                } else {
                    merged
                };
                let canon = canonical(&next);
                if visited.insert(canon.clone()) {
                    stack.push(canon);
                }
            }
        }
    }
    // Keep only the *full* MVDs: drop any result strictly refined by another
    // result. Together with the completeness of the traversal (every full
    // ε-MVD with this key separating the pair is reached), this makes the
    // output exactly `FullMVD_ε(R, key, A, B)` when no limit truncated the
    // search.
    let kept: Vec<Mvd> = result
        .mvds
        .iter()
        .filter(|phi| !result.mvds.iter().any(|psi| psi != *phi && psi.strictly_refines(phi)))
        .cloned()
        .collect();
    result.mvds = kept;
    result.mvds.sort();
    result.mvds.dedup();
    result
}

/// Convenience wrapper answering "is `key` an ε-separator of `pair`?" —
/// i.e. does at least one ε-MVD with this key separate the pair (Def. 5.5)?
/// Implemented as `getFullMVDs(key, ε, pair, K = 1)` preceded by the cheap
/// necessary condition `I(A; B | key) ≤ ε` from Prop. 5.1.
fn reference_is_separator<O: EntropyOracle + ?Sized>(
    oracle: &O,
    key: AttrSet,
    epsilon: f64,
    pair: (usize, usize),
    node_limit: Option<usize>,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> bool {
    let universe = oracle.all_attrs();
    let key = key.intersect(universe);
    let (a, b) = pair;
    if key.contains(a)
        || key.contains(b)
        || a == b
        || !universe.contains(a)
        || !universe.contains(b)
    {
        return false;
    }
    let quick = oracle.mutual_information(AttrSet::singleton(a), AttrSet::singleton(b), key);
    if !within_epsilon(quick, epsilon) {
        return false;
    }
    !reference_get_full_mvds(oracle, key, epsilon, pair, Some(1), node_limit, use_optimization, ctl)
        .mvds
        .is_empty()
}

/// A small relation whose columns have domains of 1–3 values: plenty of
/// duplicate groups and of exactly equal mutual-information values.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (3usize..=6, 6usize..=40, 1u64..u64::MAX).prop_map(|(cols, rows, seed)| {
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
                let domain = 1 + c as u64 % 3;
                (0..rows).map(|_| (next() % domain) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

/// ε = 0 plus mutual-information values of the relation itself, so some
/// closure and J comparisons land exactly on the threshold.
fn tie_epsilons(oracle: &PliEntropyOracle) -> Vec<f64> {
    let n = oracle.arity();
    let mut epsilons = vec![0.0];
    for (a, b) in [(0, 1), (1, n - 1), (0, n - 1)] {
        epsilons.push(oracle.mutual_information(
            AttrSet::singleton(a),
            AttrSet::singleton(b),
            AttrSet::empty(),
        ));
    }
    epsilons.push(oracle.mutual_information(
        AttrSet::singleton(0),
        AttrSet::full(n).without(0).without(1),
        AttrSet::singleton(1),
    ));
    epsilons
}

/// Every key of every pair, through one context per pair, against the
/// reference. With `passes = 2` each call is issued twice, so answers
/// served from the search memo are checked too (one pass already mixes
/// them: a K = 1 search repeats the `is_separator` probe before it).
/// Returns the number of searches compared.
fn assert_matches_reference(
    oracle: &PliEntropyOracle,
    epsilon: f64,
    passes: usize,
    label: &str,
) -> usize {
    let n = oracle.arity();
    let ctl = &RunControl::NONE;
    let mut compared = 0;
    for a in 0..n {
        for b in a + 1..n {
            let pair = (a, b);
            let ground = AttrSet::full(n).without(a).without(b);
            for use_opt in [false, true] {
                let mut search = PairSearch::new(oracle, epsilon, pair, use_opt);
                for _pass in 0..passes {
                    for key in ground.subsets() {
                        for node_limit in [None, Some(3)] {
                            let at = format!(
                                "{label}: ε={epsilon} pair={pair:?} key={key:?} opt={use_opt} \
                                 node_limit={node_limit:?}"
                            );
                            assert_eq!(
                                search.is_separator(key, node_limit, ctl),
                                reference_is_separator(
                                    oracle, key, epsilon, pair, node_limit, use_opt, ctl
                                ),
                                "is_separator, {at}"
                            );
                            for limit in [Some(1), None] {
                                let expected = reference_get_full_mvds(
                                    oracle, key, epsilon, pair, limit, node_limit, use_opt, ctl,
                                );
                                let got = search.full_mvds(key, limit, node_limit, ctl);
                                assert_eq!(got, expected, "K={limit:?}, {at}");
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    compared
}

/// Every ordering of `items` (there are at most 24 here).
fn permutations(items: &[AttrSet]) -> Vec<Vec<AttrSet>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut all = Vec::new();
    for first in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(first);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            all.push(tail);
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn closure_is_independent_of_block_order(
        rel in relation_strategy(),
        labels in proptest::collection::vec(0usize..5, 6),
        pick in 0usize..5,
    ) {
        let oracle = PliEntropyOracle::with_defaults(&rel);
        let n = rel.arity();
        // Label 0 puts an attribute in the key, label k > 0 in block k − 1;
        // attributes 0 and 1 (the pair) start blocks 0 and 1.
        let mut key = AttrSet::empty();
        let mut blocks = vec![AttrSet::singleton(0), AttrSet::singleton(1)];
        blocks.resize(4, AttrSet::empty());
        for (attr, &label) in labels.iter().enumerate().take(n).skip(2) {
            match label {
                0 => key.insert(attr),
                label => blocks[label - 1].insert(attr),
            }
        }
        blocks.retain(|block| !block.is_empty());
        // The memo keys closures by the partition alone, which is sound
        // only if the scan order of its blocks cannot change the outcome.
        let epsilon = tie_epsilons(&oracle)[pick];
        let outcomes: HashSet<Option<Vec<AttrSet>>> = permutations(&blocks)
            .iter()
            .map(|order| {
                reference_pairwise_consistent(&oracle, key, order, epsilon, (0, 1))
                    .map(|closed| canonical(&closed))
            })
            .collect();
        prop_assert_eq!(outcomes.len(), 1, "block orders disagree: {:?}", outcomes);
    }

    #[test]
    fn searches_match_the_reference(rel in relation_strategy(), pick in 0usize..5) {
        let oracle = PliEntropyOracle::with_defaults(&rel);
        let epsilon = tie_epsilons(&oracle)[pick];
        assert_matches_reference(&oracle, epsilon, 2, "proptest");
    }
}

#[test]
fn running_example_matches_the_reference() {
    let rel = running_example_with_red_tuple();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    for epsilon in [0.0, 0.1, 0.25, 0.5, 1.0] {
        assert_matches_reference(&oracle, epsilon, 2, "Fig. 1 + red tuple");
    }
}

#[test]
fn catalog_datasets_match_the_reference() {
    let catalog = metanome_catalog();
    assert_eq!(catalog.len(), 20, "Table 2 lists 20 datasets");
    for spec in &catalog {
        // The CI scale of tests/parallel_equivalence.rs: about 200 rows,
        // at most 7 columns.
        let scale = (200.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        let oracle = PliEntropyOracle::with_defaults(&rel);
        assert!(assert_matches_reference(&oracle, 0.1, 1, spec.name) > 0);
    }
}

#[test]
fn wide_relations_match_the_reference() {
    // Attributes 10 and up: the partition keys pack 6-bit labels, and the
    // label of attribute 10 is the first that spans two words. Keys leave
    // three to five attributes free so the lattices stay small.
    let spec = metanome_catalog().into_iter().find(|s| s.columns >= 15).unwrap();
    let rel = spec.generate((200.0 / spec.rows as f64).min(1.0)).column_prefix(15).unwrap();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let ctl = &RunControl::NONE;
    let free: AttrSet = [8usize, 10, 13].into_iter().collect();
    for (a, b) in [(9, 10), (10, 14), (11, 12), (0, 13)] {
        for use_opt in [false, true] {
            let mut search = PairSearch::new(&oracle, 0.1, (a, b), use_opt);
            let ground = AttrSet::full(15).without(a).without(b);
            for out in free.subsets() {
                let key = ground.difference(out);
                for node_limit in [None, Some(3)] {
                    let at = format!("pair=({a}, {b}) key={key:?} opt={use_opt}");
                    assert_eq!(
                        search.is_separator(key, node_limit, ctl),
                        reference_is_separator(&oracle, key, 0.1, (a, b), node_limit, use_opt, ctl),
                        "{at}"
                    );
                    for limit in [Some(1), None] {
                        assert_eq!(
                            search.full_mvds(key, limit, node_limit, ctl),
                            reference_get_full_mvds(
                                &oracle,
                                key,
                                0.1,
                                (a, b),
                                limit,
                                node_limit,
                                use_opt,
                                ctl
                            ),
                            "K={limit:?}, {at}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_cancelled_search_is_not_remembered() {
    use maimon::CancelToken;
    let rel = running_example_with_red_tuple();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let (key, pair, epsilon) = (AttrSet::singleton(0), (5, 1), 0.3);
    let token = CancelToken::new();
    token.cancel();
    let cancelled = RunControl::new().with_cancel(token);
    let mut search = PairSearch::new(&oracle, epsilon, pair, true);
    let cut = search.full_mvds(key, None, None, &cancelled);
    assert!(cut.truncated && cut.nodes_explored == 0);
    let expected =
        reference_get_full_mvds(&oracle, key, epsilon, pair, None, None, true, &RunControl::NONE);
    assert!(!expected.truncated && !expected.mvds.is_empty());
    assert_eq!(search.full_mvds(key, None, None, &RunControl::NONE), expected);
}

/// Minimal separators per attribute pair, as `MvdMiningResult` keeps them.
type SeparatorMap = BTreeMap<(usize, usize), Vec<AttrSet>>;

/// `M_ε`, the separator map and the lattice-node count of the mining phase,
/// from the reference: every minimal separator by brute force (exact when
/// no limit truncates the run), then the full search of each.
fn reference_mining(
    oracle: &PliEntropyOracle,
    epsilon: f64,
    node_limit: Option<usize>,
) -> (BTreeSet<Mvd>, SeparatorMap, usize) {
    let n = oracle.arity();
    let ctl = &RunControl::NONE;
    let (mut mvds, mut separators, mut nodes) = (BTreeSet::new(), BTreeMap::new(), 0);
    for a in 0..n {
        for b in a + 1..n {
            let pair = (a, b);
            let ground = AttrSet::full(n).without(a).without(b);
            let found: Vec<AttrSet> = ground
                .subsets()
                .filter(|&s| {
                    reference_is_separator(oracle, s, epsilon, pair, node_limit, true, ctl)
                })
                .collect();
            let mut minimal: Vec<AttrSet> = found
                .iter()
                .copied()
                .filter(|&s| !found.iter().any(|&t| t != s && t.is_subset_of(s)))
                .collect();
            minimal.sort();
            for &sep in &minimal {
                let search = reference_get_full_mvds(
                    oracle, sep, epsilon, pair, None, node_limit, true, ctl,
                );
                nodes += search.nodes_explored;
                mvds.extend(search.mvds);
            }
            if !minimal.is_empty() {
                separators.insert(pair, minimal);
            }
        }
    }
    (mvds, separators, nodes)
}

#[test]
fn mining_matches_the_reference_at_the_configured_thread_count() {
    let mut relations = vec![("Fig. 1 + red tuple", running_example_with_red_tuple())];
    for spec in &metanome_catalog() {
        let rel = spec.generate((200.0 / spec.rows as f64).min(1.0));
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        relations.push((spec.name, rel));
    }
    for (name, rel) in &relations {
        for epsilon in [0.0, 0.1] {
            // `threads: None` resolves MAIMON_THREADS, else the machine's
            // available parallelism.
            let config = MaimonConfig::builder().epsilon(epsilon).threads(None).build().unwrap();
            let oracle = PliEntropyOracle::new(rel, config.entropy);
            let mined = mine_mvds(&oracle, &config);
            assert!(!mined.stats.truncated, "{name}: the reference is exhaustive");
            let (mvds, separators, nodes) =
                reference_mining(&oracle, epsilon, config.limits.max_lattice_nodes);
            assert_eq!(mined.mvds, mvds.into_iter().collect::<Vec<_>>(), "{name} ε={epsilon}");
            assert_eq!(mined.separators, separators, "{name} ε={epsilon}");
            assert_eq!(mined.stats.lattice_nodes_explored, nodes, "{name} ε={epsilon}");
        }
    }
}
