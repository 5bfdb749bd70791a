//! Property-based tests (proptest) of the core invariants the paper's theory
//! rests on, evaluated on randomly generated relations and random attribute
//! partitions:
//!
//! * entropy oracle equivalence (naive vs PLI),
//! * monotonicity and submodularity of the empirical entropy,
//! * Proposition 5.2 (refinement never decreases J),
//! * Lemma 5.4 (the join of two MVDs is bounded by a combination of their Js),
//! * Theorem 5.1 (J of a join tree is sandwiched by its support MVDs),
//! * Lee's theorem direction: J(S) = 0 implies the join dependency holds
//!   exactly (no spurious tuples), and J(S) > 0 implies it does not,
//! * Lee's theorem: J(S) is the same over every join tree of S,
//! * the join bound log₂|⋈ R[Ωᵢ]| ≥ H(Ω) + J(S), which ties the join counter
//!   to the entropy oracle,
//! * quality and decomposition depend only on the distinct tuples,
//! * every grouping (the keyer, `Relation`'s distinct counts, group sizes
//!   and `distinct`, the join counter and the oracle's partitions) equals a
//!   first-occurrence reference grouping, also past a 2⁶⁴ cardinality
//!   product,
//! * AttrSet algebra sanity.

use maimon::entropy::{
    entropy_from_group_sizes, EntropyConfig, EntropyOracle, NaiveEntropyOracle, PliEntropyOracle,
};
use maimon::relation::{
    acyclic_join_size, natural_join_all, AttrSet, JoinCounter, Keyer, Relation, Schema,
};
use maimon::{
    j_join_tree, j_mvd, measure_schemas, AcyclicSchema, JoinTree, MaimonConfig, MaimonSession,
    MiningLimits, Mvd, EPSILON_TOLERANCE,
};
use proptest::prelude::*;

/// Strategy: a random small relation with `cols` columns (2–6), 5–60 rows and
/// per-column domain sizes 1–4 (small domains create plenty of duplicate
/// groups, which is where entropy bookkeeping can go wrong).
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 5usize..=60, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        // Simple xorshift so data depends only on (cols, rows, seed).
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
                let domain = 1 + (c as u32 % 4);
                (0..rows).map(|_| (next() % (domain as u64 + 1)) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

/// Strategy: a random partition of `Ω ∖ key` for a relation of arity `n`,
/// returned as (key, blocks).
fn partition_strategy(n: usize) -> impl Strategy<Value = (AttrSet, Vec<AttrSet>)> {
    proptest::collection::vec(0usize..4, n).prop_map(move |labels| {
        // label 0 = key, label k>0 = block k; ensure at least two blocks.
        let mut key = AttrSet::empty();
        let mut blocks_map = std::collections::BTreeMap::new();
        for (attr, &label) in labels.iter().enumerate() {
            if label == 0 {
                key.insert(attr);
            } else {
                blocks_map.entry(label).or_insert_with(AttrSet::empty).insert(attr);
            }
        }
        let mut blocks: Vec<AttrSet> = blocks_map.into_values().collect();
        // Guarantee at least two non-empty blocks by splitting or stealing.
        if blocks.len() < 2 {
            let mut pool: Vec<usize> = key.iter().collect();
            if let Some(b) = blocks.first().copied() {
                pool.extend(b.iter());
                blocks.clear();
            }
            if pool.len() >= 2 {
                key = pool[2..].iter().copied().collect();
                blocks = vec![AttrSet::singleton(pool[0]), AttrSet::singleton(pool[1])];
            } else {
                // Degenerate: give fixed blocks (n ≥ 2 always).
                key = AttrSet::empty();
                blocks = vec![AttrSet::singleton(0), AttrSet::singleton(1)];
                for attr in 2..n {
                    key.insert(attr);
                }
            }
        }
        (key, blocks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn naive_and_pli_entropies_agree(rel in relation_strategy()) {
        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        for attrs in AttrSet::full(rel.arity()).subsets() {
            let a = naive.entropy(attrs);
            let b = pli.entropy(attrs);
            prop_assert!((a - b).abs() < 1e-9, "mismatch on {:?}: {} vs {}", attrs, a, b);
        }
    }

    #[test]
    fn entropy_is_monotone_and_bounded(rel in relation_strategy()) {
        let oracle = NaiveEntropyOracle::new(&rel);
        let full = AttrSet::full(rel.arity());
        let log_n = (rel.n_rows() as f64).log2();
        for attrs in full.subsets() {
            let h = oracle.entropy(attrs);
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= log_n + 1e-9);
            // Monotone in one added attribute.
            for extra in full.difference(attrs).iter() {
                prop_assert!(oracle.entropy(attrs.with(extra)) + 1e-9 >= h);
            }
        }
    }

    #[test]
    fn conditional_mutual_information_is_nonnegative(
        rel in relation_strategy(),
        seed in 0usize..1000,
    ) {
        let n = rel.arity();
        let oracle = NaiveEntropyOracle::new(&rel);
        // Derive a (Y, Z, X) split from the seed.
        let y = AttrSet::singleton(seed % n);
        let z = AttrSet::singleton((seed / n) % n);
        if y == z { return Ok(()); }
        let x = AttrSet::full(n).difference(y).difference(z);
        let i = oracle.mutual_information(y, z, x);
        prop_assert!(i >= 0.0);
    }

    #[test]
    fn refinement_never_decreases_j(
        rel in relation_strategy(),
        partition in partition_strategy(6),
    ) {
        // Proposition 5.2: merging two dependents cannot increase J.
        let (key, blocks) = partition;
        let n = rel.arity();
        let clip = |s: AttrSet| s.intersect(AttrSet::full(n));
        let key = clip(key);
        let blocks: Vec<AttrSet> = blocks.iter().map(|&b| clip(b)).filter(|b| !b.is_empty()).collect();
        if blocks.len() < 2 { return Ok(()); }
        let fine = match Mvd::new(key, blocks) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let oracle = NaiveEntropyOracle::new(&rel);
        let j_fine = j_mvd(&oracle, &fine);
        for i in 0..fine.arity() {
            for j in i + 1..fine.arity() {
                let coarse = fine.merge(i, j);
                if coarse.arity() < 2 { continue; }
                let j_coarse = j_mvd(&oracle, &coarse);
                prop_assert!(j_fine + 1e-9 >= j_coarse,
                    "merge increased J: fine {} coarse {}", j_fine, j_coarse);
            }
        }
    }

    #[test]
    fn lemma_5_4_join_bound(rel in relation_strategy()) {
        // J(ϕ ∨ ψ) ≤ J(ϕ) + m·J(ψ) for standard MVDs with the same key.
        let n = rel.arity();
        if n < 3 { return Ok(()); }
        let key = AttrSet::empty();
        let rest: Vec<usize> = (0..n).collect();
        // ϕ splits {first attr} vs rest; ψ splits {last attr} vs rest.
        let phi = Mvd::standard(key, AttrSet::singleton(rest[0]),
            rest[1..].iter().copied().collect()).unwrap();
        let psi = Mvd::standard(key, AttrSet::singleton(rest[n - 1]),
            rest[..n - 1].iter().copied().collect()).unwrap();
        let join = phi.join(&psi).unwrap();
        let oracle = NaiveEntropyOracle::new(&rel);
        let j_phi = j_mvd(&oracle, &phi);
        let j_psi = j_mvd(&oracle, &psi);
        let j_join = j_mvd(&oracle, &join);
        let m = phi.arity() as f64;
        let k = psi.arity() as f64;
        prop_assert!(j_join <= j_phi + m * j_psi + 1e-9);
        prop_assert!(j_join <= k * j_phi + j_psi + 1e-9);
        prop_assert!(j_join + 1e-9 >= j_phi.max(j_psi));
    }

    #[test]
    fn theorem_5_1_sandwich(rel in relation_strategy()) {
        // max_i J(support_i) ≤ J(T) ≤ Σ_i J(support_i) for a random-ish
        // acyclic schema over the relation's attributes.
        let n = rel.arity();
        if n < 3 { return Ok(()); }
        let mid = n / 2;
        let left: AttrSet = (0..=mid).collect();
        let right: AttrSet = (mid..n).collect();
        let schema = AcyclicSchema::new(vec![left, right]).unwrap();
        let tree = schema.join_tree().unwrap();
        let oracle = NaiveEntropyOracle::new(&rel);
        let j_tree = j_join_tree(&oracle, &tree);
        let support = tree.support();
        if support.is_empty() { return Ok(()); }
        let js: Vec<f64> = support.iter().map(|m| j_mvd(&oracle, m)).collect();
        let max = js.iter().cloned().fold(0.0, f64::max);
        let sum: f64 = js.iter().sum();
        prop_assert!(max <= j_tree + 1e-9);
        prop_assert!(j_tree <= sum + 1e-9);
    }

    #[test]
    fn lee_theorem_j_zero_iff_no_spurious_tuples(rel in relation_strategy()) {
        // For a 2-bag acyclic schema: J(S) = 0 iff the join dependency holds
        // exactly (join size equals the number of distinct tuples).
        let rel = rel.distinct();
        let n = rel.arity();
        if n < 3 { return Ok(()); }
        let mid = n / 2;
        let left: AttrSet = (0..=mid).collect();
        let right: AttrSet = (mid..n).collect();
        let schema = AcyclicSchema::new(vec![left, right]).unwrap();
        let tree = schema.join_tree().unwrap();
        let oracle = NaiveEntropyOracle::new(&rel);
        let j = j_join_tree(&oracle, &tree);
        let join_size = acyclic_join_size(&rel, &tree.to_spec()).unwrap();
        let exact = join_size == rel.n_rows() as u128;
        prop_assert_eq!(j.abs() < 1e-9, exact,
            "J = {} but join size {} vs {} rows", j, join_size, rel.n_rows());
    }

    #[test]
    fn mined_schema_join_never_loses_tuples(
        rel in relation_strategy(),
        eps_millis in 0usize..=300,
    ) {
        // Decomposition is always *lossless upward*: for every schema Maimon
        // mines (at any ε), the join of the relation's projections onto the
        // schema's bags contains every original tuple. Approximation may add
        // spurious tuples; it must never drop one.
        let epsilon = eps_millis as f64 / 1000.0;
        let config = MaimonConfig::builder()
            .epsilon(epsilon)
            .limits(MiningLimits::small())
            .max_schemas(Some(8))
            .build()
            .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let distinct = rel.distinct();
        for ranked in result.schemas.iter().take(4) {
            let schema = &ranked.discovered.schema;
            prop_assert!(schema.covers(AttrSet::full(rel.arity())));
            let projections: Vec<Relation> = schema
                .bags()
                .iter()
                .map(|&bag| rel.project_distinct(bag).unwrap())
                .collect();
            let joined = natural_join_all(&projections).unwrap();
            // Containment: appending the original tuples to the join must not
            // create any new distinct tuple. The join's column order can
            // differ from the relation's, so translate each row by name.
            let order: Vec<usize> = joined
                .schema()
                .names()
                .iter()
                .map(|name| distinct.schema().index_of(name).unwrap())
                .collect();
            let joined_distinct = joined.distinct();
            let before = joined_distinct.n_rows();
            let mut extended = joined_distinct.clone();
            for r in 0..distinct.n_rows() {
                let row = distinct.row(r);
                let reordered: Vec<&str> = order.iter().map(|&c| row[c]).collect();
                extended.push_row(reordered).unwrap();
            }
            let after = extended.distinct().n_rows();
            prop_assert_eq!(
                before, after,
                "schema with {} bags lost {} original tuples (ε = {})",
                schema.n_relations(), after - before, epsilon
            );
        }
    }

    #[test]
    fn attrset_algebra_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let a = AttrSet::from_bits(a);
        let b = AttrSet::from_bits(b);
        let c = AttrSet::from_bits(c);
        // De Morgan within a universe.
        let u = a.union(b).union(c);
        prop_assert_eq!(a.union(b).complement_in(u),
            a.complement_in(u).intersect(b.complement_in(u)));
        // Distributivity.
        prop_assert_eq!(a.intersect(b.union(c)), a.intersect(b).union(a.intersect(c)));
        // Difference / subset coherence.
        prop_assert!(a.difference(b).is_subset_of(a));
        prop_assert!(a.intersect(b).is_subset_of(a));
        prop_assert_eq!(a.difference(b).union(a.intersect(b)), a);
        prop_assert_eq!(a.union(b).len() + a.intersect(b).len(), a.len() + b.len());
    }

    #[test]
    fn mvd_join_refines_both_operands(
        rel in relation_strategy(),
        partition in partition_strategy(6),
    ) {
        let n = rel.arity();
        let (key, blocks) = partition;
        let clip = |s: AttrSet| s.intersect(AttrSet::full(n));
        let key = clip(key);
        let blocks: Vec<AttrSet> = blocks.iter().map(|&b| clip(b)).filter(|b| !b.is_empty()).collect();
        if blocks.len() < 2 { return Ok(()); }
        let phi = match Mvd::new(key, blocks) { Ok(m) => m, Err(_) => return Ok(()) };
        // ψ: the standard MVD splitting the first dependent from the rest.
        let psi = match phi.split_around(0) { Some(p) => p, None => return Ok(()) };
        let join = phi.join(&psi).unwrap();
        prop_assert!(join.refines(&phi));
        prop_assert!(join.refines(&psi));
        // Joining with a coarsening of itself gives back the finer MVD.
        prop_assert_eq!(join, phi);
    }
}

/// A random acyclic schema over `0..n`, grown bag by bag: each new bag takes
/// the next one to three fresh attributes plus a subset of an earlier bag.
/// That keeps the running-intersection property, so a join tree exists.
fn random_acyclic_schema(n: usize, choices: &[u32]) -> AcyclicSchema {
    let mut bags: Vec<AttrSet> = Vec::new();
    let mut choice = choices.iter().copied().cycle();
    let mut next = 0;
    while next < n {
        let c = choice.next().expect("at least one choice");
        let fresh = 1 + (c as usize % 3).min(n - next - 1);
        let mut bag: AttrSet = (next..next + fresh).collect();
        next += fresh;
        if !bags.is_empty() {
            let parent = bags[(c as usize >> 2) % bags.len()];
            for (i, attr) in parent.iter().enumerate() {
                if (c >> (8 + i % 24)) & 1 == 1 {
                    bag.insert(attr);
                }
            }
        }
        bags.push(bag);
    }
    AcyclicSchema::new(bags).unwrap()
}

/// Every join tree over `bags`: each spanning tree of the complete graph on
/// the bags that [`JoinTree::new`] accepts (a tree with the running
/// intersection property).
fn every_join_tree(bags: &[AttrSet]) -> Vec<JoinTree> {
    let k = bags.len();
    let pairs: Vec<(usize, usize)> = (0..k).flat_map(|u| (u + 1..k).map(move |v| (u, v))).collect();
    (0u32..1 << pairs.len())
        .filter(|mask| mask.count_ones() as usize + 1 == k)
        .filter_map(|mask| {
            let edges = (0..pairs.len()).filter(|i| mask >> i & 1 == 1).map(|i| pairs[i]);
            JoinTree::new(bags.to_vec(), edges.collect()).ok()
        })
        .collect()
}

proptest! {
    #[test]
    fn j_is_the_same_over_every_join_tree(
        rel in relation_strategy(),
        choices in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        // Lee: J(S) depends on the schema, not on the join tree chosen.
        let schema = random_acyclic_schema(rel.arity(), &choices);
        let trees = every_join_tree(schema.bags());
        let oracle = PliEntropyOracle::with_defaults(&rel);
        let reference = j_join_tree(&oracle, &schema.join_tree().expect("grown schemas are acyclic"));
        prop_assert!(!trees.is_empty(), "{:?} has no join tree", schema.bags());
        for tree in &trees {
            let j = j_join_tree(&oracle, tree);
            prop_assert!(
                (j - reference).abs() <= EPSILON_TOLERANCE,
                "{:?} over edges {:?}: J {} vs {}", schema.bags(), tree.edges(), j, reference
            );
        }
    }

    #[test]
    fn join_size_bounds_entropy_plus_j(
        rel in relation_strategy(),
        choices in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        // The product of the bag marginals along a join tree is supported on
        // ⋈ R[Ωᵢ] and has entropy H(Ω) + J(S), so log₂|⋈ R[Ωᵢ]| ≥ H(Ω) + J(S).
        // The join count and the entropies come from independent engines.
        for rel in [rel.clone(), rel.distinct()] {
            let schema = random_acyclic_schema(rel.arity(), &choices);
            let tree = schema.join_tree().expect("grown schemas are acyclic");
            let oracle = PliEntropyOracle::with_defaults(&rel);
            let join = JoinCounter::new(oracle.tuples()).join_size(&tree.to_spec()).unwrap();
            let h = oracle.entropy(AttrSet::full(rel.arity()));
            let j = j_join_tree(&oracle, &tree);
            prop_assert!(
                (join as f64).log2() >= h + j - EPSILON_TOLERANCE,
                "{:?}: log2 {} < H {} + J {}", schema.bags(), join, h, j
            );
        }
    }

    #[test]
    fn quality_and_decomposition_need_only_the_distinct_tuples(
        rel in relation_strategy(),
        eps_millis in 0usize..=300,
    ) {
        // S and E count distinct projections and the set join, so measuring
        // or decomposing the rows gives the same bits as the distinct tuples.
        let epsilon = eps_millis as f64 / 1000.0;
        let config = MaimonConfig::builder()
            .epsilon(epsilon)
            .limits(MiningLimits::small())
            .max_schemas(Some(16))
            .build()
            .unwrap();
        let mined = MaimonSession::new(&rel, config).unwrap().schemas(epsilon).unwrap();
        let distinct = rel.distinct();
        let rows = measure_schemas(&rel, &mined.schemas, 1).unwrap();
        let tuples = measure_schemas(&distinct, &mined.schemas, 1).unwrap();
        for ((a, b), d) in rows.iter().zip(&tuples).zip(&mined.schemas) {
            let bags = d.schema.bags();
            prop_assert_eq!(a.n_relations, b.n_relations, "{:?}", bags);
            prop_assert_eq!(a.width, b.width, "{:?}", bags);
            prop_assert_eq!(a.intersection_width, b.intersection_width, "{:?}", bags);
            prop_assert_eq!(
                a.storage_savings_pct.to_bits(), b.storage_savings_pct.to_bits(), "{:?}", bags
            );
            prop_assert_eq!(
                a.spurious_tuples_pct.to_bits(), b.spurious_tuples_pct.to_bits(), "{:?}", bags
            );
            prop_assert_eq!(a.original_cells, b.original_cells, "{:?}", bags);
            prop_assert_eq!(a.decomposed_cells, b.decomposed_cells, "{:?}", bags);
            prop_assert_eq!(a.join_size, b.join_size, "{:?}", bags);

            let over_rows = d.schema.decompose(&rel).unwrap();
            let over_tuples = d.schema.decompose(&distinct).unwrap();
            prop_assert_eq!(over_rows.bags(), over_tuples.bags(), "{:?}", bags);
            prop_assert_eq!(over_rows.edges(), over_tuples.edges(), "{:?}", bags);
            prop_assert_eq!(over_rows.original_rows(), over_tuples.original_rows(), "{:?}", bags);
        }
    }
}

/// Strategy: a relation of 16 columns whose rows repeat 60–100 base tuples
/// (so rows repeat), with 12 columns drawn from ~1,000 values and every
/// fourth column from 3. The 12 wide columns alone put the cardinality
/// product of every column well past 2⁶⁴, so the widest groupings need a
/// second fold round.
fn wide_repeating_relation() -> impl Strategy<Value = Relation> {
    (60usize..=100, 1usize..=3, 1u64..10_000).prop_map(|(bases, repeat, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let base: Vec<Vec<u32>> = (0..bases)
            .map(|_| (0..16).map(|c| (next() % if c % 4 == 3 { 3 } else { 997 }) as u32).collect())
            .collect();
        let rows: Vec<usize> = (0..bases * repeat).map(|_| next() as usize % bases).collect();
        let columns = (0..16).map(|c| rows.iter().map(|&t| base[t][c]).collect()).collect();
        Relation::from_code_columns(Schema::with_arity(16).unwrap(), columns).unwrap()
    })
}

/// The reference grouping of `rel`'s rows on `attrs`: per row its group,
/// groups numbered by first row through a `HashMap` over `Relation::key`,
/// plus each group's size and first row.
fn first_occurrence_groups(rel: &Relation, attrs: AttrSet) -> (Vec<u32>, Vec<usize>, Vec<usize>) {
    let mut ids: std::collections::HashMap<Vec<u32>, u32> = std::collections::HashMap::new();
    let (mut labels, mut sizes, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rel.n_rows() {
        let next = ids.len() as u32;
        let id = *ids.entry(rel.key(r, attrs)).or_insert(next);
        if id == next {
            sizes.push(0);
            firsts.push(r);
        }
        sizes[id as usize] += 1;
        labels.push(id);
    }
    (labels, sizes, firsts)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn every_grouping_matches_a_first_occurrence_reference_past_a_u64_fold(
        rel in wide_repeating_relation(),
        picks in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let full = AttrSet::full(16);
        let bits: f64 = (0..16).map(|c| (rel.column_cardinality(c) as f64).log2()).sum();
        prop_assert!(bits > 64.0, "the full cardinality product must pass 2^64: {} bits", bits);
        let mut sets = vec![full, full.without(picks[0] as usize % 16)];
        sets.extend(picks.iter().map(|&p| AttrSet::from_bits(p & 0xffff)).filter(|s| s.len() >= 2));
        sets.push(AttrSet::singleton(3).with(7));

        let mut counter = JoinCounter::new(&rel);
        // One block over every column and no partition cache: each entropy
        // is the entropy of the oracle's own keyed grouping of the tuples.
        let regrouping =
            PliEntropyOracle::new(&rel, EntropyConfig { block_size: Some(16), max_cached_plis: 0 });
        for &attrs in &sets {
            let (labels, sizes, firsts) = first_occurrence_groups(&rel, attrs);
            let cols = attrs.to_vec();
            let mut keyer = Keyer::new(cols.iter().map(|&c| rel.column_cardinality(c)));
            let keyed: Vec<u32> =
                (0..rel.n_rows()).map(|r| keyer.insert(|p| rel.code(r, cols[p])).0).collect();
            prop_assert_eq!(&keyed, &labels, "keyer labels on {:?}", attrs);
            prop_assert_eq!(rel.group_labels(attrs).unwrap(), (labels.clone(), sizes.len()));
            prop_assert_eq!(rel.distinct_count(attrs).unwrap(), sizes.len());
            prop_assert_eq!(&rel.group_sizes(attrs).unwrap(), &sizes);
            prop_assert_eq!(counter.distinct_count(attrs).unwrap(), sizes.len());
            prop_assert_eq!(
                regrouping.entropy(attrs).to_bits(),
                entropy_from_group_sizes(&sizes, rel.n_rows()).to_bits(),
                "entropy of {:?}", attrs
            );
            if attrs == full {
                let distinct = rel.distinct();
                prop_assert_eq!(distinct.n_rows(), firsts.len());
                for (i, &r) in firsts.iter().enumerate() {
                    prop_assert_eq!(distinct.row(i), rel.row(r));
                }
            }
        }

        // The cached oracle's tuples are the first-occurrence distinct rows,
        // weighted by their repeats, and every partition it caches (each
        // prefix of its smallest-first assembly of all 16 columns, past
        // 2^64 at the end) groups them exactly.
        let (_, weights, firsts) = first_occurrence_groups(&rel, full);
        let oracle =
            PliEntropyOracle::new(&rel, EntropyConfig { block_size: None, max_cached_plis: 10_000 });
        let tuples = oracle.tuples();
        prop_assert_eq!(tuples.n_rows(), firsts.len());
        for (t, &r) in firsts.iter().enumerate() {
            prop_assert_eq!(tuples.row(t), rel.row(r));
        }
        oracle.entropy(full);
        let mut order: Vec<AttrSet> = (0..16).map(AttrSet::singleton).collect();
        order.sort_by_key(|&s| (oracle.cached_partition(s).unwrap().covered_rows(), s.bits()));
        let mut prefix = AttrSet::empty();
        for &single in &order[..15] {
            prefix = prefix.union(single);
            let pli = oracle.cached_partition(prefix).expect("every proper prefix is cached");
            let (labels, _, _) = first_occurrence_groups(tuples, prefix);
            let mut clusters: Vec<Vec<u32>> = Vec::new();
            for (t, &label) in labels.iter().enumerate() {
                if label as usize == clusters.len() {
                    clusters.push(Vec::new());
                }
                clusters[label as usize].push(t as u32);
            }
            let weight = |c: &[u32]| c.iter().map(|&t| weights[t as usize] as u32).sum::<u32>();
            clusters.retain(|c| weight(c) >= 2);
            let sizes: Vec<u32> = clusters.iter().map(|c| weight(c)).collect();
            prop_assert_eq!(pli.clusters().map(<[u32]>::to_vec).collect::<Vec<_>>(), clusters);
            prop_assert_eq!(pli.cluster_sizes(), &sizes[..]);
        }
    }
}
