//! Property tests (proptest) for the decomposed store, locking the
//! ε-lossless contract end to end on randomly generated relations:
//!
//! * the reconstruction is always a **superset** of the original instance
//!   (decomposition may add spurious tuples, never drop one),
//! * **exact equality** holds whenever the mined schema's J-measure is 0
//!   (Lee's theorem: J(S) = 0 iff the acyclic join dependency holds),
//! * the store's count propagation agrees with `acyclic_join_size` and with
//!   actually enumerating the streaming reconstruction,
//! * the query executor agrees with a flat scan of the reconstruction for
//!   random selection/projection queries,
//! * a shared `JoinCounter` — under the real memo budget and under one that
//!   evicts before every schema — counts random acyclic joins exactly as
//!   materializing them and as the store's count propagation do.

use maimon::decompose::{flat_scan, DecomposedInstance, Query};
use maimon::relation::{
    acyclic_join_size, natural_join_all, AttrSet, JoinCounter, JoinTreeSpec, Relation, Schema,
};
use maimon::{MaimonConfig, MaimonSession, MiningLimits};
use proptest::prelude::*;

/// xorshift64 stream for the hand-rolled generators below.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random join tree over all attributes of an `arity`-column relation
/// whose bags satisfy the running intersection property: each new bag hangs
/// off a random earlier bag and holds a random subset of it (possibly empty,
/// i.e. an empty separator) plus attributes no earlier bag holds. Leftover
/// attributes join the last bag, so the tree covers the relation.
fn random_join_tree(arity: usize, n_bags: usize, seed: u64) -> JoinTreeSpec {
    let mut next = xorshift(seed);
    let mut unused: Vec<usize> = (0..arity).collect();
    let mut take_fresh = |next: &mut dyn FnMut() -> u64, at_least: usize| -> AttrSet {
        let k = (at_least + next() as usize % 3).min(unused.len());
        (0..k).map(|_| unused.remove(next() as usize % unused.len())).collect()
    };
    let mut bags = vec![take_fresh(&mut next, 1)];
    let mut edges = Vec::new();
    for i in 1..n_bags {
        let parent = next() as usize % i;
        let shared: AttrSet = bags[parent].iter().filter(|_| next().is_multiple_of(2)).collect();
        let mut bag = shared.union(take_fresh(&mut next, 0));
        if bag.is_empty() {
            bag = bags[parent];
        }
        bags.push(bag);
        edges.push((parent, i));
    }
    let last = bags.len() - 1;
    bags[last] = bags[last].union(take_fresh(&mut next, arity));
    JoinTreeSpec::new(bags, edges).unwrap()
}

/// The 12-column, cardinality-64 shape whose full-width fold overflows a
/// `u64` (64¹² = 2⁷²), plus a few random rows so joins are lossy.
fn wide_relation(seed: u64) -> Relation {
    let mut next = xorshift(seed);
    let extra: Vec<u32> = (0..16).map(|_| next() as u32 % 64).collect();
    let columns: Vec<Vec<u32>> = (0..12u32)
        .map(|c| {
            let planted = (0..128u32).map(|r| (r * 7 + c * 13) % 64);
            planted.chain(extra.iter().map(|&e| (e + c * (next() as u32 % 3)) % 64)).collect()
        })
        .collect();
    Relation::from_code_columns(Schema::with_arity(12).unwrap(), columns).unwrap()
}

/// Counts `specs` in order through one counter per budget — the real one and
/// one labelling's worth, which evicts before every schema — and checks each
/// count against the store's count propagation, against the materialized
/// join when that is small, and each bag's `distinct_count` against the
/// relation's.
fn check_counter(rel: &Relation, specs: &[JoinTreeSpec]) -> Result<(), TestCaseError> {
    let all = rel.schema().all_attrs();
    for mut counter in [JoinCounter::new(rel), JoinCounter::with_memo_budget(rel, 4 * rel.n_rows())]
    {
        prop_assert_eq!(counter.distinct_count(all).unwrap(), rel.distinct_count(all).unwrap());
        for spec in specs {
            let counted = counter.join_size(spec).unwrap();
            let store = DecomposedInstance::build(rel, spec).unwrap();
            prop_assert_eq!(counted, store.reconstruction_count(), "{:?}", spec.bags);
            if counted <= 20_000 {
                let projections: Vec<Relation> =
                    spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
                let joined = natural_join_all(&projections).unwrap();
                prop_assert_eq!(counted, joined.n_rows() as u128, "{:?}", spec.bags);
            }
            for &bag in &spec.bags {
                prop_assert_eq!(
                    counter.distinct_count(bag).unwrap(),
                    rel.distinct_count(bag).unwrap()
                );
            }
        }
    }
    Ok(())
}

/// Strategy: a random small relation (2–6 columns, 5–60 rows, tiny per-column
/// domains so duplicate groups and spurious join combinations are common).
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 5usize..=60, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        let mut next = xorshift(seed);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reconstruction_is_a_superset_and_exact_when_j_is_zero(
        rel in relation_strategy(),
        eps_millis in 0usize..=300,
    ) {
        let epsilon = eps_millis as f64 / 1000.0;
        let config = MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small())
        .max_schemas(Some(8))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let original = rel.distinct_count(rel.schema().all_attrs()).unwrap() as u128;
        for ranked in result.schemas.iter().take(4) {
            let schema = &ranked.discovered.schema;
            let store = schema.decompose(&rel).unwrap();
            let spec = schema.join_tree().unwrap().to_spec();

            // Counting consistency: store DP == relation DP == enumeration.
            let count = store.reconstruction_count();
            prop_assert_eq!(count, acyclic_join_size(&rel, &spec).unwrap());
            prop_assert_eq!(count, store.reconstruct().count() as u128);

            // Superset: |reconstruction| − |spurious| = |original|, i.e. the
            // reconstruction contains every original tuple.
            let spurious = store.spurious_rows(&rel).unwrap().count() as u128;
            prop_assert_eq!(
                count - spurious, original,
                "schema {:?} lost original tuples (ε = {})", schema.bags(), epsilon
            );

            // ε-lossless contract: J = 0 ⇒ the join dependency holds exactly.
            if let Some(j) = ranked.discovered.j {
                if j.abs() < 1e-9 {
                    prop_assert_eq!(
                        count, original,
                        "J = 0 but the reconstruction differs from the original"
                    );
                    prop_assert_eq!(spurious, 0u128);
                }
            }
        }
    }

    #[test]
    fn exact_mining_always_reconstructs_exactly(rel in relation_strategy()) {
        // At ε = 0 every discovered schema has J = 0, so every store must
        // reconstruct the original instance verbatim.
        let config = MaimonConfig::builder()
        .epsilon(0.0)
        .limits(MiningLimits::small())
        .max_schemas(Some(8))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let distinct = rel.distinct();
        for ranked in result.schemas.iter().take(4) {
            let store = ranked.discovered.schema.decompose(&rel).unwrap();
            prop_assert_eq!(store.reconstruction_count(), distinct.n_rows() as u128);
            let recon = store.reconstruct_relation().unwrap();
            prop_assert!(
                recon.equal_as_sets(&distinct),
                "ε = 0 store failed to reconstruct the instance for {:?}",
                ranked.discovered.schema.bags()
            );
        }
    }

    #[test]
    fn join_counter_matches_materialized_joins_and_the_store(
        rel in relation_strategy(),
        seed in 1u64..10_000,
    ) {
        // Several schemas through one counter, so later ones hit (or, under
        // the tiny budget, have evicted) the labels of earlier ones. One
        // bag is the single-bag schema; disjoint bags give empty separators.
        let specs: Vec<JoinTreeSpec> = (0..4)
            .map(|i| random_join_tree(rel.arity(), 1 + (seed as usize + i) % 4, seed * 31 + i as u64))
            .collect();
        check_counter(&rel, &specs)?;
    }

    #[test]
    fn join_counter_is_exact_past_a_u64_fold(seed in 1u64..10_000) {
        let rel = wide_relation(seed);
        let bits: f64 = (0..rel.arity()).map(|c| (rel.column_cardinality(c) as f64).log2()).sum();
        prop_assert!(bits > 64.0, "the full cardinality product must pass 2^64: {} bits", bits);
        let specs: Vec<JoinTreeSpec> =
            (0..3).map(|i| random_join_tree(12, 1 + i, seed * 7 + i as u64)).collect();
        check_counter(&rel, &specs)?;
    }

    #[test]
    fn query_executor_matches_flat_scan(
        rel in relation_strategy(),
        pick in (0usize..100, 0usize..100, 0usize..100),
    ) {
        let config = MaimonConfig::builder()
        .epsilon(0.1)
        .limits(MiningLimits::small())
        .max_schemas(Some(4))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let n = rel.arity();
        let (p0, p1, p2) = pick;
        for ranked in result.schemas.iter().take(2) {
            let store = ranked.discovered.schema.decompose(&rel).unwrap();
            let recon = store.reconstruct_relation().unwrap();
            // A random projection plus a selection on an actual value.
            let projection: AttrSet = [p0 % n, p1 % n].into_iter().collect();
            let sel_attr = p2 % n;
            let sel_row = (p0 + p1) % rel.n_rows();
            let query = Query::project(projection)
                .select_eq(sel_attr, rel.value(sel_row, sel_attr).to_string());
            let via_store = store.execute(&query).unwrap();
            let via_scan = flat_scan(&recon, &query).unwrap();
            prop_assert!(
                via_store.equal_as_sets(&via_scan),
                "query {:?} differs on {:?}", query, ranked.discovered.schema.bags()
            );
        }
    }
}
