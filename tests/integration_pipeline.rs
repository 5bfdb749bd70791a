//! End-to-end integration tests of the full Maimon pipeline, spanning the
//! relation, entropy, hypergraph, core and datasets crates.

use maimon::entropy::{EntropyOracle, NaiveEntropyOracle, PliEntropyOracle};
use maimon::relation::AttrSet;
use maimon::{
    j_schema, mvd_holds, schema_holds, within_epsilon, MaimonConfig, MaimonSession, MiningLimits,
};
use maimon_datasets::{
    dataset_by_name, nursery_with_rows, running_example, running_example_with_red_tuple,
    SyntheticSpec,
};

#[test]
fn exact_pipeline_recovers_the_figure_1_decomposition() {
    let rel = running_example();
    let result =
        MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.0)).unwrap().quality(0.0).unwrap();

    // Phase 1: the support MVDs of the paper's join tree are all discovered.
    let schema = rel.schema();
    let expected_keys = [
        schema.attrs(["A"]).unwrap(),
        schema.attrs(["A", "D"]).unwrap(),
        schema.attrs(["B", "D"]).unwrap(),
    ];
    for key in expected_keys {
        assert!(
            result.mvds.mvds.iter().any(|m| m.key() == key),
            "no discovered MVD with key {}",
            schema.label(key)
        );
    }

    // Phase 2: the 4-relation schema {ABD, ACD, BDE, AF} (or a refinement) is
    // reported with zero spurious tuples.
    let exact = result
        .schemas
        .iter()
        .filter(|s| s.quality.spurious_tuples_pct == 0.0)
        .max_by_key(|s| s.discovered.schema.n_relations())
        .expect("an exact schema must be found");
    assert!(exact.discovered.schema.n_relations() >= 4);
    assert!(within_epsilon(exact.discovered.j.unwrap(), 0.0));
    let displayed = exact.discovered.schema.display(schema);
    assert!(displayed.contains("AF"), "AF must be its own relation: {}", displayed);
}

#[test]
fn approximate_pipeline_tolerates_the_red_tuple() {
    let rel = running_example_with_red_tuple();
    let strict =
        MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.0)).unwrap().quality(0.0).unwrap();
    let relaxed =
        MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.2)).unwrap().quality(0.2).unwrap();

    let best = |result: &maimon::MaimonResult| {
        result.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1)
    };
    assert!(best(&relaxed) >= best(&strict));
    assert!(best(&relaxed) >= 4, "ε = 0.2 should recover the 4-relation schema");

    // Every schema reported at ε has J within (m−1)·ε as per Corollary 5.2.
    let oracle = NaiveEntropyOracle::new(&rel);
    for ranked in &relaxed.schemas {
        let m = ranked.discovered.schema.n_relations() as f64;
        let j = j_schema(&oracle, &ranked.discovered.schema).unwrap();
        assert!(
            within_epsilon(j, 0.2 * (m - 1.0).max(1.0)),
            "schema {} has J = {} above (m-1)ε",
            ranked.discovered.schema.display(rel.schema()),
            j
        );
    }
}

#[test]
fn discovered_mvds_hold_under_both_oracles() {
    let rel = running_example_with_red_tuple();
    let config = MaimonConfig::with_epsilon(0.15);
    let result = MaimonSession::new(&rel, config).unwrap().mvds(config.epsilon).unwrap();
    assert!(!result.mvds.is_empty());
    let naive = NaiveEntropyOracle::new(&rel);
    let pli = PliEntropyOracle::with_defaults(&rel);
    for mvd in &result.mvds {
        assert!(mvd_holds(&naive, mvd, 0.15));
        assert!(mvd_holds(&pli, mvd, 0.15));
    }
}

#[test]
fn nursery_exact_run_finds_no_nontrivial_decomposition() {
    // Fig. 10(a): at J = 0 the Nursery data admits no exact decomposition.
    // A 2000-row prefix keeps the test fast while preserving the property
    // that the class attribute is determined by (and only by) all inputs.
    let rel = nursery_with_rows(2000);
    let mut config = MaimonConfig::with_epsilon(0.0);
    config.limits = MiningLimits::small();
    let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
    for ranked in &result.schemas {
        assert_eq!(
            ranked.quality.spurious_tuples_pct, 0.0,
            "exact schemas must not create spurious tuples"
        );
    }
}

#[test]
fn nursery_approximate_run_decomposes_and_saves_storage() {
    let rel = nursery_with_rows(2000);
    let mut config = MaimonConfig::with_epsilon(0.3);
    config.limits = MiningLimits::small();
    config.max_schemas = Some(50);
    let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
    let best = result
        .schemas
        .iter()
        .max_by(|a, b| {
            a.quality.storage_savings_pct.partial_cmp(&b.quality.storage_savings_pct).unwrap()
        })
        .expect("some schema is always discovered");
    assert!(
        best.discovered.schema.n_relations() >= 2,
        "ε = 0.3 should allow at least one decomposition step on dense data"
    );
    assert!(best.quality.storage_savings_pct > 0.0);
}

#[test]
fn planted_schema_is_recovered_from_synthetic_data() {
    // Generate a noise-free synthetic relation with a planted star schema and
    // check that mining at a small ε finds a schema at least as decomposed as
    // the planted one, and that the planted schema itself ε-holds.
    let spec = SyntheticSpec {
        rows: 1_500,
        columns: 7,
        hub_attrs: 1,
        blocks: 3,
        hub_domain: 6,
        variants_per_hub: 2,
        group_domain: 5,
        noise: 0.0,
        seed: 21,
    };
    let rel = maimon_datasets::planted_acyclic_relation(&spec).unwrap();
    let planted = maimon::AcyclicSchema::new(spec.planted_bags()).unwrap();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let planted_j = j_schema(&oracle, &planted).unwrap();
    // The planted schema holds approximately by construction.
    assert!(planted_j < 0.6, "planted schema J = {}", planted_j);

    let mut config = MaimonConfig::with_epsilon(planted_j.max(0.05));
    config.limits = MiningLimits::small();
    let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
    let best_relations =
        result.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1);
    assert!(best_relations >= 2, "mining at ε ≥ J(planted) must decompose the relation");
    assert!(schema_holds(&oracle, &planted, planted_j + 1e-6));
}

#[test]
fn catalog_dataset_end_to_end_smoke() {
    // A tiny-scale Bridges-shaped dataset runs the full pipeline without
    // truncation and produces consistent metrics.
    let dataset = dataset_by_name("Bridges").unwrap();
    let rel = dataset.generate(1.0).column_prefix(9).unwrap();
    assert_eq!(rel.n_rows(), 108);
    let mut config = MaimonConfig::with_epsilon(0.1);
    config.limits = MiningLimits::small();
    config.max_schemas = Some(25);
    let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
    for ranked in &result.schemas {
        let q = &ranked.quality;
        assert!(q.spurious_tuples_pct >= 0.0);
        assert!(q.width <= rel.arity());
        assert!(q.n_relations >= 1);
        assert!(q.join_size >= rel.distinct_count(AttrSet::full(rel.arity())).unwrap() as u128);
    }
    assert!(!result.pareto.is_empty());
}

#[test]
fn oracle_choice_does_not_change_mining_output() {
    // The two runs must be deterministic and identical, so only count limits
    // are used and the dataset is kept small (first 8
    // columns of the Echocardiogram-shaped relation).
    let dataset = dataset_by_name("Echocardiogram").unwrap();
    let rel = dataset.generate(1.0).column_prefix(8).unwrap();
    let config =
        MaimonConfig::builder().epsilon(0.05).limits(MiningLimits::small()).build().unwrap();
    let naive = NaiveEntropyOracle::new(&rel);
    let from_naive = maimon::mine_mvds(&naive, &config);
    let pli = PliEntropyOracle::with_defaults(&rel);
    let from_pli = maimon::mine_mvds(&pli, &config);
    assert_eq!(from_naive.mvds, from_pli.mvds);
    assert_eq!(from_naive.separators, from_pli.separators);
    // The PLI oracle should do far fewer full scans.
    assert!(pli.stats().full_scans <= naive.stats().full_scans);
}
