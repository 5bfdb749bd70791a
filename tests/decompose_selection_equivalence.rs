//! `decompose_best` ↔ argmax over `quality` equivalence suite.
//!
//! `MaimonSession::decompose_best(ε)` picks its schema from the schema
//! enumeration by storage savings S alone and never runs the join counts
//! that spurious tuples E need. That must be a pure performance change over
//! taking the argmax of S over the full `quality(ε)` report: for every
//! relation and threshold of `tests/session_equivalence.rs`, plus one point
//! whose enumeration hits the default `max_schemas` cap (Bridges-10 at
//! ε = 0.1), one point where schemas save storage (Nursery at ε = 0.1) and
//! one where two schemas tie for the best savings, at threads 1 and 2,
//!
//! * the chosen schema and its materialized store equal those of the
//!   argmax, computed here over `quality(ε).schemas` with the selection rule
//!   `decompose_best` has always used (savings > 0, `max_by` with
//!   `partial_cmp`, so ties go to the last maximum, and the trivial schema
//!   when nothing saves);
//! * every S value of [`storage_savings`] equals `quality(ε)`'s
//!   `storage_savings_pct` bit for bit.

use maimon::relation::{AttrSet, Relation, Schema};
use maimon::{
    storage_savings, AcyclicSchema, DiscoveredSchema, MaimonConfig, MaimonResult, MaimonSession,
    MiningLimits,
};
use maimon_datasets::{
    dataset_by_name, metanome_catalog, running_example, running_example_with_red_tuple,
};

/// The schema `decompose_best` chose before it stopped reading `quality`.
fn argmax_over_quality(quality: &MaimonResult, universe: AttrSet) -> AcyclicSchema {
    quality
        .schemas
        .iter()
        .filter(|ranked| ranked.quality.storage_savings_pct > 0.0)
        .max_by(|a, b| {
            a.quality
                .storage_savings_pct
                .partial_cmp(&b.quality.storage_savings_pct)
                .expect("savings are finite")
        })
        .map(|ranked| ranked.discovered.schema.clone())
        .unwrap_or_else(|| AcyclicSchema::trivial(universe).unwrap())
}

/// What one checked point did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Point {
    /// No schema saved storage, and the trivial schema was chosen.
    fell_back: bool,
    /// The quality result was truncated (here: by `max_schemas`).
    truncated: bool,
}

/// Checks one (relation, ε) point at threads 1 and 2.
fn assert_selection_matches_quality(
    rel: &Relation,
    config: MaimonConfig,
    epsilon: f64,
    label: &str,
) -> Point {
    let universe = rel.schema().all_attrs();
    let mut first = None;
    for threads in [1, 2] {
        let label = format!("{label} (ε = {epsilon}, threads = {threads})");
        let config = config.to_builder().threads(Some(threads)).build().unwrap();
        let session = MaimonSession::new(rel, config).unwrap();
        // `decompose_best` first, so no quality result is cached for it.
        let (schema, store) = session.decompose_best(epsilon).unwrap();
        let quality = session.quality(epsilon).unwrap();
        let expected = argmax_over_quality(&quality, universe);
        assert_eq!(schema, expected, "{label}: chosen schema");
        let expected_store = session.decompose_schema(&expected).unwrap();
        assert_eq!(store.bags(), expected_store.bags(), "{label}: decomposed bags");
        assert_eq!(store.edges(), expected_store.edges(), "{label}: join tree");
        assert_eq!(store.original_rows(), expected_store.original_rows(), "{label}");

        let discovered: Vec<DiscoveredSchema> =
            quality.schemas.iter().map(|ranked| ranked.discovered.clone()).collect();
        let savings = storage_savings(&session.tuples(), &discovered).unwrap();
        assert_eq!(savings.len(), quality.schemas.len(), "{label}");
        for (s, ranked) in savings.iter().zip(&quality.schemas) {
            assert_eq!(
                s.to_bits(),
                ranked.quality.storage_savings_pct.to_bits(),
                "{label}: S of {:?}",
                ranked.discovered.schema.bags()
            );
        }
        let point =
            Point { fell_back: savings.iter().all(|&s| s <= 0.0), truncated: quality.truncated };
        if point.fell_back {
            assert_eq!(schema, AcyclicSchema::trivial(universe).unwrap(), "{label}: fallback");
        }
        assert_eq!(*first.get_or_insert(point), point, "{label}: thread counts disagree");
    }
    first.unwrap()
}

/// `tests/session_equivalence.rs`'s configuration, without its thread count.
fn session_config() -> MaimonConfig {
    MaimonConfig::builder().limits(MiningLimits::small()).max_schemas(Some(64)).build().unwrap()
}

#[test]
fn session_equivalence_points_choose_the_argmax_of_quality() {
    let mut points = Vec::new();
    for (rel, label) in [
        (running_example(), "Fig. 1 (exact)".to_string()),
        (running_example_with_red_tuple(), "Fig. 1 (red tuple)".to_string()),
    ] {
        for epsilon in [0.0, 0.1, 0.3] {
            points.push(assert_selection_matches_quality(&rel, session_config(), epsilon, &label));
        }
    }
    for spec in &metanome_catalog() {
        let scale = (200.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        for epsilon in [0.0, 0.1] {
            points.push(assert_selection_matches_quality(
                &rel,
                session_config(),
                epsilon,
                spec.name,
            ));
        }
    }
    // The fallback branch is exercised here; the Nursery point below
    // exercises the argmax.
    assert!(points.iter().any(|point| point.fell_back), "no point fell back");
}

#[test]
fn capped_enumeration_chooses_the_argmax_of_quality() {
    let bridges10 = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(10).unwrap();
    let point =
        assert_selection_matches_quality(&bridges10, MaimonConfig::default(), 0.1, "Bridges-10");
    assert!(point.truncated, "the point must hit max_schemas");
}

#[test]
fn decomposing_point_chooses_the_argmax_of_quality() {
    // Every point above falls back to the trivial schema; Nursery at 0.1
    // has schemas that save storage, so the argmax itself is compared.
    let point = assert_selection_matches_quality(
        &maimon_datasets::nursery(),
        MaimonConfig::default(),
        0.1,
        "Nursery",
    );
    assert!(!point.fell_back, "the point must decompose");
}

#[test]
fn tied_savings_go_to_the_last_maximum() {
    // Symmetric under swapping (A, B) with (C, D): at ε = 0.3 two mirrored
    // schemas tie for the best savings.
    let rows = [
        ["v1", "v0", "v0", "v1"],
        ["v0", "v1", "v1", "v0"],
        ["v0", "v1", "v1", "v0"],
        ["v1", "v0", "v0", "v1"],
        ["v1", "v0", "v0", "v1"],
        ["v0", "v1", "v1", "v0"],
        ["v1", "v1", "v1", "v0"],
        ["v1", "v0", "v1", "v1"],
        ["v1", "v0", "v1", "v1"],
        ["v1", "v1", "v1", "v0"],
    ];
    let rows: Vec<Vec<&str>> = rows.iter().map(|row| row.to_vec()).collect();
    let rel = Relation::from_rows(Schema::new(["A", "B", "C", "D"]).unwrap(), &rows).unwrap();
    let point = assert_selection_matches_quality(&rel, MaimonConfig::default(), 0.3, "mirrored");
    assert!(!point.fell_back, "the point must decompose");
    let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
    let quality = session.quality(0.3).unwrap();
    let best = quality.schemas.iter().map(|r| r.quality.storage_savings_pct).fold(0.0, f64::max);
    let tied: Vec<_> =
        quality.schemas.iter().filter(|r| r.quality.storage_savings_pct == best).collect();
    assert!(tied.len() > 1, "the point must have a tie");
    let (schema, _) = session.decompose_best(0.3).unwrap();
    assert_eq!(&schema, &tied.last().unwrap().discovered.schema, "ties go to the last maximum");
}
