//! Wire-format lock-down: `deserialize(serialize(x)) == x` for every public
//! result type, on real mined results, plus byte-exact goldens for fixed
//! values so the representation cannot drift silently.
//!
//! The CI `examples` job runs this suite explicitly: any change that breaks
//! the service-boundary JSON (field renames, number encodings, version
//! bumps) fails there even if no in-process test consumes the field.

use maimon::json::Json;
use maimon::relation::AttrSet;
use maimon::wire::{FromJson, ToJson, FORMAT_VERSION};
use maimon::{
    AcyclicSchema, FdMiningResult, MaimonConfig, MaimonResult, MaimonSession, MiningLimits, Mvd,
    RankedSchema, SchemaQuality,
};
use maimon_datasets::{dataset_by_name, metanome_catalog, running_example_with_red_tuple};

fn attrs(v: &[usize]) -> AttrSet {
    v.iter().copied().collect()
}

fn deterministic_config(epsilon: f64) -> MaimonConfig {
    MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small())
        .max_schemas(Some(32))
        .build()
        .unwrap()
}

#[test]
fn mined_results_round_trip_on_fig1_and_bridges() {
    let bridges = dataset_by_name("Bridges").unwrap().generate(0.25).column_prefix(7).unwrap();
    for (rel, eps) in [
        (running_example_with_red_tuple(), 0.0),
        (running_example_with_red_tuple(), 0.2),
        (bridges, 0.1),
    ] {
        let session = MaimonSession::new(&rel, deterministic_config(eps)).unwrap();
        let result = session.quality(eps).unwrap();
        let text = result.to_json_string();
        let back = MaimonResult::from_json_str(&text).unwrap();
        assert_eq!(back, *result, "MaimonResult round trip at ε = {eps}");
        // Sub-artifacts round-trip on their own too.
        let mvds_back =
            maimon::MvdMiningResult::from_json_str(&result.mvds.to_json_string()).unwrap();
        assert_eq!(mvds_back, result.mvds);
        for ranked in &result.schemas {
            let ranked_back = RankedSchema::from_json_str(&ranked.to_json_string()).unwrap();
            assert_eq!(&ranked_back, ranked);
        }
        let schemas = session.schemas(eps).unwrap();
        let schemas_back =
            maimon::SchemaMiningResult::from_json_str(&schemas.to_json_string()).unwrap();
        assert_eq!(schemas_back, *schemas);
    }
}

#[test]
fn catalog_sample_results_round_trip() {
    // A cross-section of the Table 2 catalog (every 4th dataset keeps the
    // suite fast; shapes still vary in arity, noise and hub structure).
    for spec in metanome_catalog().iter().step_by(4) {
        let scale = (120.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 6 { rel.column_prefix(6).unwrap() } else { rel };
        let session = MaimonSession::new(&rel, deterministic_config(0.1)).unwrap();
        let result = session.quality(0.1).unwrap();
        let back = MaimonResult::from_json_str(&result.to_json_string()).unwrap();
        assert_eq!(back, *result, "{}", spec.name);
    }
}

#[test]
fn fd_results_round_trip() {
    let rel = running_example_with_red_tuple();
    let session = MaimonSession::new(&rel, deterministic_config(0.05)).unwrap();
    let fds = session.mine_fds(2);
    assert!(!fds.fds.is_empty());
    let back = FdMiningResult::from_json_str(&fds.to_json_string()).unwrap();
    assert_eq!(back.fds, fds.fds);
    assert_eq!(back.candidates_tested, fds.candidates_tested);
}

#[test]
fn sweep_points_serialize_with_their_threshold() {
    let rel = running_example_with_red_tuple();
    let session = MaimonSession::new(&rel, deterministic_config(0.0)).unwrap();
    let sweep = session.epsilon_sweep([0.0, 0.2]).unwrap();
    for point in &sweep {
        let json = Json::parse(&point.to_json_string()).unwrap();
        assert_eq!(json.get("epsilon").unwrap().as_f64(), Some(point.epsilon));
        let embedded = MaimonResult::from_json(json.get("result").unwrap()).unwrap();
        assert_eq!(embedded, *point.result);
    }
}

#[test]
fn golden_serializations_are_byte_stable() {
    // These byte strings ARE the wire contract (format_version 1). If one of
    // these assertions fails, external consumers break: bump FORMAT_VERSION
    // and migrate, never silently reshape.
    assert_eq!(FORMAT_VERSION, 1);

    let mvd = Mvd::standard(attrs(&[0, 3]), attrs(&[2, 5]), attrs(&[1, 4])).unwrap();
    assert_eq!(mvd.to_json_string(), r#"{"key":[0,3],"dependents":[[1,4],[2,5]]}"#);

    let schema = AcyclicSchema::new(vec![attrs(&[0, 1, 3]), attrs(&[0, 5])]).unwrap();
    assert_eq!(schema.to_json_string(), r#"{"bags":[[0,1,3],[0,5]]}"#);

    let quality = SchemaQuality {
        n_relations: 4,
        width: 3,
        intersection_width: 2,
        storage_savings_pct: -54.2,
        spurious_tuples_pct: 20.0,
        original_cells: 30,
        decomposed_cells: 46,
        join_size: 6,
    };
    assert_eq!(
        quality.to_json_string(),
        r#"{"n_relations":4,"width":3,"intersection_width":2,"storage_savings_pct":-54.2,"spurious_tuples_pct":20.0,"original_cells":30,"decomposed_cells":46,"join_size":6}"#
    );
    assert_eq!(SchemaQuality::from_json_str(&quality.to_json_string()).unwrap(), quality);

    let stats = maimon::entropy::OracleStats {
        calls: 335_000,
        cache_hits: 334_000,
        intersections: 27,
        count_only_intersections: 9,
        full_scans: 0,
        delta_refreshes: 12,
    };
    assert_eq!(
        stats.to_json_string(),
        r#"{"calls":335000,"cache_hits":334000,"intersections":27,"count_only_intersections":9,"full_scans":0,"delta_refreshes":12}"#
    );
    // A document written while appends could still regroup a partition from
    // scratch carries a `full_rebuilds` count; it parses to the same stats.
    let retired = maimon::entropy::OracleStats::from_json_str(
        r#"{"calls":335000,"cache_hits":334000,"intersections":27,"count_only_intersections":9,"full_scans":0,"delta_refreshes":12,"full_rebuilds":2}"#,
    )
    .unwrap();
    assert_eq!(retired, stats);
    // The count-only and delta counters are *additive* v1 extensions:
    // documents written before they existed parse with the counters zeroed.
    let legacy = maimon::entropy::OracleStats::from_json_str(
        r#"{"calls":335000,"cache_hits":334000,"intersections":27,"full_scans":0}"#,
    )
    .unwrap();
    assert_eq!(
        legacy,
        maimon::entropy::OracleStats { count_only_intersections: 0, delta_refreshes: 0, ..stats }
    );

    // The per-stage breakdown (another additive v1 extension, carried on
    // `MiningStats.stages`) serializes each stage as a {secs,nanos} duration
    // in fixed pipeline order.
    let mut stages = maimon::StageBreakdown::default();
    stages.set(maimon::Stage::Transversal, std::time::Duration::new(1, 500_000_000));
    stages.set(maimon::Stage::Measure, std::time::Duration::from_nanos(42));
    assert_eq!(
        stages.to_json_string(),
        r#"{"mine_min_seps":{"secs":0,"nanos":0},"full_mvds":{"secs":0,"nanos":0},"transversal":{"secs":1,"nanos":500000000},"reduce":{"secs":0,"nanos":0},"measure":{"secs":0,"nanos":42},"decompose":{"secs":0,"nanos":0}}"#
    );
    assert_eq!(maimon::StageBreakdown::from_json_str(&stages.to_json_string()).unwrap(), stages);
    // Documents written before the field existed — or carrying only some
    // stages — parse with the missing stages zeroed.
    let partial = maimon::StageBreakdown::from_json_str(
        r#"{"transversal":{"secs":1,"nanos":500000000},"measure":{"secs":0,"nanos":42}}"#,
    )
    .unwrap();
    assert_eq!(partial, stages);
    assert_eq!(
        maimon::StageBreakdown::from_json_str("{}").unwrap(),
        maimon::StageBreakdown::default()
    );
}

#[test]
fn envelope_is_versioned_and_future_versions_are_rejected() {
    let rel = running_example_with_red_tuple();
    let session = MaimonSession::new(&rel, deterministic_config(0.0)).unwrap();
    let result = session.quality(0.0).unwrap();
    let json = Json::parse(&result.to_json_string()).unwrap();
    assert_eq!(json.get("format_version").unwrap().as_i128(), Some(FORMAT_VERSION as i128));
    // A consumer from the future must fail loudly, not misread.
    let mut pairs = json.as_object().unwrap().to_vec();
    for (key, value) in &mut pairs {
        if key == "format_version" {
            *value = Json::Int(FORMAT_VERSION as i128 + 1);
        }
    }
    let bumped = Json::Object(pairs).to_string();
    assert!(MaimonResult::from_json_str(&bumped).is_err());
}
