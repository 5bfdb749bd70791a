//! Session sweep ↔ fresh session equivalence suite.
//!
//! A [`MaimonSession`] ε-sweep must be a pure *performance* change over a
//! fresh session's `quality(ε)` per threshold: for every threshold the mined `M_ε`,
//! the per-pair separator map, the deterministic mining counters, the ranked
//! schemas (including every quality metric) and the pareto front must be
//! **bit-identical** — while the PLI oracle is constructed exactly once per
//! sweep instead of once per threshold. Every quality metric must also equal
//! a fresh per-schema `evaluate_schema`, although the session measures a
//! whole pass through one shared label memo.
//!
//! Thread counts ride the `MAIMON_THREADS` CI matrix: the suite runs with
//! `threads: None` (resolved from the environment) like the rest of the
//! equivalence suites, plus a pinned sequential pass whose oracle counters
//! (including the interleaving-dependent `intersections`) are asserted
//! exactly.

use maimon::entropy::{EntropyOracle, PliEntropyOracle};
use maimon::relation::Relation;
use maimon::{
    evaluate_schema, mine_mvds, mine_schemas, MaimonConfig, MaimonResult, MaimonSession,
    MiningLimits,
};
use maimon_datasets::{metanome_catalog, running_example, running_example_with_red_tuple};
use std::sync::Arc;

/// Deterministic session configuration: count limits only, no wall-clock
/// budget. `threads: None` resolves from `MAIMON_THREADS` (the CI matrix
/// pins it to 1 on one leg and leaves it to available parallelism on the
/// other).
fn session_config(threads: Option<usize>) -> MaimonConfig {
    MaimonConfig::builder()
        .limits(MiningLimits::small())
        .max_schemas(Some(64))
        .threads(threads)
        .build()
        .unwrap()
}

/// Asserts one sweep point is bit-identical to a fresh session's run,
/// ignoring only the fields that cannot be compared across runs: wall-clock
/// `elapsed` and the *cumulative* session oracle counters inside
/// `stats.oracle`.
fn assert_point_matches_fresh(point: &MaimonResult, fresh: &MaimonResult, label: &str) {
    assert_eq!(point.mvds.mvds, fresh.mvds.mvds, "{label}: M_ε differs");
    assert_eq!(point.mvds.separators, fresh.mvds.separators, "{label}: separator map differs");
    assert_eq!(point.mvds.stats.pairs_processed, fresh.mvds.stats.pairs_processed, "{label}");
    assert_eq!(point.mvds.stats.separators_found, fresh.mvds.stats.separators_found, "{label}");
    assert_eq!(
        point.mvds.stats.transversals_tested, fresh.mvds.stats.transversals_tested,
        "{label}"
    );
    assert_eq!(
        point.mvds.stats.lattice_nodes_explored, fresh.mvds.stats.lattice_nodes_explored,
        "{label}"
    );
    assert_eq!(point.mvds.stats.truncated, fresh.mvds.stats.truncated, "{label}");
    assert_eq!(point.mvds.stats.threads, fresh.mvds.stats.threads, "{label}");
    // RankedSchema is PartialEq over the schema, its MVD support, its
    // J-measure and every quality metric — all must match to the bit.
    assert_eq!(point.schemas, fresh.schemas, "{label}: ranked schemas differ");
    assert_eq!(point.pareto, fresh.pareto, "{label}: pareto front differs");
    assert_eq!(point.truncated, fresh.truncated, "{label}");
}

/// Runs a session sweep and checks every point against a fresh session's
/// `quality(ε)`, then proves via `OracleStats` that the session built its
/// PLI oracle exactly once for the whole sweep.
fn assert_sweep_equivalent(
    rel: &Relation,
    thresholds: &[f64],
    threads: Option<usize>,
    require_untruncated: bool,
    label: &str,
) {
    let config = session_config(threads);
    let session = MaimonSession::new(rel, config).unwrap();

    // (a) Construction cost: the virgin session's counters equal those of
    // exactly one freshly built oracle — same block-precompute intersections,
    // zero entropy calls.
    let one_oracle = PliEntropyOracle::new(rel, config.entropy);
    assert_eq!(
        session.oracle_construction_stats(),
        one_oracle.stats(),
        "{label}: session construction must cost exactly one oracle build"
    );

    // (b) Bit-identical results per threshold. Count-limit truncation (the
    // only kind possible — the config has no wall-clock budget) is itself
    // deterministic, so truncated sweeps must still match bit-for-bit; the
    // small reference relations additionally assert no truncation at all.
    let sweep = session.epsilon_sweep(thresholds.iter().copied()).unwrap();
    if require_untruncated {
        assert!(
            sweep.iter().all(|p| !p.result.truncated),
            "{label}: equivalence baselines must be untruncated"
        );
    }
    for point in &sweep {
        let fresh_config = config.to_builder().epsilon(point.epsilon).build().unwrap();
        let fresh =
            MaimonSession::new(rel, fresh_config).unwrap().quality(fresh_config.epsilon).unwrap();
        assert_point_matches_fresh(
            &point.result,
            &fresh,
            &format!("{label} (ε = {})", point.epsilon),
        );
        // The pass measured every schema through one shared label memo; a
        // fresh per-schema evaluation must give the same bits.
        for ranked in &point.result.schemas {
            assert_eq!(
                ranked.quality,
                evaluate_schema(rel, &ranked.discovered.schema).unwrap(),
                "{label} (ε = {}): shared-counter quality of {:?}",
                point.epsilon,
                ranked.discovered.schema.bags()
            );
        }
    }

    // (c) Exactly-once oracle construction for the *whole* sweep: replay the
    // same per-ε workload against one manually shared oracle; the session's
    // final deterministic counters must match it exactly. Had the session
    // built a second oracle anywhere, its `calls`/`cache_hits` split would
    // deviate (rebuilt caches turn hits back into misses), and the
    // construction-time intersections would have been paid again.
    for &epsilon in thresholds {
        let cfg = config.to_builder().epsilon(epsilon).build().unwrap();
        let mined = mine_mvds(&one_oracle, &cfg);
        mine_schemas(&one_oracle, rel.schema().all_attrs(), &mined.mvds, &cfg);
    }
    let reference = one_oracle.stats();
    let stats = session.oracle_stats();
    assert_eq!(stats.calls, reference.calls, "{label}: oracle call count");
    assert_eq!(stats.cache_hits, reference.cache_hits, "{label}: oracle cache hits");
    assert_eq!(stats.full_scans, reference.full_scans, "{label}: oracle full scans");
    if config.effective_threads() == 1 {
        // Sequential runs pin even the interleaving-dependent counter.
        assert_eq!(stats.intersections, reference.intersections, "{label}: intersections");
    }
}

#[test]
fn running_example_sweep_is_bit_identical_and_builds_one_oracle() {
    let thresholds = [0.0, 0.1, 0.3];
    for (rel, label) in [
        (running_example(), "Fig. 1 (exact)"),
        (running_example_with_red_tuple(), "Fig. 1 (red tuple)"),
    ] {
        // Auto thread resolution (the MAIMON_THREADS CI matrix) …
        assert_sweep_equivalent(&rel, &thresholds, None, true, label);
        // … and the pinned sequential path with exact intersection counts.
        assert_sweep_equivalent(&rel, &thresholds, Some(1), true, label);
    }
}

#[test]
fn all_catalog_datasets_sweep_bit_identically() {
    let catalog = metanome_catalog();
    assert_eq!(catalog.len(), 20, "Table 2 lists 20 datasets");
    for spec in &catalog {
        // Same sizing as tests/parallel_equivalence.rs: ~200 rows, ≤ 7
        // columns keeps the 20-dataset × (session + fresh + reference)
        // matrix CI-sized while varying hub/block structure and noise.
        let scale = (200.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        assert_sweep_equivalent(&rel, &[0.0, 0.1], None, false, spec.name);
    }
}

#[test]
fn sweep_order_does_not_change_results() {
    // The shared entropy cache may *serve* later thresholds, but it must
    // never change an answer: sweeping [0.3, 0.0] and [0.0, 0.3] has to
    // produce bit-identical artifacts per ε.
    let rel = running_example_with_red_tuple();
    let config = session_config(None);
    let forward = MaimonSession::new(&rel, config).unwrap();
    let backward = MaimonSession::new(&rel, config).unwrap();
    let up = forward.epsilon_sweep([0.0, 0.15, 0.3]).unwrap();
    let down = backward.epsilon_sweep([0.3, 0.15, 0.0]).unwrap();
    for (a, b) in up.iter().zip(down.iter().rev()) {
        assert_eq!(a.epsilon, b.epsilon);
        assert_point_matches_fresh(&a.result, &b.result, "order independence");
    }
}

#[test]
fn staged_accessors_share_artifacts_with_the_sweep() {
    let rel = running_example_with_red_tuple();
    let session = MaimonSession::new(&rel, session_config(None)).unwrap();
    let sweep = session.epsilon_sweep([0.0, 0.2]).unwrap();
    // The staged accessors return the very same cached artifacts.
    for point in &sweep {
        let quality = session.quality(point.epsilon).unwrap();
        assert!(Arc::ptr_eq(&quality, &point.result));
        let mvds = session.mvds(point.epsilon).unwrap();
        // The quality artifact's copy of the stats carries the *composed*
        // stage breakdown (mining + enumeration + measurement), so compare
        // the mined model and the deterministic counters, not the timings.
        assert_eq!(mvds.mvds, point.result.mvds.mvds);
        assert_eq!(mvds.separators, point.result.mvds.separators);
        assert_eq!(mvds.stats.pairs_processed, point.result.mvds.stats.pairs_processed);
        let schemas = session.schemas(point.epsilon).unwrap();
        assert_eq!(
            schemas.schemas.len(),
            point.result.schemas.len(),
            "stage two backs stage three"
        );
    }
    assert_eq!(session.cached_epsilons(), vec![0.0, 0.2]);
}
