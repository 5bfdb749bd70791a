//! Sequential ↔ parallel equivalence suite for the mining engine.
//!
//! The parallel `mine_mvds` fan-out (worker pool over attribute pairs
//! sharing one `&self` entropy oracle) must be a pure performance change:
//! for every thread count the mined set `M_ε`, the per-pair minimal-separator
//! map, the mining statistics and the schemas synthesized from `M_ε` must be
//! *identical* to the single-threaded run. This suite locks that down for
//! threads ∈ {1, 2, 4, 8} on the Fig. 1 running example (both variants) and
//! on all 20 datasets of the Table 2 catalog.
//!
//! Determinism rests on two mechanisms under test here: the oracle's
//! compute-once sharded caches (each H(X) is materialized exactly once per
//! run, bit-identically) and the miner's pair-ordered merge of per-worker
//! outcomes. No deadline is used — wall-clock truncation is the one stop
//! that is inherently scheduling-dependent.

use maimon::entropy::PliEntropyOracle;
use maimon::relation::{AttrSet, Relation};
use maimon::{mine_mvds, mine_schemas, AcyclicSchema, MaimonConfig, MiningLimits, MvdMiningResult};
use maimon_datasets::{metanome_catalog, running_example, running_example_with_red_tuple};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic mining configuration: count limits only, no wall-clock
/// budget, explicit thread count.
fn config_with_threads(epsilon: f64, threads: usize) -> MaimonConfig {
    MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small())
        .max_schemas(Some(64))
        .threads(Some(threads))
        .build()
        .unwrap()
}

/// One full run at a given thread count: phase one over a fresh shared
/// oracle, then phase two (schema synthesis) from the mined MVDs.
fn run(rel: &Relation, epsilon: f64, threads: usize) -> (MvdMiningResult, Vec<AcyclicSchema>) {
    let config = config_with_threads(epsilon, threads);
    let oracle = PliEntropyOracle::new(rel, config.entropy);
    let mined = mine_mvds(&oracle, &config);
    let schemas = mine_schemas(&oracle, AttrSet::full(rel.arity()), &mined.mvds, &config);
    (mined, schemas.schemas.into_iter().map(|d| d.schema).collect())
}

/// Asserts that every thread count reproduces the single-threaded run
/// exactly: MVD set, separator map, mining counters, oracle counters
/// (everything but the interleaving-dependent `intersections`), and the
/// synthesized schemas.
fn assert_equivalent_across_thread_counts(rel: &Relation, epsilon: f64, label: &str) {
    let (baseline, baseline_schemas) = run(rel, epsilon, THREAD_COUNTS[0]);
    assert!(
        !baseline.stats.truncated,
        "{label}: equivalence baselines must be untruncated (raise the count limits)"
    );
    for &threads in &THREAD_COUNTS[1..] {
        let (parallel, parallel_schemas) = run(rel, epsilon, threads);
        assert_eq!(
            parallel.mvds, baseline.mvds,
            "{label}: M_ε differs at {threads} threads (ε = {epsilon})"
        );
        assert_eq!(
            parallel.separators, baseline.separators,
            "{label}: separator map differs at {threads} threads (ε = {epsilon})"
        );
        assert_eq!(parallel.stats.pairs_processed, baseline.stats.pairs_processed, "{label}");
        assert_eq!(parallel.stats.separators_found, baseline.stats.separators_found, "{label}");
        assert_eq!(
            parallel.stats.transversals_tested, baseline.stats.transversals_tested,
            "{label}"
        );
        assert_eq!(
            parallel.stats.lattice_nodes_explored, baseline.stats.lattice_nodes_explored,
            "{label}"
        );
        assert_eq!(parallel.stats.truncated, baseline.stats.truncated, "{label}");
        // Oracle counters: deterministic under compute-once caching.
        assert_eq!(parallel.stats.oracle.calls, baseline.stats.oracle.calls, "{label}");
        assert_eq!(parallel.stats.oracle.cache_hits, baseline.stats.oracle.cache_hits, "{label}");
        assert_eq!(parallel.stats.oracle.full_scans, baseline.stats.oracle.full_scans, "{label}");
        assert_eq!(
            parallel_schemas, baseline_schemas,
            "{label}: synthesized schemas differ at {threads} threads (ε = {epsilon})"
        );
    }
}

#[test]
fn running_example_is_thread_count_invariant() {
    let exact = running_example();
    for epsilon in [0.0, 0.1] {
        assert_equivalent_across_thread_counts(&exact, epsilon, "Fig. 1 (exact)");
    }
    let red = running_example_with_red_tuple();
    for epsilon in [0.0, 0.2] {
        assert_equivalent_across_thread_counts(&red, epsilon, "Fig. 1 (red tuple)");
    }
}

#[test]
fn all_catalog_datasets_are_thread_count_invariant() {
    let catalog = metanome_catalog();
    assert_eq!(catalog.len(), 20, "Table 2 lists 20 datasets");
    for spec in &catalog {
        // Scale every dataset to roughly 200 rows (`generate` floors at 16)
        // and cap the width at 7 columns so the 4-thread-count × 20-dataset
        // matrix stays CI-sized; the shapes still vary in hub/block structure
        // and noise across the catalog.
        let scale = (200.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        assert_equivalent_across_thread_counts(&rel, 0.1, spec.name);
    }
}

#[test]
fn auto_thread_count_matches_explicit_single_thread() {
    // The `threads: None` default (resolved from MAIMON_THREADS or available
    // parallelism — whatever this machine and CI leg provide) must agree with
    // the pinned sequential run too.
    let rel = running_example_with_red_tuple();
    let auto_config = MaimonConfig::builder()
        .epsilon(0.1)
        .limits(MiningLimits::small())
        .threads(None)
        .build()
        .unwrap();
    let oracle = PliEntropyOracle::new(&rel, auto_config.entropy);
    let auto = mine_mvds(&oracle, &auto_config);
    let (baseline, _) = run(&rel, 0.1, 1);
    assert_eq!(auto.mvds, baseline.mvds);
    assert_eq!(auto.separators, baseline.separators);
    assert!(auto.stats.threads >= 1);
}
