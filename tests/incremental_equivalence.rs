//! Incremental ↔ from-scratch equivalence suite.
//!
//! Appending rows through [`MaimonSession::append_rows`] must be a pure
//! *performance* change over rebuilding everything on the concatenated
//! relation: after any sequence of append batches, the delta-maintained
//! partitions, entropies, mined `M_ε`, separator maps, deterministic mining
//! counters, ranked schemas and pareto fronts must be **bit-identical** to a
//! fresh session over the same rows — while the oracle refreshes its carried
//! caches through the delta path instead of rebuilding them.
//!
//! Coverage: the Fig. 1 running example (both thread modes, exact counter
//! checks) plus every dataset of the Table 2 catalog, each split into a base
//! prefix and `k` append batches. Thread counts ride the `MAIMON_THREADS` CI
//! matrix like the other equivalence suites.

use maimon::relation::{AttrSet, Relation, Schema};
use maimon::{MaimonConfig, MaimonResult, MaimonSession, MiningLimits};
use maimon_datasets::{metanome_catalog, running_example_with_red_tuple};

fn session_config(threads: Option<usize>) -> MaimonConfig {
    MaimonConfig::builder()
        .limits(MiningLimits::small())
        .max_schemas(Some(64))
        .threads(threads)
        .build()
        .unwrap()
}

/// Splits `rel` into a base prefix (~80% of the rows, at least 2) and
/// `n_batches` append batches covering the rest, as owned string rows.
fn split_rows(rel: &Relation, n_batches: usize) -> (Vec<Vec<String>>, Vec<Vec<Vec<String>>>) {
    let all: Vec<Vec<String>> =
        (0..rel.n_rows()).map(|r| rel.row(r).into_iter().map(str::to_string).collect()).collect();
    let base_len = (all.len() * 4 / 5).clamp(2, all.len() - 1);
    let (base, tail) = all.split_at(base_len);
    let per_batch = tail.len().div_ceil(n_batches).max(1);
    let batches: Vec<Vec<Vec<String>>> = tail.chunks(per_batch).map(<[_]>::to_vec).collect();
    (base.to_vec(), batches)
}

/// Ignores only what cannot match across sessions: wall-clock `elapsed` and
/// the cumulative oracle counters (the delta path answers from carried
/// caches, so its counters legitimately differ from a cold oracle's).
fn assert_result_matches(delta: &MaimonResult, fresh: &MaimonResult, label: &str) {
    assert_eq!(delta.mvds.mvds, fresh.mvds.mvds, "{label}: M_ε differs");
    assert_eq!(delta.mvds.separators, fresh.mvds.separators, "{label}: separator map differs");
    assert_eq!(delta.mvds.stats.pairs_processed, fresh.mvds.stats.pairs_processed, "{label}");
    assert_eq!(delta.mvds.stats.separators_found, fresh.mvds.stats.separators_found, "{label}");
    assert_eq!(
        delta.mvds.stats.transversals_tested, fresh.mvds.stats.transversals_tested,
        "{label}"
    );
    assert_eq!(
        delta.mvds.stats.lattice_nodes_explored, fresh.mvds.stats.lattice_nodes_explored,
        "{label}"
    );
    assert_eq!(delta.mvds.stats.truncated, fresh.mvds.stats.truncated, "{label}");
    assert_eq!(delta.schemas, fresh.schemas, "{label}: ranked schemas differ");
    assert_eq!(delta.pareto, fresh.pareto, "{label}: pareto front differs");
    assert_eq!(delta.truncated, fresh.truncated, "{label}");
}

/// The core check: base + append batches ≡ from-scratch on the concatenation,
/// for entropies (every attribute subset up to the full signature) and for
/// the whole mined pipeline at every threshold.
fn assert_incremental_equivalent(
    rel: &Relation,
    n_batches: usize,
    thresholds: &[f64],
    threads: Option<usize>,
    label: &str,
) {
    let config = session_config(threads);
    let (base, batches) = split_rows(rel, n_batches);
    let schema = rel.schema().clone();

    let session =
        MaimonSession::new(Relation::from_rows(schema.clone(), &base).unwrap(), config).unwrap();
    // Warm the session pre-append so the delta path has real caches to carry
    // (mining at every threshold populates PLIs, entropies and artifacts).
    session.epsilon_sweep(thresholds.iter().copied()).unwrap();

    let mut expected_rows = base.len();
    let versions: Vec<u64> = batches
        .iter()
        .map(|batch| {
            let summary = session.append_rows(batch).unwrap();
            expected_rows += batch.len();
            assert_eq!(summary.rows_appended, batch.len(), "{label}");
            summary.data_version
        })
        .collect();
    assert!(versions.windows(2).all(|w| w[0] < w[1]), "{label}: versions are monotone");
    assert_eq!(session.n_rows(), rel.n_rows(), "{label}");
    assert_eq!(expected_rows, rel.n_rows(), "{label}");

    // The reference session mines the concatenated rows from scratch.
    let all: Vec<Vec<String>> =
        (0..rel.n_rows()).map(|r| rel.row(r).into_iter().map(str::to_string).collect()).collect();
    let fresh = MaimonSession::new(Relation::from_rows(schema, &all).unwrap(), config).unwrap();

    // Delta-maintained entropies are bit-identical on every attribute subset.
    let arity = rel.arity();
    for bits in 1u64..(1 << arity) {
        let attrs: AttrSet = (0..arity).filter(|a| bits & (1 << a) != 0).collect();
        assert_eq!(
            session.entropy(attrs).to_bits(),
            fresh.entropy(attrs).to_bits(),
            "{label}: entropy differs on {attrs:?}"
        );
    }

    // And so is the whole mined pipeline, at every threshold.
    for &eps in thresholds {
        let delta = session.quality(eps).unwrap();
        let scratch = fresh.quality(eps).unwrap();
        assert_result_matches(&delta, &scratch, &format!("{label} ε={eps}"));
    }

    // The appends actually exercised the delta path.
    let stats = session.oracle_stats();
    assert!(
        stats.delta_refreshes > 0,
        "{label}: no partitions were delta-refreshed (refreshes={})",
        stats.delta_refreshes
    );

    // delta_sweep serves the same current-version artifacts and stamps them.
    let sweep = session.delta_sweep(thresholds.iter().copied()).unwrap();
    let current = session.data_version();
    for point in &sweep {
        assert_eq!(point.data_version, current, "{label}");
        // Complete artifacts are cached and shared; truncated partials stay
        // private per request, so only the former can be pointer-identical.
        if !point.result.truncated {
            assert!(
                std::sync::Arc::ptr_eq(&point.result, &session.quality(point.epsilon).unwrap()),
                "{label}: delta_sweep must serve the cached current-version artifact"
            );
        }
        if let Some(reval) = &point.revalidation {
            assert!(reval.still_holding <= reval.prior_mvds, "{label}");
            if point.survived == Some(true) {
                assert_eq!(reval.still_holding, reval.prior_mvds, "{label}");
            }
        }
    }
}

#[test]
fn fig1_appends_match_from_scratch_both_thread_modes() {
    let rel = running_example_with_red_tuple();
    for threads in [Some(1), None] {
        assert_incremental_equivalent(
            &rel,
            2,
            &[0.0, 0.1, 0.2],
            threads,
            &format!("fig1 threads={threads:?}"),
        );
    }
}

#[test]
fn fig1_single_row_batches_match_from_scratch() {
    // The k-batch split above appends multi-row batches; this drives the
    // other extreme — one row per append, one version bump each.
    let rel = running_example_with_red_tuple();
    assert_incremental_equivalent(&rel, 4, &[0.0, 0.2], Some(1), "fig1 row-at-a-time");
}

#[test]
fn catalog_appends_match_from_scratch() {
    // Every dataset of the Table 2 catalog, scaled the same way as the
    // serde/conformance suites so the suite stays fast, wide relations
    // prefixed to 6 attributes to bound the subset-entropy check.
    for spec in metanome_catalog() {
        let scale = (120.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 6 { rel.column_prefix(6).unwrap() } else { rel };
        assert_incremental_equivalent(&rel, 3, &[0.0, 0.1], None, spec.name);
    }
}

#[test]
fn appends_with_novel_values_grow_dictionaries_consistently() {
    // Batch rows that introduce brand-new domain values (beyond everything
    // the base interned) exercise the fold-cover re-derivation path: codes
    // appended to the dictionaries must leave old fold keys valid.
    let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
    let base: Vec<Vec<String>> = (0..40)
        .map(|i| {
            vec![
                format!("a{}", i % 4),
                format!("b{}", i % 5),
                format!("c{}", i % 2),
                format!("d{i}"),
            ]
        })
        .collect();
    let novel: Vec<Vec<String>> = (0..8)
        .map(|i| {
            vec![format!("a-new{i}"), format!("b{}", i % 5), format!("c-new"), format!("d-new{i}")]
        })
        .collect();
    let mut all = base.clone();
    all.extend(novel.iter().cloned());
    let full = Relation::from_rows(schema, &all).unwrap();
    assert_incremental_equivalent(&full, 2, &[0.0, 0.1], None, "novel-values");
}
