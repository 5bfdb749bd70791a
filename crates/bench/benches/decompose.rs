//! Criterion micro-benchmarks for the decomposed-store subsystem: store
//! construction, the Yannakakis full reducer, counting the reconstruction,
//! and answering selection/projection queries over the store versus a flat
//! scan of the materialized reconstruction (§8.1 workloads).

use criterion::{criterion_group, criterion_main, Criterion};
use maimon::decompose::{flat_scan, Query};
use maimon::relation::{AttrSet, Relation};
use maimon::{AcyclicSchema, MaimonConfig, MaimonSession, MiningLimits};
use maimon_datasets::nursery_with_rows;
use std::hint::black_box;

/// Mines Nursery and returns the discovered schema with the fewest spurious
/// tuples among those that actually save storage (falling back to the best
/// saver, then to the trivial schema, so the bench never panics).
fn mined_nursery_schema(rel: &Relation) -> AcyclicSchema {
    let config = MaimonConfig::builder()
        .epsilon(0.1)
        .limits(MiningLimits::small())
        .max_schemas(Some(200))
        .build()
        .unwrap();
    let result = MaimonSession::new(rel, config)
        .expect("nursery is valid")
        .quality(config.epsilon)
        .expect("run succeeds");
    let mut candidates: Vec<_> =
        result.schemas.iter().filter(|s| s.quality.storage_savings_pct > 0.0).collect();
    if candidates.is_empty() {
        // No schema saves storage: take the least-bad saver rather than
        // silently benchmarking a degenerate single-bag store.
        candidates = result.schemas.iter().collect();
    }
    candidates.sort_by(|a, b| {
        a.quality.spurious_tuples_pct.partial_cmp(&b.quality.spurious_tuples_pct).unwrap().then(
            b.quality.storage_savings_pct.partial_cmp(&a.quality.storage_savings_pct).unwrap(),
        )
    });
    candidates
        .first()
        .map(|s| s.discovered.schema.clone())
        .unwrap_or_else(|| AcyclicSchema::trivial(AttrSet::full(rel.arity())).unwrap())
}

fn store_benches(c: &mut Criterion) {
    let rel = nursery_with_rows(1500);
    let schema = mined_nursery_schema(&rel);
    let store = schema.decompose(&rel).expect("schema covers nursery");

    let mut group = c.benchmark_group("decomposed_store");
    group.sample_size(20);
    group.bench_function("build_nursery", |b| {
        b.iter(|| black_box(schema.decompose(&rel).unwrap().total_cells()))
    });
    group.bench_function("full_reduce_nursery", |b| {
        b.iter(|| black_box(store.full_reduce().1.removed()))
    });
    group.bench_function("reconstruction_count_nursery", |b| {
        b.iter(|| black_box(store.reconstruction_count()))
    });
    group.finish();
}

fn query_benches(c: &mut Criterion) {
    let rel = nursery_with_rows(1500);
    let schema = mined_nursery_schema(&rel);
    let store = schema.decompose(&rel).expect("schema covers nursery");
    // A representative point-ish query: select on two attribute values taken
    // from the first row, project three columns spanning several bags.
    let projection: AttrSet = [0usize, rel.arity() / 2, rel.arity() - 1].into_iter().collect();
    let query = Query::project(projection)
        .select_eq(1, rel.value(0, 1).to_string())
        .select_eq(2, rel.value(0, 2).to_string());
    let reconstruction = store.reconstruct_relation().expect("materializes");

    let mut group = c.benchmark_group("queries_over_store");
    group.sample_size(20);
    group.bench_function("nursery_select_project", |b| {
        b.iter(|| black_box(store.execute(&query).unwrap().n_rows()))
    });
    group.bench_function("nursery_flat_scan", |b| {
        b.iter(|| black_box(flat_scan(&reconstruction, &query).unwrap().n_rows()))
    });
    group.finish();

    // Keep the two evaluators honest inside the bench itself.
    let via_store = store.execute(&query).unwrap();
    let via_scan = flat_scan(&reconstruction, &query).unwrap();
    assert!(via_store.equal_as_sets(&via_scan), "store and flat scan disagree");
}

criterion_group!(benches, store_benches, query_benches);
criterion_main!(benches);
