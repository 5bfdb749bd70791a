//! Criterion micro-benchmarks for the entropy engine (§6.3 ablation):
//! naive group-by entropy vs the PLI-cache oracle, with and without block
//! precomputation, plus raw partition intersection — including the CSR
//! engine's scratch-reuse and count-only paths and the cached-hit query
//! cost (`entropy_oracle/csr_*`), and a cold build-and-query pass over a
//! planted relation with far more rows than distinct tuples
//! (`entropy_planted200k/*`). Allocation counts have their own bench
//! target (`alloc.rs`) so its counting global allocator cannot skew these
//! wall-clock numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maimon::entropy::{
    EntropyConfig, EntropyOracle, IntersectScratch, NaiveEntropyOracle, Pli, PliEntropyOracle,
};
use maimon::relation::AttrSet;
use maimon_datasets::{dataset_by_name, planted_acyclic_relation, SyntheticSpec};
use std::hint::black_box;
use std::sync::Arc;

fn entropy_workload(c: &mut Criterion) {
    // A moderate synthetic dataset: Adult shape at 5 % scale (~1.6k rows, 15 cols).
    // Hoisted into an `Arc` so the timed loops hand the oracle a shared
    // handle: passing `&rel` would deep-clone the relation per iteration
    // and the construction benches would measure the copy, not the oracle.
    let rel = Arc::new(dataset_by_name("Adult").unwrap().generate(0.05));
    let subsets: Vec<AttrSet> =
        AttrSet::full(rel.arity()).subsets().filter(|s| s.len() >= 2 && s.len() <= 3).collect();

    let mut group = c.benchmark_group("entropy_oracle");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("naive_groupby", subsets.len()), |b| {
        b.iter(|| {
            let oracle = NaiveEntropyOracle::new(Arc::clone(&rel));
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    group.bench_function(BenchmarkId::new("pli_no_precompute", subsets.len()), |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::new(Arc::clone(&rel), EntropyConfig::no_precompute());
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    group.bench_function(BenchmarkId::new("pli_block_l5", subsets.len()), |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::new(
                Arc::clone(&rel),
                EntropyConfig { block_size: Some(5), max_cached_plis: 50_000 },
            );
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    group.bench_function(BenchmarkId::new("pli_block_l10", subsets.len()), |b| {
        // The pre-retune default; kept explicit since the default block size
        // is now 5 (same configuration as pli_block_l5).
        b.iter(|| {
            let oracle = PliEntropyOracle::new(
                Arc::clone(&rel),
                EntropyConfig { block_size: Some(10), max_cached_plis: 50_000 },
            );
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    // The CSR steady state the mining workload actually lives in: every
    // subset already memoized, so each query is a sharded-cache hit.
    group.bench_function(BenchmarkId::new("csr_cached_hits", subsets.len()), |b| {
        let oracle = PliEntropyOracle::with_defaults(Arc::clone(&rel));
        for &s in &subsets {
            oracle.entropy(s);
        }
        b.iter(|| {
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    group.finish();
}

fn partition_intersection(c: &mut Criterion) {
    let rel = dataset_by_name("Adult").unwrap().generate(0.1);
    let a = Pli::from_column(&rel, 0);
    let b = Pli::from_column(&rel, 3);
    let mut group = c.benchmark_group("pli_intersection");
    group.sample_size(20);
    group.bench_function("two_columns", |bencher| bencher.iter(|| black_box(a.intersect(&b))));
    // The oracle's hot path: the same intersection with a warm reusable
    // scratch (no probe-table allocation), materializing vs count-only.
    group.bench_function("csr_scratch_reuse", |bencher| {
        let mut scratch = IntersectScratch::new();
        black_box(a.intersect_with(&b, &mut scratch));
        bencher.iter(|| black_box(a.intersect_with(&b, &mut scratch)))
    });
    group.bench_function("csr_count_only", |bencher| {
        let mut scratch = IntersectScratch::new();
        black_box(a.intersect_counts(&b, &mut scratch).entropy());
        bencher.iter(|| black_box(a.intersect_counts(&b, &mut scratch).entropy()))
    });
    group.bench_function("from_attrs_direct", |bencher| {
        let attrs: AttrSet = [0usize, 3].into_iter().collect();
        bencher.iter(|| black_box(Pli::from_attrs(&rel, attrs)))
    });
    group.finish();
}

fn planted_cold_queries(c: &mut Criterion) {
    // The 1M-row benchmark's planted distribution at 200k rows: about 6.5k
    // distinct tuples, so the oracle's partitions group weighted tuples
    // rather than rows. One iteration builds the oracle and misses on every
    // attribute subset once.
    let spec = SyntheticSpec { rows: 200_000, ..SyntheticSpec::default() };
    let rel = Arc::new(planted_acyclic_relation(&spec).unwrap());
    let subsets: Vec<AttrSet> =
        AttrSet::full(rel.arity()).subsets().filter(|s| !s.is_empty()).collect();
    let mut group = c.benchmark_group("entropy_planted200k");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("build_and_query_all_cold", subsets.len()), |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::with_defaults(Arc::clone(&rel));
            let sum: f64 = subsets.iter().map(|&s| oracle.entropy(s)).sum();
            black_box(sum)
        })
    });
    group.finish();
}

criterion_group!(benches, entropy_workload, partition_intersection, planted_cold_queries);
criterion_main!(benches);
