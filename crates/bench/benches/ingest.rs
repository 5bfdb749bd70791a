//! Ingest throughput: the streaming paged CSV ingester vs the in-memory
//! loader, over the same planted synthetic CSV bytes. Both legs run the one
//! CSV reader (`relation::CsvReader`) and intern through the same
//! dictionaries; they differ only in the sink. The streaming leg writes
//! codes into fixed-size pages (spilled behind an LRU cache) and never
//! holds the whole file; the in-memory leg appends them to a fully
//! resident `Relation`. So the delta is the storage backend's cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maimon::relation::{relation_from_csv, CsvOptions};
use maimon::storage::{ingest_csv, IngestOptions, PagedOptions, RelationBackend};
use maimon_datasets::{write_planted_csv, SyntheticSpec};
use std::hint::black_box;

fn ingest_workload(c: &mut Criterion) {
    // ~20k rows x 10 cols of decimal codes: big enough that per-byte parsing
    // dominates, small enough for a quick baseline run.
    let spec = SyntheticSpec { rows: 20_000, ..SyntheticSpec::default() };
    let mut bytes = Vec::new();
    write_planted_csv(&spec, &mut bytes).expect("stream synthetic CSV");
    let text = String::from_utf8(bytes).expect("CSV is UTF-8");

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("streaming", spec.rows), |b| {
        let options = IngestOptions {
            paged: PagedOptions {
                page_rows: 4_096,
                cache_pages: 4,
                dataset: "bench-ingest".to_string(),
            },
            ..IngestOptions::default()
        };
        b.iter(|| {
            let store = ingest_csv(text.as_bytes(), &options).expect("paged ingest");
            black_box(store.n_rows())
        })
    });
    group.bench_function(BenchmarkId::new("in_memory", spec.rows), |b| {
        b.iter(|| {
            let rel =
                relation_from_csv(&text, CsvOptions { dedup: false, ..CsvOptions::default() })
                    .expect("batch parse");
            black_box(rel.n_rows())
        })
    });
    group.finish();
}

criterion_group!(benches, ingest_workload);
criterion_main!(benches);
