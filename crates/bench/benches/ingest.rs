//! Mount throughput: a CSV streamed straight into its distinct tuples vs
//! the in-memory loader followed by the in-memory count, over the same
//! planted synthetic CSV bytes. Both legs run the one CSV reader
//! (`relation::CsvReader`), intern through the same dictionaries and end
//! with the same `TupleBag`. The streamed leg counts each run of records as
//! it arrives and never holds the rows; the in-memory leg first builds the
//! fully resident `Relation`. So the delta is the cost of holding the rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maimon::relation::{relation_from_csv, CsvOptions, TupleBag};
use maimon::storage::stream_csv;
use maimon_datasets::{write_planted_csv, SyntheticSpec};
use std::hint::black_box;
use std::sync::Arc;

fn ingest_workload(c: &mut Criterion) {
    // ~20k rows x 10 cols of decimal codes: big enough that per-byte parsing
    // dominates, small enough for a quick baseline run.
    let spec = SyntheticSpec { rows: 20_000, ..SyntheticSpec::default() };
    let mut bytes = Vec::new();
    write_planted_csv(&spec, &mut bytes).expect("stream synthetic CSV");
    let text = String::from_utf8(bytes).expect("CSV is UTF-8");
    let options = CsvOptions { dedup: false, ..CsvOptions::default() };

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("streamed_mount", spec.rows), |b| {
        b.iter(|| {
            let bag = stream_csv(text.as_bytes(), options, "bench-ingest").expect("stream");
            black_box(bag.len())
        })
    });
    group.bench_function(BenchmarkId::new("in_memory_mount", spec.rows), |b| {
        b.iter(|| {
            let rel = relation_from_csv(&text, options).expect("batch parse");
            black_box(TupleBag::of(&Arc::new(rel)).len())
        })
    });
    group.finish();
}

criterion_group!(benches, ingest_workload);
criterion_main!(benches);
