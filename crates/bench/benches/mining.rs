//! Criterion micro-benchmarks for the mining algorithms: the
//! getFullMVDs / getFullMVDsOpt ablation (§6.2.1 / appendix §12.3), minimal
//! separator mining, and the end-to-end pipeline on the running example and a
//! small catalog dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use maimon::entropy::PliEntropyOracle;
use maimon::{
    get_full_mvds, mine_min_seps, mine_mvds, MaimonConfig, MaimonSession, MiningLimits, RunControl,
};
use maimon_datasets::{dataset_by_name, running_example_with_red_tuple};
use std::hint::black_box;
use std::sync::Arc;

fn full_mvd_ablation(c: &mut Criterion) {
    // `Arc`-hoisted: the timed loops rebuild the oracle per iteration, and a
    // `&rel` would deep-clone the relation inside the measurement.
    let rel = dataset_by_name("Echocardiogram").unwrap().generate(1.0);
    let rel = Arc::new(rel.column_prefix(10).unwrap());
    let key = maimon::relation::AttrSet::singleton(0);
    let pair = (1usize, 2usize);
    let epsilon = 0.2;

    let mut group = c.benchmark_group("get_full_mvds");
    group.sample_size(10);
    group.bench_function("plain_fig6", |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::with_defaults(Arc::clone(&rel));
            black_box(get_full_mvds(
                &oracle,
                key,
                epsilon,
                pair,
                None,
                Some(50_000),
                false,
                &RunControl::NONE,
            ))
        })
    });
    group.bench_function("optimized_fig17", |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::with_defaults(Arc::clone(&rel));
            black_box(get_full_mvds(
                &oracle,
                key,
                epsilon,
                pair,
                None,
                Some(50_000),
                true,
                &RunControl::NONE,
            ))
        })
    });

    // Every search `session.mvds(0.1)` issues on Bridges-10 — separator
    // probes, reductions and the full searches of each separator, pair by
    // pair — replayed at threads=1 over a warm oracle, so the full-MVD
    // kernel is timed without fan-out noise or entropy misses.
    let bridges10 = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(10).unwrap();
    let config = MaimonConfig::builder().epsilon(0.1).threads(Some(1)).build().unwrap();
    let warm = PliEntropyOracle::new(Arc::new(bridges10), config.entropy);
    mine_mvds(&warm, &config);
    group.bench_function("bridges10_eps_0.1_all_searches", |b| {
        b.iter(|| black_box(mine_mvds(&warm, &config).mvds.len()))
    });
    group.finish();
}

fn minimal_separators(c: &mut Criterion) {
    let rel = Arc::new(dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(9).unwrap());
    let limits = MiningLimits::default();
    let mut group = c.benchmark_group("mine_min_seps");
    group.sample_size(10);
    for epsilon in [0.0, 0.1] {
        group.bench_function(format!("bridges_eps_{epsilon}"), |b| {
            b.iter(|| {
                let oracle = PliEntropyOracle::with_defaults(Arc::clone(&rel));
                let mut total = 0usize;
                for a in 0..rel.arity() {
                    for bb in a + 1..rel.arity() {
                        total += mine_min_seps(
                            &oracle,
                            epsilon,
                            (a, bb),
                            &limits,
                            true,
                            &RunControl::NONE,
                        )
                        .separators
                        .len();
                    }
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let running = running_example_with_red_tuple();
    let bridges = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8).unwrap();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("running_example_eps_0.2", |b| {
        b.iter(|| {
            let result =
                MaimonSession::new(&running, MaimonConfig::with_epsilon_and_threads(0.2, 1))
                    .unwrap()
                    .quality(0.2)
                    .unwrap();
            black_box(result.schemas.len())
        })
    });
    // The pair fan-out ablation: the same pipeline pinned to 1, 2 and 4
    // workers. The equivalence suite proves all three produce the same
    // schemas, so any delta here is pure wall-clock.
    for threads in [1usize, 2, 4] {
        let id = if threads == 1 {
            "bridges8_eps_0.1".to_string()
        } else {
            format!("bridges8_eps_0.1_par{threads}")
        };
        group.bench_function(id, |b| {
            let config = MaimonConfig::builder()
                .epsilon(0.1)
                .limits(MiningLimits::small())
                .max_schemas(Some(100))
                .threads(Some(threads))
                .build()
                .unwrap();
            b.iter(|| {
                let result =
                    MaimonSession::new(&bridges, config).unwrap().quality(config.epsilon).unwrap();
                black_box(result.schemas.len())
            })
        });
    }
    group.finish();
}

/// The ε-sweep ablation the session API exists for: mining four thresholds
/// on bridges8 with a fresh `Maimon` (and thus a fresh PLI oracle) per ε,
/// versus one `MaimonSession` sharing a single oracle across the sweep. The
/// session is constructed inside the timed closure, so the leg measures one
/// oracle build + four minings against four builds + four minings;
/// `tests/session_equivalence.rs` proves the outputs are bit-identical.
fn session_sweep(c: &mut Criterion) {
    let bridges = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8).unwrap();
    let thresholds = [0.0f64, 0.05, 0.1, 0.2];
    let config = MaimonConfig::builder()
        .limits(MiningLimits::small())
        .max_schemas(Some(100))
        .threads(Some(1))
        .build()
        .unwrap();

    let mut group = c.benchmark_group("session_sweep");
    group.sample_size(10);
    group.bench_function("bridges8_fresh_per_eps", |b| {
        b.iter(|| {
            let mut schemas = 0usize;
            for &epsilon in &thresholds {
                let cfg = config.to_builder().epsilon(epsilon).build().unwrap();
                let result =
                    MaimonSession::new(&bridges, cfg).unwrap().quality(cfg.epsilon).unwrap();
                schemas += result.schemas.len();
            }
            black_box(schemas)
        })
    });
    group.bench_function("bridges8_shared_session", |b| {
        b.iter(|| {
            let session = MaimonSession::new(&bridges, config).unwrap();
            let sweep = session.epsilon_sweep(thresholds.iter().copied()).unwrap();
            black_box(sweep.iter().map(|p| p.result.schemas.len()).sum::<usize>())
        })
    });

    // The same ablation on Nursery at 1500 rows × 9 columns — more rows make
    // every recomputed entropy (what the fresh path pays per ε) costlier, so
    // the sweep advantage grows with data size.
    let nursery = maimon_datasets::nursery_with_rows(1500);
    let nursery_thresholds = [0.0f64, 0.05, 0.1, 0.2, 0.3, 0.5];
    group.bench_function("nursery1500_fresh_per_eps", |b| {
        b.iter(|| {
            let mut schemas = 0usize;
            for &epsilon in &nursery_thresholds {
                let cfg = config.to_builder().epsilon(epsilon).build().unwrap();
                let result =
                    MaimonSession::new(&nursery, cfg).unwrap().quality(cfg.epsilon).unwrap();
                schemas += result.schemas.len();
            }
            black_box(schemas)
        })
    });
    group.bench_function("nursery1500_shared_session", |b| {
        b.iter(|| {
            let session = MaimonSession::new(&nursery, config).unwrap();
            let sweep = session.epsilon_sweep(nursery_thresholds.iter().copied()).unwrap();
            black_box(sweep.iter().map(|p| p.result.schemas.len()).sum::<usize>())
        })
    });
    group.finish();
}

/// Delta-maintained append vs full rebuild: the maintenance cost of getting
/// a *warm* oracle at the new data version after a 1% append batch. The warm
/// pre-append state (partition cache + entropies, produced by mining ε=0.1)
/// is fixed setup; the delta leg then interns the batch into the tuples and
/// carries the caches across through `PliEntropyOracle::extend_to`
/// (per-partition CSR merges), while
/// the full leg reproduces the same warm state the only way a non-
/// incremental engine can — constructing a fresh oracle over the
/// concatenated relation and re-running the mining workload that warmed the
/// caches. Serving a *new* threshold after the append re-mines either way
/// (exactness demands it) at identical, version-agnostic cost, so that work
/// is not part of the comparison.
fn incremental_append(c: &mut Criterion) {
    let config = MaimonConfig::builder()
        .epsilon(0.1)
        .limits(MiningLimits::small())
        .threads(Some(1))
        .build()
        .unwrap();

    // Nursery at 1515 rows: 1500 base + a 15-row (1%) append batch.
    let full = maimon_datasets::nursery_with_rows(1515);
    let rows: Vec<Vec<String>> =
        (0..full.n_rows()).map(|r| full.row(r).into_iter().map(str::to_string).collect()).collect();
    let (base_rows, batch) = rows.split_at(1500);
    let base = maimon::relation::Relation::from_rows(full.schema().clone(), base_rows).unwrap();
    let mut appended = base.clone();
    appended.append_rows(batch).unwrap();
    let appended = Arc::new(appended);

    // The warm pre-append state both legs start from: a base oracle that has
    // already mined ε = 0.1 (carrying the partitions and entropies the
    // serving path would hold).
    let warm = PliEntropyOracle::new(Arc::new(base), config.entropy);
    maimon::mine_mvds(&warm, &config);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("append_batch_nursery_delta", |b| {
        b.iter(|| {
            let oracle = warm.extend_to(batch).unwrap();
            black_box(oracle.cached_pli_count())
        })
    });
    group.bench_function("append_batch_nursery_full", |b| {
        b.iter(|| {
            let oracle = PliEntropyOracle::new(Arc::clone(&appended), config.entropy);
            maimon::mine_mvds(&oracle, &config);
            black_box(oracle.cached_pli_count())
        })
    });
    group.finish();
}

/// Regression guard for the hash-backed dictionary index: appending through
/// `push_row`/`append_rows` must stay O(1) amortized per cell. The two sizes
/// let the baseline prove near-linear scaling (5× the rows ≈ 5× the time);
/// the old linear dictionary scan made the high-cardinality column quadratic.
fn relation_append(c: &mut Criterion) {
    use maimon::relation::{Relation, Schema};
    let make_rows = |n: usize| -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                vec![
                    format!("a{}", i % 8),
                    format!("b{}", i % 64),
                    format!("c{i}"), // distinct per row: the dictionary-stress column
                ]
            })
            .collect()
    };
    let mut group = c.benchmark_group("relation_append");
    group.sample_size(10);
    for n in [2_000usize, 10_000] {
        let rows = make_rows(n);
        let leg = format!("append_rows_{n}");
        group.bench_function(leg.as_str(), |b| {
            b.iter(|| {
                let mut rel = Relation::empty(Schema::new(["A", "B", "C"]).unwrap());
                rel.append_rows(&rows).unwrap();
                black_box(rel.n_rows())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    full_mvd_ablation,
    minimal_separators,
    end_to_end,
    session_sweep,
    incremental_append,
    relation_append
);
criterion_main!(benches);
