//! Criterion micro-benchmarks for the combinatorial substrates: minimal
//! transversal enumeration, maximal-independent-set enumeration, schema
//! synthesis from MVD sets, `ASMiner` at the 10,000-schema cap, acyclic
//! join-size counting, and quality passes on one worker and on two.

use criterion::{criterion_group, criterion_main, Criterion};
use maimon::entropy::PliEntropyOracle;
use maimon::hypergraph::{
    for_each_maximal_independent_set, maximal_independent_sets, minimal_transversals, Control,
    Graph,
};
use maimon::relation::{
    acyclic_join_size, relation_from_csv, relation_to_csv, AttrSet, CsvOptions, JoinCounter,
};
use maimon::{
    build_acyclic_schema, evaluate_schema, evaluate_schema_with, incompatibility_graph,
    measure_schemas, mine_mvds, mine_schemas, JoinTree, MaimonConfig, MaimonSession,
};
use maimon_datasets::{dataset_by_name, nursery_with_rows, running_example_with_red_tuple};
use std::hint::black_box;

fn transversals(c: &mut Criterion) {
    // A hypergraph shaped like a mid-run separator family: 12 edges over 20 vertices.
    let edges: Vec<u64> = (0..12u64)
        .map(|i| ((0b1011u64) << (i % 16)) & ((1 << 20) - 1))
        .filter(|&e| e != 0)
        .collect();
    let universe = (1u64 << 20) - 1;
    let mut group = c.benchmark_group("hypergraph");
    group.sample_size(20);
    group.bench_function("minimal_transversals_12x20", |b| {
        b.iter(|| black_box(minimal_transversals(&edges, universe)))
    });

    // MIS enumeration on a sparse 40-vertex incompatibility-like graph.
    let mut graph = Graph::new(40);
    for i in 0..40usize {
        graph.add_edge(i, (i * 7 + 3) % 40);
        graph.add_edge(i, (i * 11 + 5) % 40);
    }
    group.bench_function("maximal_independent_sets_40", |b| {
        b.iter(|| black_box(maximal_independent_sets(&graph, Some(200)).len()))
    });
    group.finish();
}

/// `ASMiner` where `enum_bridges10` spends most of its time: the Bridges
/// stand-in cut to 10 columns and deduplicated by a CSV round trip, as
/// `bench_report` loads it, whose `M_0.1` has 4,357 full MVDs. Mining them
/// happens once, outside the timed loops.
fn bridges10_schemas(c: &mut Criterion) {
    let bridges = dataset_by_name("Bridges").expect("Bridges is in the catalog").generate(1.0);
    let csv = relation_to_csv(&bridges.column_prefix(10).expect("13 columns"), ',');
    let rel = relation_from_csv(&csv, CsvOptions::default()).expect("round trip");
    let config = MaimonConfig::with_epsilon(0.1);
    let oracle = PliEntropyOracle::new(&rel, config.entropy);
    let mvds = mine_mvds(&oracle, &config).mvds;
    assert_eq!(mvds.len(), 4357, "M_0.1 of the deduplicated Bridges-10");
    let universe = AttrSet::full(rel.arity());
    let graph = incompatibility_graph(&mvds);
    let mut group = c.benchmark_group("asminer");
    group.sample_size(10);
    group.bench_function("bridges10_dedup_eps_0.1_schemas", |b| {
        b.iter(|| black_box(mine_schemas(&oracle, universe, &mvds, &config).schemas.len()))
    });
    group.finish();
    // The same graph crosses the 64-vertex local phase at every depth; the
    // 40-vertex leg above never leaves it. Capped at 100,000 sets.
    let mut group = c.benchmark_group("hypergraph");
    group.sample_size(10);
    group.bench_function("maximal_independent_sets_4357", |b| {
        b.iter(|| {
            let mut left = 100_000usize;
            black_box(for_each_maximal_independent_set(&graph, |s| {
                black_box(s);
                left -= 1;
                if left == 0 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }))
        })
    });
    group.finish();
}

fn schema_synthesis(c: &mut Criterion) {
    // Build the support of a 8-bag join tree and re-synthesize the schema.
    let bags: Vec<AttrSet> = (0..8usize).map(|i| [i, i + 1, 16].into_iter().collect()).collect();
    let edges: Vec<(usize, usize)> = (1..8).map(|i| (i - 1, i)).collect();
    let tree = JoinTree::new(bags, edges).unwrap();
    let support = tree.support();
    let universe = tree.all_attrs();
    let mut group = c.benchmark_group("schema_synthesis");
    group.sample_size(30);
    group.bench_function("incompatibility_graph", |b| {
        b.iter(|| black_box(incompatibility_graph(&support).edge_count()))
    });
    group.bench_function("build_acyclic_schema", |b| {
        b.iter(|| black_box(build_acyclic_schema(universe, &support).n_relations()))
    });
    group.finish();
}

fn join_counting(c: &mut Criterion) {
    let running = running_example_with_red_tuple();
    let running_schema = maimon::AcyclicSchema::new(vec![
        [0usize, 1, 3].into_iter().collect(),
        [0usize, 2, 3].into_iter().collect(),
        [1usize, 3, 4].into_iter().collect(),
        [0usize, 5].into_iter().collect(),
    ])
    .unwrap();
    let running_tree = running_schema.join_tree().unwrap();

    let nursery = nursery_with_rows(4000);
    let nursery_schema =
        maimon::AcyclicSchema::new((0..9).map(AttrSet::singleton).collect::<Vec<_>>()).unwrap();
    let nursery_tree = nursery_schema.join_tree().unwrap();

    let mut group = c.benchmark_group("acyclic_join_size");
    group.sample_size(20);
    group.bench_function("running_example", |b| {
        b.iter(|| black_box(acyclic_join_size(&running, &running_tree.to_spec()).unwrap()))
    });
    group.bench_function("nursery_fully_decomposed", |b| {
        b.iter(|| black_box(acyclic_join_size(&nursery, &nursery_tree.to_spec()).unwrap()))
    });
    group.finish();
}

/// One quality pass: every schema of Abalone at ε = 0.1 measured through one
/// shared `JoinCounter`, as `session.quality` does, against a fresh counter
/// per schema. This is the raw stand-in (4,177 rows, duplicates kept):
/// 5,436 schemas from 10,467 independent sets, short of the 10,000-schema
/// cap, which only the CSV-deduplicated relation of `bench_report` reaches.
fn quality_pass(c: &mut Criterion) {
    let abalone = dataset_by_name("Abalone").expect("Abalone is in the catalog").generate(1.0);
    let session = MaimonSession::new(&abalone, MaimonConfig::default()).unwrap();
    let schemas = session.schemas(0.1).unwrap();
    let mut group = c.benchmark_group("quality_pass");
    group.sample_size(10);
    group.bench_function("abalone_eps_0.1_shared_counter", |b| {
        b.iter(|| {
            let mut counter = JoinCounter::new(&abalone);
            for discovered in &schemas.schemas {
                black_box(evaluate_schema_with(&mut counter, &discovered.schema).unwrap());
            }
        })
    });
    group.bench_function("abalone_eps_0.1_per_schema", |b| {
        b.iter(|| {
            for discovered in &schemas.schemas {
                black_box(evaluate_schema(&abalone, &discovered.schema).unwrap());
            }
        })
    });
    group.finish();

    // The `quality_abalone` pass: the CSV-deduplicated stand-in (1,775
    // rows) at ε = 0.1, whose 10,000 schemas span 40 blocks, measured by
    // the session's pass on one worker and on two.
    let csv = relation_to_csv(&abalone, ',');
    let dedup = relation_from_csv(&csv, CsvOptions::default()).expect("round trip");
    let session = MaimonSession::new(&dedup, MaimonConfig::default()).unwrap();
    let schemas = session.schemas(0.1).unwrap();
    assert_eq!(schemas.schemas.len(), 10_000, "the deduplicated Abalone reaches the cap");
    let mut group = c.benchmark_group("quality_pass");
    group.sample_size(10);
    for (leg, threads) in [("seq", 1), ("par2", 2)] {
        group.bench_function(format!("abalone_dedup_eps_0.1_{leg}"), |b| {
            b.iter(|| black_box(measure_schemas(&dedup, &schemas.schemas, threads).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    transversals,
    bridges10_schemas,
    schema_synthesis,
    join_counting,
    quality_pass
);
criterion_main!(benches);
