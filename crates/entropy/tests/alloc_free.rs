//! Allocation-freedom lockdown for the CSR entropy engine (feature
//! `track_alloc`): a counting global allocator proves that
//!
//! * a cached-hit entropy query allocates nothing, and
//! * a warm-scratch count-only intersection allocates nothing,
//!
//! for row partitions and for the oracle's partitions over weighted tuple
//! ids, on a relation whose rows repeat each tuple many times, and
//! * a warm `relation::JoinCounter` counts joins and distinct tuples without
//!   allocating, also when its memo evicts and relabels on every call and
//!   when its labels take two fold rounds,
//!
//! which is the steady-state contract the flat-arena refactor exists for —
//! the mining workload performs hundreds of thousands of these per run.
//!
//! Everything lives in ONE `#[test]` because the counter is process-global
//! and the libtest harness runs `#[test]` fns on concurrent threads; a
//! second test would race the counter reads.
#![cfg(feature = "track_alloc")]

use entropy::track_alloc::{allocations, CountingAllocator};
use entropy::{EntropyOracle, IntersectScratch, Pli, PliEntropyOracle};
use relation::{AttrSet, JoinCounter, JoinTreeSpec, Relation, Schema, LABEL_MEMO_BUDGET_BYTES};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_entropy_queries_do_not_allocate() {
    let schema = Schema::with_arity(8).unwrap();
    let columns: Vec<Vec<u32>> =
        (0..8).map(|c| (0..512u32).map(|r| (r * (c as u32 + 5)) % 7).collect()).collect();
    let rel = Relation::from_code_columns(schema, columns).unwrap();
    let oracle = PliEntropyOracle::with_defaults(&rel);

    // Warm every query the measurement loop will issue (entropy cache fills).
    let workload: Vec<AttrSet> =
        AttrSet::full(8).subsets().filter(|s| (2..=3).contains(&s.len())).collect();
    let mut checksum = 0.0f64;
    for &attrs in &workload {
        checksum += oracle.entropy(attrs);
    }

    // Cached-hit queries: zero heap allocations each.
    let before = allocations();
    for _ in 0..10 {
        for &attrs in &workload {
            checksum += oracle.entropy(attrs);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "cached-hit entropy queries must not touch the heap ({} queries allocated {})",
        10 * workload.len(),
        after - before
    );

    // Warm-scratch count-only intersections: zero heap allocations each.
    let a = Pli::from_column(&rel, 0).unwrap();
    let b = Pli::from_column(&rel, 5).unwrap();
    let mut scratch = IntersectScratch::new();
    checksum += a.intersect_counts(&b, &mut scratch).entropy(); // sizes arrays reach steady state
    let before = allocations();
    for _ in 0..100 {
        checksum += a.intersect_counts(&b, &mut scratch).entropy();
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm-scratch count-only intersections must not touch the heap");

    // The same two contracts on a relation whose rows repeat each tuple
    // many times: the oracle's partitions group weighted tuple ids.
    let columns: Vec<Vec<u32>> =
        (0..6).map(|c| (0..4096u32).map(|r| (r % 97) * (c as u32 + 1) % 11).collect()).collect();
    let dup = Relation::from_code_columns(Schema::with_arity(6).unwrap(), columns).unwrap();
    let oracle = PliEntropyOracle::with_defaults(&dup);
    assert!(oracle.distinct_tuples() * 10 < dup.n_rows(), "{} tuples", oracle.distinct_tuples());
    let workload: Vec<AttrSet> = AttrSet::full(6).subsets().filter(|s| s.len() >= 2).collect();
    for &attrs in &workload {
        checksum += oracle.entropy(attrs);
    }
    let before = allocations();
    for _ in 0..10 {
        for &attrs in &workload {
            checksum += oracle.entropy(attrs);
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "cached hits over weighted tuples must not touch the heap");
    let a = oracle.cached_partition(AttrSet::singleton(1)).unwrap();
    let b = oracle.cached_partition([3usize, 4].into_iter().collect()).unwrap();
    let mut scratch = IntersectScratch::new();
    checksum += a.intersect_counts(&b, &mut scratch).entropy();
    let before = allocations();
    for _ in 0..100 {
        checksum += a.intersect_counts(&b, &mut scratch).entropy();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm count-only intersections of weighted tuples must not allocate"
    );

    // Join counting: chains of overlapping column windows, one with empty
    // separators. Once a pass has grown the counter's buffers, another pass
    // allocates nothing, whether the memo keeps every labelling or evicts
    // all but the call's own and relabels into recycled buffers.
    let window = |from: usize, to: usize| (from..to).collect::<AttrSet>();
    let specs: Vec<JoinTreeSpec> = [(2, 1), (3, 1), (4, 0), (6, 0)]
        .into_iter()
        .map(|(width, overlap)| {
            let mut bags = vec![window(0, width)];
            while let Some(&last) = bags.last().filter(|b| !b.contains(5)) {
                let from = last.max_attr().unwrap() + 1 - overlap;
                bags.push(window(from, (from + width).min(6)));
            }
            let edges = (1..bags.len()).map(|i| (i - 1, i)).collect();
            JoinTreeSpec::new(bags, edges).unwrap()
        })
        .collect();
    let mut total = 0u128;
    for budget in [LABEL_MEMO_BUDGET_BYTES, 1] {
        let mut counter = JoinCounter::with_memo_budget(&dup, budget);
        let mut pass = |counter: &mut JoinCounter<'_>| {
            for spec in &specs {
                total += counter.join_size(spec).unwrap();
                total += counter.distinct_count(AttrSet::full(6)).unwrap() as u128;
            }
        };
        pass(&mut counter);
        let before = allocations();
        pass(&mut counter);
        let after = allocations();
        assert_eq!(after - before, 0, "a warm join counter (budget {budget}) must not allocate");
    }
    assert!(total > 0);

    // The same contract when labels need two fold rounds: 12 columns of
    // cardinality 64 need 72 bits, so the widest bags refold once.
    let columns: Vec<Vec<u32>> = (0..12u32)
        .map(|c| (0..300u32).map(|r| ((r * (c + 3) / 7) ^ (r % (c + 2))) % 64).collect())
        .collect();
    let wide = Relation::from_code_columns(Schema::with_arity(12).unwrap(), columns).unwrap();
    let bits: f64 = (0..12).map(|c| (wide.column_cardinality(c) as f64).log2()).sum();
    assert!(bits > 64.0, "the widest bags must need two rounds: {bits} bits");
    let specs: Vec<JoinTreeSpec> = [(12, 0), (11, 10), (8, 4)]
        .into_iter()
        .map(|(width, overlap)| {
            let mut bags = vec![window(0, width)];
            while let Some(&last) = bags.last().filter(|b| !b.contains(11)) {
                let from = last.max_attr().unwrap() + 1 - overlap;
                bags.push(window(from, (from + width).min(12)));
            }
            let edges = (1..bags.len()).map(|i| (i - 1, i)).collect();
            JoinTreeSpec::new(bags, edges).unwrap()
        })
        .collect();
    for budget in [LABEL_MEMO_BUDGET_BYTES, 1] {
        let mut counter = JoinCounter::with_memo_budget(&wide, budget);
        let mut pass = |counter: &mut JoinCounter<'_>| {
            for spec in &specs {
                total += counter.join_size(spec).unwrap();
                total += counter.distinct_count(AttrSet::full(12)).unwrap() as u128;
            }
        };
        pass(&mut counter);
        let before = allocations();
        pass(&mut counter);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "a warm join counter (budget {budget}) must not allocate on two-round labels"
        );
    }

    // Keep the checksum observable so the loops cannot be optimized away.
    assert!(checksum.is_finite());
}
