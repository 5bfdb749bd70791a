//! Allocation-freedom lockdown for the CSR entropy engine (feature
//! `track_alloc`): a counting global allocator proves that
//!
//! * a cached-hit entropy query allocates nothing, and
//! * a warm-scratch count-only intersection allocates nothing,
//!
//! for row partitions and for the oracle's partitions over weighted tuple
//! ids, on a relation whose rows repeat each tuple many times,
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
use relation::{AttrSet, Relation, Schema};

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

    // Keep the checksum observable so the loops cannot be optimized away.
    assert!(checksum.is_finite());
}
