//! Allocation-count legs for the CSR entropy engine.
//!
//! A counting global allocator is installed for this bench target only (so
//! the wall-clock targets in `entropy.rs`/`mining.rs` stay unskewed), and
//! each leg reports the *mean heap allocations per operation* instead of a
//! time. Output format mirrors the timing shim so baselines can grep one
//! pattern:
//!
//! ```text
//! bench-alloc: <group>/<name> allocs_per_iter=<f64> iters=<u64>
//! ```
//!
//! The headline rows: `alloc/entropy_cached_hit` and `alloc/csr_count_only`
//! must report **0** — the steady-state contract of the flat-arena engine —
//! while `alloc/csr_materialize` pays exactly its three output vectors (plus a
//! possible staging growth early on) and `alloc/legacy_style_intersect`
//! shows what a cold scratch per call costs. The `track_alloc` test suite
//! (`crates/entropy/tests/alloc_free.rs`) asserts the zero rows; this bench
//! makes the numbers visible next to the timing baselines.

use maimon::entropy::track_alloc::{allocations, CountingAllocator};
use maimon::entropy::{EntropyOracle, IntersectScratch, Pli, PliEntropyOracle};
use maimon::relation::AttrSet;
use maimon_datasets::dataset_by_name;
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const ITERS: u64 = 200;

/// Runs `routine` `ITERS` times and prints its mean allocation count.
fn report<O, R: FnMut() -> O>(name: &str, mut routine: R) {
    black_box(routine()); // warmup: let scratches/caches reach steady state
    let before = allocations();
    for _ in 0..ITERS {
        black_box(routine());
    }
    let delta = allocations() - before;
    println!(
        "bench-alloc: alloc/{} allocs_per_iter={:.2} iters={}",
        name,
        delta as f64 / ITERS as f64,
        ITERS
    );
}

fn main() {
    let rel = dataset_by_name("Adult").unwrap().generate(0.05);
    let subsets: Vec<AttrSet> =
        AttrSet::full(rel.arity()).subsets().filter(|s| s.len() >= 2 && s.len() <= 3).collect();

    // Steady-state oracle: every workload subset memoized, queries are hits.
    let oracle = PliEntropyOracle::with_defaults(&rel);
    for &s in &subsets {
        oracle.entropy(s);
    }
    let probe = subsets[subsets.len() / 2];
    report("entropy_cached_hit", || black_box(oracle.entropy(probe)));

    let a = Pli::from_column(&rel, 0);
    let b = Pli::from_column(&rel, 3);
    let mut scratch = IntersectScratch::new();
    report("csr_count_only", || black_box(a.intersect_counts(&b, &mut scratch).entropy()));
    report("csr_materialize", || black_box(a.intersect_with(&b, &mut scratch)));
    report("legacy_style_intersect", || black_box(a.intersect(&b)));
}
