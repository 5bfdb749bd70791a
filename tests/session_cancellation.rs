//! Cancellation correctness: a [`CancelToken`] fired mid-run yields a
//! *well-formed partial result flagged `truncated`* — the same contract as
//! a deadline or a count limit, and never an error. Locked down on the
//! Bridges dataset, the same workload the mining benchmarks use.
//!
//! Determinism: instead of racing a timer thread, the tests wrap the shared
//! oracle in an adapter that fires the token after an exact number of
//! entropy calls, so "mid-`get_full_mvds`" is reproducible on any machine;
//! the deadline test arms the `deadline_clock` failpoint instead of sleeping,
//! so its deadline passes at an exact clock read.

use maimon::entropy::{EntropyOracle, OracleStats, PliEntropyOracle};
use maimon::relation::{AttrSet, Relation};
use maimon::storage::fault;
use maimon::{
    get_full_mvds, mine_mvds_with, mvd_holds, CancelToken, MaimonConfig, MaimonSession,
    MiningLimits, MvdMiningResult, RunControl, StageBreakdown,
};
use maimon_datasets::dataset_by_name;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Delegating oracle that fires a [`CancelToken`] after exactly
/// `fire_after` entropy calls.
struct FuseOracle {
    inner: PliEntropyOracle,
    calls: AtomicU64,
    fire_after: u64,
    token: CancelToken,
}

impl FuseOracle {
    fn new(rel: &Relation, fire_after: u64, token: CancelToken) -> Self {
        FuseOracle {
            inner: PliEntropyOracle::with_defaults(rel),
            calls: AtomicU64::new(0),
            fire_after,
            token,
        }
    }
}

impl EntropyOracle for FuseOracle {
    fn entropy(&self, attrs: AttrSet) -> f64 {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 >= self.fire_after {
            self.token.cancel();
        }
        self.inner.entropy(attrs)
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

fn bridges() -> Relation {
    dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(9).unwrap()
}

fn deterministic_config(epsilon: f64) -> MaimonConfig {
    MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small())
        .max_schemas(Some(64))
        .threads(Some(1))
        .build()
        .unwrap()
}

#[test]
fn cancel_mid_get_full_mvds_returns_truncated_partial_result() {
    let rel = bridges();
    // The plain Fig. 6 DFS (no pairwise-consistency pruning) over this key
    // explores ~674 lattice nodes and ~4k entropy calls on Bridges — a
    // search long enough to cancel squarely in the middle.
    let key: AttrSet = [0usize, 3].into_iter().collect();
    let pair = (1usize, 2usize);
    let epsilon = 0.2;

    // Reference: the full, uncancelled search.
    let full_oracle = PliEntropyOracle::with_defaults(&rel);
    let full =
        get_full_mvds(&full_oracle, key, epsilon, pair, None, None, false, &RunControl::NONE);
    assert!(!full.truncated);
    assert!(full.mvds.len() >= 2, "search must be non-trivial for this test to bite");
    let total_calls = full_oracle.stats().calls;
    assert!(total_calls > 100, "bridges search is long enough to cancel mid-way");

    // Fire the token once a third of the oracle work is done — squarely
    // mid-search.
    let token = CancelToken::new();
    let fuse = FuseOracle::new(&rel, total_calls / 3, token.clone());
    let ctl = RunControl::new().with_cancel(token.clone());
    let partial = get_full_mvds(&fuse, key, epsilon, pair, None, None, false, &ctl);

    assert!(token.is_cancelled());
    assert!(partial.truncated, "cancellation must surface as truncation");
    assert!(
        partial.nodes_explored < full.nodes_explored,
        "the search must actually have stopped early ({} vs {})",
        partial.nodes_explored,
        full.nodes_explored
    );
    // Well-formed partial output: every reported MVD is a genuine ε-MVD with
    // the requested key, separating the pair — exactly what the node-limit /
    // deadline truncation paths guarantee.
    for mvd in &partial.mvds {
        assert_eq!(mvd.key(), key);
        assert!(mvd.separates(pair.0, pair.1));
        assert!(mvd_holds(&fuse, mvd, epsilon));
    }

    // Same contract as the count-limit path: identical invariants hold for a
    // node-limited search.
    let limited_oracle = PliEntropyOracle::with_defaults(&rel);
    let limited =
        get_full_mvds(&limited_oracle, key, epsilon, pair, None, Some(3), true, &RunControl::NONE);
    assert!(limited.truncated);
    for mvd in &limited.mvds {
        assert!(mvd_holds(&limited_oracle, mvd, epsilon));
    }
}

#[test]
fn cancel_mid_mine_mvds_returns_truncated_partial_result() {
    let rel = bridges();
    let config = deterministic_config(0.1);

    let full_oracle = PliEntropyOracle::with_defaults(&rel);
    let full = mine_mvds_with(&full_oracle, &config, &RunControl::NONE);
    assert!(!full.stats.truncated);
    let total_calls = full_oracle.stats().calls;

    let token = CancelToken::new();
    let fuse = FuseOracle::new(&rel, total_calls / 2, token.clone());
    let ctl = RunControl::new().with_cancel(token.clone());
    let partial = mine_mvds_with(&fuse, &config, &ctl);

    assert!(partial.stats.truncated, "mid-run cancellation flags the phase truncated");
    assert!(
        partial.stats.pairs_processed < full.stats.pairs_processed
            || partial.mvds.len() < full.mvds.len(),
        "some work must have been shed"
    );
    // Every mined MVD is still a genuine ε-MVD (partial ≠ malformed). The
    // partial set need not be a subset of the full run's: a search truncated
    // mid-lattice can report an MVD whose strict refinement — which would
    // have displaced it under the fullness filter — was never reached. That
    // matches the node-limit and deadline truncation contracts.
    for mvd in &partial.mvds {
        assert!(mvd_holds(&fuse, mvd, config.epsilon));
    }
}

#[test]
fn session_deadline_in_the_past_truncates_instead_of_erroring() {
    let _serial = deadline_lock();
    let rel = bridges();
    let session =
        MaimonSession::new(&rel, deterministic_config(0.1)).unwrap().with_deadline(Instant::now());
    let result = session.quality(0.1).expect("deadline expiry is not an error");
    assert!(result.truncated);
}

#[test]
fn session_cancel_token_is_shared_across_stages() {
    let rel = bridges();
    let token = CancelToken::new();
    let session =
        MaimonSession::new(&rel, deterministic_config(0.1)).unwrap().with_cancel(token.clone());
    // First stage completes normally…
    let mvds = session.mvds(0.1).unwrap();
    assert!(!mvds.stats.truncated);
    // …then the client disconnects; later stages at new thresholds wind down.
    token.cancel();
    let late = session.mvds(0.2).unwrap();
    assert!(late.stats.truncated);
    assert!(late.mvds.is_empty(), "cancelled before any pair was claimed");
    // Cached artifacts mined before the cancellation stay served.
    assert!(!session.mvds(0.1).unwrap().stats.truncated);
}

/// Serializes the tests that set a deadline: the `deadline_clock`
/// failpoint counts every deadline clock read in the process, so another
/// test's reads would shift the poll at which an armed run is cut.
fn deadline_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test must not wedge the rest of the suite.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The mining result with its run-dependent fields (wall time, cumulative
/// oracle counters, stage timings) cleared.
fn comparable(result: &MvdMiningResult) -> MvdMiningResult {
    let mut result = result.clone();
    result.stats.elapsed = Duration::ZERO;
    result.stats.oracle = OracleStats::default();
    result.stats.stages = StageBreakdown::default();
    result
}

#[test]
fn a_deadline_inside_a_separator_probe_leaves_no_trace() {
    let _serial = deadline_lock();
    let rel = bridges();
    let config = deterministic_config(0.1);
    let session = MaimonSession::new(&rel, config).unwrap();
    // The deadline clock is read only every 64th poll; past its first
    // CUT_AT_CLOCK_READ reads, the failpoint reports the (far-off) deadline
    // as passed. On one thread that is a fixed poll inside the second
    // pair's minimal-separator probes (11 of its 34 separators found).
    const CUT_AT_CLOCK_READ: u64 = 35;
    let hurried = session.clone().with_deadline(Instant::now() + Duration::from_secs(3600));
    fault::global().arm("deadline_clock", CUT_AT_CLOCK_READ, u64::MAX);
    let cut = hurried.mvds(0.1).unwrap();
    fault::global().disarm("deadline_clock");
    assert!(cut.stats.truncated, "the deadline must surface as truncation");
    assert!(cut.stats.pairs_processed < rel.arity() * (rel.arity() - 1) / 2);

    // A later uncancelled call on the same session is bit-identical to a
    // fresh session's: nothing the cut probe saw was remembered.
    let later = session.mvds(0.1).unwrap();
    assert!(!later.stats.truncated);
    let fresh = MaimonSession::new(&rel, config).unwrap().mvds(0.1).unwrap();
    assert_eq!(comparable(&later), comparable(&fresh));
}
