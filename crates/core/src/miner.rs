//! `MVDMiner` (Fig. 3): the first phase of Maimon.
//!
//! For every unordered pair of attributes `(A, B)` the miner computes the
//! minimal `A,B`-separators (§6.1) and, for each minimal separator `X`, the
//! full ε-MVDs with key `X` separating the pair (§6.2). The union over all
//! pairs is the set `M_ε` of Eq. (11), from which every ε-MVD of the relation
//! can be derived by Shannon inequalities (Theorem 5.7) and from which the
//! second phase (`ASMiner`, §7) builds acyclic schemas.
//!
//! The pairs are mutually independent given the entropy oracle — the paper's
//! scalability experiments (Fig. 13/14) are embarrassingly parallel over
//! them — so this phase fans out over a `std::thread::scope` worker pool
//! sharing one `&self` oracle. Workers claim pairs from an atomic cursor and
//! the per-pair outcomes are merged *in pair order*, which together with the
//! oracle's compute-once caches makes the result (MVD set, separator map and
//! statistics) identical to the sequential run's for every thread count; see
//! `tests/parallel_equivalence.rs` for the lock-down suite.

use crate::config::MaimonConfig;
use crate::full_mvd::PairSearch;
use crate::measure::is_full_mvd;
use crate::minsep::mine_min_seps_in;
use crate::mvd::Mvd;
use crate::progress::RunControl;
use entropy::{EntropyOracle, OracleStats};
use obs::{Span, Stage, StageBreakdown, StageCollector};
use relation::AttrSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Statistics of one `MVDMiner` run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MiningStats {
    /// Attribute pairs examined.
    pub pairs_processed: usize,
    /// Total minimal separators found across all pairs.
    pub separators_found: usize,
    /// Candidate transversals tested while mining separators.
    pub transversals_tested: usize,
    /// Lattice nodes evaluated by `getFullMVDs` across all calls.
    pub lattice_nodes_explored: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `true` if a deadline, a cancellation or a count limit stopped the run
    /// early.
    pub truncated: bool,
    /// Worker threads used by the pair fan-out (1 = sequential path).
    pub threads: usize,
    /// Entropy-oracle counters at the end of the run.
    pub oracle: OracleStats,
    /// Exclusive per-stage wall time recorded by the span instrumentation
    /// (busy time summed across workers when the fan-out is parallel).
    /// Additive wire field: legacy documents deserialize to all-zero.
    pub stages: StageBreakdown,
}

/// The result of the MVD-mining phase: the set `M_ε`, the minimal separators
/// per attribute pair, and run statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MvdMiningResult {
    /// All discovered full ε-MVDs with minimal-separator keys (deduplicated).
    pub mvds: Vec<Mvd>,
    /// Minimal separators per attribute pair `(a, b)` with `a < b`.
    pub separators: BTreeMap<(usize, usize), Vec<AttrSet>>,
    /// Run statistics.
    pub stats: MiningStats,
}

impl MvdMiningResult {
    /// The distinct minimal separators across all pairs.
    pub fn distinct_separators(&self) -> Vec<AttrSet> {
        let set: BTreeSet<AttrSet> =
            self.separators.values().flat_map(|v| v.iter().copied()).collect();
        set.into_iter().collect()
    }

    /// Number of discovered MVDs.
    pub fn mvd_count(&self) -> usize {
        self.mvds.len()
    }
}

/// Everything the sequential loop would have accumulated for one pair,
/// produced by a worker and merged deterministically afterwards.
struct PairOutcome {
    pair: (usize, usize),
    separators: Vec<AttrSet>,
    transversals_tested: usize,
    lattice_nodes_explored: usize,
    truncated: bool,
    mvds: Vec<Mvd>,
}

/// Mines one attribute pair: minimal separators, then the full ε-MVDs keyed
/// by each separator, all through one [`PairSearch`] so a closure or search
/// repeated across the separator probes and the final searches runs once.
/// Pure function of the oracle's (deterministic) answers.
fn mine_pair<O: EntropyOracle + ?Sized>(
    oracle: &O,
    config: &MaimonConfig,
    pair: (usize, usize),
    ctl: &RunControl<'_>,
) -> PairOutcome {
    let epsilon = config.epsilon;
    let limits = config.limits;
    let mut search =
        PairSearch::new(oracle, epsilon, pair, config.use_pairwise_consistency_optimization);
    let seps = {
        let _span = Span::enter(Stage::MineMinSeps, ctl.stages());
        mine_min_seps_in(&mut search, &limits, ctl)
    };
    let _span = Span::enter(Stage::FullMvds, ctl.stages());
    let mut outcome = PairOutcome {
        pair,
        transversals_tested: seps.transversals_tested,
        lattice_nodes_explored: 0,
        truncated: seps.truncated,
        mvds: Vec::new(),
        separators: seps.separators,
    };
    for &sep in &outcome.separators {
        let found = search.full_mvds(
            sep,
            limits.max_full_mvds_per_separator,
            limits.max_lattice_nodes,
            ctl,
        );
        outcome.lattice_nodes_explored += found.nodes_explored;
        outcome.truncated |= found.truncated;
        for mvd in found.mvds {
            if config.verify_fullness && !is_full_mvd(oracle, &mvd, epsilon) {
                continue;
            }
            outcome.mvds.push(mvd);
        }
    }
    outcome
}

/// Fans `work` out over every canonical attribute pair `(a, b)` with
/// `a < b < n`: pairs are claimed from an atomic cursor by `threads` scoped
/// workers (a plain in-order loop when `threads <= 1`, avoiding any spawn),
/// each invocation receives the pair and its index in the canonical
/// enumeration, and the outcomes are returned sorted by that index — so the
/// caller's merge is order-identical to a sequential loop.
///
/// The returned flag is `true` iff the cancellation / deadline control
/// stopped the fan-out before every pair was processed; a deadline that
/// passes only after the last pair completes does *not* truncate, on either
/// path.
pub fn fan_out_pairs<T, F>(
    n: usize,
    threads: usize,
    ctl: &RunControl<'_>,
    work: F,
) -> (Vec<T>, bool)
where
    T: Send,
    F: Fn((usize, usize), usize) -> T + Sync,
{
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();

    let mut outcomes: Vec<(usize, T)> = if threads <= 1 {
        let mut outcomes = Vec::with_capacity(pairs.len());
        for (index, &pair) in pairs.iter().enumerate() {
            if ctl.should_stop() {
                break;
            }
            outcomes.push((index, work(pair, index)));
        }
        outcomes
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            if ctl.should_stop() {
                                break;
                            }
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            if index >= pairs.len() {
                                break;
                            }
                            local.push((index, work(pairs[index], index)));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("pair fan-out worker panicked"))
                .collect()
        })
    };
    outcomes.sort_by_key(|(index, _)| *index);

    let truncated = outcomes.len() < pairs.len();
    (outcomes.into_iter().map(|(_, outcome)| outcome).collect(), truncated)
}

/// Runs `MVDMiner` over every attribute pair of the oracle's relation,
/// fanning out over `config.effective_threads()` workers (1 = the sequential
/// path) and merging the per-pair outcomes deterministically.
///
/// Convenience form of [`mine_mvds_with`] without cancellation or deadline
/// plumbing.
pub fn mine_mvds<O: EntropyOracle + ?Sized>(oracle: &O, config: &MaimonConfig) -> MvdMiningResult {
    mine_mvds_with(oracle, config, &RunControl::NONE)
}

/// [`mine_mvds`] with cancellation and deadline plumbing.
///
/// When `ctl` fires mid-run the fan-out stops claiming pairs, in-flight pairs
/// wind down at their next check, and the merged partial result is returned
/// flagged `truncated`, like a count limit.
pub fn mine_mvds_with<O: EntropyOracle + ?Sized>(
    oracle: &O,
    config: &MaimonConfig,
    ctl: &RunControl<'_>,
) -> MvdMiningResult {
    let started = Instant::now();
    let mut result = MvdMiningResult::default();
    let n = oracle.arity();
    let pair_count = n.saturating_sub(1) * n / 2;
    let threads = config.effective_threads().min(pair_count).max(1);
    result.stats.threads = threads;

    // Per-run stage aggregation: when the caller attached a collector,
    // spans below record into this local one and the run's breakdown is
    // stamped onto the stats (and folded into the caller's collector, so
    // sessions can aggregate across runs). Without one, spans stay inert
    // and mining pays nothing for the instrumentation.
    let collector = StageCollector::new();
    let outer_stages = ctl.stages();
    let ctl = &match outer_stages {
        Some(_) => ctl.clone().with_stages(&collector),
        None => ctl.clone(),
    };

    let (outcomes, stopped) =
        fan_out_pairs(n, threads, ctl, |pair, _index| mine_pair(oracle, config, pair, ctl));
    result.stats.truncated |= stopped;

    // Deterministic merge in pair order — the same accumulation the
    // sequential loop performs inline.
    let mut seen: BTreeSet<Mvd> = BTreeSet::new();
    for outcome in outcomes {
        result.stats.pairs_processed += 1;
        result.stats.transversals_tested += outcome.transversals_tested;
        result.stats.lattice_nodes_explored += outcome.lattice_nodes_explored;
        result.stats.truncated |= outcome.truncated;
        seen.extend(outcome.mvds);
        if outcome.separators.is_empty() {
            continue;
        }
        result.stats.separators_found += outcome.separators.len();
        result.separators.insert(outcome.pair, outcome.separators);
    }

    result.mvds = seen.into_iter().collect();
    result.stats.elapsed = started.elapsed();
    result.stats.oracle = oracle.stats();
    if let Some(outer) = outer_stages {
        result.stats.stages = collector.breakdown();
        outer.absorb(&result.stats.stages);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::mvd_holds;
    use entropy::{NaiveEntropyOracle, PliEntropyOracle};
    use relation::{Relation, Schema};

    fn running_example(with_red_tuple: bool) -> Relation {
        let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
        let mut rows = vec![
            vec!["a1", "b1", "c1", "d1", "e1", "f1"],
            vec!["a2", "b2", "c1", "d1", "e2", "f2"],
            vec!["a2", "b2", "c2", "d2", "e3", "f2"],
            vec!["a1", "b2", "c1", "d2", "e3", "f1"],
        ];
        if with_red_tuple {
            rows.push(vec!["a1", "b2", "c1", "d2", "e2", "f1"]);
        }
        Relation::from_rows(schema, &rows).unwrap()
    }

    fn attrs(v: &[usize]) -> AttrSet {
        v.iter().copied().collect()
    }

    #[test]
    fn exact_mining_on_running_example_recovers_the_support_mvds() {
        let rel = running_example(false);
        let s = rel.schema().clone();
        let o = NaiveEntropyOracle::new(&rel);
        let config = MaimonConfig::with_epsilon(0.0);
        let result = mine_mvds(&o, &config);
        assert!(!result.mvds.is_empty());
        assert_eq!(result.stats.pairs_processed, 15);
        // Every discovered MVD holds exactly.
        for mvd in &result.mvds {
            assert!(mvd_holds(&o, mvd, 0.0), "{} does not hold", mvd.display(&s));
        }
        // The separator keys of the paper's join tree must be among the keys:
        // A (for F vs the rest), AD, and BD.
        let keys: BTreeSet<AttrSet> = result.mvds.iter().map(|m| m.key()).collect();
        assert!(keys.contains(&attrs(&[0])), "missing key A, got {:?}", keys);
        assert!(keys.contains(&attrs(&[0, 3])), "missing key AD, got {:?}", keys);
        assert!(keys.contains(&attrs(&[1, 3])), "missing key BD, got {:?}", keys);
    }

    #[test]
    fn naive_and_pli_oracles_produce_identical_results() {
        let rel = running_example(true);
        let config = MaimonConfig::with_epsilon(0.1);
        let naive = NaiveEntropyOracle::new(&rel);
        let result_naive = mine_mvds(&naive, &config);
        let pli = PliEntropyOracle::with_defaults(&rel);
        let result_pli = mine_mvds(&pli, &config);
        assert_eq!(result_naive.mvds, result_pli.mvds);
        assert_eq!(result_naive.separators, result_pli.separators);
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        // The core determinism guarantee in miniature (the full matrix runs
        // in tests/parallel_equivalence.rs): every thread count yields the
        // same M_ε, separator map and mining counters.
        let rel = running_example(true);
        let baseline = {
            let oracle = PliEntropyOracle::with_defaults(&rel);
            mine_mvds(&oracle, &MaimonConfig::with_epsilon_and_threads(0.1, 1))
        };
        assert_eq!(baseline.stats.threads, 1);
        for threads in [2usize, 4, 8] {
            let oracle = PliEntropyOracle::with_defaults(&rel);
            let config = MaimonConfig::with_epsilon_and_threads(0.1, threads);
            let parallel = mine_mvds(&oracle, &config);
            assert_eq!(parallel.mvds, baseline.mvds, "threads={threads}");
            assert_eq!(parallel.separators, baseline.separators, "threads={threads}");
            assert_eq!(parallel.stats.pairs_processed, baseline.stats.pairs_processed);
            assert_eq!(parallel.stats.separators_found, baseline.stats.separators_found);
            assert_eq!(parallel.stats.transversals_tested, baseline.stats.transversals_tested);
            assert_eq!(
                parallel.stats.lattice_nodes_explored,
                baseline.stats.lattice_nodes_explored
            );
            assert!(parallel.stats.threads <= threads);
        }
    }

    #[test]
    fn parallel_oracle_stats_match_sequential_exactly() {
        // Compute-once caching makes the deterministic oracle counters
        // (calls, cache hits, full scans) independent of the thread count;
        // the naive oracle has no interleaving-dependent counter at all, so
        // its whole stats struct must match.
        let rel = running_example(true);
        let config_seq = MaimonConfig::with_epsilon_and_threads(0.2, 1);
        let sequential = {
            let oracle = NaiveEntropyOracle::new(&rel);
            mine_mvds(&oracle, &config_seq).stats.oracle
        };
        for threads in [2usize, 4] {
            let oracle = NaiveEntropyOracle::new(&rel);
            let config = MaimonConfig::with_epsilon_and_threads(0.2, threads);
            let parallel = mine_mvds(&oracle, &config).stats.oracle;
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // The PLI oracle: everything except the opportunistic prefix-cache
        // `intersections` counter is deterministic.
        let pli_seq = {
            let oracle = PliEntropyOracle::with_defaults(&rel);
            mine_mvds(&oracle, &config_seq).stats.oracle
        };
        let oracle = PliEntropyOracle::with_defaults(&rel);
        let pli_par = mine_mvds(&oracle, &MaimonConfig::with_epsilon_and_threads(0.2, 4));
        assert_eq!(pli_par.stats.oracle.calls, pli_seq.calls);
        assert_eq!(pli_par.stats.oracle.cache_hits, pli_seq.cache_hits);
        assert_eq!(pli_par.stats.oracle.full_scans, pli_seq.full_scans);
    }

    #[test]
    fn larger_epsilon_never_loses_separators_on_running_example() {
        // Larger ε makes more sets separators, so the number of *distinct
        // minimal separators* can change, but every pair separable at ε=0 is
        // still separable at ε=0.3.
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let tight = mine_mvds(&o, &MaimonConfig::with_epsilon(0.0));
        let loose = mine_mvds(&o, &MaimonConfig::with_epsilon(0.3));
        for pair in tight.separators.keys() {
            assert!(
                loose.separators.contains_key(pair),
                "pair {:?} separable at ε=0 but not at ε=0.3",
                pair
            );
        }
    }

    #[test]
    fn discovered_mvds_all_hold_and_have_minimal_separator_keys() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let config = MaimonConfig::with_epsilon(0.25);
        let result = mine_mvds(&o, &config);
        let distinct = result.distinct_separators();
        for mvd in &result.mvds {
            assert!(mvd_holds(&o, mvd, 0.25));
            assert!(
                distinct.contains(&mvd.key()),
                "key {:?} is not a discovered minimal separator",
                mvd.key()
            );
        }
        assert_eq!(result.mvd_count(), result.mvds.len());
    }

    #[test]
    fn verify_fullness_filter_only_removes_non_full_mvds() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let mut config = MaimonConfig::with_epsilon(0.3);
        let plain = mine_mvds(&o, &config);
        config.verify_fullness = true;
        let verified = mine_mvds(&o, &config);
        assert!(verified.mvds.len() <= plain.mvds.len());
        for mvd in &verified.mvds {
            assert!(plain.mvds.contains(mvd));
        }
    }

    #[test]
    fn expired_deadline_truncates_immediately() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        for threads in [1usize, 4] {
            let config = MaimonConfig::with_epsilon_and_threads(0.0, threads);
            let ctl = RunControl::new().with_deadline(Instant::now());
            let result = mine_mvds_with(&o, &config, &ctl);
            assert!(result.stats.truncated);
            assert!(result.stats.pairs_processed <= threads);
        }
    }

    #[test]
    fn stats_capture_oracle_counters() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let result = mine_mvds(&o, &MaimonConfig::with_epsilon(0.0));
        assert!(result.stats.oracle.calls > 0);
        assert!(result.stats.elapsed >= Duration::from_secs(0));
        assert!(result.stats.separators_found >= result.separators.len());
        assert!(result.stats.threads >= 1);
    }
}
