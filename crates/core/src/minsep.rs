//! Mining all minimal separators of an attribute pair (§6.1).
//!
//! A set `X` (with `A, B ∉ X`) *separates* `A` and `B` if some ε-MVD with key
//! `X` places them in different dependents (Def. 5.5); it is a minimal
//! `A,B`-separator if no proper subset separates them. Theorem 5.7 shows the
//! full MVDs whose keys are minimal separators suffice to derive every ε-MVD,
//! so `MVDMiner` only ever mines those keys.
//!
//! `MineMinSeps` (Fig. 5) finds all minimal separators of a pair using
//! Theorem 6.1: once some minimal separators `C` are known, any *new* minimal
//! separator must be contained in the complement of a minimal transversal of
//! `C`. The transversal enumeration comes from the `maimon-hypergraph`
//! substrate; `ReduceMinSep` (Fig. 4) greedily shrinks a separator to a
//! minimal one following a fixed attribute order, which is what the
//! completeness proof (appendix §12.1) relies on.

use crate::config::MiningLimits;
use crate::full_mvd::{is_separator, PairSearch};
use crate::progress::RunControl;
use entropy::EntropyOracle;
use hypergraph::minimal_transversals;
use obs::{Span, Stage};
use relation::AttrSet;
use std::collections::HashSet;
use std::time::Instant;

/// Result of mining the minimal separators of one attribute pair.
#[derive(Clone, Debug, Default)]
pub struct MinSepResult {
    /// All minimal `A,B`-separators found (subsets of `Ω ∖ {A, B}`).
    pub separators: Vec<AttrSet>,
    /// Number of candidate transversals tested (lines 9–13 of Fig. 5).
    pub transversals_tested: usize,
    /// `true` if a limit stopped the search before exhaustion.
    pub truncated: bool,
}

/// `ReduceMinSep` (Fig. 4): given a separator `start`, greedily removes
/// attributes in ascending index order while the remainder still separates
/// the pair, producing a *minimal* separator contained in `start`.
pub fn reduce_min_sep<O: EntropyOracle + ?Sized>(
    oracle: &O,
    epsilon: f64,
    start: AttrSet,
    pair: (usize, usize),
    limits: &MiningLimits,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> AttrSet {
    reduce_min_sep_in(
        &mut PairSearch::new(oracle, epsilon, pair, use_optimization),
        start,
        limits,
        ctl,
    )
}

/// [`reduce_min_sep`] probing through the pair's shared search context.
fn reduce_min_sep_in<O: EntropyOracle + ?Sized>(
    search: &mut PairSearch<'_, O>,
    start: AttrSet,
    limits: &MiningLimits,
    ctl: &RunControl<'_>,
) -> AttrSet {
    let _span = Span::enter(Stage::Reduce, ctl.stages());
    let mut current = start;
    for attr in start.iter() {
        let candidate = current.without(attr);
        if search.is_separator(candidate, limits.max_lattice_nodes, ctl) {
            current = candidate;
        }
    }
    current
}

/// `MineMinSeps` (Fig. 5): enumerates all minimal `A,B`-separators.
///
/// Returns an empty result when even the largest candidate `Ω ∖ {A,B}` does
/// not separate the pair (equivalently `I(A; B | Ω∖{A,B}) > ε`).
///
/// `ctl` carries cancellation/deadline plumbing: when it fires the search
/// stops at the next candidate and the separators found so far are returned
/// flagged `truncated` (pass [`RunControl::NONE`] to opt out).
pub fn mine_min_seps<O: EntropyOracle + ?Sized>(
    oracle: &O,
    epsilon: f64,
    pair: (usize, usize),
    limits: &MiningLimits,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> MinSepResult {
    mine_min_seps_in(&mut PairSearch::new(oracle, epsilon, pair, use_optimization), limits, ctl)
}

/// [`mine_min_seps`] probing through the pair's search context, which the
/// caller goes on to use for the full-MVD searches of the separators found.
pub(crate) fn mine_min_seps_in<O: EntropyOracle + ?Sized>(
    search: &mut PairSearch<'_, O>,
    limits: &MiningLimits,
    ctl: &RunControl<'_>,
) -> MinSepResult {
    let mut result = MinSepResult::default();
    let universe = search.oracle().all_attrs();
    let (a, b) = search.pair();
    if a == b || !universe.contains(a) || !universe.contains(b) {
        return result;
    }
    let ground = universe.without(a).without(b);
    let started = Instant::now();

    // Line 3: the largest candidate separator must work, otherwise none does.
    if !search.is_separator(ground, limits.max_lattice_nodes, ctl) {
        // A "no" forced by cancellation/deadline firing inside the check is
        // not a real "no separators exist" — flag it, so a cancelled run is
        // always distinguishable from an exhaustive one.
        result.truncated = ctl.should_stop();
        return result;
    }
    let first = reduce_min_sep_in(search, ground, limits, ctl);
    result.separators.push(first);

    let mut processed: HashSet<u64> = HashSet::new();
    loop {
        if let Some(max) = limits.max_separators_per_pair {
            if result.separators.len() >= max {
                result.truncated = true;
                break;
            }
        }
        if let Some(budget) = limits.time_budget {
            if started.elapsed() > budget {
                result.truncated = true;
                break;
            }
        }
        if ctl.should_stop() {
            result.truncated = true;
            break;
        }
        // Enumerate the minimal transversals of the current separator family
        // and pick one we have not processed yet.
        let transversals = {
            let _span = Span::enter(Stage::Transversal, ctl.stages());
            let edges: Vec<u64> = result.separators.iter().map(|s| s.bits()).collect();
            minimal_transversals(&edges, ground.bits())
        };
        let next = transversals.into_iter().find(|t| !processed.contains(t));
        let transversal = match next {
            Some(t) => t,
            None => break,
        };
        processed.insert(transversal);
        result.transversals_tested += 1;

        // Candidate region: the complement of the transversal within Ω∖{A,B}.
        let candidate = AttrSet::from_bits(ground.bits() & !transversal);
        if candidate.is_empty() {
            continue;
        }
        if search.is_separator(candidate, limits.max_lattice_nodes, ctl) {
            let minimal = reduce_min_sep_in(search, candidate, limits, ctl);
            if !result.separators.contains(&minimal) {
                result.separators.push(minimal);
            }
        }
    }
    result.separators.sort();
    result
}

/// Brute-force reference: enumerates every subset of `Ω ∖ {A,B}` and keeps the
/// minimal separators. Exponential; used only in tests to validate
/// [`mine_min_seps`].
pub fn minimal_separators_bruteforce<O: EntropyOracle + ?Sized>(
    oracle: &O,
    epsilon: f64,
    pair: (usize, usize),
    use_optimization: bool,
) -> Vec<AttrSet> {
    let universe = oracle.all_attrs();
    let ground = universe.without(pair.0).without(pair.1);
    let mut separators: Vec<AttrSet> = ground
        .subsets()
        .filter(|&s| {
            is_separator(oracle, s, epsilon, pair, None, use_optimization, &RunControl::NONE)
        })
        .collect();
    let all = separators.clone();
    separators.retain(|&s| !all.iter().any(|&t| t != s && t.is_subset_of(s)));
    separators.sort();
    separators
}

#[cfg(test)]
mod tests {
    use super::*;
    use entropy::NaiveEntropyOracle;
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

    #[test]
    fn reduce_min_sep_returns_subset_that_separates() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits::default();
        // Start from Ω \ {F, B} and reduce for the pair (F=5, B=1).
        let start = AttrSet::full(6).without(5).without(1);
        let minimal = reduce_min_sep(&o, 0.0, start, (5, 1), &limits, true, &RunControl::NONE);
        assert!(minimal.is_subset_of(start));
        assert!(is_separator(&o, minimal, 0.0, (5, 1), None, true, &RunControl::NONE));
        // Minimality: removing any attribute breaks separation.
        for attr in minimal.iter() {
            assert!(!is_separator(
                &o,
                minimal.without(attr),
                0.0,
                (5, 1),
                None,
                true,
                &RunControl::NONE
            ));
        }
    }

    #[test]
    fn mine_min_seps_matches_bruteforce_on_running_example() {
        let rel = running_example(false);
        let limits = MiningLimits::default();
        let pairs = [(5usize, 1usize), (2, 1), (4, 0), (0, 5), (2, 4)];
        for &pair in &pairs {
            let o1 = NaiveEntropyOracle::new(&rel);
            let mined = mine_min_seps(&o1, 0.0, pair, &limits, true, &RunControl::NONE);
            let o2 = NaiveEntropyOracle::new(&rel);
            let brute = minimal_separators_bruteforce(&o2, 0.0, pair, true);
            assert_eq!(mined.separators, brute, "pair {:?}", pair);
            assert!(!mined.truncated);
        }
    }

    #[test]
    fn mine_min_seps_matches_bruteforce_with_noise_and_epsilon() {
        let rel = running_example(true);
        let limits = MiningLimits::default();
        for epsilon in [0.0, 0.2, 0.5] {
            for &pair in &[(5usize, 1usize), (2, 4)] {
                let o1 = NaiveEntropyOracle::new(&rel);
                let mined = mine_min_seps(&o1, epsilon, pair, &limits, true, &RunControl::NONE);
                let o2 = NaiveEntropyOracle::new(&rel);
                let brute = minimal_separators_bruteforce(&o2, epsilon, pair, true);
                assert_eq!(mined.separators, brute, "ε={} pair {:?}", epsilon, pair);
            }
        }
    }

    #[test]
    fn no_separator_when_pair_is_dependent_even_given_everything() {
        // A and F are perfectly correlated in the running example, so *every*
        // candidate separates them... wait: I(A;F|X) = H(A|X) - H(A|XF) which
        // is 0 only if F determines A given X or they are independent. Since
        // F ↔ A exactly, I(A;F|Ω∖{A,F}) = 0 only if the rest determines A.
        // In the 4-tuple example ABD determines A, so the pair is separable.
        // Build a 2-tuple relation where A = F and nothing else varies: then
        // I(A;F|∅) = 1 > 0 and no separator exists.
        let schema = Schema::new(["A", "B", "F"]).unwrap();
        let rel = Relation::from_rows(schema, &[vec!["0", "x", "0"], vec!["1", "x", "1"]]).unwrap();
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits::default();
        let mined = mine_min_seps(&o, 0.0, (0, 2), &limits, true, &RunControl::NONE);
        assert!(mined.separators.is_empty());
        // With a large enough ε the pair becomes separable (J ≤ ε tolerates
        // the 1 bit of shared information).
        let mined = mine_min_seps(&o, 1.0, (0, 2), &limits, true, &RunControl::NONE);
        assert!(!mined.separators.is_empty());
    }

    #[test]
    fn invalid_pairs_yield_empty_results() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits::default();
        assert!(mine_min_seps(&o, 0.0, (1, 1), &limits, true, &RunControl::NONE)
            .separators
            .is_empty());
        assert!(mine_min_seps(&o, 0.0, (1, 60), &limits, true, &RunControl::NONE)
            .separators
            .is_empty());
    }

    #[test]
    fn cancelled_run_is_flagged_truncated_not_empty() {
        // A cancellation firing during the very first (ground) separator
        // check must not masquerade as "no separators exist": the empty
        // result carries truncated = true.
        use crate::progress::CancelToken;
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits::default();
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::new().with_cancel(token);
        let mined = mine_min_seps(&o, 0.0, (5, 1), &limits, true, &ctl);
        assert!(mined.separators.is_empty());
        assert!(mined.truncated);
        // Whereas a genuine "no separator" outcome stays untruncated.
        let schema = Schema::new(["A", "B", "F"]).unwrap();
        let rigid =
            Relation::from_rows(schema, &[vec!["0", "x", "0"], vec!["1", "x", "1"]]).unwrap();
        let o = NaiveEntropyOracle::new(&rigid);
        let mined = mine_min_seps(&o, 0.0, (0, 2), &limits, true, &RunControl::NONE);
        assert!(mined.separators.is_empty());
        assert!(!mined.truncated);
    }

    #[test]
    fn separator_limit_truncates() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits { max_separators_per_pair: Some(1), ..MiningLimits::default() };
        let mined = mine_min_seps(&o, 0.5, (2, 4), &limits, true, &RunControl::NONE);
        assert!(mined.separators.len() <= 1);
    }

    #[test]
    fn separators_exclude_the_pair_itself() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let limits = MiningLimits::default();
        let mined = mine_min_seps(&o, 0.0, (5, 1), &limits, true, &RunControl::NONE);
        for sep in &mined.separators {
            assert!(!sep.contains(5));
            assert!(!sep.contains(1));
        }
    }

    #[test]
    fn plain_and_optimized_find_the_same_separators() {
        let rel = running_example(true);
        let limits = MiningLimits::default();
        for &pair in &[(5usize, 1usize), (2, 4)] {
            let o1 = NaiveEntropyOracle::new(&rel);
            let with_opt = mine_min_seps(&o1, 0.3, pair, &limits, true, &RunControl::NONE);
            let o2 = NaiveEntropyOracle::new(&rel);
            let without_opt = mine_min_seps(&o2, 0.3, pair, &limits, false, &RunControl::NONE);
            assert_eq!(with_opt.separators, without_opt.separators);
        }
    }
}
