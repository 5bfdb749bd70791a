//! Discovering full ε-MVDs with a fixed key (`getFullMVDs`, §6.2).
//!
//! Given a key `S` and a pair of attributes `(A, B)` that must end up in
//! different dependents, the search starts from the most refined MVD
//! `S ↠ X₁ | X₂ | … | X_k` (every non-key attribute its own dependent) and
//! repeatedly merges two dependents. Merging can only decrease the J-measure
//! (Prop. 5.2), so the first nodes reached with `J ≤ ε` are the most refined
//! ε-MVDs reachable along that path — the *full* MVDs the rest of the system
//! needs.
//!
//! Two versions are provided, matching the paper:
//!
//! * with `use_optimization = false` the search is the plain DFS of Fig. 6;
//! * with `use_optimization = true` it is `getFullMVDsOpt` (appendix Fig. 17):
//!   before a node is expanded it is replaced by its *pairwise-consistent
//!   closure* (Fig. 16) — any two dependents with `I(Cᵢ; Cⱼ | S) > ε` are
//!   merged, because Eq. (7) shows no refinement keeping them apart can ever
//!   reach `J ≤ ε`.
//!
//! Both memoize visited dependent-partitions, which the pseudo-code leaves
//! implicit but which is required to avoid re-exploring the exponentially
//! many merge orders that lead to the same partition.
//!
//! # The closure is unique
//!
//! By the chain rule (Eq. 7), `I(Cᵢ ∪ X; Cⱼ ∪ Y | S) ≥ I(Cᵢ; Cⱼ | S)` for
//! any `X`, `Y` disjoint from the blocks: merging only raises the mutual
//! information between blocks. So once two blocks are inconsistent
//! (`I > ε`), every coarsening that keeps their supersets apart is
//! inconsistent too, and every pairwise-consistent coarsening must merge
//! them. By induction over the merges, each merge the closure makes is
//! forced: the closure of a partition is its *finest* pairwise-consistent
//! coarsening, the same whatever order the blocks are scanned in. That is
//! what lets [`PairSearch`] memoize it and compute it incrementally — after
//! a merge only the pairs involving the new block are re-checked — without
//! changing a single result.
//!
//! # One context per pair
//!
//! [`PairSearch`] is the search kernel for one attribute pair, ε and
//! setting of the optimization. It is plain owned state (no locks, nothing
//! shared between workers), so results and oracle counters are identical
//! for every thread count. It keeps three memos:
//!
//! * **closures**, keyed on the pre-closure partition: the closed
//!   partition, or "none" when the closure puts `A` and `B` together;
//! * **mutual information** `I(Cᵢ; Cⱼ | S)`, keyed on `(Cᵢ, Cⱼ)` with the
//!   two blocks in ascending order (the value is bitwise symmetric);
//! * **searches**, keyed on `(S, K, node limit)`: the full outcome of every
//!   search that ran to its end or to a count limit. A search that `ctl`
//!   cut short is never stored.
//!
//! The first two depend on `S` and hold one key's entries at a time, which
//! bounds them by the largest single search rather than by all the pair's
//! searches. Partitions are `PartitionKey`s: fixed-size, `Copy`, with no
//! allocation per lattice node. [`get_full_mvds`] and [`is_separator`] are
//! thin wrappers that use a fresh context.

use crate::measure::{j_partition, within_epsilon};
use crate::mvd::Mvd;
use crate::progress::RunControl;
use entropy::EntropyOracle;
use relation::AttrSet;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Outcome of a [`get_full_mvds`] search.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FullMvdSearch {
    /// The full ε-MVDs found (at most `K` when a limit was given).
    pub mvds: Vec<Mvd>,
    /// Number of lattice nodes whose J-measure was evaluated.
    pub nodes_explored: usize,
    /// `true` if the search stopped because of the node limit rather than
    /// exhausting the (pruned) lattice.
    pub truncated: bool,
}

/// A partition of a fixed attribute set (at most 64 attributes) as one
/// fixed-size value: bits `6i..6i + 6` hold the rank of attribute `i`'s
/// block among the blocks in ascending [`AttrSet`] order.
///
/// Blocks are disjoint, so ascending set order is ascending order of each
/// block's largest attribute; the labels depend only on the partition, never
/// on the order its blocks were listed in. Attributes outside the set read
/// as rank 0, so keys are only compared for partitions of the same set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PartitionKey([u64; 6]);

impl PartitionKey {
    /// The key of `blocks`, which must be disjoint and in ascending order.
    fn encode(blocks: &[AttrSet]) -> Self {
        let mut words = [0u64; 6];
        for (rank, block) in blocks.iter().enumerate() {
            for attr in block.iter() {
                let (word, offset) = (attr * 6 / 64, attr * 6 % 64);
                words[word] |= (rank as u64) << offset;
                if offset > 58 {
                    words[word + 1] |= (rank as u64) >> (64 - offset);
                }
            }
        }
        PartitionKey(words)
    }

    /// Writes the blocks of this partition of `attrs`, in ascending order,
    /// into `out`.
    fn decode(self, attrs: AttrSet, out: &mut Vec<AttrSet>) {
        out.clear();
        for attr in attrs.iter() {
            let (word, offset) = (attr * 6 / 64, attr * 6 % 64);
            let mut bits = self.0[word] >> offset;
            if offset > 58 {
                bits |= self.0[word + 1] << (64 - offset);
            }
            let rank = (bits & 63) as usize;
            if rank >= out.len() {
                out.resize(rank + 1, AttrSet::empty());
            }
            out[rank].insert(attr);
        }
    }
}

impl Hash for PartitionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Trailing all-zero words carry nothing (past the relation's arity
        // they always are); skipping them keeps `Hash` consistent with `Eq`.
        let used = self.0.iter().rposition(|&w| w != 0).map_or(0, |last| last + 1);
        for &word in &self.0[..used] {
            state.write_u64(word);
        }
    }
}

/// Multiply-rotate hasher for memo keys made of 64-bit words.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    /// The low bits of a product depend only on the low bits of its input,
    /// and the table picks buckets by low bits: rotate the well-mixed high
    /// bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type Memo<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The full-MVD search kernel for one attribute pair: answers
/// [`full_mvds`](Self::full_mvds) and [`is_separator`](Self::is_separator)
/// for any key, doing each closure, mutual-information value and search at
/// most once (see the module docs for what each memo is keyed on).
///
/// One context serves every search of one pair in a mining run; it is cheap
/// to create (nothing is allocated until the first search) and holds no
/// locks.
pub struct PairSearch<'o, O: EntropyOracle + ?Sized> {
    oracle: &'o O,
    epsilon: f64,
    pair: (usize, usize),
    use_optimization: bool,
    /// The key the two key-dependent memos below are for.
    memo_key: AttrSet,
    mi: Memo<(AttrSet, AttrSet), f64>,
    closures: Memo<PartitionKey, Option<PartitionKey>>,
    searches: Memo<(AttrSet, Option<usize>, Option<usize>), FullMvdSearch>,
    // Scratch reused across searches.
    visited: HashSet<PartitionKey, BuildHasherDefault<WordHasher>>,
    stack: Vec<PartitionKey>,
    blocks: Vec<AttrSet>,
    merged: Vec<AttrSet>,
    closing: Vec<AttrSet>,
}

impl<'o, O: EntropyOracle + ?Sized> PairSearch<'o, O> {
    /// A context for full ε-MVDs separating `pair.0` from `pair.1`, with or
    /// without the pairwise-consistency pruning of Fig. 17.
    pub fn new(oracle: &'o O, epsilon: f64, pair: (usize, usize), use_optimization: bool) -> Self {
        PairSearch {
            oracle,
            epsilon,
            pair,
            use_optimization,
            memo_key: AttrSet::empty(),
            mi: Memo::default(),
            closures: Memo::default(),
            searches: Memo::default(),
            visited: HashSet::default(),
            stack: Vec::new(),
            blocks: Vec::new(),
            merged: Vec::new(),
            closing: Vec::new(),
        }
    }

    /// The oracle the context queries.
    pub(crate) fn oracle(&self) -> &'o O {
        self.oracle
    }

    /// The attribute pair the context separates.
    pub(crate) fn pair(&self) -> (usize, usize) {
        self.pair
    }

    /// Mines full ε-MVDs with key `key` in which the pair falls in distinct
    /// dependents. The arguments mean what they mean for
    /// [`get_full_mvds`]; a repeated call is answered from the context
    /// unless its first run was cut short by `ctl`.
    pub fn full_mvds(
        &mut self,
        key: AttrSet,
        limit: Option<usize>,
        node_limit: Option<usize>,
        ctl: &RunControl<'_>,
    ) -> FullMvdSearch {
        let key = key.intersect(self.oracle.all_attrs());
        let memo_key = (key, limit, node_limit);
        if let Some(done) = self.searches.get(&memo_key) {
            return done.clone();
        }
        let (result, cut) = self.search(key, limit, node_limit, ctl);
        if !cut {
            self.searches.insert(memo_key, result.clone());
        }
        result
    }

    /// Is `key` an ε-separator of the pair? See [`is_separator`].
    pub fn is_separator(
        &mut self,
        key: AttrSet,
        node_limit: Option<usize>,
        ctl: &RunControl<'_>,
    ) -> bool {
        let universe = self.oracle.all_attrs();
        let key = key.intersect(universe);
        let (a, b) = self.pair;
        if key.contains(a)
            || key.contains(b)
            || a == b
            || !universe.contains(a)
            || !universe.contains(b)
        {
            return false;
        }
        let quick = self.mutual_information(key, AttrSet::singleton(a), AttrSet::singleton(b));
        if !within_epsilon(quick, self.epsilon) {
            return false;
        }
        !self.full_mvds(key, Some(1), node_limit, ctl).mvds.is_empty()
    }

    /// Points the key-dependent memos at `key`, dropping another key's
    /// entries. Holding one key at a time bounds them by the largest single
    /// search rather than by the pair's total.
    fn focus(&mut self, key: AttrSet) {
        if key != self.memo_key {
            self.mi.clear();
            self.closures.clear();
            self.memo_key = key;
        }
    }

    /// `I(x; y | key)`, memoized with the blocks in ascending order.
    fn mutual_information(&mut self, key: AttrSet, x: AttrSet, y: AttrSet) -> f64 {
        self.focus(key);
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        let oracle = self.oracle;
        *self.mi.entry((lo, hi)).or_insert_with(|| oracle.mutual_information(lo, hi, key))
    }

    /// The memoized closure of `pre`, a partition of the attributes outside
    /// `key`.
    fn closure_of(&mut self, key: AttrSet, pre: PartitionKey) -> Option<PartitionKey> {
        self.focus(key);
        if let Some(&closed) = self.closures.get(&pre) {
            return closed;
        }
        let mut blocks = std::mem::take(&mut self.closing);
        pre.decode(self.oracle.all_attrs().difference(key), &mut blocks);
        let closed = self.close(key, &mut blocks).then(|| {
            blocks.sort_unstable();
            PartitionKey::encode(&blocks)
        });
        self.closing = blocks;
        self.closures.insert(pre, closed);
        closed
    }

    /// Merges inconsistent blocks of `blocks` in place until it is pairwise
    /// consistent; `false` as soon as the pair shares a block.
    ///
    /// `blocks[..done]` is always pairwise consistent. The next block is
    /// checked against that prefix only; when it must merge with a prefix
    /// block, the grown block is re-checked against the rest of the prefix,
    /// whose other pairs are unchanged and stay consistent.
    fn close(&mut self, key: AttrSet, blocks: &mut Vec<AttrSet>) -> bool {
        let (a, b) = self.pair;
        let together = |block: AttrSet| block.contains(a) && block.contains(b);
        if blocks.iter().any(|&block| together(block)) {
            return false;
        }
        let mut done = 0;
        while done < blocks.len() {
            let mut grown = blocks[done];
            let mut i = 0;
            while i < done {
                let mi = self.mutual_information(key, grown, blocks[i]);
                if within_epsilon(mi, self.epsilon) {
                    i += 1;
                    continue;
                }
                grown = grown.union(blocks.remove(i));
                if together(grown) {
                    return false;
                }
                done -= 1;
                i = 0;
            }
            blocks[done] = grown;
            done += 1;
        }
        true
    }

    /// One uncached search; the flag is `true` when `ctl` cut it short.
    fn search(
        &mut self,
        key: AttrSet,
        limit: Option<usize>,
        node_limit: Option<usize>,
        ctl: &RunControl<'_>,
    ) -> (FullMvdSearch, bool) {
        let mut result = FullMvdSearch::default();
        let (a, b) = self.pair;
        let rest = self.oracle.all_attrs().difference(key);
        if !rest.contains(a) || !rest.contains(b) || a == b {
            return (result, false);
        }

        self.focus(key);
        // ϕ₀ = key ↠ X₁ | … | X_k with singleton dependents (ascending).
        let mut blocks = std::mem::take(&mut self.blocks);
        let mut merged = std::mem::take(&mut self.merged);
        blocks.clear();
        blocks.extend(rest.iter().map(AttrSet::singleton));
        let initial = PartitionKey::encode(&blocks);
        let start =
            if self.use_optimization { self.closure_of(key, initial) } else { Some(initial) };

        self.stack.clear();
        self.visited.clear();
        if let Some(start) = start {
            self.stack.push(start);
            self.visited.insert(start);
        }
        let mut cut = false;
        while let Some(node) = self.stack.pop() {
            if limit.is_some_and(|k| result.mvds.len() >= k) {
                break;
            }
            if node_limit.is_some_and(|max| result.nodes_explored >= max) {
                result.truncated = true;
                break;
            }
            if ctl.should_stop() {
                result.truncated = true;
                cut = true;
                break;
            }
            result.nodes_explored += 1;
            node.decode(rest, &mut blocks);
            let j = j_partition(self.oracle, key, &blocks);
            if within_epsilon(j, self.epsilon) {
                if let Ok(mvd) = Mvd::new(key, blocks.clone()) {
                    result.mvds.push(mvd);
                }
                continue;
            }
            // Expand neighbors: merge any two blocks, except the block
            // containing `a` with the block containing `b` (they must stay
            // separated).
            let (Some(ia), Some(ib)) = (
                blocks.iter().position(|c| c.contains(a)),
                blocks.iter().position(|c| c.contains(b)),
            ) else {
                continue;
            };
            for i in 0..blocks.len() {
                for j in i + 1..blocks.len() {
                    if (i == ia && j == ib) || (i == ib && j == ia) {
                        continue;
                    }
                    let union = blocks[i].union(blocks[j]);
                    merged.clear();
                    merged.extend(
                        blocks
                            .iter()
                            .enumerate()
                            .filter(|&(k, _)| k != i && k != j)
                            .map(|(_, &c)| c),
                    );
                    merged.insert(merged.partition_point(|&c| c < union), union);
                    let pre = PartitionKey::encode(&merged);
                    let next = if self.use_optimization {
                        match self.closure_of(key, pre) {
                            Some(next) => next,
                            None => continue,
                        }
                    } else {
                        pre
                    };
                    if self.visited.insert(next) {
                        self.stack.push(next);
                    }
                }
            }
        }
        self.blocks = blocks;
        self.merged = merged;

        // Keep only the *full* MVDs: drop any result strictly refined by
        // another result. Together with the completeness of the traversal
        // (every full ε-MVD with this key separating the pair is reached),
        // this makes the output exactly `FullMVD_ε(R, key, A, B)` when no
        // limit truncated the search.
        let kept: Vec<Mvd> = result
            .mvds
            .iter()
            .filter(|phi| !result.mvds.iter().any(|psi| psi != *phi && psi.strictly_refines(phi)))
            .cloned()
            .collect();
        result.mvds = kept;
        result.mvds.sort();
        result.mvds.dedup();
        (result, cut)
    }
}

/// Mines full ε-MVDs with key `key` in which `pair.0` and `pair.1` fall in
/// distinct dependents.
///
/// * `limit` (`K` in the paper) caps the number of MVDs returned; `None`
///   returns every full MVD found.
/// * `node_limit` caps the number of lattice nodes evaluated; when hit the
///   result is marked `truncated`.
/// * `use_optimization` toggles the pairwise-consistency pruning (Fig. 17).
/// * `ctl` carries cancellation and deadline plumbing: when it fires
///   mid-search the traversal stops at the next lattice node and the partial
///   result is returned flagged `truncated` — the same contract as the node
///   limit, never an error (pass [`RunControl::NONE`] to opt out).
///
/// Runs in a fresh [`PairSearch`]; callers issuing many searches for one
/// pair should share one context instead.
pub fn get_full_mvds<O: EntropyOracle + ?Sized>(
    oracle: &O,
    key: AttrSet,
    epsilon: f64,
    pair: (usize, usize),
    limit: Option<usize>,
    node_limit: Option<usize>,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> FullMvdSearch {
    PairSearch::new(oracle, epsilon, pair, use_optimization).full_mvds(key, limit, node_limit, ctl)
}

/// Convenience wrapper answering "is `key` an ε-separator of `pair`?" —
/// i.e. does at least one ε-MVD with this key separate the pair (Def. 5.5)?
/// Implemented as `getFullMVDs(key, ε, pair, K = 1)` preceded by the cheap
/// necessary condition `I(A; B | key) ≤ ε` from Prop. 5.1, in a fresh
/// [`PairSearch`].
pub fn is_separator<O: EntropyOracle + ?Sized>(
    oracle: &O,
    key: AttrSet,
    epsilon: f64,
    pair: (usize, usize),
    node_limit: Option<usize>,
    use_optimization: bool,
    ctl: &RunControl<'_>,
) -> bool {
    PairSearch::new(oracle, epsilon, pair, use_optimization).is_separator(key, node_limit, ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{is_full_mvd, j_mvd, mvd_holds};
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

    fn attrs(v: &[usize]) -> AttrSet {
        v.iter().copied().collect()
    }

    #[test]
    fn partition_keys_round_trip_over_64_attributes() {
        // Ranks up to 63, and labels that straddle two words (attributes
        // 10, 21, 32, 42 and 53 start at bit offsets 60 or 62).
        let all = AttrSet::full(64);
        let singletons: Vec<AttrSet> = all.iter().map(AttrSet::singleton).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut partitions = vec![singletons, vec![all]];
        for blocks in [2, 7, 33, 63] {
            let mut parts = vec![AttrSet::empty(); blocks];
            for attr in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let block = if attr < blocks { attr } else { (state % blocks as u64) as usize };
                parts[block].insert(attr);
            }
            parts.sort();
            partitions.push(parts);
        }
        let mut decoded = Vec::new();
        let mut keys = HashSet::new();
        for blocks in &partitions {
            let key = PartitionKey::encode(blocks);
            key.decode(all, &mut decoded);
            assert_eq!(&decoded, blocks);
            assert!(keys.insert(key), "distinct partitions of one set get distinct keys");
        }
    }

    #[test]
    fn finds_exact_full_mvd_for_key_a() {
        // In the running example A ↠ F | BCDE holds exactly; key A separates
        // F (attr 5) from B (attr 1).
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        for opt in [false, true] {
            let found =
                get_full_mvds(&o, attrs(&[0]), 0.0, (5, 1), None, None, opt, &RunControl::NONE);
            assert!(!found.mvds.is_empty(), "opt={}", opt);
            for mvd in &found.mvds {
                assert!(mvd_holds(&o, mvd, 0.0));
                assert!(mvd.separates(5, 1));
                assert_eq!(mvd.key(), attrs(&[0]));
            }
        }
    }

    #[test]
    fn plain_and_optimized_agree_on_found_mvds() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        for epsilon in [0.0, 0.25, 0.5, 1.0] {
            for (key, pair) in [
                (attrs(&[0]), (5usize, 1usize)),
                (attrs(&[0, 3]), (2, 1)),
                (attrs(&[1, 3]), (4, 0)),
            ] {
                let plain =
                    get_full_mvds(&o, key, epsilon, pair, None, None, false, &RunControl::NONE);
                let optimized =
                    get_full_mvds(&o, key, epsilon, pair, None, None, true, &RunControl::NONE);
                let mut a = plain.mvds.clone();
                let mut b = optimized.mvds.clone();
                a.sort();
                a.dedup();
                b.sort();
                b.dedup();
                assert_eq!(a, b, "ε={} key={:?} pair={:?}", epsilon, key, pair);
            }
        }
    }

    #[test]
    fn optimization_explores_no_more_nodes() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let plain =
            get_full_mvds(&o, attrs(&[0]), 0.1, (5, 1), None, None, false, &RunControl::NONE);
        let optimized =
            get_full_mvds(&o, attrs(&[0]), 0.1, (5, 1), None, None, true, &RunControl::NONE);
        assert!(optimized.nodes_explored <= plain.nodes_explored);
    }

    #[test]
    fn results_are_full_mvds() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        for epsilon in [0.0, 0.3, 0.7] {
            let found = get_full_mvds(
                &o,
                attrs(&[0]),
                epsilon,
                (5, 1),
                None,
                None,
                true,
                &RunControl::NONE,
            );
            for mvd in &found.mvds {
                assert!(
                    is_full_mvd(&o, mvd, epsilon),
                    "ε={}: {:?} (J={}) is not full",
                    epsilon,
                    mvd,
                    j_mvd(&o, mvd)
                );
            }
        }
    }

    #[test]
    fn limit_k_caps_output() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let found =
            get_full_mvds(&o, attrs(&[0]), 2.0, (5, 1), Some(1), None, false, &RunControl::NONE);
        assert_eq!(found.mvds.len(), 1);
    }

    #[test]
    fn node_limit_truncates() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let found =
            get_full_mvds(&o, attrs(&[0]), 0.0, (5, 1), None, Some(1), false, &RunControl::NONE);
        assert!(found.truncated || found.nodes_explored <= 1);
    }

    #[test]
    fn invalid_pairs_return_empty() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        // Pair attribute inside the key.
        let found =
            get_full_mvds(&o, attrs(&[0]), 0.0, (0, 1), None, None, true, &RunControl::NONE);
        assert!(found.mvds.is_empty());
        // Identical pair.
        let found =
            get_full_mvds(&o, attrs(&[0]), 0.0, (1, 1), None, None, true, &RunControl::NONE);
        assert!(found.mvds.is_empty());
        // Pair out of range.
        let found =
            get_full_mvds(&o, attrs(&[0]), 0.0, (1, 60), None, None, true, &RunControl::NONE);
        assert!(found.mvds.is_empty());
    }

    #[test]
    fn two_tuple_example_with_epsilon_one() {
        // §5.2's example: with ε = 1 and key X, the three coarse MVDs hold but
        // the fully refined one does not. Mining with pair (A, B) must return
        // full MVDs separating A and B with J ≤ 1.
        let schema = Schema::new(["X", "A", "B", "C"]).unwrap();
        let rel =
            Relation::from_rows(schema, &[vec!["0", "0", "0", "0"], vec!["0", "1", "1", "1"]])
                .unwrap();
        let o = NaiveEntropyOracle::new(&rel);
        let found =
            get_full_mvds(&o, attrs(&[0]), 1.0, (1, 2), None, None, true, &RunControl::NONE);
        assert!(!found.mvds.is_empty());
        for mvd in &found.mvds {
            assert!(mvd.separates(1, 2));
            assert!(mvd_holds(&o, mvd, 1.0));
            // None of them can be the fully refined X ↠ A|B|C (J = 2 > 1).
            assert!(mvd.arity() == 2);
        }
    }

    #[test]
    fn separator_check_matches_definition() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        // A is a separator of (F, B): A ↠ F | BCDE holds.
        assert!(is_separator(&o, attrs(&[0]), 0.0, (5, 1), None, true, &RunControl::NONE));
        // B is not a separator of (A, F) at ε = 0 (F depends on A, not B).
        assert!(!is_separator(&o, attrs(&[1]), 0.0, (0, 5), None, true, &RunControl::NONE));
        // A set containing one of the pair attributes is never a separator.
        assert!(!is_separator(&o, attrs(&[0, 5]), 0.0, (5, 1), None, true, &RunControl::NONE));
        // The empty key can be a separator when the pair is independent;
        // here A and F are perfectly correlated so it is not.
        assert!(!is_separator(&o, AttrSet::empty(), 0.0, (0, 5), None, true, &RunControl::NONE));
    }

    #[test]
    fn empty_key_separator_on_independent_attributes() {
        // Build a relation where A and B are independent: the empty set
        // separates them (MVD ∅ ↠ A | B ... holds).
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            &[vec!["0", "0"], vec!["0", "1"], vec!["1", "0"], vec!["1", "1"]],
        )
        .unwrap();
        let o = NaiveEntropyOracle::new(&rel);
        assert!(is_separator(&o, AttrSet::empty(), 0.0, (0, 1), None, true, &RunControl::NONE));
    }
}
