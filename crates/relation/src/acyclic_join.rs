//! Counting the size of an acyclic join without materializing it.
//!
//! The paper's quality metric `E` (§8.1, §8.2) is the fraction of *spurious*
//! tuples produced when a relation is decomposed into an acyclic schema and
//! then re-joined: `E = (|⋈ᵢ R[Ωᵢ]| − |R|) / |R|`. On dense datasets such as
//! Nursery the re-join can be orders of magnitude larger than the input (the
//! paper reports E = 400 % for the fully decomposed schema), so we never
//! materialize it. Instead we exploit acyclicity: rooting the join tree and
//! passing count messages from the leaves to the root (the counting variant
//! of Yannakakis' algorithm) yields the exact join cardinality in time
//! polynomial in the size of the projections.
//!
//! A quality pass measures thousands of schemas whose bags and separators
//! repeat a few hundred attribute sets. [`JoinCounter`] therefore labels each
//! projection once — a dense group id per row — and answers every
//! `distinct_count` and join size of the pass from those labels, with plain
//! arrays instead of hash tables in the counting pass.

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::keyer::Keyer;
use crate::relation::Relation;
use std::collections::HashMap;

/// A rooted join-tree specification: one bag of attributes per node and one
/// `(child, parent)`-agnostic undirected edge per link. The structure must be
/// a tree (connected, `bags.len() - 1` edges) whose bags satisfy the running
/// intersection property for the count to equal the true join size; the
/// validation here checks the tree-ness, while the running intersection
/// property is guaranteed by construction in `maimon::join_tree`.
#[derive(Clone, Debug)]
pub struct JoinTreeSpec {
    /// Attribute set of each node.
    pub bags: Vec<AttrSet>,
    /// Undirected edges between node indices.
    pub edges: Vec<(usize, usize)>,
}

impl JoinTreeSpec {
    /// Creates a spec and validates that it forms a tree over its nodes.
    ///
    /// # Errors
    /// Returns an error if there are no bags, an edge index is out of range,
    /// the edge count is not `bags.len() - 1`, or the edges do not connect all
    /// nodes.
    pub fn new(bags: Vec<AttrSet>, edges: Vec<(usize, usize)>) -> Result<Self, RelationError> {
        if bags.is_empty() {
            return Err(RelationError::InvalidJoinTree("no bags".into()));
        }
        if edges.len() + 1 != bags.len() {
            return Err(RelationError::InvalidJoinTree(format!(
                "{} bags require {} edges, got {}",
                bags.len(),
                bags.len() - 1,
                edges.len()
            )));
        }
        for &(u, v) in &edges {
            if u >= bags.len() || v >= bags.len() || u == v {
                return Err(RelationError::InvalidJoinTree(format!(
                    "edge ({}, {}) out of range for {} bags",
                    u,
                    v,
                    bags.len()
                )));
            }
        }
        let spec = JoinTreeSpec { bags, edges };
        if !spec.is_connected() {
            return Err(RelationError::InvalidJoinTree(
                "edges do not form a connected tree".into(),
            ));
        }
        Ok(spec)
    }

    /// Union of all bags.
    pub fn all_attrs(&self) -> AttrSet {
        self.bags.iter().fold(AttrSet::empty(), |acc, &b| acc.union(b))
    }

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.bags.len()];
        for &(u, v) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    fn is_connected(&self) -> bool {
        let adj = self.adjacency();
        let mut visited = vec![false; self.bags.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.bags.len()
    }
}

/// Bytes of group labels a [`JoinCounter`] keeps between calls. The budget
/// is per counter, so a quality pass over several workers holds one budget
/// per worker. On the 1,775-row deduplicated Abalone stand-in an unbounded
/// memo grows to about 3.7 MiB (316 attribute sets) over the 10,000-schema
/// ε = 0.1 pass; 512 KiB of recently used labels measures the same pass in
/// 1.1–1.7 times the unbounded time and a quarter of the time of a memo
/// that keeps only each schema's own labels (release build, 2-core x86-64).
/// On relations too large for it, the memo turns over every schema.
pub const LABEL_MEMO_BUDGET_BYTES: usize = 1 << 19;

/// The projection `R[X]` as a dense group id per row, in one buffer whose
/// capacity of `2n` words fits the labelling of any attribute set, so an
/// evicted labelling's buffer is reused as it is.
struct Labeling {
    /// `n` labels (`words[r]` is the group of row `r`; groups are numbered
    /// in order of first appearance), then one representative per group
    /// (`words[n + g]` is the first row of group `g`).
    words: Vec<u32>,
    /// The counter's clock at the last call that used these labels.
    last_use: u64,
}

impl Labeling {
    fn with_rows(n: usize) -> Self {
        Labeling { words: Vec::with_capacity(2 * n), last_use: 0 }
    }

    fn labels(&self, n: usize) -> &[u32] {
        &self.words[..n]
    }

    fn reps(&self, n: usize) -> &[u32] {
        &self.words[n..]
    }

    /// `|R[X]|`.
    fn groups(&self, n: usize) -> usize {
        self.words.len() - n
    }

    /// The bytes of labels and representatives this labelling holds.
    fn bytes(&self) -> usize {
        4 * self.words.len()
    }
}

/// The per-call working buffers of [`JoinCounter::join_size`], kept between
/// calls.
#[derive(Default)]
struct TreeScratch {
    /// Parent of each node when the tree is rooted at node 0.
    parent: Vec<usize>,
    /// The nodes in pre-order from the root.
    order: Vec<usize>,
    stack: Vec<usize>,
    visited: Vec<bool>,
    /// Each node's separator with its parent; empty at the root.
    seps: Vec<AttrSet>,
    /// Every non-empty bag and separator of the call.
    working_set: Vec<AttrSet>,
    /// Join counts per group of every node, node after node.
    counts: Vec<u128>,
    /// Where each node's groups start in `counts`.
    offsets: Vec<usize>,
    /// Summed child counts per separator group of one edge.
    message: Vec<u128>,
}

/// Distinct counts and acyclic join sizes over one relation, sharing the
/// group labels of every attribute set it has seen.
///
/// Each attribute set `X` is labelled once: a dense group id per row plus a
/// representative row per group. `distinct_count(X)` is then the group
/// count, and [`JoinCounter::join_size`] runs Yannakakis count propagation
/// over arrays indexed by group id — each child group reaches its separator
/// label through its representative row, with no hashing. The labels come
/// from one reused [`Keyer`], so they are exact for any width of `X`.
///
/// The memo is bounded by [`LABEL_MEMO_BUDGET_BYTES`]: a new labelling that
/// would push it past the budget first evicts the least recently used
/// labellings the current call does not need. One call's own labels are
/// always admitted, so a relation too large for the budget is measured
/// correctly at the cost of relabelling per schema.
///
/// Construction reserves label buffers up to the budget and the keyer's
/// maps; an evicted labelling's buffer takes the next labelling, and every
/// per-call buffer is kept for the next call. Once the memo and those
/// buffers have reached their working size a counter no longer allocates,
/// so a counter built and dropped on one thread keeps its label memory with
/// that thread's allocator while another thread measures with it.
pub struct JoinCounter<'a> {
    rel: &'a Relation,
    memo: HashMap<AttrSet, Labeling>,
    memo_bytes: usize,
    budget_bytes: usize,
    /// Bumped once per call, to find the least recently used labels.
    clock: u64,
    /// The buffer the next labelling is written into.
    fresh: Labeling,
    /// Buffers of evicted (or reserved) labellings, reused before allocating.
    spare: Vec<Labeling>,
    /// Labels the rows of one attribute set at a time.
    keyer: Keyer,
    /// Memo entries by last use, oldest first, while evicting.
    victims: Vec<(u64, AttrSet)>,
    scratch: TreeScratch,
}

impl<'a> JoinCounter<'a> {
    /// A counter over `rel` with the default memo budget.
    pub fn new(rel: &'a Relation) -> Self {
        Self::with_memo_budget(rel, LABEL_MEMO_BUDGET_BYTES)
    }

    /// A counter whose memo holds at most `budget_bytes` of labels beyond
    /// the working set of the current call, with label buffers reserved up
    /// to that budget. A one-shot count needs no budget; tests use a tiny
    /// one to force relabelling before every schema.
    pub fn with_memo_budget(rel: &'a Relation, budget_bytes: usize) -> Self {
        let n = rel.n_rows();
        // A labelling holds 4n to 8n bytes in an 8n-byte buffer, and there
        // are no more attribute sets to label than non-empty subsets of the
        // signature. One call adds at most 2·arity sets past the budget.
        let sets = 1usize.checked_shl(rel.arity() as u32).map_or(usize::MAX, |s| s - 1);
        let fit = |bytes: usize| if n == 0 { 0 } else { (budget_bytes / bytes).min(sets) };
        JoinCounter {
            rel,
            memo: HashMap::with_capacity(fit(4 * (n + 1)) + 2 * rel.arity()),
            memo_bytes: 0,
            budget_bytes,
            clock: 0,
            fresh: Labeling::with_rows(n),
            spare: (0..fit(8 * n)).map(|_| Labeling::with_rows(n)).collect(),
            // Sized by the whole signature, the keyer has the rounds and
            // factors of any attribute set, each round with room for n rows.
            keyer: Keyer::with_capacity((0..rel.arity()).map(|c| rel.column_cardinality(c)), n),
            victims: Vec::new(),
            scratch: TreeScratch::default(),
        }
    }

    /// The relation this counter measures.
    pub fn relation(&self) -> &'a Relation {
        self.rel
    }

    /// Number of distinct tuples in `R[attrs]`; equal to
    /// [`Relation::distinct_count`].
    ///
    /// # Errors
    /// Returns an error if `attrs` is empty or out of range.
    pub fn distinct_count(&mut self, attrs: AttrSet) -> Result<usize, RelationError> {
        self.check_attrs(attrs)?;
        self.admit(&[attrs]);
        Ok(self.memo[&attrs].groups(self.rel.n_rows()))
    }

    /// Computes `|R[Ω₁] ⋈ … ⋈ R[Ω_m]|` for the bags of `spec` by bottom-up
    /// count propagation over the join tree.
    ///
    /// # Errors
    /// Returns an error if any bag is empty or out of range for the relation.
    pub fn join_size(&mut self, spec: &JoinTreeSpec) -> Result<u128, RelationError> {
        for &bag in &spec.bags {
            self.check_attrs(bag)?;
        }
        if self.rel.n_rows() == 0 {
            return Ok(0);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        root_tree(spec, &mut scratch);
        let TreeScratch { parent, order, seps, working_set, counts, offsets, message, .. } =
            &mut scratch;
        seps.clear();
        seps.extend((0..spec.bags.len()).map(|u| match u {
            0 => AttrSet::empty(),
            _ => spec.bags[u].intersect(spec.bags[parent[u]]),
        }));
        working_set.clear();
        working_set.extend(spec.bags.iter().chain(seps.iter()).filter(|a| !a.is_empty()));
        self.admit(working_set);

        let (memo, n) = (&self.memo, self.rel.n_rows());
        counts.clear();
        offsets.clear();
        for bag in &spec.bags {
            offsets.push(counts.len());
            counts.resize(counts.len() + memo[bag].groups(n), 1);
        }
        // Children before parents: reverse pre-order works for trees.
        for &u in order.iter().rev().filter(|&&u| u != 0) {
            let p = parent[u];
            // Each group reaches its separator label through its
            // representative row; an empty separator is one group.
            let sep = memo.get(&seps[u]);
            let sep_labels = sep.map(|l| l.labels(n));
            let sep_label = |r: u32| sep_labels.map_or(0, |l| l[r as usize] as usize);
            message.clear();
            message.resize(sep.map_or(1, |l| l.groups(n)), 0);
            for (g, &r) in memo[&spec.bags[u]].reps(n).iter().enumerate() {
                message[sep_label(r)] += counts[offsets[u] + g];
            }
            // Parent groups with no matching child group drop to zero.
            for (h, &r) in memo[&spec.bags[p]].reps(n).iter().enumerate() {
                let count = &mut counts[offsets[p] + h];
                *count = count.saturating_mul(message[sep_label(r)]);
            }
        }
        let size = counts[..memo[&spec.bags[0]].groups(n)].iter().sum();
        self.scratch = scratch;
        Ok(size)
    }

    fn check_attrs(&self, attrs: AttrSet) -> Result<(), RelationError> {
        if attrs.is_empty() || !attrs.is_subset_of(self.rel.schema().all_attrs()) {
            return Err(RelationError::AttributeOutOfRange { attrs, arity: self.rel.arity() });
        }
        Ok(())
    }

    /// Labels `R[attrs]` into the fresh buffer as a [`Labeling`] lays them
    /// out; a row whose label is new is its group's representative.
    fn label(&mut self, attrs: AttrSet) {
        let mut columns: [&[u32]; AttrSet::MAX_ATTRS] = [&[]; AttrSet::MAX_ATTRS];
        for (slot, c) in columns.iter_mut().zip(attrs.iter()) {
            *slot = self.rel.column_codes(c);
        }
        self.keyer.reset(attrs.iter().map(|c| self.rel.column_cardinality(c)));
        let n = self.rel.n_rows();
        let words = &mut self.fresh.words;
        words.clear();
        self.keyer.extend_labels(&columns[..attrs.len()], n, words);
        let mut next = 0;
        for r in 0..n {
            if words[r] == next {
                words.push(r as u32);
                next += 1;
            }
        }
    }

    /// Labels every set of `working_set` not yet in the memo and marks all
    /// of them used. A new labelling that would overflow the budget first
    /// evicts labellings outside `working_set`, least recently used first;
    /// their buffers take the next labellings.
    fn admit(&mut self, working_set: &[AttrSet]) {
        self.clock += 1;
        for &attrs in working_set {
            if let Some(hit) = self.memo.get_mut(&attrs) {
                hit.last_use = self.clock;
                continue;
            }
            self.label(attrs);
            self.fresh.last_use = self.clock;
            let bytes = self.fresh.bytes();
            if self.memo_bytes + bytes > self.budget_bytes {
                self.victims.clear();
                self.victims.extend(
                    self.memo
                        .iter()
                        .filter(|(kept, _)| !working_set.contains(kept))
                        .map(|(&kept, l)| (l.last_use, kept)),
                );
                self.victims.sort_unstable();
                for &(_, victim) in &self.victims {
                    if self.memo_bytes + bytes <= self.budget_bytes {
                        break;
                    }
                    if let Some(evicted) = self.memo.remove(&victim) {
                        self.memo_bytes -= evicted.bytes();
                        self.spare.push(evicted);
                    }
                }
            }
            let next = self.spare.pop().unwrap_or_else(|| Labeling::with_rows(self.rel.n_rows()));
            self.memo_bytes += bytes;
            self.memo.insert(attrs, std::mem::replace(&mut self.fresh, next));
        }
    }
}

/// Roots the tree at node 0, filling `parent` and the pre-order `order`.
/// Neighbours are visited in edge order.
fn root_tree(spec: &JoinTreeSpec, scratch: &mut TreeScratch) {
    let n = spec.bags.len();
    let TreeScratch { parent, order, stack, visited, .. } = scratch;
    parent.clear();
    parent.resize(n, usize::MAX);
    visited.clear();
    visited.resize(n, false);
    order.clear();
    stack.clear();
    stack.push(0);
    visited[0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &(a, b) in &spec.edges {
            let v = match (a == u, b == u) {
                (true, _) => b,
                (_, true) => a,
                _ => continue,
            };
            if !visited[v] {
                visited[v] = true;
                parent[v] = u;
                stack.push(v);
            }
        }
    }
}

/// Computes `|R[Ω₁] ⋈ … ⋈ R[Ω_m]|` for the bags of `spec` with a one-shot
/// [`JoinCounter`]; a pass over many schemas should share one counter.
///
/// # Errors
/// Returns an error if any bag is empty or out of range for the relation.
pub fn acyclic_join_size(rel: &Relation, spec: &JoinTreeSpec) -> Result<u128, RelationError> {
    one_shot(rel).join_size(spec)
}

/// A counter for a few calls: with no memo budget it keeps only each call's
/// own labels and reserves no buffers up front.
fn one_shot(rel: &Relation) -> JoinCounter<'_> {
    JoinCounter::with_memo_budget(rel, 0)
}

/// Number of spurious tuples introduced by decomposing `rel` according to
/// `spec`: `|⋈ᵢ R[Ωᵢ]| − |distinct(R)|`. Always non-negative when the bags
/// cover the schema (the join of projections is a superset of the relation).
///
/// # Errors
/// Returns an error if the join-size computation fails.
pub fn spurious_tuple_count(rel: &Relation, spec: &JoinTreeSpec) -> Result<u128, RelationError> {
    let mut counter = one_shot(rel);
    let original = counter.distinct_count(rel.schema().all_attrs())? as u128;
    Ok(counter.join_size(spec)?.saturating_sub(original))
}

/// `true` if the relation exactly satisfies the acyclic join dependency given
/// by `spec` (no spurious tuples and no lost tuples), i.e. `R = ⋈ᵢ R[Ωᵢ]`.
///
/// # Errors
/// Returns an error if the join-size computation fails.
pub fn satisfies_join_dependency(
    rel: &Relation,
    spec: &JoinTreeSpec,
) -> Result<bool, RelationError> {
    if !spec.all_attrs().is_superset_of(rel.schema().all_attrs()) {
        return Ok(false);
    }
    let mut counter = one_shot(rel);
    let original = counter.distinct_count(rel.schema().all_attrs())? as u128;
    // The join of projections always contains every original tuple, so
    // equality of sizes implies equality of sets.
    Ok(counter.join_size(spec)? == original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::natural_join_all;
    use crate::schema::Schema;

    #[test]
    fn shared_counter_agrees_with_materialized_joins() {
        // One counter measures every tree shape in turn, including empty
        // separators (disjoint bags), under the default budget and under a
        // budget that evicts before every call; each count must match the
        // materialized join of the projections.
        let rel = running_example(true);
        let s = rel.schema().clone();
        let specs = [
            running_example_spec(&rel),
            JoinTreeSpec::new(
                vec![s.attrs(["A", "B"]).unwrap(), s.attrs(["C", "D"]).unwrap()],
                vec![(0, 1)],
            )
            .unwrap(),
            JoinTreeSpec::new(
                vec![
                    s.attrs(["A", "B", "C"]).unwrap(),
                    s.attrs(["C", "D"]).unwrap(),
                    s.attrs(["D", "E", "F"]).unwrap(),
                ],
                vec![(0, 1), (1, 2)],
            )
            .unwrap(),
        ];
        for budget in [LABEL_MEMO_BUDGET_BYTES, 1] {
            let mut counter = JoinCounter::with_memo_budget(&rel, budget);
            for spec in &specs {
                let projections: Vec<Relation> =
                    spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
                let joined = natural_join_all(&projections).unwrap().n_rows() as u128;
                assert_eq!(counter.join_size(spec).unwrap(), joined, "{:?}", spec.bags);
                for &bag in &spec.bags {
                    assert_eq!(
                        counter.distinct_count(bag).unwrap(),
                        rel.distinct_count(bag).unwrap()
                    );
                }
            }
            // A new set past the budget evicts everything but itself.
            counter.distinct_count(s.attrs(["E"]).unwrap()).unwrap();
            assert_eq!(counter.memo.len() == 1, budget == 1);
        }
    }

    #[test]
    fn labels_refine_past_a_u64_overflow() {
        // 12 columns of cardinality 64 fold to 2⁷², past one u64 key, so the
        // labelling takes two refinement rounds.
        let schema = Schema::with_arity(12).unwrap();
        let columns: Vec<Vec<u32>> = (0..12u32)
            .map(|c| {
                (0..200u32).map(|r| ((if c < 6 { r } else { r / 3 }) * 5 + c * 7) % 64).collect()
            })
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let all = rel.schema().all_attrs();
        let bits: f64 = (0..12).map(|c| (rel.column_cardinality(c) as f64).log2()).sum();
        assert!(bits > 64.0, "the cardinality product must pass 2^64: {bits} bits");
        let mut counter = JoinCounter::new(&rel);
        assert_eq!(counter.distinct_count(all).unwrap(), rel.distinct_count(all).unwrap());
        let spec = JoinTreeSpec::new(vec![all.without(11), all.without(0)], vec![(0, 1)]).unwrap();
        let projections: Vec<Relation> =
            spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
        let joined = natural_join_all(&projections).unwrap().n_rows() as u128;
        assert_eq!(counter.join_size(&spec).unwrap(), joined);
    }

    #[test]
    fn a_reused_counter_matches_fresh_counters() {
        // Budget 1 evicts every labelling the next call does not need, so
        // every call relabels into buffers recycled from attribute sets of
        // other group counts, and the wide sets refold in place past a u64
        // key. Each count must equal a fresh counter's.
        let schema = Schema::with_arity(12).unwrap();
        let columns: Vec<Vec<u32>> = (0..12u32)
            .map(|c| (0..300u32).map(|r| ((r * (c + 3) / 7) ^ (r % (c + 2))) % 64).collect())
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let window = |from: usize, to: usize| (from..to).collect::<AttrSet>();
        let mut specs = Vec::new();
        for (width, overlap) in [(2, 1), (3, 1), (4, 2), (5, 0), (7, 3), (12, 0)] {
            let mut bags = Vec::new();
            let mut from = 0;
            loop {
                let to = (from + width).min(12);
                bags.push(window(from, to));
                if to == 12 {
                    break;
                }
                from = to - overlap;
            }
            let edges = (1..bags.len()).map(|i| (i - 1, i)).collect();
            specs.push(JoinTreeSpec::new(bags, edges).unwrap());
        }
        // A star whose leaves all meet the hub in one column.
        let hub = window(0, 6);
        let mut bags = vec![hub];
        bags.extend((6..12).map(|c| AttrSet::singleton(c).with(c - 6)));
        specs.push(JoinTreeSpec::new(bags, (1..7).map(|i| (0, i)).collect()).unwrap());

        let mut reused = JoinCounter::with_memo_budget(&rel, 1);
        for _ in 0..2 {
            for spec in &specs {
                let fresh = JoinCounter::new(&rel).join_size(spec).unwrap();
                assert_eq!(reused.join_size(spec).unwrap(), fresh, "{:?}", spec.bags);
                for &bag in &spec.bags {
                    assert_eq!(
                        reused.distinct_count(bag).unwrap(),
                        rel.distinct_count(bag).unwrap()
                    );
                }
            }
        }
    }

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

    fn running_example_spec(rel: &Relation) -> JoinTreeSpec {
        let s = rel.schema();
        JoinTreeSpec::new(
            vec![
                s.attrs(["A", "B", "D"]).unwrap(),
                s.attrs(["A", "C", "D"]).unwrap(),
                s.attrs(["B", "D", "E"]).unwrap(),
                s.attrs(["A", "F"]).unwrap(),
            ],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap()
    }

    #[test]
    fn spec_validation() {
        let bags = vec![AttrSet::full(2), AttrSet::singleton(1)];
        assert!(JoinTreeSpec::new(bags.clone(), vec![(0, 1)]).is_ok());
        assert!(JoinTreeSpec::new(bags.clone(), vec![]).is_err());
        assert!(JoinTreeSpec::new(bags.clone(), vec![(0, 5)]).is_err());
        assert!(JoinTreeSpec::new(bags, vec![(0, 0)]).is_err());
        assert!(JoinTreeSpec::new(vec![], vec![]).is_err());
        // Disconnected: 3 nodes, edges (0,1) and (0,1) duplicated leaves 2 unreachable.
        let bags3 = vec![AttrSet::singleton(0), AttrSet::singleton(1), AttrSet::singleton(2)];
        assert!(JoinTreeSpec::new(bags3, vec![(0, 1), (0, 1)]).is_err());
    }

    #[test]
    fn exact_decomposition_of_running_example() {
        let rel = running_example(false);
        let spec = running_example_spec(&rel);
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), 4);
        assert_eq!(spurious_tuple_count(&rel, &spec).unwrap(), 0);
        assert!(satisfies_join_dependency(&rel, &spec).unwrap());
    }

    #[test]
    fn red_tuple_breaks_decomposition_with_one_spurious_tuple() {
        let rel = running_example(true);
        let spec = running_example_spec(&rel);
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), 6);
        assert_eq!(spurious_tuple_count(&rel, &spec).unwrap(), 1);
        assert!(!satisfies_join_dependency(&rel, &spec).unwrap());
    }

    #[test]
    fn counting_agrees_with_materialized_join() {
        let rel = running_example(true);
        let spec = running_example_spec(&rel);
        let projections: Vec<Relation> =
            spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
        let joined = natural_join_all(&projections).unwrap();
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), joined.n_rows() as u128);
    }

    #[test]
    fn single_bag_schema_has_no_spurious_tuples() {
        let rel = running_example(true);
        let spec = JoinTreeSpec::new(vec![rel.schema().all_attrs()], vec![]).unwrap();
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), 5);
        assert_eq!(spurious_tuple_count(&rel, &spec).unwrap(), 0);
        assert!(satisfies_join_dependency(&rel, &spec).unwrap());
    }

    #[test]
    fn fully_decomposed_schema_counts_cross_product() {
        // Decomposing each attribute into its own relation produces the cross
        // product of the active domains (joined via empty separators).
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel =
            Relation::from_rows(schema, &[vec!["a1", "b1"], vec!["a1", "b2"], vec!["a2", "b1"]])
                .unwrap();
        let spec =
            JoinTreeSpec::new(vec![AttrSet::singleton(0), AttrSet::singleton(1)], vec![(0, 1)])
                .unwrap();
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), 4);
        assert_eq!(spurious_tuple_count(&rel, &spec).unwrap(), 1);
    }

    #[test]
    fn empty_relation_joins_to_zero() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel = Relation::empty(schema);
        let spec =
            JoinTreeSpec::new(vec![AttrSet::singleton(0), AttrSet::singleton(1)], vec![(0, 1)])
                .unwrap();
        assert_eq!(acyclic_join_size(&rel, &spec).unwrap(), 0);
    }

    #[test]
    fn bag_not_covering_schema_fails_dependency_check() {
        let rel = running_example(false);
        let s = rel.schema();
        let spec = JoinTreeSpec::new(
            vec![s.attrs(["A", "B"]).unwrap(), s.attrs(["B", "C"]).unwrap()],
            vec![(0, 1)],
        )
        .unwrap();
        assert!(!satisfies_join_dependency(&rel, &spec).unwrap());
    }

    #[test]
    fn out_of_range_bag_rejected() {
        let rel = running_example(false);
        let spec = JoinTreeSpec {
            bags: vec![AttrSet::singleton(60), rel.schema().all_attrs()],
            edges: vec![(0, 1)],
        };
        assert!(acyclic_join_size(&rel, &spec).is_err());
    }
}
