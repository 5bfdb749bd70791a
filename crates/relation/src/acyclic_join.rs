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
use crate::relation::{FoldKeyMap, Relation};
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

/// Roots the tree at node 0; returns `(parent, pre_order)`.
fn root_tree(spec: &JoinTreeSpec) -> (Vec<usize>, Vec<usize>) {
    let adj = spec.adjacency();
    let n = spec.bags.len();
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    let mut visited = vec![false; n];
    visited[0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                parent[v] = u;
                stack.push(v);
            }
        }
    }
    (parent, order)
}

/// Bytes of group labels a [`JoinCounter`] keeps between calls. On the
/// 4,177-row Abalone stand-in an unbounded memo grows by about 6 MiB over an
/// ε = 0.1 pass; 512 KiB of recently used labels measures the same pass in
/// about 2.5 times the unbounded time and a sixth of the time without a
/// memo. On relations too large for it, the memo turns over every schema.
pub const LABEL_MEMO_BUDGET_BYTES: usize = 1 << 19;

/// The projection `R[X]` as a dense group id per row.
struct Labeling {
    /// `labels[r]` is the group of row `r`; groups are numbered in order of
    /// first appearance.
    labels: Vec<u32>,
    /// `reps[g]` is the first row of group `g`, so `reps.len()` is `|R[X]|`.
    reps: Vec<u32>,
    /// The counter's clock at the last call that used these labels.
    last_use: u64,
}

impl Labeling {
    fn groups(&self) -> usize {
        self.reps.len()
    }

    fn bytes(&self) -> usize {
        4 * (self.labels.capacity() + self.reps.capacity())
    }
}

/// Distinct counts and acyclic join sizes over one relation, sharing the
/// group labels of every attribute set it has seen.
///
/// Each attribute set `X` is labelled once: a dense group id per row plus a
/// representative row per group. `distinct_count(X)` is then the group
/// count, and [`JoinCounter::join_size`] runs Yannakakis count propagation
/// over arrays indexed by group id — each child group reaches its separator
/// label through its representative row, with no hashing. A labelling folds
/// the columns of `X` into exact `u64` keys, refolding the partial label
/// with further columns whenever the radix product would overflow, so no
/// width of `X` needs per-row key vectors.
///
/// The memo is bounded by [`LABEL_MEMO_BUDGET_BYTES`]: a new labelling that
/// would push it past the budget first evicts the least recently used
/// labellings the current call does not need. One call's own labels are
/// always admitted, so a relation too large for the budget is measured
/// correctly at the cost of relabelling per schema.
pub struct JoinCounter<'a> {
    rel: &'a Relation,
    memo: HashMap<AttrSet, Labeling>,
    memo_bytes: usize,
    budget_bytes: usize,
    /// Bumped once per call, to find the least recently used labels.
    clock: u64,
}

impl<'a> JoinCounter<'a> {
    /// A counter over `rel` with the default memo budget.
    pub fn new(rel: &'a Relation) -> Self {
        Self::with_memo_budget(rel, LABEL_MEMO_BUDGET_BYTES)
    }

    /// A counter whose memo holds at most `budget_bytes` of labels beyond
    /// the working set of the current call; tests use a tiny budget to force
    /// relabelling before every schema.
    pub fn with_memo_budget(rel: &'a Relation, budget_bytes: usize) -> Self {
        JoinCounter { rel, memo: HashMap::new(), memo_bytes: 0, budget_bytes, clock: 0 }
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
        Ok(self.memo[&attrs].groups())
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
        let (parent, order) = root_tree(spec);
        let seps: Vec<AttrSet> = (0..spec.bags.len())
            .map(|u| match u {
                0 => AttrSet::empty(),
                _ => spec.bags[u].intersect(spec.bags[parent[u]]),
            })
            .collect();
        let working_set: Vec<AttrSet> =
            spec.bags.iter().chain(&seps).copied().filter(|a| !a.is_empty()).collect();
        self.admit(&working_set);

        let memo = &self.memo;
        let mut counts: Vec<Vec<u128>> =
            spec.bags.iter().map(|b| vec![1; memo[b].groups()]).collect();
        // Children before parents: reverse pre-order works for trees.
        for &u in order.iter().rev().filter(|&&u| u != 0) {
            let p = parent[u];
            let sep = memo.get(&seps[u]);
            // The separator label of each group of `node`, read off the
            // group's representative row; an empty separator is one group.
            let sep_labels = |node: usize| -> Vec<u32> {
                let reps = &memo[&spec.bags[node]].reps;
                match sep {
                    Some(sep) => reps.iter().map(|&r| sep.labels[r as usize]).collect(),
                    None => vec![0; reps.len()],
                }
            };
            let mut message = vec![0u128; sep.map_or(1, Labeling::groups)];
            for (g, s) in sep_labels(u).into_iter().enumerate() {
                message[s as usize] += counts[u][g];
            }
            // Parent groups with no matching child group drop to zero.
            for (h, s) in sep_labels(p).into_iter().enumerate() {
                counts[p][h] = counts[p][h].saturating_mul(message[s as usize]);
            }
        }
        Ok(counts[0].iter().sum())
    }

    fn check_attrs(&self, attrs: AttrSet) -> Result<(), RelationError> {
        if attrs.is_empty() || !attrs.is_subset_of(self.rel.schema().all_attrs()) {
            return Err(RelationError::AttributeOutOfRange { attrs, arity: self.rel.arity() });
        }
        Ok(())
    }

    /// Labels every set of `working_set` not yet in the memo and marks all
    /// of them used. A new labelling that would overflow the budget first
    /// evicts labellings outside `working_set`, least recently used first.
    fn admit(&mut self, working_set: &[AttrSet]) {
        self.clock += 1;
        for &attrs in working_set {
            if let Some(hit) = self.memo.get_mut(&attrs) {
                hit.last_use = self.clock;
                continue;
            }
            let mut labeling = self.label(attrs);
            labeling.last_use = self.clock;
            if self.memo_bytes + labeling.bytes() > self.budget_bytes {
                let mut victims: Vec<(u64, AttrSet)> = self
                    .memo
                    .iter()
                    .filter(|(kept, _)| !working_set.contains(kept))
                    .map(|(&kept, l)| (l.last_use, kept))
                    .collect();
                victims.sort_unstable();
                for (_, victim) in victims {
                    if self.memo_bytes + labeling.bytes() <= self.budget_bytes {
                        break;
                    }
                    self.memo_bytes -= self.memo.remove(&victim).map_or(0, |l| l.bytes());
                }
            }
            self.memo_bytes += labeling.bytes();
            self.memo.insert(attrs, labeling);
        }
    }

    /// Labels `R[attrs]` in rounds: each round folds the previous round's
    /// label and as many further columns as fit into one exact mixed-radix
    /// `u64` key, then numbers the distinct keys by first row.
    fn label(&self, attrs: AttrSet) -> Labeling {
        let n = self.rel.n_rows();
        let cols = attrs.to_vec();
        let mut done = 0;
        let mut groups = 1;
        let mut labels: Option<Vec<u32>> = None;
        let mut reps = Vec::new();
        while done < cols.len() {
            // Group counts and cardinalities both stay below 2³², so every
            // round takes at least one column.
            let mut radix = groups.max(1) as u64;
            let mut run: Vec<(&[u32], u64)> = Vec::new();
            while let Some(&c) = cols.get(done) {
                let card = self.rel.column_cardinality(c).max(1) as u64;
                let Some(next) = radix.checked_mul(card) else { break };
                run.push((self.rel.column_codes(c), radix));
                radix = next;
                done += 1;
            }
            let mut ids: FoldKeyMap<u32> = FoldKeyMap::default();
            let mut next_labels = Vec::with_capacity(n);
            reps.clear();
            for r in 0..n {
                let previous = labels.as_ref().map_or(0, |l| l[r] as u64);
                let key = run.iter().fold(previous, |key, &(codes, m)| key + codes[r] as u64 * m);
                let id = *ids.entry(key).or_insert_with(|| {
                    reps.push(r as u32);
                    reps.len() as u32 - 1
                });
                next_labels.push(id);
            }
            groups = reps.len();
            labels = Some(next_labels);
        }
        reps.shrink_to_fit();
        Labeling { labels: labels.unwrap_or_default(), reps, last_use: 0 }
    }
}

/// Computes `|R[Ω₁] ⋈ … ⋈ R[Ω_m]|` for the bags of `spec` with a one-shot
/// [`JoinCounter`]; a pass over many schemas should share one counter.
///
/// # Errors
/// Returns an error if any bag is empty or out of range for the relation.
pub fn acyclic_join_size(rel: &Relation, spec: &JoinTreeSpec) -> Result<u128, RelationError> {
    JoinCounter::new(rel).join_size(spec)
}

/// Number of spurious tuples introduced by decomposing `rel` according to
/// `spec`: `|⋈ᵢ R[Ωᵢ]| − |distinct(R)|`. Always non-negative when the bags
/// cover the schema (the join of projections is a superset of the relation).
///
/// # Errors
/// Returns an error if the join-size computation fails.
pub fn spurious_tuple_count(rel: &Relation, spec: &JoinTreeSpec) -> Result<u128, RelationError> {
    let mut counter = JoinCounter::new(rel);
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
    let mut counter = JoinCounter::new(rel);
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
        assert!(rel.key_fold(all).is_none());
        let mut counter = JoinCounter::new(&rel);
        assert_eq!(counter.distinct_count(all).unwrap(), rel.distinct_count(all).unwrap());
        let spec = JoinTreeSpec::new(vec![all.without(11), all.without(0)], vec![(0, 1)]).unwrap();
        let projections: Vec<Relation> =
            spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
        let joined = natural_join_all(&projections).unwrap().n_rows() as u128;
        assert_eq!(counter.join_size(&spec).unwrap(), joined);
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
