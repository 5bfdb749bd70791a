//! The decomposed store: one deduplicated, code-backed projection per bag.
//!
//! Decomposing a relation `R` by an acyclic schema `S = {Ω₁, …, Ω_m}` (§8.1
//! of the paper) replaces `R` with the projections `R[Ωᵢ]`. This module
//! materializes those projections as a first-class instance: each bag stores
//! its distinct tuples as dense `u32` dictionary codes *shared across bags*
//! (all codes refer to the original relation's per-attribute dictionaries),
//! which makes semijoins, join enumeration and cell accounting cheap and
//! exact. The paper's storage-savings metric `S` is literally
//! `1 − cells(store) / cells(R)` — [`DecomposedInstance::storage_savings_pct`]
//! computes it from the store's own counts, giving the quality layer an
//! independent number to cross-check against.

use crate::error::DecomposeError;
use relation::{AttrSet, Dictionary, JoinTreeSpec, Keyer, Relation, RelationBuilder, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// One materialized projection `R[Ω]`: distinct code tuples, flattened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BagProjection {
    attrs: AttrSet,
    arity: usize,
    /// Flattened tuples (`n_tuples × arity` codes), sorted lexicographically.
    codes: Vec<u32>,
}

impl BagProjection {
    /// Builds the distinct projection of `rel` onto `attrs` (codes are the
    /// relation's own dictionary codes, so tuples from different bags built
    /// from the same relation are directly comparable on shared attributes).
    /// A [`Keyer`] finds the first row of each distinct tuple.
    fn from_relation(rel: &Relation, attrs: AttrSet) -> Self {
        let columns: Vec<&[u32]> = attrs.iter().map(|c| rel.column_codes(c)).collect();
        let cardinalities = attrs.iter().map(|c| rel.column_cardinality(c));
        let mut keyer = Keyer::with_capacity(cardinalities, rel.n_rows());
        let mut firsts: Vec<usize> =
            (0..rel.n_rows()).filter(|&r| keyer.insert(|p| columns[p][r]).1).collect();
        let tuple = |r: usize| columns.iter().map(move |codes| codes[r]);
        firsts.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
        let codes = firsts.iter().flat_map(|&r| tuple(r)).collect();
        BagProjection { attrs, arity: attrs.len(), codes }
    }

    /// The bag's attribute set `Ω`.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Number of attributes `|Ω|`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples `|R[Ω]|`.
    #[inline]
    pub fn n_tuples(&self) -> usize {
        self.codes.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Number of cells `|R[Ω]| · |Ω|` this bag occupies (§8.1).
    #[inline]
    pub fn cells(&self) -> u128 {
        self.codes.len() as u128
    }

    /// The code tuple at index `i` (attribute codes in ascending attribute
    /// order).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[u32] {
        &self.codes[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over all tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &[u32]> {
        self.codes.chunks_exact(self.arity.max(1))
    }

    /// Returns a copy containing only the tuples whose index is flagged in
    /// `keep` (relative order — and therefore sortedness — preserved).
    pub(crate) fn retain(&self, keep: &[bool]) -> Self {
        let mut codes = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                codes.extend_from_slice(self.tuple(i));
            }
        }
        BagProjection { attrs: self.attrs, arity: self.arity, codes }
    }

    /// Positions (within this bag's tuple layout) of the attributes in `sub`.
    /// Attributes not in the bag are skipped, so pass `sub ⊆ attrs` for a
    /// faithful extraction.
    pub(crate) fn positions_of(&self, sub: AttrSet) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|&(_, a)| sub.contains(a))
            .map(|(pos, _)| pos)
            .collect()
    }
}

/// A decomposed instance: the materialized store of one acyclic schema over
/// one relation, together with the join tree that reassembles it.
///
/// The store keeps a clone of the relation's per-column [`Dictionary`]s,
/// value-to-code index included, behind an [`Arc`] so the filtered copies
/// produced by the reducer and the query executor share them instead of
/// cloning every distinct value.
#[derive(Clone, Debug)]
pub struct DecomposedInstance {
    schema: Schema,
    /// Per original attribute: the relation's dictionary. Attributes outside
    /// every bag keep an empty dictionary.
    dicts: Arc<Vec<Dictionary>>,
    bags: Vec<BagProjection>,
    edges: Vec<(usize, usize)>,
    /// Distinct tuple count of the source instance, recorded at build time so
    /// savings/spurious rates need no second pass over the relation.
    original_rows: usize,
}

impl DecomposedInstance {
    /// Materializes the decomposed instance of `rel` under the join tree
    /// `spec` (one bag projection per node; the tree edges drive the reducer
    /// and the reconstruction).
    ///
    /// The spec must be a valid tree whose bags satisfy the running
    /// intersection property for reconstruction to equal the acyclic join —
    /// specs produced by `maimon::JoinTree::to_spec` always do.
    ///
    /// # Errors
    /// Returns an error if the spec is not a tree or a bag is empty or out of
    /// range for the relation.
    pub fn build(rel: &Relation, spec: &JoinTreeSpec) -> Result<Self, DecomposeError> {
        // Re-validate the tree shape (JoinTreeSpec's fields are public).
        JoinTreeSpec::new(spec.bags.clone(), spec.edges.clone())?;
        let all = rel.schema().all_attrs();
        for &bag in &spec.bags {
            if bag.is_empty() || !bag.is_subset_of(all) {
                return Err(DecomposeError::Relation(
                    relation::RelationError::AttributeOutOfRange { attrs: bag, arity: rel.arity() },
                ));
            }
        }
        let bags: Vec<BagProjection> =
            spec.bags.iter().map(|&b| BagProjection::from_relation(rel, b)).collect();
        // Per-attribute dictionaries for every attribute some bag stores:
        // the relation's own column dictionaries, which the bag codes index.
        let stored: AttrSet = spec.bags.iter().fold(AttrSet::empty(), |a, &b| a.union(b));
        let dicts: Vec<Dictionary> = (0..rel.arity())
            .map(|a| {
                if stored.contains(a) {
                    rel.column_dictionary(a).clone()
                } else {
                    Dictionary::default()
                }
            })
            .collect();
        let original_rows = if rel.is_empty() { 0 } else { rel.distinct_count(all)? };
        // Build-time telemetry; the query/reconstruction paths are untouched.
        let registry = obs::global();
        registry.describe("maimon_decompositions_built_total", "Decomposed instances materialized");
        registry.counter("maimon_decompositions_built_total", &[]).inc();
        registry.describe(
            "maimon_decomposition_bags_total",
            "Bag projections materialized across all decompositions",
        );
        registry.counter("maimon_decomposition_bags_total", &[]).add(bags.len() as u64);
        Ok(DecomposedInstance {
            schema: rel.schema().clone(),
            dicts: Arc::new(dicts),
            bags,
            edges: spec.edges.clone(),
            original_rows,
        })
    }

    /// The original relation's signature.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The bag projections, in spec order.
    #[inline]
    pub fn bags(&self) -> &[BagProjection] {
        &self.bags
    }

    /// The join-tree edges reassembling the bags.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of bags `m`.
    #[inline]
    pub fn n_bags(&self) -> usize {
        self.bags.len()
    }

    /// Union of all bag attribute sets.
    pub fn stored_attrs(&self) -> AttrSet {
        self.bags.iter().fold(AttrSet::empty(), |a, b| a.union(b.attrs()))
    }

    /// Distinct tuple count of the source instance at build time.
    #[inline]
    pub fn original_rows(&self) -> usize {
        self.original_rows
    }

    /// Cells of the original instance: `|distinct(R)| · |Ω|` (§8.1).
    pub fn original_cells(&self) -> u128 {
        self.original_rows as u128 * self.schema.arity() as u128
    }

    /// Total cells of the store: `Σᵢ |R[Ωᵢ]| · |Ωᵢ|`.
    pub fn total_cells(&self) -> u128 {
        self.bags.iter().map(|b| b.cells()).sum()
    }

    /// The paper's storage savings `S` as a percentage, computed from the
    /// store's own exact cell counts (same formula as
    /// `maimon::storage_savings_pct`, so the two agree bit-for-bit).
    pub fn storage_savings_pct(&self) -> f64 {
        let original = self.original_cells();
        if original == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.total_cells() as f64 / original as f64)
    }

    /// Renders a stored code of `attr` back to its string value.
    ///
    /// # Panics
    /// Panics if `attr` is out of range or `code` is not in the dictionary.
    #[inline]
    pub fn value(&self, attr: usize, code: u32) -> &str {
        self.dicts[attr].value(code)
    }

    /// Looks up the dictionary code of `value` in attribute `attr`, if the
    /// value occurs in the stored instance (O(1) via the dictionary's index).
    pub fn code_of(&self, attr: usize, value: &str) -> Option<u32> {
        self.dicts.get(attr)?.code_of(value)
    }

    /// Materializes one bag as a standalone [`Relation`] (values restored
    /// through the dictionaries). Mostly useful for display and tests.
    ///
    /// # Errors
    /// Returns an error if the bag index is out of range.
    pub fn bag_relation(&self, bag: usize) -> Result<Relation, DecomposeError> {
        let proj = self.bags.get(bag).ok_or_else(|| {
            DecomposeError::InvalidQuery(format!("bag {} out of range ({})", bag, self.bags.len()))
        })?;
        let schema = self.schema.project(proj.attrs())?;
        let attr_list: Vec<usize> = proj.attrs().to_vec();
        let mut builder = RelationBuilder::new(schema);
        for t in proj.tuples() {
            let row: Vec<&str> =
                t.iter().zip(&attr_list).map(|(&code, &attr)| self.value(attr, code)).collect();
            builder.push_row(row)?;
        }
        Ok(builder.finish())
    }

    /// Replaces every bag with a filtered copy (used by the reducer and the
    /// query executor). `keep[b]` flags the surviving tuples of bag `b`.
    pub(crate) fn with_kept(&self, keep: &[Vec<bool>]) -> DecomposedInstance {
        let bags = self.bags.iter().zip(keep).map(|(b, k)| b.retain(k)).collect();
        DecomposedInstance {
            schema: self.schema.clone(),
            dicts: Arc::clone(&self.dicts),
            bags,
            edges: self.edges.clone(),
            original_rows: self.original_rows,
        }
    }

    /// Adjacency lists of the join tree.
    pub(crate) fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.bags.len()];
        for &(u, v) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    /// Pre-order traversal from node 0 plus the parent of each node
    /// (`usize::MAX` for the root).
    pub(crate) fn rooted_order(&self) -> (Vec<usize>, Vec<usize>) {
        rooted_order_of(&self.adjacency(), 0, self.bags.len())
    }
}

/// Pre-order traversal of a tree given by adjacency lists, rooted at `root`,
/// restricted to the nodes reachable from it; returns `(order, parent)` with
/// `parent[root] == usize::MAX`.
pub(crate) fn rooted_order_of(
    adj: &[Vec<usize>],
    root: usize,
    n: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut order = Vec::with_capacity(n);
    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    let mut stack = vec![root];
    visited[root] = true;
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
    (order, parent)
}

/// Aggregates a bag's tuples into a map from separator key to tuple indices.
pub(crate) fn index_by_key(
    bag: &BagProjection,
    positions: &[usize],
) -> HashMap<Vec<u32>, Vec<usize>> {
    let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::with_capacity(bag.n_tuples());
    for (i, t) in bag.tuples().enumerate() {
        let key: Vec<u32> = positions.iter().map(|&p| t[p]).collect();
        index.entry(key).or_default().push(i);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;
    use std::collections::HashSet;

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

    fn running_example_spec() -> JoinTreeSpec {
        JoinTreeSpec::new(
            vec![attrs(&[0, 1, 3]), attrs(&[0, 2, 3]), attrs(&[1, 3, 4]), attrs(&[0, 5])],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap()
    }

    #[test]
    fn build_dedupes_and_counts_cells() {
        let rel = running_example(false);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        assert_eq!(store.n_bags(), 4);
        // ABD has 4 tuples, ACD 4, BDE 3, AF 2 (Fig. 1 / quality.rs golden).
        let sizes: Vec<usize> = store.bags().iter().map(|b| b.n_tuples()).collect();
        assert_eq!(sizes, vec![4, 4, 3, 2]);
        assert_eq!(store.total_cells(), 4 * 3 + 4 * 3 + 3 * 3 + 2 * 2);
        assert_eq!(store.original_rows(), 4);
        assert_eq!(store.original_cells(), 24);
        assert!(store.storage_savings_pct() < 0.0, "the tiny example grows");
        assert_eq!(store.stored_attrs(), AttrSet::full(6));
    }

    #[test]
    fn tuples_are_sorted_and_share_codes() {
        let rel = running_example(true);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        for bag in store.bags() {
            let tuples: Vec<&[u32]> = bag.tuples().collect();
            for w in tuples.windows(2) {
                assert!(w[0] < w[1], "tuples must be strictly sorted");
            }
        }
        // Codes refer to the original dictionaries: attribute A appears in
        // bags 0 (ABD), 1 (ACD) and 3 (AF) with the same code set.
        let a_codes = |bag: &BagProjection| -> HashSet<u32> {
            let pos = bag.positions_of(AttrSet::singleton(0));
            bag.tuples().map(|t| t[pos[0]]).collect()
        };
        assert_eq!(a_codes(&store.bags()[0]), a_codes(&store.bags()[1]));
        assert_eq!(a_codes(&store.bags()[0]), a_codes(&store.bags()[3]));
    }

    #[test]
    fn dictionaries_round_trip_values() {
        let rel = running_example(false);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        for attr in 0..rel.arity() {
            for r in 0..rel.n_rows() {
                let code = rel.code(r, attr);
                assert_eq!(store.value(attr, code), rel.value(r, attr));
            }
        }
        assert_eq!(store.code_of(0, "a1"), Some(rel.code(0, 0)));
        assert_eq!(store.code_of(0, "nope"), None);
    }

    #[test]
    fn bag_relation_matches_project_distinct() {
        let rel = running_example(true);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        for (i, bag) in store.bags().iter().enumerate() {
            let materialized = store.bag_relation(i).unwrap();
            let expected = rel.project_distinct(bag.attrs()).unwrap();
            assert!(materialized.equal_as_sets(&expected), "bag {}", i);
        }
        assert!(store.bag_relation(99).is_err());
    }

    #[test]
    fn invalid_specs_rejected() {
        let rel = running_example(false);
        // Not a tree.
        let spec = JoinTreeSpec { bags: vec![attrs(&[0, 1]), attrs(&[1, 2])], edges: vec![] };
        assert!(DecomposedInstance::build(&rel, &spec).is_err());
        // Bag out of range.
        let spec = JoinTreeSpec { bags: vec![attrs(&[0, 60])], edges: vec![] };
        assert!(DecomposedInstance::build(&rel, &spec).is_err());
    }

    #[test]
    fn empty_relation_builds_an_empty_store() {
        let rel = Relation::empty(Schema::new(["A", "B"]).unwrap());
        let spec =
            JoinTreeSpec::new(vec![AttrSet::singleton(0), AttrSet::singleton(1)], vec![(0, 1)])
                .unwrap();
        let store = DecomposedInstance::build(&rel, &spec).unwrap();
        assert_eq!(store.total_cells(), 0);
        assert_eq!(store.original_rows(), 0);
        assert_eq!(store.storage_savings_pct(), 0.0);
    }

    #[test]
    fn single_bag_store_is_the_distinct_relation() {
        let rel = running_example(true);
        let spec = JoinTreeSpec::new(vec![rel.schema().all_attrs()], vec![]).unwrap();
        let store = DecomposedInstance::build(&rel, &spec).unwrap();
        assert_eq!(store.n_bags(), 1);
        assert_eq!(store.bags()[0].n_tuples(), 5);
        assert_eq!(store.total_cells(), store.original_cells());
        assert_eq!(store.storage_savings_pct(), 0.0);
    }
}
