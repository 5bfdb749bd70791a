//! Streaming reconstruction of the acyclic join `⋈ᵢ R[Ωᵢ]`.
//!
//! The reconstruction of a decomposed instance can be orders of magnitude
//! larger than the original relation (the paper reports E = 400 % on Nursery
//! for the fully decomposed schema), so the store never materializes it
//! unless asked: [`JoinIter`] enumerates the join tuple by tuple by walking
//! the join tree in pre-order and extending a partial assignment with the
//! matching tuples of each bag, backtracking on dead ends. Run
//! [`DecomposedInstance::full_reduce`] first to make the enumeration
//! output-sensitive (no dead ends at all); the iterator is correct either
//! way. [`DecomposedInstance::reconstruction_count`] computes `|⋈ᵢ R[Ωᵢ]|`
//! without enumerating, by the same bottom-up count propagation the quality
//! metric uses — an independent implementation over the store's own tables,
//! which is exactly what makes it useful as a cross-check.

use crate::error::DecomposeError;
use crate::store::{index_by_key, rooted_order_of, DecomposedInstance};
use relation::{AttrSet, Relation, RelationBuilder};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Per-level candidate tuples of the enumeration.
enum Candidates {
    /// All tuples of the bag (root level).
    All(usize),
    /// Tuple indices matching the parent's separator key — an `Rc` handle
    /// into the level's index, so descending is allocation-free.
    Some(Rc<[usize]>),
}

impl Candidates {
    fn len(&self) -> usize {
        match self {
            Candidates::All(n) => *n,
            Candidates::Some(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> usize {
        match self {
            Candidates::All(_) => i,
            Candidates::Some(v) => v[i],
        }
    }
}

struct Frame {
    candidates: Candidates,
    next: usize,
}

/// One enumeration level: a bag plus how it hooks into the partial tuple.
struct Level {
    /// Bag index in the store.
    bag: usize,
    /// `(position in the bag tuple, slot in the output tuple)` writes.
    writes: Vec<(usize, usize)>,
    /// Positions of the separator inside the *parent* bag's tuples (empty at
    /// the root).
    parent_sep_positions: Vec<usize>,
    /// Level index of the parent bag (meaningless at the root).
    parent_level: usize,
    /// Separator-key index of this bag (empty map at the root).
    index: HashMap<Vec<u32>, Rc<[usize]>>,
}

/// Streaming enumerator of the acyclic join of a [`DecomposedInstance`]
/// (or of a connected subtree of it). Yields code tuples over the covered
/// attributes in ascending attribute order; translate with
/// [`DecomposedInstance::value`] or collect via
/// [`DecomposedInstance::reconstruct_relation`].
pub struct JoinIter<'a> {
    store: &'a DecomposedInstance,
    levels: Vec<Level>,
    frames: Vec<Frame>,
    /// Chosen tuple index per level.
    chosen: Vec<usize>,
    /// The output tuple being assembled (one slot per covered attribute).
    current: Vec<u32>,
    /// Attributes covered, ascending (slot `i` holds attribute `attrs[i]`).
    attrs: Vec<usize>,
    exhausted: bool,
}

impl<'a> JoinIter<'a> {
    /// Enumerates the join of a connected subset of bags (the full store when
    /// `nodes` covers every bag). `nodes` must induce a connected subtree of
    /// the join tree.
    pub(crate) fn over_subtree(store: &'a DecomposedInstance, nodes: &[usize]) -> Self {
        debug_assert!(!nodes.is_empty());
        let in_subtree: HashSet<usize> = nodes.iter().copied().collect();
        let n = store.n_bags();
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in store.edges() {
            if in_subtree.contains(&u) && in_subtree.contains(&v) {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        let (order, parent) = rooted_order_of(&adj, nodes[0], n);
        debug_assert_eq!(order.len(), nodes.len(), "subtree must be connected");

        let covered: AttrSet =
            order.iter().fold(AttrSet::empty(), |a, &b| a.union(store.bags()[b].attrs()));
        let attrs: Vec<usize> = covered.to_vec();
        let slot_of: HashMap<usize, usize> =
            attrs.iter().enumerate().map(|(slot, &a)| (a, slot)).collect();

        let level_of: HashMap<usize, usize> =
            order.iter().enumerate().map(|(lvl, &b)| (b, lvl)).collect();
        let mut levels = Vec::with_capacity(order.len());
        for (lvl, &b) in order.iter().enumerate() {
            let bag = &store.bags()[b];
            let writes: Vec<(usize, usize)> =
                bag.attrs().iter().enumerate().map(|(pos, a)| (pos, slot_of[&a])).collect();
            let (parent_sep_positions, parent_level, index) = if lvl == 0 {
                (Vec::new(), 0, HashMap::new())
            } else {
                let p = parent[b];
                let sep = bag.attrs().intersect(store.bags()[p].attrs());
                let child_pos = bag.positions_of(sep);
                let index = index_by_key(bag, &child_pos)
                    .into_iter()
                    .map(|(key, matches)| (key, Rc::from(matches)))
                    .collect();
                (store.bags()[p].positions_of(sep), level_of[&p], index)
            };
            levels.push(Level { bag: b, writes, parent_sep_positions, parent_level, index });
        }

        let root_tuples = store.bags()[order[0]].n_tuples();
        let frames = vec![Frame { candidates: Candidates::All(root_tuples), next: 0 }];
        JoinIter {
            store,
            chosen: vec![0; levels.len()],
            current: vec![0; attrs.len()],
            levels,
            frames,
            attrs,
            exhausted: false,
        }
    }

    /// The attributes covered by the enumeration, ascending; output slot `i`
    /// holds the code of `attrs()[i]`.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Renders an output tuple back to string values.
    pub fn render(&self, codes: &[u32]) -> Vec<String> {
        self.attrs.iter().zip(codes).map(|(&a, &c)| self.store.value(a, c).to_string()).collect()
    }
}

impl Iterator for JoinIter<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.exhausted {
            return None;
        }
        loop {
            let depth = self.frames.len();
            if depth == 0 {
                self.exhausted = true;
                return None;
            }
            let frame = self.frames.last_mut().expect("non-empty");
            if frame.next >= frame.candidates.len() {
                self.frames.pop();
                continue;
            }
            let tuple_idx = frame.candidates.get(frame.next);
            frame.next += 1;
            let level = &self.levels[depth - 1];
            self.chosen[depth - 1] = tuple_idx;
            let tuple = self.store.bags()[level.bag].tuple(tuple_idx);
            for &(pos, slot) in &level.writes {
                self.current[slot] = tuple[pos];
            }
            if depth == self.levels.len() {
                return Some(self.current.clone());
            }
            // Descend: candidates of the next level are the tuples matching
            // its parent's separator key.
            let child = &self.levels[depth];
            let parent_tuple = self.store.bags()[self.levels[child.parent_level].bag]
                .tuple(self.chosen[child.parent_level]);
            let key: Vec<u32> =
                child.parent_sep_positions.iter().map(|&p| parent_tuple[p]).collect();
            let candidates = match child.index.get(&key) {
                Some(matches) => Candidates::Some(Rc::clone(matches)),
                None => Candidates::Some(Rc::from(Vec::new())),
            };
            self.frames.push(Frame { candidates, next: 0 });
        }
    }
}

/// Streaming enumerator of the *spurious* tuples: reconstruction tuples that
/// are not in the original instance. See
/// [`DecomposedInstance::spurious_rows`].
pub struct SpuriousIter<'a> {
    join: JoinIter<'a>,
    original: HashSet<Vec<u32>>,
}

impl Iterator for SpuriousIter<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        self.join.by_ref().find(|tuple| !self.original.contains(tuple))
    }
}

impl SpuriousIter<'_> {
    /// Renders a spurious tuple back to string values.
    pub fn render(&self, codes: &[u32]) -> Vec<String> {
        self.join.render(codes)
    }
}

impl DecomposedInstance {
    /// Streaming enumeration of the acyclic join. The store is used as-is;
    /// call [`full_reduce`](DecomposedInstance::full_reduce) first when the
    /// store may contain dangling tuples and you want the enumeration to be
    /// output-sensitive.
    pub fn reconstruct(&self) -> JoinIter<'_> {
        let nodes: Vec<usize> = (0..self.n_bags()).collect();
        JoinIter::over_subtree(self, &nodes)
    }

    /// Exact cardinality `|⋈ᵢ R[Ωᵢ]|` by bottom-up count propagation over
    /// the store's bag tables — no enumeration, no materialization.
    /// Multiplications saturate at `u128::MAX` like
    /// `relation::acyclic_join_size`.
    pub fn reconstruction_count(&self) -> u128 {
        if self.bags().iter().any(|b| b.n_tuples() == 0) {
            return 0;
        }
        let (order, parent) = self.rooted_order();
        let mut weights: Vec<Vec<u128>> =
            self.bags().iter().map(|b| vec![1u128; b.n_tuples()]).collect();
        for &u in order.iter().rev() {
            if u == order[0] {
                continue;
            }
            let p = parent[u];
            let sep = self.bags()[u].attrs().intersect(self.bags()[p].attrs());
            let child_pos = self.bags()[u].positions_of(sep);
            let parent_pos = self.bags()[p].positions_of(sep);
            // Aggregate the child's weights by separator key.
            let mut message: HashMap<Vec<u32>, u128> = HashMap::new();
            for (i, t) in self.bags()[u].tuples().enumerate() {
                let key: Vec<u32> = child_pos.iter().map(|&pos| t[pos]).collect();
                let entry = message.entry(key).or_insert(0);
                *entry = entry.saturating_add(weights[u][i]);
            }
            for (i, t) in self.bags()[p].tuples().enumerate() {
                let key: Vec<u32> = parent_pos.iter().map(|&pos| t[pos]).collect();
                let m = message.get(&key).copied().unwrap_or(0);
                weights[p][i] = weights[p][i].saturating_mul(m);
            }
        }
        weights[order[0]].iter().fold(0u128, |acc, &w| acc.saturating_add(w))
    }

    /// Materializes the reconstruction as a [`Relation`] over the covered
    /// attributes. Only safe for joins known to be small (tests, examples);
    /// prefer [`reconstruct`](DecomposedInstance::reconstruct) otherwise.
    ///
    /// # Errors
    /// Returns an error if the covered attribute set cannot form a schema.
    pub fn reconstruct_relation(&self) -> Result<Relation, DecomposeError> {
        let (reduced, _) = self.full_reduce();
        let iter = reduced.reconstruct();
        let schema = self.schema().project(self.stored_attrs())?;
        let mut builder = RelationBuilder::new(schema);
        let attrs: Vec<usize> = iter.attrs().to_vec();
        for codes in iter {
            let row: Vec<&str> =
                attrs.iter().zip(&codes).map(|(&a, &c)| self.value(a, c)).collect();
            builder.push_row(row)?;
        }
        Ok(builder.finish())
    }

    /// Streaming enumeration of the spurious tuples: the reconstruction minus
    /// the original instance. `original` must share the store's signature;
    /// its tuples are translated through the store's dictionaries, so any
    /// value-equal instance works regardless of row order or encoding.
    ///
    /// # Errors
    /// Returns an error if the schemas differ.
    pub fn spurious_rows<'a>(
        &'a self,
        original: &Relation,
    ) -> Result<SpuriousIter<'a>, DecomposeError> {
        if original.schema() != self.schema() {
            return Err(DecomposeError::SchemaMismatch {
                store: self.schema().to_string(),
                relation: original.schema().to_string(),
            });
        }
        let join = self.reconstruct();
        let attrs: Vec<usize> = join.attrs().to_vec();
        let mut original_set: HashSet<Vec<u32>> = HashSet::with_capacity(original.n_rows());
        'rows: for r in 0..original.n_rows() {
            let mut key = Vec::with_capacity(attrs.len());
            for &a in &attrs {
                match self.code_of(a, original.value(r, a)) {
                    Some(code) => key.push(code),
                    // A value absent from the store cannot appear in the
                    // reconstruction, so the row can never be matched anyway.
                    None => continue 'rows,
                }
            }
            original_set.insert(key);
        }
        Ok(SpuriousIter { join, original: original_set })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{acyclic_join_size, natural_join_all, JoinTreeSpec, Schema};

    fn attrs(v: &[usize]) -> AttrSet {
        v.iter().copied().collect()
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

    fn running_example_spec() -> JoinTreeSpec {
        JoinTreeSpec::new(
            vec![attrs(&[0, 1, 3]), attrs(&[0, 2, 3]), attrs(&[1, 3, 4]), attrs(&[0, 5])],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap()
    }

    #[test]
    fn exact_decomposition_reconstructs_the_original() {
        let rel = running_example(false);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        assert_eq!(store.reconstruction_count(), 4);
        let recon = store.reconstruct_relation().unwrap();
        assert!(recon.equal_as_sets(&rel.distinct()));
        assert_eq!(store.spurious_rows(&rel).unwrap().count(), 0);
    }

    #[test]
    fn red_tuple_yields_exactly_one_spurious_tuple() {
        let rel = running_example(true);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        assert_eq!(store.reconstruction_count(), 6);
        assert_eq!(store.reconstruct().count(), 6);
        let spurious: Vec<Vec<u32>> = store.spurious_rows(&rel).unwrap().collect();
        assert_eq!(spurious.len(), 1);
        // Joining (a2,b2,d2) ∈ R[ABD] with (b2,d2,e2) ∈ R[BDE] manufactures
        // the one tuple the original never had: (a2, b2, c2, d2, e2, f2).
        let iter = store.spurious_rows(&rel).unwrap();
        let rendered = iter.render(&spurious[0]);
        assert_eq!(rendered, vec!["a2", "b2", "c2", "d2", "e2", "f2"]);
    }

    #[test]
    fn count_agrees_with_yannakakis_counting_and_materialized_join() {
        let rel = running_example(true);
        let spec = running_example_spec();
        let store = DecomposedInstance::build(&rel, &spec).unwrap();
        assert_eq!(store.reconstruction_count(), acyclic_join_size(&rel, &spec).unwrap());
        let projections: Vec<Relation> =
            spec.bags.iter().map(|&b| rel.project_distinct(b).unwrap()).collect();
        let joined = natural_join_all(&projections).unwrap();
        assert_eq!(store.reconstruction_count(), joined.n_rows() as u128);
        assert_eq!(store.reconstruct().count() as u128, store.reconstruction_count());
    }

    #[test]
    fn enumeration_yields_distinct_sorted_candidates() {
        let rel = running_example(true);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        let tuples: Vec<Vec<u32>> = store.reconstruct().collect();
        let set: HashSet<&Vec<u32>> = tuples.iter().collect();
        assert_eq!(set.len(), tuples.len(), "join of sets is a set");
    }

    #[test]
    fn fully_decomposed_store_enumerates_the_cross_product() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel =
            Relation::from_rows(schema, &[vec!["a1", "b1"], vec!["a1", "b2"], vec!["a2", "b1"]])
                .unwrap();
        let spec =
            JoinTreeSpec::new(vec![AttrSet::singleton(0), AttrSet::singleton(1)], vec![(0, 1)])
                .unwrap();
        let store = DecomposedInstance::build(&rel, &spec).unwrap();
        assert_eq!(store.reconstruction_count(), 4);
        assert_eq!(store.reconstruct().count(), 4);
        assert_eq!(store.spurious_rows(&rel).unwrap().count(), 1);
    }

    #[test]
    fn empty_store_enumerates_nothing() {
        let rel = Relation::empty(Schema::new(["A", "B"]).unwrap());
        let spec =
            JoinTreeSpec::new(vec![AttrSet::singleton(0), AttrSet::singleton(1)], vec![(0, 1)])
                .unwrap();
        let store = DecomposedInstance::build(&rel, &spec).unwrap();
        assert_eq!(store.reconstruction_count(), 0);
        assert_eq!(store.reconstruct().count(), 0);
    }

    #[test]
    fn spurious_rejects_mismatched_schema() {
        let rel = running_example(false);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        let other = Relation::empty(Schema::new(["X", "Y"]).unwrap());
        assert!(store.spurious_rows(&other).is_err());
    }

    #[test]
    fn spurious_accepts_value_equal_relation_with_different_encoding() {
        // Same set of tuples pushed in a different order re-encodes every
        // dictionary; the diff must still come out empty.
        let rel = running_example(false);
        let store = DecomposedInstance::build(&rel, &running_example_spec()).unwrap();
        let mut rows: Vec<Vec<&str>> = (0..rel.n_rows()).map(|r| rel.row(r)).collect();
        rows.reverse();
        let reordered = Relation::from_rows(rel.schema().clone(), &rows).unwrap();
        assert_eq!(store.spurious_rows(&reordered).unwrap().count(), 0);
    }
}
