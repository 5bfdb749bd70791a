//! Stripped partitions (position list indices) in a flat CSR layout.
//!
//! A *stripped partition* over an attribute set `X` groups the elements of a
//! relation by their `X`-value and discards groups of weight one. This is
//! the PLI structure of TANE/HyFD that §6.3 of the paper adapts: singleton
//! groups contribute `1·log 1 = 0` to the entropy sum of Eq. (5), so
//! dropping them loses nothing, and as attribute sets grow the partitions
//! shrink rapidly, which is what makes repeated entropy computation feasible.
//!
//! # Elements and weights
//!
//! The elements are numbered `0..n` and each carries a *weight*, its
//! multiplicity. The entropy oracle partitions the relation's distinct
//! tuples, weighted by how many rows repeat each one (a
//! [`relation::TupleBag`]);
//! the public constructors ([`Pli::from_column`], [`Pli::from_attrs`],
//! [`Pli::trivial`]) partition rows, every weight 1. Three rules make the
//! two views give bit-identical entropies:
//!
//! * a group's size is the sum of its elements' weights;
//! * a group is stripped only when that sum is 1;
//! * element ids rise with first row, so the canonical group order below
//!   is the same in both views.
//!
//! Every partition built from codes ([`Pli::from_attrs`], the oracle's
//! tuple partitions, [`Pli::grown`] across an append) groups its elements
//! through a [`relation::Keyer`], which labels code vectors exactly in
//! first-occurrence order at any width: there is no overflow case and no
//! fallback path.
//!
//! # Memory layout
//!
//! A [`Pli`] is **two flat vectors**, not a `Vec<Vec<u32>>`:
//!
//! * `ids` — one `u32` arena holding every covered element id, cluster by
//!   cluster;
//! * `offsets` — `cluster_count() + 1` boundaries into `ids`, CSR-style:
//!   cluster `i` is `ids[offsets[i] .. offsets[i + 1]]`.
//!
//! The per-element weights are one `Arc<[u32]>` shared by every partition
//! over the same elements. The clusters are contiguous in memory (sequential
//! scans during probing touch no pointer indirections). Cluster order is
//! canonical — ascending by first (= smallest) element id, with ids
//! ascending inside each cluster — which keeps the floating-point summation
//! order of [`Pli::entropy`] identical across construction paths and runs.
//!
//! # Intersection and the scratch-reuse contract
//!
//! The paper materializes partitions as `CNT`/`TID` tables in the H2
//! in-memory database and intersects them with SQL joins; here the
//! intersection is a native two-pass probe. All probe state lives in a
//! caller-owned [`IntersectScratch`] whose arrays are *epoch-stamped*: a
//! stamp array entry is valid only if it equals the current epoch, so
//! between calls nothing is cleared — the epoch is bumped instead. A scratch
//! reaches a steady state after the first call at a given element count and
//! performs **zero heap allocations** from then on; one scratch can be
//! reused across arbitrary partitions and even across relations (it resizes
//! on demand). Two entry points share it:
//!
//! * [`Pli::intersect_with`] materializes the refined partition (used when
//!   the result is worth caching);
//! * [`Pli::intersect_counts`] computes only the group sizes of the
//!   refinement ([`GroupSizes`], enough to evaluate Eq. (5)) without
//!   writing a single element id — the §6.3 count-only fast path for
//!   partitions that would be thrown away right after their entropy is read.
//!
//! [`Pli::intersect`] remains as a convenience wrapper that allocates a
//! fresh scratch per call.

use relation::{AttrSet, Keyer, Relation, TupleBag};
use std::sync::Arc;

/// A stripped partition: clusters of element ids, each of weight ≥ 2,
/// grouping elements with equal values on some attribute set. Stored as a
/// flat CSR arena (see the module docs for the layout, the weights and the
/// ordering invariants).
#[derive(Clone, Debug, PartialEq)]
pub struct Pli {
    /// Element-id arena: every covered element, cluster by cluster.
    ids: Vec<u32>,
    /// Cluster boundaries into `ids`; `offsets[0] == 0` and
    /// `offsets.len() == cluster_count() + 1`.
    offsets: Vec<u32>,
    /// Size of each cluster: the summed weight of its elements.
    sizes: Vec<u32>,
    /// Weight of every element, indexed by id.
    weights: Arc<[u32]>,
    /// Total weight of all elements: the relation's row count.
    n_rows: usize,
    /// Total weight of the covered elements.
    covered: usize,
}

/// Weight 1 for each of `n` rows.
fn unit_weights(n: usize) -> Arc<[u32]> {
    vec![1; n].into()
}

impl Pli {
    /// Builds the stripped partition of the rows of a single attribute from
    /// its dictionary codes. Dictionaries assign codes by first appearance,
    /// so code order is ascending-first-row order and the codes serve as
    /// group labels directly.
    pub fn from_column(rel: &Relation, attr: usize) -> Pli {
        let n = rel.n_rows();
        Pli::from_labels(rel.column_codes(attr), rel.column_cardinality(attr), unit_weights(n), n)
    }

    /// Builds the stripped partition of the rows of an arbitrary attribute
    /// set. A [`Keyer`] labels each row's codes exactly, in first-occurrence
    /// order, the canonical cluster order.
    pub fn from_attrs(rel: &Relation, attrs: AttrSet) -> Pli {
        let cols = attrs.to_vec();
        let columns: Vec<&[u32]> = cols.iter().map(|&c| rel.column_codes(c)).collect();
        let mut keyer = Keyer::new(cols.iter().map(|&c| rel.column_cardinality(c)));
        let n = rel.n_rows();
        let mut labels = Vec::with_capacity(n);
        keyer.extend_labels(&columns, n, &mut labels);
        Pli::from_labels(&labels, keyer.len(), unit_weights(n), n)
    }

    /// The partition of a single attribute over the tuples of `bag`, each
    /// weighted by its multiplicity.
    pub(crate) fn of_tuple_column(bag: &TupleBag, attr: usize) -> Pli {
        let tuples = bag.tuples();
        let (codes, cardinality) = (tuples.column_codes(attr), tuples.column_cardinality(attr));
        Pli::from_labels(codes, cardinality, Arc::clone(bag.weights()), bag.n_rows())
    }

    /// The partition of `attrs`, a non-empty attribute set, over the tuples
    /// of `bag`, each weighted by its multiplicity.
    pub(crate) fn of_tuples(bag: &TupleBag, attrs: AttrSet) -> Pli {
        let (labels, groups) =
            bag.tuples().group_labels(attrs).expect("partitions are of non-empty attribute sets");
        Pli::from_labels(&labels, groups, Arc::clone(bag.weights()), bag.n_rows())
    }

    /// Groups elements by label: `labels[e] < n_labels` is element `e`'s
    /// group, and labels must be numbered in order of first element. A
    /// counting pass plus a CSR scatter; groups of weight 1 are stripped.
    pub(crate) fn from_labels(
        labels: &[u32],
        n_labels: usize,
        weights: Arc<[u32]>,
        n_rows: usize,
    ) -> Pli {
        debug_assert_eq!(labels.len(), weights.len());
        let mut group_weight = vec![0u32; n_labels];
        let mut group_len = vec![0u32; n_labels];
        for (&label, &w) in labels.iter().zip(weights.iter()) {
            group_weight[label as usize] += w;
            group_len[label as usize] += 1;
        }
        // Directory pass: reserve an arena range per kept group, in label
        // order; `group_len` becomes each group's write cursor.
        let mut offsets = vec![0u32];
        let mut sizes = Vec::new();
        let mut total = 0u32;
        for (cursor, &weight) in group_len.iter_mut().zip(&group_weight) {
            if weight >= 2 {
                let len = *cursor;
                *cursor = total;
                total += len;
                offsets.push(total);
                sizes.push(weight);
            } else {
                *cursor = u32::MAX;
            }
        }
        let mut ids = vec![0u32; total as usize];
        for (e, &label) in labels.iter().enumerate() {
            let cursor = &mut group_len[label as usize];
            if *cursor != u32::MAX {
                ids[*cursor as usize] = e as u32;
                *cursor += 1;
            }
        }
        let covered = sizes.iter().map(|&s| s as usize).sum();
        Pli { ids, offsets, sizes, weights, n_rows, covered }
    }

    /// Delta-maintains this partition across an append, bit-identical to a
    /// from-scratch build. The elements are the rows of `new`, which is
    /// `old` plus appended rows (the tuple relations before and after an
    /// append); `weights` are the grown element weights (old elements keep
    /// their ids, new ones follow), and `repeated` lists, in ascending
    /// order, the old elements whose weight rose.
    ///
    /// New elements are scattered into the existing clusters they extend,
    /// promote an old stripped element into a fresh cluster when they match
    /// one, or open new-only clusters. A repeated old element grows the
    /// size of its cluster, or, if it was stripped, becomes a cluster of its
    /// own. Existing clusters keep their order (new ids only ever land at
    /// the end), fresh clusters slot in by first id, so the result is
    /// exactly what a from-scratch build over the grown elements gives.
    ///
    /// One [`Keyer`] over `attrs` on `new` keys every element, exactly at
    /// any width. The first elements of the existing clusters take labels
    /// `0..k` in cluster order, so a new element's label says which cluster
    /// it joins, or which group of new elements from `k` up. Appends never
    /// renumber dictionary codes, so old elements key the same on `new`.
    pub(crate) fn grown(
        &self,
        attrs: AttrSet,
        old: &Relation,
        new: &Relation,
        weights: Arc<[u32]>,
        n_rows: usize,
        repeated: &[u32],
    ) -> Pli {
        let old_n = self.weights.len();
        let new_n = weights.len();
        assert!(new_n >= old_n, "grown() only handles appends");
        if new_n == old_n && repeated.is_empty() {
            return Pli { weights, n_rows, ..self.clone() };
        }
        let columns = &attrs.iter().map(|c| new.column_codes(c)).collect::<Vec<_>>();
        let code = |e: u32| move |p: usize| columns[p][e as usize];
        let k = self.cluster_count();
        let mut keyer = Keyer::with_capacity(
            attrs.iter().map(|c| new.column_cardinality(c)),
            k + new_n - old_n,
        );
        for cluster in self.clusters() {
            keyer.insert(code(cluster[0]));
        }
        // Scatter the new elements: into the existing cluster of their
        // label, or into their group of new elements.
        let mut sizes = self.sizes.clone();
        let mut appended: Vec<Vec<u32>> = vec![Vec::new(); k];
        // Per group of new elements: the stripped old element it promotes,
        // if one matches, and its new elements, ascending.
        let mut groups: Vec<(Option<u32>, Vec<u32>)> = Vec::new();
        let mut scan_singletons = false;
        for e in old_n as u32..new_n as u32 {
            let (label, fresh) = keyer.insert(code(e));
            let label = label as usize;
            if label < k {
                sizes[label] += weights[e as usize];
                appended[label].push(e);
                continue;
            }
            if fresh {
                // An element carrying a brand-new dictionary code on any
                // attribute cannot equal any old element, so only groups
                // whose codes all pre-date the append can absorb one.
                scan_singletons |= attrs
                    .iter()
                    .all(|c| (new.code(e as usize, c) as usize) < old.column_cardinality(c));
                groups.push((None, Vec::new()));
            }
            groups[label - k].1.push(e);
        }
        if scan_singletons {
            // Old elements absent from the arena are stripped in `self`. At
            // most one of them can share a key with a new group (two
            // stripped elements sharing a key would have formed a cluster
            // already), and one can never key into an existing cluster.
            let mut covered = vec![false; old_n];
            for &e in &self.ids {
                covered[e as usize] = true;
            }
            for e in (0..old_n as u32).filter(|&e| !covered[e as usize]) {
                if let Some(label) = keyer.get(code(e)) {
                    groups[label as usize - k].0 = Some(e);
                }
            }
        }
        let weight_of = |ids: &[u32]| -> u32 { ids.iter().map(|&e| weights[e as usize]).sum() };
        // Fresh clusters: promotions and new-only groups of weight ≥ 2. The
        // promoted element (an old id) precedes every new id, keeping the
        // interior ascending.
        let mut fresh: Vec<(Vec<u32>, u32)> = Vec::new();
        for (promoted, ids) in &groups {
            let ids: Vec<u32> = promoted.iter().chain(ids).copied().collect();
            let weight = weight_of(&ids);
            if weight >= 2 {
                fresh.push((ids, weight));
            }
        }
        // A repeated old element sits in the cluster of its label, if any;
        // otherwise it was stripped, and is a cluster of its own now unless
        // a new group already took it in.
        for &e in repeated {
            match keyer.get(code(e)) {
                Some(label) if (label as usize) < k => {
                    sizes[label as usize] += weights[e as usize] - self.weights[e as usize];
                }
                Some(label) => debug_assert_eq!(groups[label as usize - k].0, Some(e)),
                None => fresh.push((vec![e], weights[e as usize])),
            }
        }
        fresh.sort_unstable_by_key(|(ids, _)| ids[0]);
        // Canonical merge: existing clusters keep their order, fresh
        // clusters slot in by first id.
        let total = self.ids.len()
            + appended.iter().map(Vec::len).sum::<usize>()
            + fresh.iter().map(|(ids, _)| ids.len()).sum::<usize>();
        let mut out = PliBuilder::with_capacity(total, self.cluster_count() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        for ci in 0..self.cluster_count() {
            let cluster = self.cluster(ci);
            while let Some((ids, weight)) = fresh.next_if(|(ids, _)| ids[0] < cluster[0]) {
                out.push(&[&ids], weight);
            }
            out.push(&[cluster, &appended[ci]], sizes[ci]);
        }
        for (ids, weight) in fresh {
            out.push(&[&ids], weight);
        }
        out.finish(weights, n_rows)
    }

    /// The trivial partition of the empty attribute set over `n_rows` rows:
    /// one cluster holding every row (or none if there are fewer than two).
    pub fn trivial(n_rows: usize) -> Pli {
        let labels = vec![0; n_rows];
        Pli::from_labels(&labels, 1, unit_weights(n_rows), n_rows)
    }

    /// Number of rows of the underlying relation (the total weight).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Iterates over the clusters as slices of the element arena, in
    /// canonical (ascending-first-id) order; each cluster has weight ≥ 2.
    #[inline]
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// The `i`-th cluster (canonical order).
    ///
    /// # Panics
    /// Panics if `i >= cluster_count()`.
    #[inline]
    pub fn cluster(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The size of each cluster — the sum of its elements' weights — in
    /// canonical order.
    #[inline]
    pub fn cluster_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of non-singleton clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of rows covered by non-singleton clusters (their summed
    /// weight); everything else is a singleton in the partition. `O(1)`.
    #[inline]
    pub fn covered_rows(&self) -> usize {
        self.covered
    }

    /// Number of distinct values (clusters plus implicit singletons).
    #[inline]
    pub fn distinct_values(&self) -> usize {
        self.cluster_count() + (self.n_rows - self.covered_rows())
    }

    /// Entropy (in bits) of the empirical distribution grouped by this
    /// partition's attribute set, per Eq. (5) of the paper:
    /// `H = log₂ N − (1/N) · Σ_groups |g|·log₂|g|`, where singleton groups
    /// contribute zero and are therefore absent from the stripped partition.
    /// Summation runs in canonical cluster order, so the value is
    /// bit-identical however the partition was built.
    pub fn entropy(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let n = self.n_rows as f64;
        let sum: f64 = self
            .sizes
            .iter()
            .map(|&s| {
                let s = s as f64;
                s * s.log2()
            })
            .sum();
        n.log2() - sum / n
    }

    /// Intersects this partition with another (computing the partition of
    /// `X ∪ Y` from the partitions of `X` and `Y`). Convenience wrapper
    /// around [`Pli::intersect_with`] that builds a throwaway scratch; hot
    /// paths should own an [`IntersectScratch`] and reuse it.
    pub fn intersect(&self, other: &Pli) -> Pli {
        let mut scratch = IntersectScratch::new();
        self.intersect_with(other, &mut scratch)
    }

    /// Stamps `scratch`'s probe table with this partition's cluster ids and
    /// returns the epoch used. Shared prologue of the two intersection modes.
    fn build_probe(&self, other: &Pli, scratch: &mut IntersectScratch) -> u32 {
        assert!(
            self.n_rows == other.n_rows && self.weights.len() == other.weights.len(),
            "cannot intersect partitions over different relations"
        );
        scratch.prepare(self.weights.len(), self.cluster_count(), 1 + other.cluster_count() as u64);
        let probe_epoch = scratch.next_epoch();
        for (ci, cluster) in self.clusters().enumerate() {
            for &e in cluster {
                scratch.probe[e as usize] = Probe {
                    stamp: probe_epoch,
                    cluster: ci as u32,
                    weight: self.weights[e as usize],
                };
            }
        }
        probe_epoch
    }

    /// Intersects into a freshly materialized partition using the standard
    /// probe-table algorithm (elements stripped in either input are stripped
    /// in the output and are skipped), with all transient state held in
    /// `scratch`. The output is the only allocation: two exact-size vectors,
    /// filled in canonical cluster order.
    pub fn intersect_with(&self, other: &Pli, scratch: &mut IntersectScratch) -> Pli {
        let probe_epoch = self.build_probe(other, scratch);
        scratch.bounds.clear();
        scratch.stage_ids.clear();
        for cluster in other.clusters() {
            let cluster_epoch = scratch.tally_cluster(cluster, probe_epoch);
            // Reserve a staging range per surviving group; demote groups of
            // weight 1 by resetting their stamp (0 is never a live epoch).
            for &g in &scratch.touched {
                let g = g as usize;
                let weight = scratch.group_weight[g];
                if weight >= 2 {
                    let count = scratch.group_count[g];
                    let start = scratch.stage_ids.len() as u32;
                    scratch.bounds.push((scratch.group_first[g], weight, start, count));
                    scratch.group_cursor[g] = start;
                    scratch.stage_ids.resize(scratch.stage_ids.len() + count as usize, 0);
                } else {
                    scratch.group_stamp[g] = 0;
                }
            }
            for &e in cluster {
                let probe = scratch.probe[e as usize];
                if probe.stamp != probe_epoch {
                    continue;
                }
                let g = probe.cluster as usize;
                if scratch.group_stamp[g] == cluster_epoch {
                    scratch.stage_ids[scratch.group_cursor[g] as usize] = e;
                    scratch.group_cursor[g] += 1;
                }
            }
        }
        // Canonical order: ascending first id (clusters are disjoint with
        // ascending interiors, so first ids decide).
        scratch.bounds.sort_unstable_by_key(|&(first, ..)| first);
        let mut out = PliBuilder::with_capacity(scratch.stage_ids.len(), scratch.bounds.len());
        for &(_, weight, start, len) in &scratch.bounds {
            out.push(&[&scratch.stage_ids[start as usize..(start + len) as usize]], weight);
        }
        out.finish(Arc::clone(&self.weights), self.n_rows)
    }

    /// The §6.3 count-only fast path: computes the group sizes of
    /// `self ∩ other` — everything Eq. (5) needs — without materializing
    /// any element list. Performs **zero heap allocations** once `scratch`
    /// has reached steady state. Sizes are reported in the canonical
    /// (ascending-first-id) cluster order of the partition that
    /// [`Pli::intersect_with`] would have built, so
    /// [`GroupSizes::entropy`] is bit-identical to materializing first.
    pub fn intersect_counts<'s>(
        &self,
        other: &Pli,
        scratch: &'s mut IntersectScratch,
    ) -> GroupSizes<'s> {
        let probe_epoch = self.build_probe(other, scratch);
        scratch.bounds.clear();
        for cluster in other.clusters() {
            scratch.tally_cluster(cluster, probe_epoch);
            for &g in &scratch.touched {
                let g = g as usize;
                if scratch.group_weight[g] >= 2 {
                    scratch.bounds.push((scratch.group_first[g], scratch.group_weight[g], 0, 0));
                }
            }
        }
        scratch.bounds.sort_unstable_by_key(|&(first, ..)| first);
        scratch.sizes.clear();
        scratch.sizes.extend(scratch.bounds.iter().map(|&(_, size, ..)| size));
        GroupSizes { sizes: &scratch.sizes, n_rows: self.n_rows }
    }

    /// Memory footprint proxy: total number of element ids stored.
    pub fn size(&self) -> usize {
        self.ids.len()
    }
}

/// Appends clusters, in canonical order, to a partition under construction.
struct PliBuilder {
    ids: Vec<u32>,
    offsets: Vec<u32>,
    sizes: Vec<u32>,
}

impl PliBuilder {
    fn with_capacity(ids: usize, clusters: usize) -> Self {
        let mut offsets = Vec::with_capacity(clusters + 1);
        offsets.push(0);
        PliBuilder { ids: Vec::with_capacity(ids), offsets, sizes: Vec::with_capacity(clusters) }
    }

    /// Appends one cluster, the concatenation of `parts`, of size `size`.
    fn push(&mut self, parts: &[&[u32]], size: u32) {
        for part in parts {
            self.ids.extend_from_slice(part);
        }
        self.offsets.push(self.ids.len() as u32);
        self.sizes.push(size);
    }

    fn finish(self, weights: Arc<[u32]>, n_rows: usize) -> Pli {
        let covered = self.sizes.iter().map(|&s| s as usize).sum();
        Pli { ids: self.ids, offsets: self.offsets, sizes: self.sizes, weights, n_rows, covered }
    }
}

/// One element's entry in the probe table: the epoch stamp, the left-hand
/// cluster id and the element's weight, kept together so a probe is one
/// memory access.
#[derive(Clone, Copy, Debug, Default)]
struct Probe {
    stamp: u32,
    cluster: u32,
    weight: u32,
}

/// Reusable transient state for partition intersections (probe table, group
/// accumulators, staging arena). All per-element / per-cluster arrays are
/// epoch-stamped — an entry is live only if its stamp equals the current
/// epoch — so nothing is cleared between calls; the epoch is bumped instead
/// (with a full reset on the rare `u32` wrap). After the first call at a
/// given element count the scratch allocates nothing, which is what makes
/// the oracle's steady-state intersections allocation-free.
#[derive(Debug, Default)]
pub struct IntersectScratch {
    epoch: u32,
    /// Per-element probe entry of the left partition.
    probe: Vec<Probe>,
    /// Per-left-cluster: epoch stamp, element count, summed weight, first
    /// element and write cursor of the refined group inside the current
    /// right-hand cluster.
    group_stamp: Vec<u32>,
    group_count: Vec<u32>,
    group_weight: Vec<u32>,
    group_first: Vec<u32>,
    group_cursor: Vec<u32>,
    /// Left-cluster ids seen in the current right-hand cluster.
    touched: Vec<u32>,
    /// Staging cluster directory: `(first_id, size, start, len)` per group.
    bounds: Vec<(u32, u32, u32, u32)>,
    /// Staging id arena (scattered in discovery order, re-emitted sorted).
    stage_ids: Vec<u32>,
    /// Group sizes handed out by [`Pli::intersect_counts`].
    sizes: Vec<u32>,
}

impl IntersectScratch {
    /// Creates an empty scratch; arrays are sized lazily on first use.
    pub fn new() -> Self {
        IntersectScratch::default()
    }

    /// Grows the stamped arrays to the given dimensions and resets the epoch
    /// counter if the upcoming `epochs_needed` bumps would wrap `u32`.
    fn prepare(&mut self, n_elements: usize, left_clusters: usize, epochs_needed: u64) {
        if self.probe.len() < n_elements {
            self.probe.resize(n_elements, Probe::default());
        }
        if self.group_stamp.len() < left_clusters {
            self.group_stamp.resize(left_clusters, 0);
            self.group_count.resize(left_clusters, 0);
            self.group_weight.resize(left_clusters, 0);
            self.group_first.resize(left_clusters, 0);
            self.group_cursor.resize(left_clusters, 0);
        }
        if self.epoch as u64 + epochs_needed >= u32::MAX as u64 {
            self.probe.iter_mut().for_each(|p| p.stamp = 0);
            self.group_stamp.fill(0);
            self.epoch = 0;
        }
    }

    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The shared group-counting pass of both intersection modes: opens a
    /// fresh epoch for `cluster` (one right-hand cluster of an intersection)
    /// and tallies its elements by the probed left-hand cluster id, leaving
    /// `group_count`/`group_weight`/`group_first` filled for every id listed
    /// in `touched`. Elements stripped on the left (stale probe stamp) are
    /// skipped: they have weight 1 and no equal on the left, so they stay
    /// alone. Returns the cluster's epoch so callers can recognize live
    /// entries.
    fn tally_cluster(&mut self, cluster: &[u32], probe_epoch: u32) -> u32 {
        let cluster_epoch = self.next_epoch();
        self.touched.clear();
        for &e in cluster {
            let Probe { stamp, cluster: g, weight: w } = self.probe[e as usize];
            if stamp != probe_epoch {
                continue;
            }
            let g = g as usize;
            if self.group_stamp[g] != cluster_epoch {
                self.group_stamp[g] = cluster_epoch;
                self.group_count[g] = 1;
                self.group_weight[g] = w;
                self.group_first[g] = e;
                self.touched.push(g as u32);
            } else {
                self.group_count[g] += 1;
                self.group_weight[g] += w;
            }
        }
        cluster_epoch
    }
}

/// The group sizes of a partition intersection, borrowed from the scratch
/// that computed them ([`Pli::intersect_counts`]). Carries everything Eq. (5)
/// needs; sizes are in canonical cluster order so [`GroupSizes::entropy`]
/// matches the materialized partition bit-for-bit.
#[derive(Debug)]
pub struct GroupSizes<'a> {
    sizes: &'a [u32],
    n_rows: usize,
}

impl GroupSizes<'_> {
    /// The group sizes (each ≥ 2), in canonical cluster order.
    #[inline]
    pub fn sizes(&self) -> &[u32] {
        self.sizes
    }

    /// Number of rows of the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of non-singleton groups.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// Total rows covered by non-singleton groups.
    #[inline]
    pub fn covered_rows(&self) -> usize {
        self.sizes.iter().map(|&s| s as usize).sum()
    }

    /// Entropy per Eq. (5), summed in canonical cluster order — bit-identical
    /// to [`Pli::entropy`] on the partition [`Pli::intersect_with`] builds.
    pub fn entropy(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let n = self.n_rows as f64;
        let sum: f64 = self
            .sizes
            .iter()
            .map(|&s| {
                let s = s as f64;
                s * s.log2()
            })
            .sum();
        n.log2() - sum / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Relation, Schema};
    use std::collections::HashMap;

    fn sample() -> Relation {
        // Matches Figure 7 of the paper (the getEntropy example).
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        Relation::from_rows(
            schema,
            &[
                vec!["a1", "b2", "c3"],
                vec!["a2", "b1", "c1"],
                vec!["a2", "b2", "c2"],
                vec!["a3", "b3", "c3"],
                vec!["a3", "b3", "c4"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_column_partitions_match_figure_7() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        // A: a2 -> {t2,t3}, a3 -> {t4,t5}; a1 is a singleton.
        assert_eq!(a.cluster_count(), 2);
        assert_eq!(a.covered_rows(), 4);
        assert_eq!(a.distinct_values(), 3);
        assert_eq!(a.cluster(0), &[1, 2]);
        assert_eq!(a.cluster(1), &[3, 4]);
        let c = Pli::from_column(&rel, 2);
        // C: c3 -> {t1,t4}; the rest are singletons.
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.distinct_values(), 4);
    }

    #[test]
    fn from_attrs_matches_from_column_for_singletons() {
        let rel = sample();
        for attr in 0..3 {
            let a = Pli::from_column(&rel, attr);
            let b = Pli::from_attrs(&rel, AttrSet::singleton(attr));
            assert_eq!(a, b, "CSR partitions must agree exactly, attr {attr}");
            assert_eq!(a.entropy(), b.entropy());
        }
    }

    #[test]
    fn from_column_on_all_distinct_column_has_no_clusters() {
        // High-cardinality edge: every value is a singleton, so the counting
        // pass must produce an empty arena (the old per-code bucket build
        // allocated one Vec per row here).
        let schema = Schema::new(["K", "V"]).unwrap();
        let rows: Vec<Vec<String>> =
            (0..1000).map(|i| vec![format!("k{i}"), format!("v{}", i % 3)]).collect();
        let rel = Relation::from_rows(schema, &rows).unwrap();
        assert_eq!(rel.column_cardinality(0), 1000);
        let p = Pli::from_column(&rel, 0);
        assert_eq!(p.cluster_count(), 0);
        assert_eq!(p.covered_rows(), 0);
        assert_eq!(p.distinct_values(), 1000);
        assert!((p.entropy() - 1000f64.log2()).abs() < 1e-12);
        assert_eq!(p, Pli::from_attrs(&rel, AttrSet::singleton(0)));
    }

    #[test]
    fn intersection_matches_direct_computation() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        let b = Pli::from_column(&rel, 1);
        let ab = a.intersect(&b);
        let direct = Pli::from_attrs(&rel, [0usize, 1].into_iter().collect());
        assert_eq!(ab, direct, "intersection and direct build agree exactly");
        assert_eq!(ab.entropy(), direct.entropy());
        // Figure 7: AB has a single non-singleton cluster {t4, t5}.
        assert_eq!(ab.cluster_count(), 1);
        assert_eq!(ab.cluster(0), &[3, 4]);
    }

    #[test]
    fn intersection_is_commutative() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        let c = Pli::from_column(&rel, 2);
        let ac = a.intersect(&c);
        let ca = c.intersect(&a);
        assert_eq!(ac, ca, "canonical cluster order makes intersection commutative");
        assert_eq!(ac.entropy(), ca.entropy());
    }

    #[test]
    fn count_only_matches_materialized_intersection() {
        let rel = sample();
        let mut scratch = IntersectScratch::new();
        for (x, y) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let a = Pli::from_column(&rel, x);
            let b = Pli::from_column(&rel, y);
            let materialized = a.intersect_with(&b, &mut scratch);
            let expected_sizes: Vec<u32> =
                materialized.clusters().map(|c| c.len() as u32).collect();
            let expected_entropy = materialized.entropy();
            let counts = a.intersect_counts(&b, &mut scratch);
            assert_eq!(counts.sizes(), expected_sizes.as_slice(), "attrs ({x},{y})");
            assert_eq!(counts.covered_rows(), materialized.covered_rows());
            assert_eq!(counts.cluster_count(), materialized.cluster_count());
            assert_eq!(counts.entropy().to_bits(), expected_entropy.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_across_calls_and_relations_is_sound() {
        // One scratch serving partitions of different shapes and relations
        // must behave exactly like a fresh scratch each time.
        let rel = sample();
        let schema = Schema::new(["X", "Y"]).unwrap();
        let other_rel = Relation::from_rows(
            schema,
            &[vec!["0", "p"], vec!["0", "p"], vec!["1", "q"], vec!["1", "p"]],
        )
        .unwrap();
        let mut scratch = IntersectScratch::new();
        for _ in 0..3 {
            for (r, n_cols) in [(&rel, 3usize), (&other_rel, 2usize)] {
                for x in 0..n_cols {
                    for y in 0..n_cols {
                        let a = Pli::from_column(r, x);
                        let b = Pli::from_column(r, y);
                        assert_eq!(a.intersect_with(&b, &mut scratch), a.intersect(&b));
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_epoch_wrap_resets_cleanly() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        let b = Pli::from_column(&rel, 1);
        let mut scratch = IntersectScratch::new();
        let expected = a.intersect(&b);
        // Poison the scratch with a near-overflow epoch; prepare() must reset
        // the stamps rather than wrap into stale-stamp collisions.
        scratch.epoch = u32::MAX - 2;
        assert_eq!(a.intersect_with(&b, &mut scratch), expected);
        assert_eq!(a.intersect_with(&b, &mut scratch), expected);
        assert_eq!(a.intersect_counts(&b, &mut scratch).entropy(), expected.entropy());
    }

    #[test]
    fn trivial_partition_entropy_is_zero() {
        let p = Pli::trivial(10);
        assert_eq!(p.cluster_count(), 1);
        assert!(p.entropy().abs() < 1e-12);
        let small = Pli::trivial(1);
        assert_eq!(small.cluster_count(), 0);
        assert_eq!(small.entropy(), 0.0);
        let empty = Pli::trivial(0);
        assert_eq!(empty.entropy(), 0.0);
    }

    #[test]
    fn entropy_of_key_attribute_set_is_log_n() {
        let rel = sample();
        // ABC together identify every tuple: entropy = log2(5).
        let p = Pli::from_attrs(&rel, AttrSet::full(3));
        assert!((p.entropy() - (5f64).log2()).abs() < 1e-12);
        assert_eq!(p.cluster_count(), 0);
    }

    #[test]
    fn entropy_of_uniform_two_groups_is_one_bit() {
        let schema = Schema::new(["X"]).unwrap();
        let rel =
            Relation::from_rows(schema, &[vec!["0"], vec!["0"], vec!["1"], vec!["1"]]).unwrap();
        let p = Pli::from_column(&rel, 0);
        assert!((p.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersect_with_trivial_is_identity_on_entropy() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        let t = Pli::trivial(rel.n_rows());
        let both = a.intersect(&t);
        assert_eq!(both.entropy(), a.entropy());
        let flipped = t.intersect(&a);
        assert_eq!(flipped, both);
    }

    #[test]
    #[should_panic(expected = "different relations")]
    fn intersecting_mismatched_sizes_panics() {
        let a = Pli::trivial(3);
        let b = Pli::trivial(4);
        let _ = a.intersect(&b);
    }

    #[test]
    fn size_reports_covered_rows() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0);
        assert_eq!(a.size(), 4);
    }

    #[test]
    fn from_attrs_matches_reference_grouping_past_a_u64_fold() {
        // 12 columns of cardinality 64 need 72 bits (64^12 = 2^72), so the
        // keyer refolds once. Rows r and r + 64 agree on every column by
        // construction, so the grouping is non-trivial: 64 clusters of
        // exactly two rows.
        let cols = 12usize;
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| (0..128u32).map(|r| (r * 7 + c as u32 * 13) % 64).collect())
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let full = AttrSet::full(cols);
        assert!((0..cols).all(|c| rel.column_cardinality(c) == 64));

        let pli = Pli::from_attrs(&rel, full);
        // Reference grouping: the legacy hash-map-and-sort algorithm.
        let mut groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for r in 0..rel.n_rows() {
            groups.entry(rel.key(r, full)).or_default().push(r as u32);
        }
        let mut expected: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        expected.sort();
        assert_eq!(expected.len(), 64);
        assert!(expected.iter().all(|g| g.len() == 2));
        let got: Vec<Vec<u32>> = pli.clusters().map(|c| c.to_vec()).collect();
        assert_eq!(got, expected);
        // A sub-projection of the same relation keys in one round.
        let narrow: AttrSet = [0usize, 1].into_iter().collect();
        let fold_path = Pli::from_attrs(&rel, narrow);
        let mut narrow_groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for r in 0..rel.n_rows() {
            narrow_groups.entry(rel.key(r, narrow)).or_default().push(r as u32);
        }
        let mut narrow_expected: Vec<Vec<u32>> =
            narrow_groups.into_values().filter(|g| g.len() >= 2).collect();
        narrow_expected.sort();
        let narrow_got: Vec<Vec<u32>> = fold_path.clusters().map(|c| c.to_vec()).collect();
        assert_eq!(narrow_got, narrow_expected);
    }
}
