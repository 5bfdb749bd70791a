//! The relation as a bag: its distinct tuples with their multiplicities.
//!
//! Eq. (5) depends only on the multiset of tuples, so the oracle partitions
//! *distinct tuples* rather than rows. A [`TupleTable`] numbers the distinct
//! tuples in first-occurrence order (tuple ids rise with their first row)
//! and records how many rows repeat each one. A partition over tuple ids
//! weights each tuple by its multiplicity, which keeps every group size —
//! and therefore every entropy — exactly what the row-level partition gives
//! (see the `partition` module docs for the three rules).
//!
//! Tuples are keyed exactly by a [`Keyer`]: codes fold into mixed-radix
//! `u64` keys, and whenever the radix product would overflow, the partial
//! key is first refolded into a dense label, as
//! [`relation::JoinCounter`] labels wide projections.

use crate::partition::Pli;
use relation::{AttrSet, FoldKeyMap, Relation, RelationError, Schema};
use std::sync::Arc;
use storage::{RelationBackend, StorageError};

/// Exact dense labels for code vectors over a fixed list of columns, in
/// first-insertion order.
///
/// The columns are folded in rounds. Each round folds the previous round's
/// label (below 2³², in the low word) and as many further columns as fit
/// into one mixed-radix `u64`, then maps that key to a dense label. The last
/// round's label is the result, so two code vectors get the same label
/// exactly when they agree on every column, however wide the list.
#[derive(Clone, Debug)]
pub(crate) struct Keyer {
    rounds: Vec<Round>,
}

#[derive(Clone, Debug)]
struct Round {
    /// `(position, multiplier, radix)` per folded column; `position` indexes
    /// the keyer's column list and `radix` is the cardinality it was sized for.
    factors: Vec<(usize, u64, u64)>,
    labels: FoldKeyMap<u32>,
}

impl Keyer {
    /// A keyer over columns with the given cardinalities, in list order.
    pub(crate) fn new(cardinalities: impl IntoIterator<Item = usize>) -> Keyer {
        let mut rounds = Vec::new();
        let mut factors = Vec::new();
        let mut radix: u64 = 1;
        for (position, cardinality) in cardinalities.into_iter().enumerate() {
            let cardinality = cardinality.max(1) as u64;
            if radix.checked_mul(cardinality).is_none() {
                rounds.push(Round {
                    factors: std::mem::take(&mut factors),
                    labels: Default::default(),
                });
                // Cardinalities stay below 2³², so a column always fits next
                // to the refolded label.
                radix = 1 << 32;
            }
            factors.push((position, radix, cardinality));
            radix *= cardinality;
        }
        rounds.push(Round { factors, labels: Default::default() });
        Keyer { rounds }
    }

    /// The label of the code vector `code(position)`, assigning the next
    /// free one if it is new; the flag says whether it was.
    #[inline]
    pub(crate) fn insert(&mut self, code: impl Fn(usize) -> u32) -> (u32, bool) {
        let mut label = 0u64;
        let mut fresh = false;
        for round in &mut self.rounds {
            let key = round.factors.iter().fold(label, |key, &(p, m, _)| key + code(p) as u64 * m);
            let next = round.labels.len() as u32;
            let id = *round.labels.entry(key).or_insert(next);
            fresh = id == next;
            label = id as u64;
        }
        (label as u32, fresh)
    }

    /// Number of distinct labels handed out.
    pub(crate) fn len(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.labels.len())
    }

    /// `true` while every column's cardinality still fits the radix the
    /// keyer was sized for, so existing keys stay exact.
    pub(crate) fn covers(&self, cardinality: impl Fn(usize) -> usize) -> bool {
        self.rounds
            .iter()
            .flat_map(|r| &r.factors)
            .all(|&(p, _, radix)| cardinality(p) as u64 <= radix)
    }
}

/// The distinct tuples of a relation in first-occurrence order, each with
/// its multiplicity, plus the index that maps a row to its tuple id.
///
/// The tuples themselves are a [`Relation`] sharing the source's
/// dictionaries: tuple id `t` is its row `t`. Every partition the oracle
/// builds, every quality measurement and every decomposition reads that
/// relation, never the rows it was scanned from.
#[derive(Debug)]
pub(crate) struct TupleTable {
    /// The distinct tuples, one row each, in first-occurrence order.
    tuples: Arc<Relation>,
    /// Multiplicity of each tuple; shared with every partition over it.
    weights: Arc<[u32]>,
    /// Full-row key → tuple id.
    index: Keyer,
    /// Rows of the relation the tuples were counted from: the total weight.
    n_rows: usize,
}

impl TupleTable {
    /// Builds the table in one chunked pass over every column of `source`.
    /// `twin` is `source` itself when the caller holds it as an in-memory
    /// relation: if no row repeats, it already is the tuple relation and is
    /// shared rather than copied.
    ///
    /// # Errors
    /// Propagates the backend's [`StorageError`] when a chunk cannot be read.
    pub(crate) fn scan(
        source: &dyn RelationBackend,
        twin: Option<&Arc<Relation>>,
    ) -> Result<TupleTable, StorageError> {
        let arity = source.arity();
        let cols: Vec<usize> = (0..arity).collect();
        let mut index = Keyer::new(cols.iter().map(|&c| source.column_cardinality(c)));
        let mut weights: Vec<u32> = Vec::new();
        let mut codes: Vec<Vec<u32>> = vec![Vec::new(); arity];
        source.scan_columns(&cols, &mut |_, slices| {
            let len = slices.first().map_or(0, |s| s.len());
            for i in 0..len {
                let (tuple, fresh) = index.insert(|c| slices[c][i]);
                if fresh {
                    weights.push(1);
                    for (column, slice) in codes.iter_mut().zip(slices) {
                        column.push(slice[i]);
                    }
                } else {
                    weights[tuple as usize] += 1;
                }
            }
        })?;
        let tuples = match twin {
            Some(rel) if rel.n_rows() == weights.len() => Arc::clone(rel),
            _ => {
                let dicts = (0..arity)
                    .map(|c| {
                        (0..source.column_cardinality(c) as u32)
                            .map(|code| source.dict_value(c, code).to_string())
                            .collect()
                    })
                    .collect();
                let schema = source.schema().clone();
                Arc::new(
                    Relation::from_encoded_parts(schema, dicts, codes, source.data_version())
                        .map_err(StorageError::Relation)?,
                )
            }
        };
        Ok(TupleTable { tuples, weights: weights.into(), index, n_rows: source.n_rows() })
    }

    /// The table of a relation whose scan failed: no tuples and no rows, so
    /// every partition over it is empty and every entropy is 0.
    pub(crate) fn empty(schema: &Schema) -> TupleTable {
        TupleTable {
            tuples: Arc::new(Relation::empty(schema.clone())),
            weights: Arc::from([]),
            index: Keyer::new(std::iter::repeat_n(1, schema.arity())),
            n_rows: 0,
        }
    }

    /// The distinct tuples as a relation: tuple id `t` is row `t`.
    pub(crate) fn tuples(&self) -> &Arc<Relation> {
        &self.tuples
    }

    /// Number of distinct tuples.
    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    /// Number of rows counted, multiplicities included.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The partition of a single attribute. Dictionaries number values by
    /// first appearance, so the codes label the tuples in first-tuple order.
    pub(crate) fn single(&self, attr: usize) -> Pli {
        let (codes, cardinality) =
            (self.tuples.column_codes(attr), self.tuples.column_cardinality(attr));
        Pli::from_labels(codes, cardinality, Arc::clone(&self.weights), self.n_rows)
    }

    /// The partition of `attrs` over the tuples, labelling each tuple by its
    /// `attrs` codes.
    pub(crate) fn partition(&self, attrs: AttrSet) -> Pli {
        let columns: Vec<&[u32]> = attrs.iter().map(|c| self.tuples.column_codes(c)).collect();
        let mut keyer = Keyer::new(attrs.iter().map(|c| self.tuples.column_cardinality(c)));
        let labels: Vec<u32> = (0..self.len()).map(|t| keyer.insert(|p| columns[p][t]).0).collect();
        Pli::from_labels(&labels, keyer.len(), Arc::clone(&self.weights), self.n_rows)
    }

    /// The table after appending `rows`: each row bumps its tuple's weight
    /// or opens a new tuple; old tuples keep their ids. Also returns the old
    /// tuples whose weight rose, ascending. Clones the tuples, not the rows:
    /// O(tuples + batch).
    ///
    /// # Errors
    /// Returns the [`RelationError`] of a row whose arity mismatches; no row
    /// is appended then.
    pub(crate) fn extended<S: AsRef<str>>(
        &self,
        rows: &[Vec<S>],
    ) -> Result<(TupleTable, Vec<u32>), RelationError> {
        let mut tuples = (*self.tuples).clone();
        let mut weights = self.weights.to_vec();
        let mut index: Option<Keyer> = None;
        let mut repeated = Vec::new();
        tuples.append_rows_where(rows, |grown, codes| {
            let index = index.get_or_insert_with(|| self.rekeyed(grown));
            let (tuple, fresh) = index.insert(|c| codes[c]);
            if fresh {
                weights.push(1);
            } else {
                let t = tuple as usize;
                if t < self.len() && weights[t] == self.weights[t] {
                    repeated.push(tuple);
                }
                weights[t] += 1;
            }
            fresh
        })?;
        repeated.sort_unstable();
        let table = TupleTable {
            tuples: Arc::new(tuples),
            weights: weights.into(),
            index: index.unwrap_or_else(|| self.index.clone()),
            n_rows: self.n_rows + rows.len(),
        };
        Ok((table, repeated))
    }

    /// This table's index, valid for `grown`: the tuples plus a freshly
    /// interned batch. A dictionary that outgrew its radix rekeys the old
    /// tuples, in id order so they keep their ids.
    fn rekeyed(&self, grown: &Relation) -> Keyer {
        if self.index.covers(|c| grown.column_cardinality(c)) {
            return self.index.clone();
        }
        let mut index = Keyer::new((0..grown.arity()).map(|c| grown.column_cardinality(c)));
        for t in 0..self.len() {
            index.insert(|c| grown.code(t, c));
        }
        index
    }

    /// Carries `pli`, the partition of `attrs` over `old`, onto this table,
    /// which [`TupleTable::extended`] built from `old` with `repeated` the
    /// old tuples whose weight rose. `None` when the delta path cannot key
    /// `attrs` exactly ([`Pli::grown`]).
    pub(crate) fn carry(
        &self,
        pli: &Pli,
        attrs: AttrSet,
        old: &TupleTable,
        repeated: &[u32],
    ) -> Option<Pli> {
        pli.grown(
            attrs,
            &old.tuples,
            &self.tuples,
            Arc::clone(&self.weights),
            self.n_rows,
            repeated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyer_refolds_past_a_u64_overflow_and_stays_exact() {
        // 12 columns of cardinality 64 need 72 bits: two rounds.
        let mut keyer = Keyer::new(std::iter::repeat_n(64, 12));
        assert_eq!(keyer.rounds.len(), 2);
        let a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        b[11] = 63;
        assert_eq!(keyer.insert(|p| a[p]), (0, true));
        assert_eq!(keyer.insert(|p| b[p]), (1, true));
        assert_eq!(keyer.insert(|p| a[p]), (0, false));
        assert_eq!(keyer.insert(|p| b[p]), (1, false));
        let mut c = a.clone();
        c[0] = 5;
        assert_eq!(keyer.insert(|p| c[p]), (2, true));
        assert_eq!(keyer.len(), 3);
        assert!(keyer.covers(|_| 64));
        assert!(!keyer.covers(|p| if p == 3 { 65 } else { 64 }));
    }

    #[test]
    fn table_counts_multiplicities_in_first_occurrence_order() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            &[vec!["x", "1"], vec!["y", "2"], vec!["x", "1"], vec!["z", "2"], vec!["x", "1"]],
        )
        .unwrap();
        let table = TupleTable::scan(&rel, None).unwrap();
        assert_eq!(&*table.weights, &[3, 1, 1]);
        assert_eq!(table.tuples.column_codes(0), &[0, 1, 2]);
        assert_eq!(table.tuples.column_codes(1), &[0, 1, 1]);
        assert_eq!(table.tuples.column_values(0), rel.column_values(0));

        let (next, repeated) =
            table.extended(&[vec!["y", "2"], vec!["w", "9"], vec!["y", "2"]]).unwrap();
        assert_eq!(&*next.weights, &[3, 3, 1, 1]);
        assert_eq!(next.tuples.row(3), vec!["w", "9"]);
        assert_eq!(next.tuples.data_version(), rel.data_version() + 1);
        assert_eq!(repeated, vec![1], "only tuple 1 repeats, once listed");
        assert_eq!(next.n_rows, 8);
        assert!(table.extended(&[vec!["y"]]).is_err());
    }

    #[test]
    fn a_duplicate_free_twin_is_shared_not_copied() {
        let rel = Arc::new(
            Relation::from_rows(
                Schema::new(["A", "B"]).unwrap(),
                &[vec!["x", "1"], vec!["y", "2"]],
            )
            .unwrap(),
        );
        let table = TupleTable::scan(&*rel, Some(&rel)).unwrap();
        assert!(Arc::ptr_eq(table.tuples(), &rel));
    }
}
