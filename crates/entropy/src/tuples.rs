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
//! Tuples are keyed exactly by a [`relation::Keyer`], the labeller every
//! grouping in the workspace shares, and so is every partition over them.

use crate::partition::Pli;
use relation::{AttrSet, Keyer, Relation, RelationError, Schema};
use std::sync::Arc;
use storage::{RelationBackend, StorageError};

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
        let mut labels: Vec<u32> = Vec::new();
        source.scan_columns(&cols, &mut |_, slices| {
            let len = slices.first().map_or(0, |s| s.len());
            labels.clear();
            index.extend_labels(slices, len, &mut labels);
            // Tuple ids are numbered by first row: a row opens a tuple
            // exactly when its id is the next one.
            for (i, &tuple) in labels.iter().enumerate() {
                if tuple as usize == weights.len() {
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

    /// The partition of `attrs`, a non-empty attribute set, over the tuples,
    /// labelling each tuple by its `attrs` codes.
    pub(crate) fn partition(&self, attrs: AttrSet) -> Pli {
        let (labels, groups) =
            self.tuples.group_labels(attrs).expect("partitions are of non-empty attribute sets");
        Pli::from_labels(&labels, groups, Arc::clone(&self.weights), self.n_rows)
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
    /// old tuples whose weight rose ([`Pli::grown`]).
    pub(crate) fn carry(
        &self,
        pli: &Pli,
        attrs: AttrSet,
        old: &TupleTable,
        repeated: &[u32],
    ) -> Pli {
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
