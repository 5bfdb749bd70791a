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
use relation::{AttrSet, FoldKeyMap, Relation};
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

    /// The label of the code vector `code(position)`, if it was inserted.
    #[inline]
    pub(crate) fn find(&self, code: impl Fn(usize) -> u32) -> Option<u32> {
        let mut label = 0u64;
        for round in &self.rounds {
            let key = round.factors.iter().fold(label, |key, &(p, m, _)| key + code(p) as u64 * m);
            label = *round.labels.get(&key)? as u64;
        }
        Some(label as u32)
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
#[derive(Debug)]
pub(crate) struct TupleTable {
    /// Multiplicity of each tuple; shared with every partition over it.
    weights: Arc<[u32]>,
    /// First row of each tuple, ascending.
    first_rows: Vec<u32>,
    /// Full-row key → tuple id.
    index: Keyer,
    n_rows: usize,
}

impl TupleTable {
    /// Builds the table in one chunked pass over every column, returning
    /// beside it each column's code per tuple (what the single-attribute
    /// partitions are grouped from).
    ///
    /// # Errors
    /// Propagates the backend's [`StorageError`] when a chunk cannot be read.
    pub(crate) fn scan(
        source: &dyn RelationBackend,
    ) -> Result<(TupleTable, Vec<Vec<u32>>), StorageError> {
        let cols: Vec<usize> = (0..source.arity()).collect();
        let mut index = Keyer::new(cols.iter().map(|&c| source.column_cardinality(c)));
        let mut weights: Vec<u32> = Vec::new();
        let mut first_rows: Vec<u32> = Vec::new();
        let mut codes: Vec<Vec<u32>> = vec![Vec::new(); cols.len()];
        source.scan_columns(&cols, &mut |start, slices| {
            let len = slices.first().map_or(0, |s| s.len());
            for i in 0..len {
                let (tuple, fresh) = index.insert(|c| slices[c][i]);
                if fresh {
                    weights.push(1);
                    first_rows.push((start + i) as u32);
                    for (column, slice) in codes.iter_mut().zip(slices) {
                        column.push(slice[i]);
                    }
                } else {
                    weights[tuple as usize] += 1;
                }
            }
        })?;
        let table =
            TupleTable { weights: weights.into(), first_rows, index, n_rows: source.n_rows() };
        Ok((table, codes))
    }

    /// The table of a relation whose scan failed: no tuples and no rows, so
    /// every partition over it is empty and every entropy is 0.
    pub(crate) fn empty(arity: usize) -> TupleTable {
        TupleTable {
            weights: Arc::from([]),
            first_rows: Vec::new(),
            index: Keyer::new(std::iter::repeat_n(1, arity)),
            n_rows: 0,
        }
    }

    /// Number of distinct tuples.
    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    /// The partition of a single attribute, from its code per tuple.
    pub(crate) fn single(&self, codes: &[u32], cardinality: usize) -> Pli {
        Pli::from_labels(codes, cardinality, Arc::clone(&self.weights), self.n_rows)
    }

    /// The partition of the empty attribute set: every tuple in one group.
    pub(crate) fn trivial(&self) -> Pli {
        let labels = vec![0; self.len()];
        Pli::from_labels(&labels, 1, Arc::clone(&self.weights), self.n_rows)
    }

    /// Builds the partition of `attrs` over the tuples by rescanning
    /// `source`, which must hold the rows this table was built from: each
    /// row is mapped to its tuple id, and each tuple is labelled by its
    /// `attrs` codes at its first row.
    ///
    /// # Errors
    /// Propagates the backend's [`StorageError`]; a row that is not in the
    /// table is reported as [`StorageError::Corrupt`].
    pub(crate) fn partition(
        &self,
        source: &dyn RelationBackend,
        attrs: AttrSet,
    ) -> Result<Pli, StorageError> {
        let all: Vec<usize> = (0..source.arity()).collect();
        let cols = attrs.to_vec();
        let mut keyer = Keyer::new(cols.iter().map(|&c| source.column_cardinality(c)));
        let mut labels: Vec<u32> = Vec::with_capacity(self.len());
        let mut unknown = false;
        source.scan_columns(&all, &mut |_, slices| {
            let len = slices.first().map_or(0, |s| s.len());
            for i in 0..len {
                match self.index.find(|c| slices[c][i]) {
                    // Tuple ids rise with first row, so a tuple's first row
                    // is exactly where the next unlabelled id turns up.
                    Some(t) if t as usize == labels.len() => {
                        labels.push(keyer.insert(|p| slices[cols[p]][i]).0);
                    }
                    Some(_) => {}
                    None => unknown = true,
                }
            }
        })?;
        if unknown || labels.len() != self.len() {
            return Err(StorageError::Corrupt(
                "relation rows no longer match the oracle's tuple table".into(),
            ));
        }
        Ok(Pli::from_labels(&labels, keyer.len(), Arc::clone(&self.weights), self.n_rows))
    }

    /// The table of `new`, which must be this table's relation plus
    /// appended rows. Each appended row bumps its tuple's weight or opens a
    /// new tuple; old tuples keep their ids. Also returns the old tuples
    /// whose weight rose, ascending.
    pub(crate) fn extended(&self, new: &Relation) -> (TupleTable, Vec<u32>) {
        let mut index = if self.index.covers(|c| new.column_cardinality(c)) {
            self.index.clone()
        } else {
            // A dictionary outgrew its radix: rekey the old tuples, in id
            // order so they keep their ids.
            let mut index = Keyer::new((0..new.arity()).map(|c| new.column_cardinality(c)));
            for &r in &self.first_rows {
                index.insert(|c| new.code(r as usize, c));
            }
            index
        };
        let mut weights = self.weights.to_vec();
        let mut first_rows = self.first_rows.clone();
        let mut repeated = Vec::new();
        for r in self.n_rows..new.n_rows() {
            let (tuple, fresh) = index.insert(|c| new.code(r, c));
            if fresh {
                weights.push(1);
                first_rows.push(r as u32);
            } else {
                let t = tuple as usize;
                if t < self.len() && weights[t] == self.weights[t] {
                    repeated.push(tuple);
                }
                weights[t] += 1;
            }
        }
        repeated.sort_unstable();
        let table = TupleTable { weights: weights.into(), first_rows, index, n_rows: new.n_rows() };
        (table, repeated)
    }

    /// Carries `pli`, the partition of `attrs` over the table of `old`,
    /// onto this table, which [`TupleTable::extended`] built for `new` with
    /// `repeated` the old tuples whose weight rose. `None` when the delta
    /// path cannot key `attrs` exactly ([`Pli::grown`]).
    pub(crate) fn carry(
        &self,
        pli: &Pli,
        attrs: AttrSet,
        old: &Relation,
        new: &Relation,
        repeated: &[u32],
    ) -> Option<Pli> {
        let first_row = |t: u32| self.first_rows[t as usize] as usize;
        pli.grown(attrs, old, new, first_row, Arc::clone(&self.weights), self.n_rows, repeated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

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
        assert_eq!(keyer.find(|p| b[p]), Some(1));
        let mut c = a.clone();
        c[0] = 5;
        assert_eq!(keyer.find(|p| c[p]), None);
        assert_eq!(keyer.len(), 2);
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
        let (table, codes) = TupleTable::scan(&rel).unwrap();
        assert_eq!(&*table.weights, &[3, 1, 1]);
        assert_eq!(table.first_rows, vec![0, 1, 3]);
        assert_eq!(codes, vec![vec![0, 1, 2], vec![0, 1, 1]]);

        let mut grown = rel.clone();
        grown.append_rows(&[vec!["y", "2"], vec!["w", "9"], vec!["y", "2"]]).unwrap();
        let (next, repeated) = table.extended(&grown);
        assert_eq!(&*next.weights, &[3, 3, 1, 1]);
        assert_eq!(next.first_rows, vec![0, 1, 3, 6]);
        assert_eq!(repeated, vec![1], "only tuple 1 repeats, once listed");
        assert_eq!(next.n_rows, 8);
    }
}
