//! The [`RelationBackend`] trait and its in-memory implementation.

use crate::StorageError;
use relation::{Relation, Schema};

/// What the mining engine needs from a stored relation — nothing more.
///
/// The entropy oracle's tuple-table build and PLI construction
/// (`entropy::Pli::from_column`/`from_attrs` in the entropy crate) consume
/// columns as *chunk streams*: `scan_column` / `scan_columns` invoke the
/// visitor with consecutive, ascending-row slices of dictionary codes. A
/// backend is free to chunk however it stores data (the in-memory store
/// yields one whole-column slice; the paged store yields one slice per
/// page), and consumers must be chunk-size invariant — which grouping rows
/// in first-occurrence order is by construction.
///
/// The trait is dyn-compatible (visitors are `&mut dyn FnMut`) so sessions
/// can hold `Arc<dyn RelationBackend>`, and `Send + Sync` so one backend can
/// serve concurrent mining threads.
pub trait RelationBackend: Send + Sync {
    /// The relation's schema.
    fn schema(&self) -> &Schema;

    /// Number of rows.
    fn n_rows(&self) -> usize;

    /// Number of attributes.
    fn arity(&self) -> usize {
        self.schema().arity()
    }

    /// Monotone data version (0 for immutable backends).
    fn data_version(&self) -> u64;

    /// Number of distinct values in column `c`. Codes are dense:
    /// every per-row code of column `c` is `< column_cardinality(c)`.
    fn column_cardinality(&self, c: usize) -> usize;

    /// The dictionary value of `code` in column `c`.
    ///
    /// # Panics
    /// Panics if `c` or `code` is out of range.
    fn dict_value(&self, c: usize, code: u32) -> &str;

    /// The backend's preferred chunk size in rows — a sizing hint for
    /// consumers that pre-allocate per-chunk state; scans may still deliver
    /// shorter chunks (the final page usually is).
    fn chunk_rows(&self) -> usize;

    /// Streams column `c` as consecutive code chunks in ascending row
    /// order. The visitor receives `(chunk_start_row, codes)`; chunk starts
    /// tile `0..n_rows` without gaps or overlaps.
    ///
    /// # Errors
    /// Returns a [`StorageError`] when a chunk cannot be produced (a spill
    /// file read failed, or a page failed its checksum). The scan stops at
    /// the failing chunk; chunks already visited were valid.
    fn scan_column(
        &self,
        c: usize,
        visit: &mut dyn FnMut(usize, &[u32]),
    ) -> Result<(), StorageError>;

    /// Streams several columns *aligned*: each visit delivers one slice per
    /// entry of `cols` (in the caller's order), all covering the same row
    /// range `chunk_start..chunk_start + len`.
    ///
    /// # Errors
    /// Returns a [`StorageError`] when a chunk cannot be produced, exactly as
    /// [`RelationBackend::scan_column`].
    fn scan_columns(
        &self,
        cols: &[usize],
        visit: &mut dyn FnMut(usize, &[&[u32]]),
    ) -> Result<(), StorageError>;

    /// Approximate bytes of this backend resident in memory right now
    /// (dictionaries plus cached/materialized code storage). Feeds the
    /// `maimon_dataset_resident_bytes` gauge.
    fn resident_bytes(&self) -> usize;

    /// A short label for this backend kind (e.g. `"in_memory"`, `"paged"`),
    /// surfaced by the serve layer's `list`/`stats` ops.
    fn kind(&self) -> &'static str;
}

/// The in-memory store adapts trivially: every column is already one
/// contiguous code slice, so each scan is a single whole-column chunk and
/// behavior (and performance) of existing consumers is unchanged.
impl RelationBackend for Relation {
    fn schema(&self) -> &Schema {
        Relation::schema(self)
    }

    fn n_rows(&self) -> usize {
        Relation::n_rows(self)
    }

    fn arity(&self) -> usize {
        Relation::arity(self)
    }

    fn data_version(&self) -> u64 {
        Relation::data_version(self)
    }

    fn column_cardinality(&self, c: usize) -> usize {
        Relation::column_cardinality(self, c)
    }

    fn dict_value(&self, c: usize, code: u32) -> &str {
        &self.column_values(c)[code as usize]
    }

    fn chunk_rows(&self) -> usize {
        Relation::n_rows(self).max(1)
    }

    fn scan_column(
        &self,
        c: usize,
        visit: &mut dyn FnMut(usize, &[u32]),
    ) -> Result<(), StorageError> {
        if Relation::n_rows(self) > 0 {
            visit(0, self.column_codes(c));
        }
        Ok(())
    }

    fn scan_columns(
        &self,
        cols: &[usize],
        visit: &mut dyn FnMut(usize, &[&[u32]]),
    ) -> Result<(), StorageError> {
        if Relation::n_rows(self) > 0 {
            let slices: Vec<&[u32]> = cols.iter().map(|&c| self.column_codes(c)).collect();
            visit(0, &slices);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        (0..Relation::arity(self))
            .map(|c| {
                let dict: usize = self.column_values(c).iter().map(String::len).sum();
                dict + std::mem::size_of_val(self.column_codes(c))
            })
            .sum()
    }

    fn kind(&self) -> &'static str {
        "in_memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::new(["A", "B"]).unwrap();
        Relation::from_rows(
            schema,
            &[vec!["x", "1"], vec!["y", "2"], vec!["x", "1"], vec!["z", "2"]],
        )
        .unwrap()
    }

    #[test]
    fn in_memory_scan_is_one_whole_column_chunk() {
        let rel = sample();
        let backend: &dyn RelationBackend = &rel;
        let mut chunks = Vec::new();
        backend.scan_column(0, &mut |start, codes| chunks.push((start, codes.to_vec()))).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[0].1, rel.column_codes(0));
        assert_eq!(backend.chunk_rows(), rel.n_rows());
    }

    #[test]
    fn in_memory_aligned_scan_delivers_all_columns() {
        let rel = sample();
        let backend: &dyn RelationBackend = &rel;
        let mut seen = 0;
        backend
            .scan_columns(&[1, 0], &mut |start, slices| {
                assert_eq!(start, 0);
                assert_eq!(slices.len(), 2);
                assert_eq!(slices[0], rel.column_codes(1));
                assert_eq!(slices[1], rel.column_codes(0));
                seen += 1;
            })
            .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn dict_value_round_trips_codes() {
        let rel = sample();
        let backend: &dyn RelationBackend = &rel;
        for c in 0..backend.arity() {
            for r in 0..backend.n_rows() {
                assert_eq!(backend.dict_value(c, rel.code(r, c)), rel.value(r, c));
            }
        }
        assert_eq!(backend.kind(), "in_memory");
        assert!(backend.resident_bytes() > 0);
    }

    #[test]
    fn empty_relation_scans_deliver_no_chunks() {
        let rel = Relation::empty(Schema::new(["A", "B"]).unwrap());
        let backend: &dyn RelationBackend = &rel;
        backend.scan_column(0, &mut |_, _| panic!("no chunks expected")).unwrap();
        backend.scan_columns(&[0, 1], &mut |_, _| panic!("no chunks expected")).unwrap();
    }
}
