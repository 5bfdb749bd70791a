//! In-memory, dictionary-encoded, columnar relations.
//!
//! Maimon only ever needs categorical comparisons of values (grouping,
//! counting, joining); it never interprets them numerically. Every column is
//! therefore stored as a dictionary of distinct strings plus a dense `u32`
//! code per row, and every grouping of rows labels their codes through one
//! exact [`Keyer`].

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::keyer::Keyer;
use crate::schema::Schema;
use std::collections::HashMap;
use std::fmt;

/// A column's dictionary: its distinct values in first-seen order (a
/// value's code is its position) plus a hash index from value to code, so
/// interning is O(1) amortized. Every path that turns text into codes
/// interns through it: row appends, the CSV loader and the streamed mount.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Indexes distinct values; `None` if a value repeats.
    fn from_values(values: Vec<String>) -> Option<Self> {
        let index: HashMap<String, u32> =
            values.iter().enumerate().map(|(i, v)| (v.clone(), i as u32)).collect();
        (index.len() == values.len()).then_some(Dictionary { values, index })
    }

    /// Returns the code of `value`, appending it if it is unseen.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_string());
        self.index.insert(value.to_string(), code);
        code
    }

    /// The code of `value`, if the dictionary holds it.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The value with code `code`.
    ///
    /// # Panics
    /// Panics if `code` is not in the dictionary.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Gives up the index and returns the values, indexed by code.
    pub fn into_values(self) -> Vec<String> {
        self.values
    }
}

/// A single dictionary-encoded column.
#[derive(Clone, Debug, Default)]
pub(crate) struct Column {
    pub(crate) dict: Dictionary,
    /// Per-row dictionary codes.
    pub(crate) codes: Vec<u32>,
}

impl Column {
    /// Builds a column from a dictionary of distinct values and its codes.
    fn with_dict(dict: Vec<String>, codes: Vec<u32>) -> Self {
        let dict = Dictionary::from_values(dict).expect("dictionary values are distinct");
        Column { dict, codes }
    }
}

/// Interns one row into `columns`, checking its arity first so a bad row
/// changes nothing. [`Relation::push_row`], [`RelationBuilder::push_row`]
/// and the CSV loader all append through it.
fn push_values<S: AsRef<str>>(
    columns: &mut [Column],
    values: impl ExactSizeIterator<Item = S>,
) -> Result<(), RelationError> {
    if values.len() != columns.len() {
        return Err(RelationError::ArityMismatch { expected: columns.len(), got: values.len() });
    }
    for (column, v) in columns.iter_mut().zip(values) {
        let code = column.dict.intern(v.as_ref());
        column.codes.push(code);
    }
    Ok(())
}

/// An in-memory relation instance `R` over a [`Schema`].
///
/// Rows are not deduplicated automatically; use [`Relation::distinct`] when
/// set semantics are required (the paper's relations are sets of tuples, and
/// the dataset constructors in `maimon-datasets` deduplicate on load).
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
    /// Monotone version counter, bumped by every successful mutation
    /// ([`Relation::push_row`], [`Relation::append_rows`]). Freshly
    /// constructed (and derived) relations start at version 0.
    data_version: u64,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let arity = schema.arity();
        Relation { schema, columns: vec![Column::default(); arity], n_rows: 0, data_version: 0 }
    }

    /// Builds a relation from string rows.
    ///
    /// # Errors
    /// Returns an error if any row's arity differs from the schema's.
    pub fn from_rows<S: AsRef<str>>(
        schema: Schema,
        rows: &[Vec<S>],
    ) -> Result<Self, RelationError> {
        let mut builder = RelationBuilder::new(schema);
        for row in rows {
            builder.push_row(row.iter().map(|s| s.as_ref()))?;
        }
        Ok(builder.finish())
    }

    /// Builds a relation directly from per-column integer codes; value `v` of
    /// column `c` is rendered as the string `v`. This is the fast path used by
    /// the synthetic dataset generators.
    ///
    /// # Errors
    /// Returns an error if the column count does not match the schema or the
    /// columns have unequal lengths.
    pub fn from_code_columns(
        schema: Schema,
        columns: Vec<Vec<u32>>,
    ) -> Result<Self, RelationError> {
        if columns.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        if columns.iter().any(|c| c.len() != n_rows) {
            return Err(RelationError::ArityMismatch {
                expected: n_rows,
                got: columns.iter().map(|c| c.len()).max().unwrap_or(0),
            });
        }
        let mut cols = Vec::with_capacity(columns.len());
        for raw in columns {
            // Re-encode into a dense dictionary so codes are contiguous.
            let mut remap: HashMap<u32, u32> = HashMap::new();
            let mut dict = Vec::new();
            let mut codes = Vec::with_capacity(raw.len());
            for v in raw {
                let code = *remap.entry(v).or_insert_with(|| {
                    dict.push(v.to_string());
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            cols.push(Column::with_dict(dict, codes));
        }
        Ok(Relation { schema, columns: cols, n_rows, data_version: 0 })
    }

    /// Rebuilds a relation from already-encoded parts — per-column
    /// dictionaries plus per-row codes — preserving `data_version`. This is
    /// the deserialization path used by the durable snapshot loader, so
    /// unlike [`Relation::from_code_columns`] it neither re-encodes nor
    /// resets the version: the result is bit-identical (same dictionaries,
    /// same codes, same version) to the relation that was serialized.
    ///
    /// # Errors
    /// Returns [`RelationError::InvalidEncoding`] if the shapes are ragged
    /// (wrong column count, unequal column lengths), a dictionary contains a
    /// duplicate value, or any code is outside its dictionary.
    pub fn from_encoded_parts(
        schema: Schema,
        dicts: Vec<Vec<String>>,
        codes: Vec<Vec<u32>>,
        data_version: u64,
    ) -> Result<Self, RelationError> {
        let arity = schema.arity();
        if dicts.len() != arity || codes.len() != arity {
            return Err(RelationError::InvalidEncoding(format!(
                "schema has arity {} but got {} dictionaries and {} code columns",
                arity,
                dicts.len(),
                codes.len()
            )));
        }
        let n_rows = codes.first().map(|c| c.len()).unwrap_or(0);
        let mut columns = Vec::with_capacity(arity);
        for (c, (dict, col)) in dicts.into_iter().zip(codes).enumerate() {
            if col.len() != n_rows {
                return Err(RelationError::InvalidEncoding(format!(
                    "column {} has {} codes but column 0 has {}",
                    c,
                    col.len(),
                    n_rows
                )));
            }
            if let Some(&bad) = col.iter().find(|&&code| code as usize >= dict.len()) {
                return Err(RelationError::InvalidEncoding(format!(
                    "column {} contains code {} but its dictionary has only {} values",
                    c,
                    bad,
                    dict.len()
                )));
            }
            let Some(dict) = Dictionary::from_values(dict) else {
                return Err(RelationError::InvalidEncoding(format!(
                    "column {} dictionary contains duplicate values",
                    c
                )));
            };
            columns.push(Column { dict, codes: col });
        }
        Ok(Relation { schema, columns, n_rows, data_version })
    }

    /// Assembles a relation from interned dictionaries and codes that are
    /// known to fit them (each code below its dictionary's length).
    pub(crate) fn from_dictionaries(
        schema: Schema,
        dicts: Vec<Dictionary>,
        codes: Vec<Vec<u32>>,
        data_version: u64,
    ) -> Relation {
        let n_rows = codes.first().map_or(0, Vec::len);
        let columns = dicts.into_iter().zip(codes).map(|(dict, codes)| Column { dict, codes });
        Relation { schema, columns: columns.collect(), n_rows, data_version }
    }

    /// The relation's monotone data version: 0 at construction, bumped by
    /// every successful [`Relation::push_row`] and every successful
    /// non-empty [`Relation::append_rows`] batch. Derived relations
    /// ([`Relation::project`], [`Relation::select_rows`], …) restart at 0 —
    /// the version describes a relation instance's mutation history, not its
    /// provenance.
    #[inline]
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (with duplicates, if any).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// `true` if the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Total number of cells, `n_rows × arity`; the storage measure used for
    /// the paper's savings metric `S` (§8.1).
    #[inline]
    pub fn cells(&self) -> usize {
        self.n_rows * self.arity()
    }

    /// The string value at row `r`, column `c`.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> &str {
        let col = &self.columns[c];
        &col.dict.values[col.codes[r] as usize]
    }

    /// The dictionary code at row `r`, column `c`.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> u32 {
        self.columns[c].codes[r]
    }

    /// The per-row dictionary codes of column `c`.
    #[inline]
    pub fn column_codes(&self, c: usize) -> &[u32] {
        &self.columns[c].codes
    }

    /// Number of distinct values in column `c`.
    #[inline]
    pub fn column_cardinality(&self, c: usize) -> usize {
        self.columns[c].dict.values.len()
    }

    /// The dictionary of column `c`: its distinct values, indexed by code
    /// (i.e. `column_values(c)[code(r, c)] == value(r, c)`).
    #[inline]
    pub fn column_values(&self, c: usize) -> &[String] {
        &self.columns[c].dict.values
    }

    /// The [`Dictionary`] of column `c`, with its value-to-code index.
    #[inline]
    pub fn column_dictionary(&self, c: usize) -> &Dictionary {
        &self.columns[c].dict
    }

    /// Approximate bytes of the relation resident in memory: its
    /// dictionaries' values and its codes.
    pub fn resident_bytes(&self) -> usize {
        let values: usize = self.columns.iter().flat_map(|c| &c.dict.values).map(String::len).sum();
        values + self.n_rows * self.arity() * std::mem::size_of::<u32>()
    }

    /// Materializes row `r` as strings.
    pub fn row(&self, r: usize) -> Vec<&str> {
        (0..self.arity()).map(|c| self.value(r, c)).collect()
    }

    /// The code-vector of row `r` restricted to `attrs` (ascending attribute
    /// order). Groupings label rows through a [`Keyer`] instead; this plain
    /// vector is the independent reference tests compare them against.
    pub fn key(&self, r: usize, attrs: AttrSet) -> Vec<u32> {
        attrs.iter().map(|c| self.code(r, c)).collect()
    }

    /// Labels every row by its `attrs` codes: `labels[r]` is the group of
    /// row `r` in `R[attrs]`, groups numbered by first row. Also returns the
    /// number of groups, `|R[attrs]|`.
    ///
    /// # Errors
    /// Returns an error if `attrs` is empty or out of range.
    pub fn group_labels(&self, attrs: AttrSet) -> Result<(Vec<u32>, usize), RelationError> {
        self.validate_attrs(attrs)?;
        let columns: Vec<&[u32]> = attrs.iter().map(|c| self.column_codes(c)).collect();
        let cardinalities = attrs.iter().map(|c| self.column_cardinality(c));
        let mut keyer = Keyer::with_capacity(cardinalities, self.n_rows);
        let mut labels = Vec::with_capacity(self.n_rows);
        keyer.extend_labels(&columns, self.n_rows, &mut labels);
        Ok((labels, keyer.len()))
    }

    /// Number of distinct tuples in the projection `R[attrs]`.
    ///
    /// # Errors
    /// Returns an error if `attrs` is empty or out of range.
    pub fn distinct_count(&self, attrs: AttrSet) -> Result<usize, RelationError> {
        Ok(self.group_labels(attrs)?.1)
    }

    /// Groups rows by their `attrs` key and returns the multiset of group
    /// sizes, in order of each group's first row. The entropy of the
    /// empirical distribution only depends on these counts (Eq. 5 of the
    /// paper).
    ///
    /// # Errors
    /// Returns an error if `attrs` is empty or out of range.
    pub fn group_sizes(&self, attrs: AttrSet) -> Result<Vec<usize>, RelationError> {
        let (labels, groups) = self.group_labels(attrs)?;
        let mut sizes = vec![0; groups];
        for label in labels {
            sizes[label as usize] += 1;
        }
        Ok(sizes)
    }

    /// Projects onto `attrs`, keeping duplicates.
    ///
    /// # Errors
    /// Returns an error if `attrs` is empty or out of range.
    pub fn project(&self, attrs: AttrSet) -> Result<Relation, RelationError> {
        self.validate_attrs(attrs)?;
        let schema = self.schema.project(attrs)?;
        let columns: Vec<Column> = attrs.iter().map(|c| self.columns[c].clone()).collect();
        Ok(Relation { schema, columns, n_rows: self.n_rows, data_version: 0 })
    }

    /// Projects onto `attrs` and removes duplicate rows; this is the paper's
    /// `R[Y]` (projections in relational algebra are sets).
    pub fn project_distinct(&self, attrs: AttrSet) -> Result<Relation, RelationError> {
        let projected = self.project(attrs)?;
        Ok(projected.distinct())
    }

    /// Returns a copy with duplicate rows removed (first occurrence kept).
    pub fn distinct(&self) -> Relation {
        let cardinalities = (0..self.arity()).map(|c| self.column_cardinality(c));
        let mut keyer = Keyer::with_capacity(cardinalities, self.n_rows);
        let keep: Vec<usize> =
            (0..self.n_rows).filter(|&r| keyer.insert(|c| self.code(r, c)).1).collect();
        self.select_rows(&keep)
    }

    /// Returns a copy containing only the rows at the given indices, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Relation {
        let mut columns = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            // Rebuild a dense dictionary restricted to the selected rows.
            let mut remap: HashMap<u32, u32> = HashMap::new();
            let mut dict = Vec::new();
            let mut codes = Vec::with_capacity(rows.len());
            for &r in rows {
                let old = col.codes[r];
                let code = *remap.entry(old).or_insert_with(|| {
                    dict.push(col.dict.values[old as usize].clone());
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            columns.push(Column::with_dict(dict, codes));
        }
        Relation { schema: self.schema.clone(), columns, n_rows: rows.len(), data_version: 0 }
    }

    /// Returns a copy with only the first `n` rows (or all rows if `n`
    /// exceeds the row count). Used by the row-scalability experiments.
    pub fn head(&self, n: usize) -> Relation {
        let n = n.min(self.n_rows);
        let rows: Vec<usize> = (0..n).collect();
        self.select_rows(&rows)
    }

    /// Restricts the relation to the first `k` columns (a prefix of the
    /// schema). Used by the column-scalability experiments.
    ///
    /// # Errors
    /// Returns an error if `k` is zero or exceeds the arity.
    pub fn column_prefix(&self, k: usize) -> Result<Relation, RelationError> {
        if k == 0 || k > self.arity() {
            return Err(RelationError::AttributeOutOfRange {
                attrs: AttrSet::full(k.min(AttrSet::MAX_ATTRS)),
                arity: self.arity(),
            });
        }
        self.project(AttrSet::full(k))
    }

    /// `true` if the two relations have the same schema and the same *set* of
    /// tuples (duplicates and row order ignored). Values are compared as
    /// strings, so relations built through different paths compare equal.
    pub fn equal_as_sets(&self, other: &Relation) -> bool {
        if self.schema != other.schema {
            return false;
        }
        let to_set = |rel: &Relation| {
            let mut set: HashMap<Vec<String>, ()> = HashMap::with_capacity(rel.n_rows);
            for r in 0..rel.n_rows {
                set.insert(rel.row(r).into_iter().map(|s| s.to_string()).collect(), ());
            }
            set
        };
        to_set(self) == to_set(other)
    }

    /// Appends a row of string values, bumping [`Relation::data_version`].
    ///
    /// Dictionary lookups go through the per-column hash index, so appends
    /// are O(arity) amortized regardless of column cardinality.
    ///
    /// # Errors
    /// Returns an error if the row arity differs from the schema's.
    pub fn push_row<S: AsRef<str>, I: IntoIterator<Item = S>>(
        &mut self,
        row: I,
    ) -> Result<(), RelationError> {
        let values: Vec<S> = row.into_iter().collect();
        push_values(&mut self.columns, values.iter())?;
        self.n_rows += 1;
        self.data_version += 1;
        Ok(())
    }

    /// Appends a batch of rows atomically, extending the per-column
    /// dictionaries and code columns in place and bumping
    /// [`Relation::data_version`] once for the whole batch.
    ///
    /// The batch is validated up front: if any row's arity differs from the
    /// schema's, **no** row is appended and the version is unchanged. An
    /// empty batch is a no-op (same version).
    ///
    /// Existing dictionary codes are never renumbered by an append, so a
    /// [`Keyer`] built before the append still labels *old* rows exactly;
    /// it only needs rebuilding when the batch introduced new distinct
    /// values on one of its columns (check with [`Keyer::covers`]).
    ///
    /// # Errors
    /// Returns an error if any row's arity differs from the schema's.
    pub fn append_rows<S: AsRef<str>>(
        &mut self,
        rows: &[Vec<S>],
    ) -> Result<AppendSummary, RelationError> {
        self.append_rows_where(rows, |_, _| true)
    }

    /// [`Relation::append_rows`], storing only the rows `keep` accepts.
    ///
    /// The whole batch is interned first, so every dictionary (and every
    /// [`Relation::column_cardinality`]) has its final size when `keep`
    /// first runs. `keep` then sees, in batch order, the relation so far
    /// and each row's codes. A dropped row's values stay in the
    /// dictionaries, so callers should drop only rows whose values the
    /// relation already holds, such as repeats of a stored row. The version
    /// still bumps once per non-empty batch; `rows_appended` counts the
    /// stored rows.
    ///
    /// # Errors
    /// Returns an error if any row's arity differs from the schema's; no
    /// value is interned then.
    pub fn append_rows_where<S: AsRef<str>>(
        &mut self,
        rows: &[Vec<S>],
        mut keep: impl FnMut(&Relation, &[u32]) -> bool,
    ) -> Result<AppendSummary, RelationError> {
        let arity = self.arity();
        if let Some(row) = rows.iter().find(|row| row.len() != arity) {
            return Err(RelationError::ArityMismatch { expected: arity, got: row.len() });
        }
        let mut codes = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            for (column, v) in self.columns.iter_mut().zip(row) {
                codes.push(column.dict.intern(v.as_ref()));
            }
        }
        let mut stored = 0;
        for row in codes.chunks_exact(arity) {
            if keep(self, row) {
                for (column, &code) in self.columns.iter_mut().zip(row) {
                    column.codes.push(code);
                }
                self.n_rows += 1;
                stored += 1;
            }
        }
        if !rows.is_empty() {
            self.data_version += 1;
        }
        Ok(AppendSummary { rows_appended: stored, data_version: self.data_version })
    }

    fn validate_attrs(&self, attrs: AttrSet) -> Result<(), RelationError> {
        if attrs.is_empty() || !attrs.is_subset_of(self.schema.all_attrs()) {
            return Err(RelationError::AttributeOutOfRange { attrs, arity: self.arity() });
        }
        Ok(())
    }
}

/// Deep-clones the relation into shared ownership.
///
/// The entropy oracles and `MaimonSession` own their relation as an
/// `Arc<Relation>` so they can outlive the binding that built them. This
/// conversion keeps `&Relation` call sites working: the data (dictionaries
/// and code columns) is cloned **once** at construction. Anything long-lived
/// or serving-shaped should construct the `Arc` itself and pass
/// `Arc::clone(&rel)` so every consumer shares one copy.
impl From<&Relation> for std::sync::Arc<Relation> {
    fn from(rel: &Relation) -> std::sync::Arc<Relation> {
        std::sync::Arc::new(rel.clone())
    }
}

/// What a successful [`Relation::append_rows`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendSummary {
    /// Number of rows the batch appended.
    pub rows_appended: usize,
    /// The relation's [`Relation::data_version`] after the append.
    pub data_version: u64,
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation[{}] ({} rows)", self.schema, self.n_rows)?;
        let limit = 10.min(self.n_rows);
        for r in 0..limit {
            writeln!(f, "  {}", self.row(r).join(", "))?;
        }
        if self.n_rows > limit {
            writeln!(f, "  ... ({} more rows)", self.n_rows - limit)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Relation`]. Since the relation itself now
/// carries a hash-backed dictionary index, the builder is a thin wrapper
/// that shares the column interning path with `Relation`'s own appends; it
/// remains the idiomatic way to construct a relation row by row.
pub struct RelationBuilder {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl RelationBuilder {
    /// Creates a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        RelationBuilder { schema, columns: vec![Column::default(); arity], n_rows: 0 }
    }

    /// Appends one row of string values.
    ///
    /// # Errors
    /// Returns an error if the row arity differs from the schema's.
    pub fn push_row<S: AsRef<str>, I: IntoIterator<Item = S>>(
        &mut self,
        row: I,
    ) -> Result<(), RelationError> {
        let values: Vec<S> = row.into_iter().collect();
        self.push_fields(values.iter())
    }

    /// [`RelationBuilder::push_row`] without collecting the row first.
    pub(crate) fn push_fields<S: AsRef<str>>(
        &mut self,
        values: impl ExactSizeIterator<Item = S>,
    ) -> Result<(), RelationError> {
        push_values(&mut self.columns, values)?;
        self.n_rows += 1;
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The schema the builder was created with.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Finalizes the relation (at data version 0).
    pub fn finish(self) -> Relation {
        Relation {
            schema: self.schema,
            columns: self.columns,
            n_rows: self.n_rows,
            data_version: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_relation() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        Relation::from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1"],
                vec!["a1", "b2", "c1"],
                vec!["a2", "b1", "c2"],
                vec!["a2", "b1", "c2"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_basic_accessors() {
        let r = abc_relation();
        assert_eq!(r.n_rows(), 4);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.cells(), 12);
        assert_eq!(r.value(0, 0), "a1");
        assert_eq!(r.value(2, 2), "c2");
        assert_eq!(r.row(1), vec!["a1", "b2", "c1"]);
        assert!(!r.is_empty());
        // Six two-byte dictionary values and twelve four-byte codes.
        assert_eq!(r.resident_bytes(), 6 * 2 + 12 * 4);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let err = Relation::from_rows(schema, &[vec!["x"]]);
        assert!(matches!(err, Err(RelationError::ArityMismatch { expected: 2, got: 1 })));
    }

    #[test]
    fn dictionary_encoding_shares_codes() {
        let r = abc_relation();
        assert_eq!(r.code(0, 0), r.code(1, 0)); // both a1
        assert_ne!(r.code(0, 0), r.code(2, 0)); // a1 vs a2
        assert_eq!(r.column_cardinality(0), 2);
        assert_eq!(r.column_cardinality(1), 2);
        assert_eq!(r.column_cardinality(2), 2);
    }

    #[test]
    fn column_values_index_by_code() {
        let r = abc_relation();
        for c in 0..r.arity() {
            let dict = r.column_values(c);
            assert_eq!(dict.len(), r.column_cardinality(c));
            for row in 0..r.n_rows() {
                assert_eq!(dict[r.code(row, c) as usize], r.value(row, c));
            }
        }
    }

    #[test]
    fn from_code_columns_matches_strings() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let r = Relation::from_code_columns(schema, vec![vec![7, 7, 3], vec![1, 2, 1]]).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.value(0, 0), "7");
        assert_eq!(r.value(2, 0), "3");
        assert_eq!(r.column_cardinality(0), 2);
    }

    #[test]
    fn from_code_columns_validates_shape() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        assert!(Relation::from_code_columns(schema.clone(), vec![vec![1, 2]]).is_err());
        assert!(Relation::from_code_columns(schema, vec![vec![1, 2], vec![1]]).is_err());
    }

    #[test]
    fn from_encoded_parts_round_trips_and_preserves_version() {
        let mut r = abc_relation();
        r.append_rows(&[vec!["a9", "b9", "c9"]]).unwrap();
        assert_eq!(r.data_version(), 1);
        let dicts: Vec<Vec<String>> = (0..r.arity()).map(|c| r.column_values(c).to_vec()).collect();
        let codes: Vec<Vec<u32>> = (0..r.arity()).map(|c| r.column_codes(c).to_vec()).collect();
        let rebuilt =
            Relation::from_encoded_parts(r.schema().clone(), dicts, codes, r.data_version())
                .unwrap();
        assert_eq!(rebuilt.data_version(), 1);
        assert_eq!(rebuilt.n_rows(), r.n_rows());
        for c in 0..r.arity() {
            assert_eq!(rebuilt.column_codes(c), r.column_codes(c));
            assert_eq!(rebuilt.column_values(c), r.column_values(c));
        }
    }

    #[test]
    fn from_encoded_parts_rejects_bad_shapes() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let dict = |values: &[&str]| values.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Wrong column count.
        let err =
            Relation::from_encoded_parts(schema.clone(), vec![dict(&["x"])], vec![vec![0]], 0);
        assert!(matches!(err, Err(RelationError::InvalidEncoding(_))));
        // Ragged column lengths.
        let err = Relation::from_encoded_parts(
            schema.clone(),
            vec![dict(&["x"]), dict(&["y"])],
            vec![vec![0, 0], vec![0]],
            0,
        );
        assert!(matches!(err, Err(RelationError::InvalidEncoding(_))));
        // Code outside its dictionary.
        let err = Relation::from_encoded_parts(
            schema.clone(),
            vec![dict(&["x"]), dict(&["y"])],
            vec![vec![0], vec![7]],
            0,
        );
        assert!(matches!(err, Err(RelationError::InvalidEncoding(_))));
        // Duplicate dictionary value.
        let err = Relation::from_encoded_parts(
            schema,
            vec![dict(&["x", "x"]), dict(&["y"])],
            vec![vec![0], vec![0]],
            0,
        );
        assert!(matches!(err, Err(RelationError::InvalidEncoding(_))));
    }

    #[test]
    fn distinct_count_and_group_sizes() {
        let r = abc_relation();
        let a = AttrSet::singleton(0);
        assert_eq!(r.distinct_count(a).unwrap(), 2);
        let mut sizes = r.group_sizes(a).unwrap();
        sizes.sort();
        assert_eq!(sizes, vec![2, 2]);
        let abc = AttrSet::full(3);
        assert_eq!(r.distinct_count(abc).unwrap(), 3);
        let mut sizes = r.group_sizes(abc).unwrap();
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 2]);
    }

    #[test]
    fn empty_attrs_rejected() {
        let r = abc_relation();
        assert!(r.distinct_count(AttrSet::empty()).is_err());
        assert!(r.project(AttrSet::empty()).is_err());
        assert!(r.project(AttrSet::singleton(10)).is_err());
    }

    #[test]
    fn project_keeps_duplicates_project_distinct_removes_them() {
        let r = abc_relation();
        let bc = AttrSet::from_iter([1usize, 2]);
        let p = r.project(bc).unwrap();
        assert_eq!(p.n_rows(), 4);
        assert_eq!(p.schema().names(), &["B".to_string(), "C".to_string()]);
        let pd = r.project_distinct(bc).unwrap();
        assert_eq!(pd.n_rows(), 3);
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let r = abc_relation();
        let d = r.distinct();
        assert_eq!(d.n_rows(), 3);
        assert!(d.equal_as_sets(&r));
    }

    #[test]
    fn equal_as_sets_ignores_order_and_duplicates() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r1 = Relation::from_rows(schema.clone(), &[vec!["x", "1"], vec!["y", "2"]]).unwrap();
        let r2 =
            Relation::from_rows(schema.clone(), &[vec!["y", "2"], vec!["x", "1"], vec!["x", "1"]])
                .unwrap();
        assert!(r1.equal_as_sets(&r2));
        let r3 = Relation::from_rows(schema, &[vec!["x", "1"]]).unwrap();
        assert!(!r1.equal_as_sets(&r3));
    }

    #[test]
    fn equal_as_sets_requires_same_schema() {
        let r1 = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec!["x"]]).unwrap();
        let r2 = Relation::from_rows(Schema::new(["B"]).unwrap(), &[vec!["x"]]).unwrap();
        assert!(!r1.equal_as_sets(&r2));
    }

    #[test]
    fn head_and_column_prefix() {
        let r = abc_relation();
        assert_eq!(r.head(2).n_rows(), 2);
        assert_eq!(r.head(100).n_rows(), 4);
        let p = r.column_prefix(2).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.schema().names(), &["A".to_string(), "B".to_string()]);
        assert!(r.column_prefix(0).is_err());
        assert!(r.column_prefix(4).is_err());
    }

    #[test]
    fn select_rows_rebuilds_dictionaries() {
        let r = abc_relation();
        let s = r.select_rows(&[2, 3]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.column_cardinality(0), 1); // only a2 remains
        assert_eq!(s.value(0, 0), "a2");
    }

    #[test]
    fn push_row_on_relation() {
        let mut r = Relation::empty(Schema::new(["A", "B"]).unwrap());
        assert!(r.is_empty());
        r.push_row(["x", "1"]).unwrap();
        r.push_row(["x", "2"]).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.column_cardinality(0), 1);
        assert!(r.push_row(["only-one"]).is_err());
    }

    #[test]
    fn append_rows_matches_from_rows_on_concatenation() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let base: Vec<Vec<&str>> = vec![vec!["a1", "b1", "c1"], vec!["a1", "b2", "c1"]];
        let batch: Vec<Vec<&str>> =
            vec![vec!["a2", "b1", "c2"], vec!["a2", "b1", "c2"], vec!["a3", "b2", "c1"]];
        let mut appended = Relation::from_rows(schema.clone(), &base).unwrap();
        let summary = appended.append_rows(&batch).unwrap();
        assert_eq!(summary, AppendSummary { rows_appended: 3, data_version: 1 });
        let mut full = base.clone();
        full.extend(batch);
        let scratch = Relation::from_rows(schema, &full).unwrap();
        assert_eq!(appended.n_rows(), scratch.n_rows());
        // Both paths intern values in first-occurrence order, so even the
        // dictionary codes agree, not just the string values.
        for c in 0..appended.arity() {
            assert_eq!(appended.column_codes(c), scratch.column_codes(c));
            assert_eq!(appended.column_values(c), scratch.column_values(c));
        }
    }

    #[test]
    fn append_rows_versioning_and_atomicity() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut r = Relation::from_rows(schema, &[vec!["x", "1"]]).unwrap();
        assert_eq!(r.data_version(), 0);
        // Empty batch: no-op, same version.
        let s = r.append_rows::<&str>(&[]).unwrap();
        assert_eq!(s, AppendSummary { rows_appended: 0, data_version: 0 });
        // Non-empty batch bumps the version exactly once.
        r.append_rows(&[vec!["y", "2"], vec!["y", "3"]]).unwrap();
        assert_eq!(r.data_version(), 1);
        assert_eq!(r.n_rows(), 3);
        // A bad row anywhere in the batch leaves the relation untouched.
        let err = r.append_rows(&[vec!["z", "4"], vec!["just-one"]]);
        assert!(matches!(err, Err(RelationError::ArityMismatch { expected: 2, got: 1 })));
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.data_version(), 1);
        assert_eq!(r.column_cardinality(0), 2); // "z" was not interned
                                                // push_row also bumps the version.
        r.push_row(["x", "9"]).unwrap();
        assert_eq!(r.data_version(), 2);
    }

    #[test]
    fn append_rows_where_stores_only_kept_rows_and_sees_final_dictionaries() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut r = Relation::from_rows(schema, &[vec!["x", "1"]]).unwrap();
        let mut seen = Vec::new();
        let s = r
            .append_rows_where(&[vec!["x", "1"], vec!["y", "2"], vec!["x", "1"]], |rel, codes| {
                // Every value of the batch is interned before the first call.
                seen.push((rel.n_rows(), rel.column_cardinality(0), codes.to_vec()));
                codes != [0, 0]
            })
            .unwrap();
        assert_eq!(seen, vec![(1, 2, vec![0, 0]), (1, 2, vec![1, 1]), (2, 2, vec![0, 0])]);
        assert_eq!(s, AppendSummary { rows_appended: 1, data_version: 1 });
        assert_eq!(r.row(1), vec!["y", "2"]);
        assert_eq!(r.n_rows(), 2);
    }

    #[test]
    fn builder_matches_from_rows() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        for row in [["a1", "b1", "c1"], ["a1", "b2", "c1"], ["a2", "b1", "c2"], ["a2", "b1", "c2"]]
        {
            b.push_row(row).unwrap();
        }
        assert_eq!(b.n_rows(), 4);
        let r = b.finish();
        assert!(r.equal_as_sets(&abc_relation()));
    }

    #[test]
    fn group_labels_number_groups_by_first_row() {
        let r = abc_relation();
        let bc = AttrSet::from_iter([1usize, 2]);
        assert_eq!(r.group_labels(bc).unwrap(), (vec![0, 1, 2, 2], 3));
        assert_eq!(r.group_sizes(bc).unwrap(), vec![1, 1, 2]);
        assert!(r.group_labels(AttrSet::empty()).is_err());
    }

    #[test]
    fn key_restricts_to_attrs_in_order() {
        let r = abc_relation();
        let ac = AttrSet::from_iter([0usize, 2]);
        let k = r.key(0, ac);
        assert_eq!(k.len(), 2);
        assert_eq!(k[0], r.code(0, 0));
        assert_eq!(k[1], r.code(0, 2));
    }

    #[test]
    fn debug_output_mentions_schema_and_rows() {
        let r = abc_relation();
        let s = format!("{:?}", r);
        assert!(s.contains("A,B,C"));
        assert!(s.contains("4 rows"));
    }
}
