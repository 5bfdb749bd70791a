//! The relation as a bag: its distinct tuples with their multiplicities.
//!
//! Eq. (5) depends only on the multiset of tuples, so the engine holds a
//! relation as a [`TupleBag`]: the distinct tuples numbered in
//! first-occurrence order (tuple ids rise with their first row), and how
//! many rows repeat each one. It is the one form every source is mounted
//! in:
//!
//! * [`TupleBag::of`] counts an in-memory [`Relation`] in one pass over
//!   whole columns;
//! * [`TupleStream`] counts CSV text fed in pieces, so the rows of a large
//!   file are never resident, only its dictionaries and distinct tuples;
//! * [`TupleBag::extended`] counts an appended batch into an existing bag.
//!
//! Tuples are keyed exactly by a [`Keyer`], the labeller every grouping in
//! the workspace shares. The three builds number the tuples identically,
//! so every partition, entropy and digest over a bag is the same whichever
//! way it was built.

use crate::csv::{CsvOptions, CsvReader, CsvRecord};
use crate::error::RelationError;
use crate::keyer::Keyer;
use crate::relation::{Dictionary, Relation};
use crate::schema::Schema;
use std::sync::Arc;

/// The distinct tuples of a relation in first-occurrence order, each with
/// its multiplicity, plus the index that maps a row to its tuple id.
///
/// The tuples themselves are a [`Relation`]: tuple id `t` is its row `t`.
/// Cloning a bag shares the tuples and the weights.
#[derive(Clone, Debug)]
pub struct TupleBag {
    /// The distinct tuples, one row each, in first-occurrence order.
    tuples: Arc<Relation>,
    /// Multiplicity of each tuple.
    weights: Arc<[u32]>,
    /// Full-row key → tuple id.
    index: Keyer,
    /// Rows of the relation the tuples were counted from: the total weight.
    n_rows: usize,
}

/// The tuples counted so far: their index, weights and codes.
struct Counter {
    index: Keyer,
    weights: Vec<u32>,
    /// The codes of each tuple, column by column.
    codes: Vec<Vec<u32>>,
    /// Scratch for the labels of one run of rows.
    labels: Vec<u32>,
}

impl Counter {
    fn new(index: Keyer, arity: usize) -> Counter {
        Counter { index, weights: Vec::new(), codes: vec![Vec::new(); arity], labels: Vec::new() }
    }

    /// Counts the `n` rows `columns[c][i]`, `i < n`, in order.
    fn count(&mut self, columns: &[&[u32]], n: usize) {
        self.labels.clear();
        self.index.extend_labels(columns, n, &mut self.labels);
        // Tuple ids are numbered by first row: a row opens a tuple exactly
        // when its id is the next one.
        for (i, &tuple) in self.labels.iter().enumerate() {
            if tuple as usize == self.weights.len() {
                self.weights.push(1);
                for (column, slice) in self.codes.iter_mut().zip(columns) {
                    column.push(slice[i]);
                }
            } else {
                self.weights[tuple as usize] += 1;
            }
        }
    }
}

/// A keyer over columns of the given radices that holds the first `n`
/// tuples of `columns` under their ids, inserted in id order.
fn rekeyed(radices: impl IntoIterator<Item = usize>, columns: &[&[u32]], n: usize) -> Keyer {
    let mut index = Keyer::new(radices);
    index.extend_labels(columns, n, &mut Vec::with_capacity(n));
    index
}

impl TupleBag {
    /// The bag of `rel`'s rows, counted in one pass over whole columns. If
    /// no row repeats, `rel` already is the tuple relation and is shared
    /// rather than copied.
    pub fn of(rel: &Arc<Relation>) -> TupleBag {
        let arity = rel.arity();
        let index = Keyer::new((0..arity).map(|c| rel.column_cardinality(c)));
        let mut counter = Counter::new(index, arity);
        let columns: Vec<&[u32]> = (0..arity).map(|c| rel.column_codes(c)).collect();
        counter.count(&columns, rel.n_rows());
        let tuples = if rel.n_rows() == counter.weights.len() {
            Arc::clone(rel)
        } else {
            let dicts = (0..arity).map(|c| rel.column_dictionary(c).clone()).collect();
            let schema = rel.schema().clone();
            Arc::new(Relation::from_dictionaries(schema, dicts, counter.codes, rel.data_version()))
        };
        TupleBag {
            tuples,
            weights: counter.weights.into(),
            index: counter.index,
            n_rows: rel.n_rows(),
        }
    }

    /// The distinct tuples as a relation: tuple id `t` is row `t`.
    pub fn tuples(&self) -> &Arc<Relation> {
        &self.tuples
    }

    /// The multiplicity of each tuple, by tuple id.
    pub fn weights(&self) -> &Arc<[u32]> {
        &self.weights
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the bag holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of rows counted, multiplicities included.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The bag after appending `rows`: each row bumps its tuple's weight or
    /// opens a new tuple; old tuples keep their ids. Also returns the old
    /// tuples whose weight rose, ascending. Clones the tuples, not the rows:
    /// O(tuples + batch).
    ///
    /// # Errors
    /// Returns the [`RelationError`] of a row whose arity mismatches; no row
    /// is appended then.
    pub fn extended<S: AsRef<str>>(
        &self,
        rows: &[Vec<S>],
    ) -> Result<(TupleBag, Vec<u32>), RelationError> {
        let mut tuples = (*self.tuples).clone();
        let mut weights = self.weights.to_vec();
        let mut index: Option<Keyer> = None;
        let mut repeated = Vec::new();
        tuples.append_rows_where(rows, |grown, codes| {
            let index = index.get_or_insert_with(|| self.index_for(grown));
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
        let bag = TupleBag {
            tuples: Arc::new(tuples),
            weights: weights.into(),
            index: index.unwrap_or_else(|| self.index.clone()),
            n_rows: self.n_rows + rows.len(),
        };
        Ok((bag, repeated))
    }

    /// This bag's index, valid for `grown`: the tuples plus a freshly
    /// interned batch. A dictionary that outgrew its radix rekeys the old
    /// tuples, in id order so they keep their ids.
    fn index_for(&self, grown: &Relation) -> Keyer {
        if self.index.covers(|c| grown.column_cardinality(c)) {
            return self.index.clone();
        }
        let columns: Vec<&[u32]> = (0..grown.arity()).map(|c| grown.column_codes(c)).collect();
        rekeyed((0..grown.arity()).map(|c| grown.column_cardinality(c)), &columns, self.len())
    }
}

/// Rows a [`TupleStream`] interns before it counts them as one run.
const STREAM_RUN_ROWS: usize = 4096;

/// Counts CSV text fed in pieces into a [`TupleBag`], without holding its
/// rows.
///
/// The text goes through [`CsvReader`], the reader
/// [`crate::relation_from_csv`] uses, so both accept the same inputs and
/// report the same errors at the same line and byte offset. Each field is
/// interned into its column's [`Dictionary`] as it arrives; every 4,096
/// records the run of codes is counted into the tuples and dropped. What
/// stays resident is the dictionaries, the distinct tuples and one run.
///
/// The keyer that counts the tuples is sized for the dictionaries it has
/// seen. When a dictionary outgrows its radix, the tuples counted so far
/// are rekeyed in id order, so they keep their ids; each new radix is at
/// least twice the cardinality, so a column rekeys at most once per
/// doubling. The result is the bag [`TupleBag::of`] builds over
/// [`crate::relation_from_csv`]'s relation of the same text: the same
/// dictionaries, tuples, weights and row count (with `dedup`, every weight
/// is 1, as that loader keeps one row per tuple).
pub struct TupleStream {
    csv: CsvReader,
    dedup: bool,
    /// Started by the first data record.
    counting: Option<StreamCount>,
}

/// A stream's state once its arity is known.
struct StreamCount {
    dicts: Vec<Dictionary>,
    /// The codes of the records not yet counted, column by column.
    run: Vec<Vec<u32>>,
    counter: Counter,
    n_rows: usize,
}

impl StreamCount {
    fn new(arity: usize) -> StreamCount {
        StreamCount {
            dicts: vec![Dictionary::default(); arity],
            run: vec![Vec::with_capacity(STREAM_RUN_ROWS); arity],
            counter: Counter::new(Keyer::new(std::iter::repeat_n(1, arity)), arity),
            n_rows: 0,
        }
    }

    /// Interns `record` into the stream's state, starting it with the
    /// first record.
    fn count(
        counting: &mut Option<StreamCount>,
        schema: &Schema,
        record: &CsvRecord<'_>,
    ) -> Result<(), RelationError> {
        counting.get_or_insert_with(|| StreamCount::new(schema.arity())).push(record);
        Ok(())
    }

    fn push(&mut self, record: &CsvRecord<'_>) {
        for ((dict, run), value) in self.dicts.iter_mut().zip(&mut self.run).zip(record.fields()) {
            run.push(dict.intern(&value));
        }
        self.n_rows += 1;
        if self.run[0].len() == STREAM_RUN_ROWS {
            self.count_run();
        }
    }

    /// Counts the pending run into the tuples, rekeying them first if a
    /// dictionary outgrew the keyer.
    fn count_run(&mut self) {
        let n = self.run.first().map_or(0, Vec::len);
        let dicts = &self.dicts;
        if !self.counter.index.covers(|c| dicts[c].len()) {
            let radices = dicts.iter().map(|d| (2 * d.len()).clamp(1, u32::MAX as usize));
            let tuples: Vec<&[u32]> = self.counter.codes.iter().map(|c| &c[..]).collect();
            self.counter.index = rekeyed(radices, &tuples, self.counter.weights.len());
        }
        let columns: Vec<&[u32]> = self.run.iter().map(|c| &c[..]).collect();
        self.counter.count(&columns, n);
        self.run.iter_mut().for_each(Vec::clear);
    }
}

impl TupleStream {
    /// A stream parsing CSV with `options`.
    ///
    /// # Errors
    /// Returns [`RelationError::Csv`] if the delimiter is not ASCII.
    pub fn new(options: CsvOptions) -> Result<TupleStream, RelationError> {
        let csv = CsvReader::new(options.delimiter, options.has_header)?;
        Ok(TupleStream { csv, dedup: options.dedup, counting: None })
    }

    /// Parses the next piece of text and counts the records it completes.
    ///
    /// # Errors
    /// Returns the [`CsvReader::feed`] error of the first malformed record.
    pub fn feed(&mut self, input: &[u8]) -> Result<(), RelationError> {
        let counting = &mut self.counting;
        self.csv.feed(input, &mut |schema, record| StreamCount::count(counting, schema, record))
    }

    /// Ends the text and returns its bag, at data version 0.
    ///
    /// # Errors
    /// Returns the [`CsvReader::finish`] error: an unterminated quoted
    /// field, a malformed last record, or an input without records.
    pub fn finish(self) -> Result<TupleBag, RelationError> {
        let TupleStream { csv, dedup, mut counting } = self;
        let schema =
            csv.finish(&mut |schema, record| StreamCount::count(&mut counting, schema, record))?;
        let mut count = counting.unwrap_or_else(|| StreamCount::new(schema.arity()));
        count.count_run();
        let StreamCount { dicts, counter, n_rows, .. } = count;
        let (weights, n_rows) = if dedup {
            (vec![1; counter.weights.len()], counter.weights.len())
        } else {
            (counter.weights, n_rows)
        };
        let tuples = Relation::from_dictionaries(schema, dicts, counter.codes, 0);
        Ok(TupleBag {
            tuples: Arc::new(tuples),
            weights: weights.into(),
            index: counter.index,
            n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{relation_from_csv, relation_to_csv};

    #[test]
    fn table_counts_multiplicities_in_first_occurrence_order() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let rel = Arc::new(
            Relation::from_rows(
                schema,
                &[vec!["x", "1"], vec!["y", "2"], vec!["x", "1"], vec!["z", "2"], vec!["x", "1"]],
            )
            .unwrap(),
        );
        let bag = TupleBag::of(&rel);
        assert_eq!(&*bag.weights, &[3, 1, 1]);
        assert_eq!(bag.tuples.column_codes(0), &[0, 1, 2]);
        assert_eq!(bag.tuples.column_codes(1), &[0, 1, 1]);
        assert_eq!(bag.tuples.column_values(0), rel.column_values(0));

        let (next, repeated) =
            bag.extended(&[vec!["y", "2"], vec!["w", "9"], vec!["y", "2"]]).unwrap();
        assert_eq!(&*next.weights, &[3, 3, 1, 1]);
        assert_eq!(next.tuples.row(3), vec!["w", "9"]);
        assert_eq!(next.tuples.data_version(), rel.data_version() + 1);
        assert_eq!(repeated, vec![1], "only tuple 1 repeats, once listed");
        assert_eq!(next.n_rows, 8);
        assert!(bag.extended(&[vec!["y"]]).is_err());
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
        let bag = TupleBag::of(&rel);
        assert!(Arc::ptr_eq(bag.tuples(), &rel));
    }

    /// The bag streamed from `text` in pieces of `piece` bytes.
    fn streamed(text: &str, piece: usize, options: CsvOptions) -> TupleBag {
        let mut stream = TupleStream::new(options).unwrap();
        for chunk in text.as_bytes().chunks(piece) {
            stream.feed(chunk).unwrap();
        }
        stream.finish().unwrap()
    }

    fn assert_same_bag(a: &TupleBag, b: &TupleBag) {
        assert_eq!(a.tuples.schema(), b.tuples.schema());
        for c in 0..a.tuples.arity() {
            assert_eq!(a.tuples.column_values(c), b.tuples.column_values(c), "dictionary {c}");
            assert_eq!(a.tuples.column_codes(c), b.tuples.column_codes(c), "tuples of {c}");
        }
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.n_rows, b.n_rows);
        assert_eq!(a.tuples.data_version(), b.tuples.data_version());
    }

    #[test]
    fn a_stream_rekeys_across_runs_and_counts_the_bag_of_the_loaded_relation() {
        // Enough rows for three runs; column 0 keeps growing its dictionary,
        // so the keyer is outgrown and rekeyed between runs, and the tuples
        // repeat with a period that spans runs.
        let mut text = String::from("A,B,C\n");
        for i in 0..(2 * STREAM_RUN_ROWS + 123) {
            text.push_str(&format!("a{},b{},c{}\n", (i % 9000) / 3, i % 5, i % 2));
        }
        for dedup in [false, true] {
            let options = CsvOptions { dedup, ..CsvOptions::default() };
            let rel = Arc::new(relation_from_csv(&text, options).unwrap());
            let expected = TupleBag::of(&rel);
            for piece in [1, 7, 4096, text.len()] {
                assert_same_bag(&streamed(&text, piece, options), &expected);
            }
        }
        // The stream's index still labels appends exactly.
        let options = CsvOptions { dedup: false, ..CsvOptions::default() };
        let bag = streamed(&text, 64, options);
        let batch = vec![vec!["a0", "b0", "c0"], vec!["new", "b0", "c0"]];
        let (grown, repeated) = bag.extended(&batch).unwrap();
        let (reference, reference_repeated) =
            TupleBag::of(&Arc::new(relation_from_csv(&text, options).unwrap()))
                .extended(&batch)
                .unwrap();
        assert_eq!(repeated, reference_repeated);
        assert_eq!(grown.weights, reference.weights);
        assert_eq!(grown.len(), bag.len() + 1);
    }

    #[test]
    fn a_header_only_stream_is_an_empty_bag_and_errors_match_the_loader() {
        let bag = streamed("A,B\n", 3, CsvOptions::default());
        assert!(bag.is_empty());
        assert_eq!((bag.n_rows(), bag.tuples().arity()), (0, 2));
        let text = "A,B\n1,2\nonly-one\n";
        let mut stream = TupleStream::new(CsvOptions::default()).unwrap();
        let err = stream.feed(text.as_bytes()).unwrap_err();
        assert_eq!(err, relation_from_csv(text, CsvOptions::default()).unwrap_err());
        let rel = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec!["x"]]).unwrap();
        assert_eq!(streamed(&relation_to_csv(&rel, ','), 2, CsvOptions::default()).len(), 1);
    }
}
