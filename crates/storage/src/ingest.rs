//! The streamed mount: a CSV file read straight into its tuple bag.
//!
//! [`stream_csv`] feeds each buffered chunk of any `BufRead` to a
//! [`relation::TupleStream`]. The stream parses with
//! [`relation::CsvReader`], the one CSV record reader
//! `relation::relation_from_csv` also uses, so both loaders accept the same
//! inputs and report the same errors at the same line and byte offset. The
//! rows are never held: each value is interned on the spot into its
//! column's dictionary, and every run of records is counted into the
//! distinct tuples. What stays resident is the dictionaries and the
//! tuples, which is all a session keeps of any relation.

use crate::{fault, StorageError};
use relation::{CsvOptions, TupleBag, TupleStream};
use std::io::BufRead;

/// Streams CSV from `reader` into its [`TupleBag`] without holding the rows.
/// `dataset` labels the load metrics and scopes the `csv_read` failpoint,
/// which fails a read of the stream.
///
/// # Errors
/// Returns [`StorageError::Io`] when a read fails and
/// [`StorageError::Relation`] on malformed quoting, inconsistent record
/// arity (with the offending line + byte offset), an empty input, or a
/// non-ASCII delimiter.
pub fn stream_csv<R: BufRead>(
    mut reader: R,
    options: CsvOptions,
    dataset: &str,
) -> Result<TupleBag, StorageError> {
    let mut stream = TupleStream::new(options)?;
    loop {
        fault::check_io("csv_read", dataset)?;
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        stream.feed(chunk)?;
        reader.consume(len);
    }
    let bag = stream.finish()?;
    let registry = obs::global();
    registry.describe("maimon_relations_loaded_total", "Relations successfully parsed from CSV");
    registry.counter("maimon_relations_loaded_total", &[("source", "csv_stream")]).inc();
    registry.describe("maimon_relation_rows_loaded_total", "Rows ingested across all CSV loads");
    registry
        .counter("maimon_relation_rows_loaded_total", &[("source", "csv_stream")])
        .add(bag.n_rows() as u64);
    Ok(bag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{relation_from_csv, Relation, RelationError};
    use std::io::BufReader;
    use std::sync::Arc;

    fn ingest(text: &str, capacity: usize) -> Result<TupleBag, StorageError> {
        let reader = BufReader::with_capacity(capacity, text.as_bytes());
        stream_csv(reader, CsvOptions { dedup: false, ..CsvOptions::default() }, "ingest-test")
    }

    /// The streamed bag must be the bag of the in-memory loader's relation
    /// (dedup off, so multiplicities count): same names, dictionaries,
    /// distinct tuples and weights.
    fn assert_matches_in_memory(text: &str, capacity: usize) {
        let rel = relation_from_csv(text, CsvOptions { dedup: false, ..CsvOptions::default() })
            .expect("in-memory parse");
        let expected = TupleBag::of(&Arc::new(rel));
        let bag = ingest(text, capacity).expect("streaming ingest");
        let (tuples, reference) = (bag.tuples(), expected.tuples());
        assert_eq!(bag.n_rows(), expected.n_rows());
        assert_eq!(tuples.schema().names(), reference.schema().names());
        for c in 0..reference.arity() {
            assert_eq!(tuples.column_values(c), reference.column_values(c), "dictionary {c}");
            assert_eq!(tuples.column_codes(c), reference.column_codes(c), "tuples of {c}");
        }
        assert_eq!(bag.weights(), expected.weights(), "weights at capacity {capacity}");
    }

    #[test]
    fn streaming_matches_in_memory_loader_on_plain_input() {
        let text = "A,B,C\n1,2,3\n4,5,6\n1,2,3\n7,8,9\n";
        for capacity in [1, 2, 3, 100] {
            assert_matches_in_memory(text, capacity);
        }
    }

    #[test]
    fn streaming_matches_in_memory_loader_on_quoting_edge_cases() {
        let text =
            "A,B\n\"hello, world\",\"say \"\"hi\"\"\"\nplain,value\n\"multi\nline\",x\n\"\",y\n";
        for capacity in [1, 2, 4096] {
            assert_matches_in_memory(text, capacity);
        }
    }

    #[test]
    fn streaming_handles_crlf_blank_lines_and_missing_final_newline() {
        assert_matches_in_memory("A;B\r\nx;y\r\n\r\nz;w", 2);
    }

    #[test]
    fn streaming_without_header_names_columns() {
        let options = CsvOptions { has_header: false, ..CsvOptions::default() };
        let bag = stream_csv("1,2\n3,4\n".as_bytes(), options, "no-header").unwrap();
        assert_eq!(bag.tuples().schema().names(), &["col0".to_string(), "col1".into()]);
        assert_eq!(bag.n_rows(), 2);
    }

    #[test]
    fn mid_file_arity_error_reports_line_and_byte_offset() {
        // "A,B\n1,2\n" is 8 bytes; the malformed record starts there.
        let err = ingest("A,B\n1,2\nonly-one\n3,4\n", 4).unwrap_err();
        match err {
            StorageError::Relation(RelationError::Csv { line, offset, message }) => {
                assert_eq!(line, 3);
                assert_eq!(offset, 8);
                assert!(message.contains("1 fields"));
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn malformed_row_error_position_is_chunking_invariant() {
        // Tiny read buffers split records across reads before the error.
        let text = "A,B\n1,2\n3,4\n5,6\n7,8\nbroken\n";
        let expected_offset = text.find("broken").unwrap();
        for capacity in [1, 2, 100] {
            match ingest(text, capacity).unwrap_err() {
                StorageError::Relation(RelationError::Csv { line, offset, .. }) => {
                    assert_eq!(line, 6);
                    assert_eq!(offset, expected_offset);
                }
                other => panic!("unexpected error: {:?}", other),
            }
        }
    }

    #[test]
    fn stray_and_unterminated_quotes_report_positions() {
        match ingest("A\nok\nab\"cd\n", 4).unwrap_err() {
            StorageError::Relation(RelationError::Csv { line, offset, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(offset, 7);
            }
            other => panic!("unexpected error: {:?}", other),
        }
        match ingest("A\nfirst\n\"never closed\n", 4).unwrap_err() {
            StorageError::Relation(RelationError::Csv { line, offset, message }) => {
                assert_eq!(line, 3);
                assert_eq!(offset, 8);
                assert!(message.contains("unterminated"));
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(ingest("", 4).is_err());
        assert!(ingest("\n\n", 4).is_err());
    }

    #[test]
    fn non_ascii_delimiter_is_the_same_typed_error_from_both_loaders() {
        let text = "A§B\n1§2\n";
        let options = CsvOptions { delimiter: '§', ..CsvOptions::default() };
        let batch = relation_from_csv(text, options).unwrap_err();
        match stream_csv(text.as_bytes(), options, "delimiter").unwrap_err() {
            StorageError::Relation(streamed) => assert_eq!(streamed, batch),
            other => panic!("unexpected error: {:?}", other),
        }
        match batch {
            RelationError::Csv { line, offset, message } => {
                assert_eq!((line, offset), (1, 0));
                assert!(message.contains("not ASCII"), "{message}");
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn header_only_input_builds_an_empty_store() {
        let bag = ingest("A,B\n", 4).unwrap();
        assert_eq!(bag.n_rows(), 0);
        assert_eq!(bag.tuples().arity(), 2);
    }

    #[test]
    fn round_trip_from_relation_csv_matches_paged_twin() {
        let schema = relation::Schema::new(["A", "B"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            &[
                vec!["with,comma", "say \"hi\""],
                vec!["", "line\nbreak"],
                vec!["x", "y"],
                vec!["with,comma", "say \"hi\""],
            ],
        )
        .unwrap();
        let text = relation::relation_to_csv(&rel, ',');
        assert_matches_in_memory(&text, 2);
    }

    #[test]
    fn injected_read_fault_is_a_typed_error_not_a_panic() {
        let text = "A,B\n1,2\n3,4\n1,2\n";
        let scope = "fault-injection-unit";
        let options = CsvOptions { dedup: false, ..CsvOptions::default() };
        // The third read of the stream fails, after two 4-byte reads.
        fault::global().arm(&format!("csv_read@{scope}"), 2, 1);
        let err = stream_csv(BufReader::with_capacity(4, text.as_bytes()), options, scope)
            .expect_err("the third read must fail");
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("injected fault: csv_read"), "got {err}");
        // The fault is spent: the same stream now mounts in full.
        let bag = stream_csv(BufReader::with_capacity(4, text.as_bytes()), options, scope).unwrap();
        fault::global().disarm(&format!("csv_read@{scope}"));
        assert_eq!((bag.n_rows(), bag.len()), (3, 2));
    }
}
