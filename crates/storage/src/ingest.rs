//! Streaming CSV → [`PagedColumnarRelation`] ingest.
//!
//! Feeds each buffered chunk of any `BufRead` to [`relation::CsvReader`],
//! the one CSV record reader `relation::relation_from_csv` also uses, so
//! both loaders accept the same inputs and report the same errors at the
//! same line and byte offset. The input is never materialized: each value
//! is interned on the spot into its column's [`relation::Dictionary`] and
//! its code lands in the current page buffer, which spills to the page
//! file when full. Peak memory during ingest is one page per column plus
//! the dictionaries.
//!
//! Unlike the in-memory loader there is no `dedup` option — set semantics
//! over out-of-core data would need resident per-row state. Compare against
//! `CsvOptions { dedup: false, .. }` for equivalence.

use crate::paged::{PagedBuilder, PagedColumnarRelation, PagedOptions};
use crate::{RelationBackend, StorageError};
use relation::{CsvReader, CsvRecord, Dictionary, Schema};
use std::io::BufRead;
use std::path::Path;

/// Options for [`ingest_csv`].
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Field separator; must be ASCII (`,` by default, the Metanome files
    /// also use `;`).
    pub delimiter: char,
    /// If `true`, the first record provides the attribute names; otherwise
    /// attributes are named `col0`, `col1`, ….
    pub has_header: bool,
    /// Page shape, cache size and metrics label of the resulting store.
    pub paged: PagedOptions,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { delimiter: ',', has_header: true, paged: PagedOptions::default() }
    }
}

/// Streams CSV from `reader` into a [`PagedColumnarRelation`] without ever
/// holding the whole input (or the whole code array) in memory.
///
/// # Errors
/// Returns an error on I/O failure, malformed quoting, inconsistent record
/// arity (with the offending line + byte offset), an empty input, or a
/// non-ASCII delimiter.
pub fn ingest_csv<R: BufRead>(
    mut reader: R,
    options: &IngestOptions,
) -> Result<PagedColumnarRelation, StorageError> {
    let start = |arity: usize| -> Result<_, StorageError> {
        Ok((PagedBuilder::new(arity, &options.paged)?, vec![Dictionary::default(); arity]))
    };
    // Started by the first data record, or at the end for a header alone.
    let mut built: Option<(PagedBuilder, Vec<Dictionary>)> = None;
    let mut push = |schema: &Schema, record: &CsvRecord<'_>| -> Result<(), StorageError> {
        if built.is_none() {
            built = Some(start(schema.arity())?);
        }
        let (pages, dicts) = built.as_mut().expect("started above");
        for (c, (dict, value)) in dicts.iter_mut().zip(record.fields()).enumerate() {
            pages.push_code(c, dict.intern(&value))?;
        }
        pages.n_rows += 1;
        Ok(())
    };
    let mut csv = CsvReader::new(options.delimiter, options.has_header)?;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        csv.feed(chunk, &mut push)?;
        reader.consume(len);
    }
    let schema = csv.finish(&mut push)?;
    let (pages, dicts) = match built {
        Some(built) => built,
        None => start(schema.arity())?,
    };
    let dicts = dicts.into_iter().map(Dictionary::into_values).collect();
    let store = pages.finish(schema, dicts, options.paged.clone())?;
    let registry = obs::global();
    registry.describe("maimon_relations_loaded_total", "Relations successfully parsed from CSV");
    registry.counter("maimon_relations_loaded_total", &[("source", "paged_csv")]).inc();
    registry.describe("maimon_relation_rows_loaded_total", "Rows ingested across all CSV loads");
    registry
        .counter("maimon_relation_rows_loaded_total", &[("source", "paged_csv")])
        .add(store.n_rows() as u64);
    Ok(store)
}

/// Opens `path` with a buffered reader and streams it through
/// [`ingest_csv`].
///
/// # Errors
/// Propagates [`ingest_csv`] errors plus the initial open failure.
pub fn ingest_csv_file(
    path: impl AsRef<Path>,
    options: &IngestOptions,
) -> Result<PagedColumnarRelation, StorageError> {
    let file = std::fs::File::open(path)?;
    ingest_csv(std::io::BufReader::new(file), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBackend;
    use relation::{relation_from_csv, CsvOptions, Relation, RelationError};

    fn ingest(text: &str, page_rows: usize) -> Result<PagedColumnarRelation, StorageError> {
        ingest_csv(
            text.as_bytes(),
            &IngestOptions {
                paged: PagedOptions {
                    page_rows,
                    cache_pages: 2,
                    dataset: "ingest-test".to_string(),
                },
                ..IngestOptions::default()
            },
        )
    }

    /// The streamed store must agree with the in-memory loader (dedup off —
    /// the paged path keeps duplicates) on shape, codes and dictionaries.
    fn assert_matches_in_memory(text: &str, page_rows: usize) {
        let rel = relation_from_csv(text, CsvOptions { dedup: false, ..CsvOptions::default() })
            .expect("in-memory parse");
        let store = ingest(text, page_rows).expect("streaming ingest");
        assert_eq!(store.n_rows(), rel.n_rows());
        assert_eq!(store.schema().names(), rel.schema().names());
        for c in 0..rel.arity() {
            assert_eq!(store.column_cardinality(c), rel.column_cardinality(c));
            let mut streamed = Vec::new();
            store.scan_column(c, &mut |_, codes| streamed.extend_from_slice(codes)).unwrap();
            assert_eq!(streamed, rel.column_codes(c), "column {c} at page_rows {page_rows}");
            for code in 0..rel.column_cardinality(c) as u32 {
                assert_eq!(store.dict_value(c, code), RelationBackend::dict_value(&rel, c, code));
            }
        }
    }

    #[test]
    fn streaming_matches_in_memory_loader_on_plain_input() {
        let text = "A,B,C\n1,2,3\n4,5,6\n1,2,3\n7,8,9\n";
        for page_rows in [1, 2, 3, 100] {
            assert_matches_in_memory(text, page_rows);
        }
    }

    #[test]
    fn streaming_matches_in_memory_loader_on_quoting_edge_cases() {
        let text =
            "A,B\n\"hello, world\",\"say \"\"hi\"\"\"\nplain,value\n\"multi\nline\",x\n\"\",y\n";
        for page_rows in [1, 2, 4096] {
            assert_matches_in_memory(text, page_rows);
        }
    }

    #[test]
    fn streaming_handles_crlf_blank_lines_and_missing_final_newline() {
        assert_matches_in_memory("A;B\r\nx;y\r\n\r\nz;w", 2);
    }

    #[test]
    fn streaming_without_header_names_columns() {
        let store = ingest_csv(
            "1,2\n3,4\n".as_bytes(),
            &IngestOptions { has_header: false, ..IngestOptions::default() },
        )
        .unwrap();
        assert_eq!(store.schema().names(), &["col0".to_string(), "col1".into()]);
        assert_eq!(store.n_rows(), 2);
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
        // tiny pages force page flushes before the error is hit.
        let text = "A,B\n1,2\n3,4\n5,6\n7,8\nbroken\n";
        let expected_offset = text.find("broken").unwrap();
        for page_rows in [1, 2, 100] {
            match ingest(text, page_rows).unwrap_err() {
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
        let batch = relation_from_csv(text, CsvOptions { delimiter: '§', ..CsvOptions::default() })
            .unwrap_err();
        let options = IngestOptions { delimiter: '§', ..IngestOptions::default() };
        match ingest_csv(text.as_bytes(), &options).unwrap_err() {
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
        let store = ingest("A,B\n", 4).unwrap();
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.arity(), 2);
    }

    #[test]
    fn round_trip_from_relation_csv_matches_paged_twin() {
        let schema = relation::Schema::new(["A", "B"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            &[vec!["with,comma", "say \"hi\""], vec!["", "line\nbreak"], vec!["x", "y"]],
        )
        .unwrap();
        let text = relation::relation_to_csv(&rel, ',');
        assert_matches_in_memory(&text, 2);
    }
}
