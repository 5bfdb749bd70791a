//! The CSV reader and writer for loading profiling datasets.
//!
//! The Metanome benchmark files the paper uses are plain comma- or
//! semicolon-separated text with optional double-quoted fields. We implement
//! just enough of RFC 4180 to round-trip such files without pulling in an
//! external dependency: quoted fields, embedded separators and newlines,
//! doubled quotes, `\n` and `\r\n` line endings (a lone `\r` is dropped),
//! blank-line skipping and a last record without a final newline.
//!
//! There is one reader, [`CsvReader`]. It is push-style: it takes the input
//! as byte slices of any size and hands each completed record to a
//! callback, so [`relation_from_csv`] feeds it the whole text and a
//! [`crate::TupleStream`] feeds it each buffered chunk of a file.
//! The reader also fixes the schema from the first record, checks every
//! record's arity against it, and reports every error in input order with
//! the 1-based line and 0-based byte offset where the problem starts. A
//! record may hold at most [`MAX_RECORD_BYTES`] bytes, so no input, however
//! hostile, grows the reader's buffers past that.

use crate::error::RelationError;
use crate::relation::{Relation, RelationBuilder};
use crate::schema::Schema;
use std::borrow::Cow;

/// The most bytes one record may span, every byte but its terminating
/// newline counted (quotes, delimiters and carriage returns included). A
/// longer record, such as an unterminated quoted field running to the end
/// of a large file, is a [`RelationError::Csv`] at the record's start,
/// raised before the reader buffers more than this.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Options controlling CSV parsing.
#[derive(Clone, Copy, Debug)]
pub struct CsvOptions {
    /// Field separator (`,` by default; the Metanome files also use `;`).
    pub delimiter: char,
    /// If `true`, the first record provides the attribute names; otherwise
    /// attributes are named `col0`, `col1`, ….
    pub has_header: bool,
    /// If `true`, duplicate rows are removed after loading (the paper treats
    /// relations as sets of tuples).
    pub dedup: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { delimiter: ',', has_header: true, dedup: true }
    }
}

/// Where the reader stands relative to double quotes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Quoting {
    /// Outside any quoted field.
    Off,
    /// Inside a quoted field.
    On,
    /// Just read a quote inside a quoted field; the next byte tells a
    /// doubled quote from the closing one.
    Closing,
}

/// One record's fields, borrowed from the [`CsvReader`] that parsed it.
pub struct CsvRecord<'a> {
    bytes: &'a [u8],
    /// End of each field in `bytes`; a field starts where the one before ends.
    ends: &'a [usize],
}

impl<'a> CsvRecord<'a> {
    /// The fields in order. Invalid UTF-8 is replaced, as by
    /// [`String::from_utf8_lossy`]; text that came from a `&str` is never
    /// altered.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = Cow<'a, str>> {
        let (bytes, ends) = (self.bytes, self.ends);
        (0..ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            String::from_utf8_lossy(&bytes[start..ends[i]])
        })
    }
}

fn csv_error((line, offset): (usize, usize), message: String) -> RelationError {
    RelationError::Csv { line, offset, message }
}

/// The byte-level, push-style CSV record reader behind both loaders.
///
/// Feed it the input in order with [`CsvReader::feed`], as many slices as
/// convenient (a record may span slices), then call [`CsvReader::finish`].
/// The first record fixes the schema: with a header it names the
/// attributes, without one the attributes are `col0`, `col1`, … and the
/// record is data. Every data record is checked against the schema's arity
/// and handed to the callback with the schema; the callback never sees the
/// header.
pub struct CsvReader {
    delimiter: u8,
    has_header: bool,
    quoting: Quoting,
    /// The current record's field bytes, concatenated.
    bytes: Vec<u8>,
    /// End of each finished field of the current record in `bytes`.
    ends: Vec<usize>,
    /// The current record has a quoted field, so it is not a blank line
    /// even when it is empty.
    saw_quote: bool,
    /// 1-based line and 0-based byte offset of the next byte.
    line: usize,
    offset: usize,
    /// Where the current record starts.
    record_at: (usize, usize),
    /// Where the open quoted field's quote is.
    quote_at: (usize, usize),
    schema: Option<Schema>,
}

impl CsvReader {
    /// A reader splitting fields on `delimiter`.
    ///
    /// # Errors
    /// Returns [`RelationError::Csv`] if `delimiter` is not ASCII.
    pub fn new(delimiter: char, has_header: bool) -> Result<Self, RelationError> {
        if !delimiter.is_ascii() {
            return Err(csv_error((1, 0), format!("delimiter {:?} is not ASCII", delimiter)));
        }
        Ok(CsvReader {
            delimiter: delimiter as u8,
            has_header,
            quoting: Quoting::Off,
            bytes: Vec::new(),
            ends: Vec::new(),
            saw_quote: false,
            line: 1,
            offset: 0,
            record_at: (1, 0),
            quote_at: (1, 0),
            schema: None,
        })
    }

    /// Parses the next slice of input, handing each data record it
    /// completes to `on_record`.
    ///
    /// # Errors
    /// Returns the first error in input order: a quote in the middle of an
    /// unquoted field, a record whose arity differs from the schema's or
    /// that exceeds [`MAX_RECORD_BYTES`] (both at the record's start), an
    /// invalid header, or an error of `on_record`.
    pub fn feed<E: From<RelationError>>(
        &mut self,
        input: &[u8],
        on_record: &mut impl FnMut(&Schema, &CsvRecord<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        for &b in input {
            let at = self.offset;
            self.offset += 1;
            let ends_record = b == b'\n' && self.quoting != Quoting::On;
            if at - self.record_at.1 >= MAX_RECORD_BYTES && !ends_record {
                let message = format!("record is longer than {} bytes", MAX_RECORD_BYTES);
                return Err(csv_error(self.record_at, message).into());
            }
            match self.quoting {
                Quoting::On => {
                    if b == b'"' {
                        self.quoting = Quoting::Closing;
                    } else {
                        self.line += usize::from(b == b'\n');
                        self.bytes.push(b);
                    }
                    continue;
                }
                Quoting::Closing if b == b'"' => {
                    self.bytes.push(b'"');
                    self.quoting = Quoting::On;
                    continue;
                }
                // The quote closed the field; `b` is read unquoted.
                Quoting::Closing => self.quoting = Quoting::Off,
                Quoting::Off => {}
            }
            match b {
                b'"' => {
                    if self.bytes.len() != self.ends.last().map_or(0, |&end| end) {
                        let message = "quote in the middle of an unquoted field".to_string();
                        return Err(csv_error((self.line, at), message).into());
                    }
                    self.quoting = Quoting::On;
                    self.quote_at = (self.line, at);
                    self.saw_quote = true;
                }
                // The CR of a CRLF pair; a lone CR is dropped too (the
                // writer quotes any field containing one).
                b'\r' => {}
                b'\n' => {
                    let blank = self.bytes.is_empty() && self.ends.is_empty() && !self.saw_quote;
                    if !blank {
                        self.end_record(on_record)?;
                    }
                    self.line += 1;
                    self.record_at = (self.line, self.offset);
                }
                b if b == self.delimiter => self.ends.push(self.bytes.len()),
                _ => self.bytes.push(b),
            }
        }
        Ok(())
    }

    /// Ends the input: completes a last record that has no final newline
    /// and returns the schema.
    ///
    /// # Errors
    /// Returns the errors of [`CsvReader::feed`], an unterminated quoted
    /// field (at its opening quote), or `no records in input`.
    pub fn finish<E: From<RelationError>>(
        mut self,
        on_record: &mut impl FnMut(&Schema, &CsvRecord<'_>) -> Result<(), E>,
    ) -> Result<Schema, E> {
        if self.quoting == Quoting::On {
            return Err(csv_error(self.quote_at, "unterminated quoted field".into()).into());
        }
        if !self.bytes.is_empty() || !self.ends.is_empty() || self.saw_quote {
            self.end_record(on_record)?;
        }
        self.schema.ok_or_else(|| csv_error((1, 0), "no records in input".into()).into())
    }

    fn end_record<E: From<RelationError>>(
        &mut self,
        on_record: &mut impl FnMut(&Schema, &CsvRecord<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.ends.push(self.bytes.len());
        let record = CsvRecord { bytes: &self.bytes, ends: &self.ends };
        let arity = record.ends.len();
        let result = match &self.schema {
            Some(schema) if schema.arity() != arity => {
                let message = format!("record has {} fields, expected {}", arity, schema.arity());
                Err(csv_error(self.record_at, message).into())
            }
            Some(schema) => on_record(schema, &record),
            None if self.has_header => Schema::new(record.fields())
                .map(|schema| self.schema = Some(schema))
                .map_err(E::from),
            None => Schema::new((0..arity).map(|i| format!("col{}", i)))
                .map_err(E::from)
                .and_then(|schema| on_record(self.schema.insert(schema), &record)),
        };
        self.bytes.clear();
        self.ends.clear();
        self.saw_quote = false;
        result
    }
}

/// Parses CSV text into a [`Relation`].
///
/// # Errors
/// Returns the first error in input order: malformed quoting, inconsistent
/// record arity, an invalid header, an empty input, or a non-ASCII
/// delimiter.
pub fn relation_from_csv(text: &str, options: CsvOptions) -> Result<Relation, RelationError> {
    let mut builder: Option<RelationBuilder> = None;
    let mut push = |schema: &Schema, record: &CsvRecord<'_>| {
        builder
            .get_or_insert_with(|| RelationBuilder::new(schema.clone()))
            .push_fields(record.fields())
    };
    let mut reader = CsvReader::new(options.delimiter, options.has_header)?;
    reader.feed(text.as_bytes(), &mut push)?;
    let schema = reader.finish(&mut push)?;
    let rel = builder.map_or_else(|| Relation::empty(schema), RelationBuilder::finish);
    let rel = if options.dedup { rel.distinct() } else { rel };
    // One-shot ingestion telemetry; parsing itself stays uninstrumented.
    let registry = obs::global();
    registry.describe("maimon_relations_loaded_total", "Relations successfully parsed from CSV");
    registry.counter("maimon_relations_loaded_total", &[("source", "csv")]).inc();
    registry.describe("maimon_relation_rows_loaded_total", "Rows ingested across all CSV loads");
    registry
        .counter("maimon_relation_rows_loaded_total", &[("source", "csv")])
        .add(rel.n_rows() as u64);
    Ok(rel)
}

/// Serializes a relation to CSV text with a header row. Fields containing the
/// delimiter, quotes, newlines or carriage returns are quoted (an unquoted CR
/// would be swallowed by the reader's CRLF handling), and empty fields are
/// written as `""` so a single empty field is never mistaken for a blank
/// line on the way back in.
pub fn relation_to_csv(rel: &Relation, delimiter: char) -> String {
    let escape = |s: &str| -> String {
        if s.is_empty()
            || s.contains(delimiter)
            || s.contains('"')
            || s.contains('\n')
            || s.contains('\r')
        {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    let names: Vec<String> = rel.schema().names().iter().map(|n| escape(n)).collect();
    out.push_str(&names.join(&delimiter.to_string()));
    out.push('\n');
    for r in 0..rel.n_rows() {
        let row: Vec<String> = rel.row(r).into_iter().map(escape).collect();
        out.push_str(&row.join(&delimiter.to_string()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_csv_with_header() {
        let text = "A,B,C\n1,2,3\n4,5,6\n";
        let rel = relation_from_csv(text, CsvOptions::default()).unwrap();
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(rel.schema().names(), &["A".to_string(), "B".into(), "C".into()]);
        assert_eq!(rel.value(1, 2), "6");
    }

    #[test]
    fn parse_without_header_names_columns() {
        let text = "1,2\n3,4\n";
        let rel =
            relation_from_csv(text, CsvOptions { has_header: false, ..CsvOptions::default() })
                .unwrap();
        assert_eq!(rel.schema().names(), &["col0".to_string(), "col1".into()]);
        assert_eq!(rel.n_rows(), 2);
    }

    #[test]
    fn parse_quoted_fields_and_escaped_quotes() {
        let text = "A,B\n\"hello, world\",\"say \"\"hi\"\"\"\nplain,value\n";
        let rel = relation_from_csv(text, CsvOptions::default()).unwrap();
        assert_eq!(rel.value(0, 0), "hello, world");
        assert_eq!(rel.value(0, 1), "say \"hi\"");
        assert_eq!(rel.value(1, 0), "plain");
    }

    #[test]
    fn parse_semicolon_delimiter_and_crlf() {
        let text = "A;B\r\nx;y\r\n";
        let rel = relation_from_csv(text, CsvOptions { delimiter: ';', ..CsvOptions::default() })
            .unwrap();
        assert_eq!(rel.n_rows(), 1);
        assert_eq!(rel.value(0, 1), "y");
    }

    #[test]
    fn dedup_option_removes_duplicates() {
        let text = "A,B\n1,2\n1,2\n3,4\n";
        let with_dedup = relation_from_csv(text, CsvOptions::default()).unwrap();
        assert_eq!(with_dedup.n_rows(), 2);
        let without =
            relation_from_csv(text, CsvOptions { dedup: false, ..CsvOptions::default() }).unwrap();
        assert_eq!(without.n_rows(), 3);
    }

    #[test]
    fn inconsistent_arity_reports_line() {
        let text = "A,B\n1,2\n1\n";
        let err = relation_from_csv(text, CsvOptions::default()).unwrap_err();
        match err {
            RelationError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let text = "A\n\"oops\n";
        assert!(matches!(
            relation_from_csv(text, CsvOptions::default()),
            Err(RelationError::Csv { .. })
        ));
    }

    #[test]
    fn arity_error_reports_line_and_byte_offset_mid_file() {
        // The short record starts right after "A,B\n1,2\n" = 8 bytes.
        let text = "A,B\n1,2\n1\n3,4\n";
        match relation_from_csv(text, CsvOptions::default()).unwrap_err() {
            RelationError::Csv { line, offset, .. } => {
                assert_eq!(line, 3);
                assert_eq!(offset, 8);
                assert_eq!(&text[offset..offset + 1], "1");
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn arity_error_position_survives_blank_lines_and_embedded_newlines() {
        // Record 2 spans lines 3-4 via a quoted newline; a blank line follows;
        // the malformed record then starts on line 6.
        let text = "A,B\n\n\"x\ny\",2\n\nbad\n";
        match relation_from_csv(text, CsvOptions::default()).unwrap_err() {
            RelationError::Csv { line, offset, .. } => {
                assert_eq!(line, 6);
                assert_eq!(&text[offset..offset + 3], "bad");
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn stray_quote_error_reports_its_byte_offset() {
        let text = "A,B\nok,fine\nab\"cd,2\n";
        match relation_from_csv(text, CsvOptions::default()).unwrap_err() {
            RelationError::Csv { line, offset, message } => {
                assert_eq!(line, 3);
                assert_eq!(&text[offset..offset + 1], "\"");
                assert!(message.contains("unquoted field"));
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn unterminated_quote_error_points_at_the_opening_quote() {
        let text = "A\nfirst\n\"never closed\n";
        match relation_from_csv(text, CsvOptions::default()).unwrap_err() {
            RelationError::Csv { line, offset, message } => {
                assert_eq!(line, 3);
                assert_eq!(&text[offset..offset + 1], "\"");
                assert!(message.contains("unterminated"));
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }

    #[test]
    fn an_over_cap_unterminated_field_fails_before_the_buffer_passes_the_cap() {
        // The field opens at byte 2 of line 2 and never closes; fed in
        // small slices, the reader stops at the cap, not at the input's end.
        let mut reader = CsvReader::new(',', true).unwrap();
        let mut records = 0;
        let mut count = |_: &Schema, _: &CsvRecord<'_>| -> Result<(), RelationError> {
            records += 1;
            Ok(())
        };
        reader.feed(b"A\n\"", &mut count).unwrap();
        let slice = [b'x'; 4096];
        let mut fed = 1;
        let err = loop {
            if let Err(e) = reader.feed(&slice, &mut count) {
                break e;
            }
            fed += slice.len();
            assert!(fed <= MAX_RECORD_BYTES, "no error after {fed} record bytes");
        };
        match err {
            RelationError::Csv { line, offset, message } => {
                assert_eq!((line, offset), (2, 2));
                assert!(message.contains("longer than"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(reader.bytes.capacity() <= MAX_RECORD_BYTES, "{}", reader.bytes.capacity());
        assert_eq!(records, 0);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(relation_from_csv("", CsvOptions::default()).is_err());
        assert!(relation_from_csv("\n\n", CsvOptions::default()).is_err());
    }

    #[test]
    fn csv_roundtrip_preserves_tuples() {
        let text = "A,B\nhello,\"with,comma\"\nx,\"quote\"\"y\"\n";
        let rel = relation_from_csv(text, CsvOptions::default()).unwrap();
        let out = relation_to_csv(&rel, ',');
        let rel2 = relation_from_csv(&out, CsvOptions::default()).unwrap();
        assert!(rel.equal_as_sets(&rel2));
    }

    #[test]
    fn missing_final_newline_still_parses_last_record() {
        let text = "A,B\n1,2";
        let rel = relation_from_csv(text, CsvOptions::default()).unwrap();
        assert_eq!(rel.n_rows(), 1);
    }

    fn roundtrip(rows: &[Vec<&str>], delimiter: char) {
        let names: Vec<String> = (0..rows[0].len()).map(|i| format!("c{}", i)).collect();
        let rel = Relation::from_rows(Schema::new(names).unwrap(), rows).unwrap();
        let text = relation_to_csv(&rel, delimiter);
        let back = relation_from_csv(
            &text,
            CsvOptions { delimiter, dedup: false, ..CsvOptions::default() },
        )
        .unwrap();
        assert_eq!(back.n_rows(), rel.n_rows(), "row count changed:\n{}", text);
        assert!(back.equal_as_sets(&rel), "tuples changed:\n{}", text);
    }

    #[test]
    fn writer_quotes_fields_containing_the_delimiter_and_quotes() {
        let rel = Relation::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[vec!["with,comma", "say \"hi\""]],
        )
        .unwrap();
        let text = relation_to_csv(&rel, ',');
        assert!(text.contains("\"with,comma\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
        roundtrip(&[vec!["with,comma", "say \"hi\""]], ',');
    }

    #[test]
    fn writer_quotes_embedded_newlines_and_carriage_returns() {
        // An unquoted CR would be swallowed by the reader's CRLF handling, so
        // the writer must quote it.
        let rows = vec![vec!["line1\nline2", "a\rb"], vec!["\r\n", "plain"]];
        let rel = Relation::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        let text = relation_to_csv(&rel, ',');
        assert!(text.contains("\"a\rb\""));
        assert!(text.contains("\"line1\nline2\""));
        roundtrip(&rows, ',');
    }

    #[test]
    fn writer_quotes_empty_fields_so_blank_lines_stay_distinct() {
        // A single-column relation holding an empty string must not collapse
        // into a blank (skipped) line.
        roundtrip(&[vec![""], vec!["x"]], ',');
        roundtrip(&[vec!["", ""], vec!["a", ""]], ',');
        let rel = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec![""]]).unwrap();
        let text = relation_to_csv(&rel, ',');
        assert_eq!(text, "A\n\"\"\n");
    }

    #[test]
    fn writer_respects_alternate_delimiters() {
        // Under ';' a comma needs no quoting but a semicolon does.
        let rows = vec![vec!["a,b", "c;d"]];
        let rel = Relation::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        let text = relation_to_csv(&rel, ';');
        assert!(text.contains("a,b"));
        assert!(!text.contains("\"a,b\""));
        assert!(text.contains("\"c;d\""));
        roundtrip(&rows, ';');
    }

    #[test]
    fn writer_escapes_header_names() {
        let rel =
            Relation::from_rows(Schema::new(["name, first", "plain"]).unwrap(), &[vec!["x", "y"]])
                .unwrap();
        let text = relation_to_csv(&rel, ',');
        let back = relation_from_csv(&text, CsvOptions::default()).unwrap();
        assert_eq!(back.schema().names(), rel.schema().names());
        assert!(back.equal_as_sets(&rel));
    }

    #[test]
    fn writer_preserves_duplicates_for_non_dedup_readers() {
        let rows = vec![vec!["a", "b"], vec!["a", "b"], vec!["c", "d"]];
        let rel = Relation::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        let text = relation_to_csv(&rel, ',');
        let back =
            relation_from_csv(&text, CsvOptions { dedup: false, ..CsvOptions::default() }).unwrap();
        assert_eq!(back.n_rows(), 3);
    }
}
