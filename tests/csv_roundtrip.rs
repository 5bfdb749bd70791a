//! CSV writer/reader round-trip fuzz.
//!
//! The writer (`relation_to_csv`) must emit text the reader
//! (`relation_from_csv`) parses back to the identical relation, for any cell
//! content: embedded delimiters, double quotes (doubled on the way out),
//! embedded newlines and carriage returns, empty fields, and both `\n` and
//! `\r\n` record endings. Cells are drawn from an alphabet deliberately
//! stacked with the characters the quoting rules exist for.
//!
//! A differential property then holds the two loaders to one behaviour on
//! arbitrary, mostly malformed text: the in-memory `relation_from_csv` and
//! the streaming `ingest_csv` (fed through tiny read buffers) must accept
//! the same inputs with the same names and rows, and reject the rest with
//! the same error at the same line and byte offset, the record size cap's
//! error included.

use maimon::relation::{
    relation_from_csv, relation_to_csv, CsvOptions, Relation, RelationError, Schema,
    MAX_RECORD_BYTES,
};
use maimon::storage::{ingest_csv, IngestOptions, PagedOptions, RelationBackend, StorageError};
use proptest::prelude::*;
use std::io::BufReader;

/// Characters the escaping logic has to get right, plus a few benign ones.
const ALPHABET: &[char] = &['a', 'B', '7', ' ', ',', ';', '"', '\n', '\r', '\t'];

/// Strategy: one cell of 0–6 alphabet characters.
fn cell() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..6)
        .prop_map(|indices| indices.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Strategy: a relation with 1–4 columns and 0–10 rows of adversarial cells.
fn relation() -> impl Strategy<Value = Relation> {
    (1usize..=4, proptest::collection::vec(cell(), 0..40)).prop_map(|(arity, cells)| {
        let names: Vec<String> = (0..arity).map(|i| format!("c{}", i)).collect();
        let schema = Schema::new(names).unwrap();
        let rows: Vec<Vec<String>> =
            cells.chunks_exact(arity).map(|chunk| chunk.to_vec()).collect();
        Relation::from_rows(schema, &rows).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_preserves_rows_comma(rel in relation()) {
        let text = relation_to_csv(&rel, ',');
        let back = relation_from_csv(
            &text,
            CsvOptions { dedup: false, ..CsvOptions::default() },
        ).expect("writer output must parse");
        prop_assert_eq!(back.n_rows(), rel.n_rows(), "csv was:\n{}", text);
        prop_assert!(back.equal_as_sets(&rel), "csv was:\n{}", text);
        prop_assert_eq!(back.schema().names(), rel.schema().names());
    }

    #[test]
    fn roundtrip_preserves_rows_semicolon(rel in relation()) {
        let text = relation_to_csv(&rel, ';');
        let back = relation_from_csv(
            &text,
            CsvOptions { delimiter: ';', dedup: false, ..CsvOptions::default() },
        ).expect("writer output must parse");
        prop_assert_eq!(back.n_rows(), rel.n_rows(), "csv was:\n{}", text);
        prop_assert!(back.equal_as_sets(&rel), "csv was:\n{}", text);
    }

    #[test]
    fn roundtrip_with_dedup_matches_distinct(rel in relation()) {
        let text = relation_to_csv(&rel, ',');
        let back = relation_from_csv(&text, CsvOptions::default())
            .expect("writer output must parse");
        let distinct = rel.distinct();
        prop_assert_eq!(back.n_rows(), distinct.n_rows());
        prop_assert!(back.equal_as_sets(&distinct));
    }

    #[test]
    fn crlf_endings_parse_like_lf(rel in relation()) {
        // Rewriting every record terminator as CRLF must not change the
        // parsed relation: the writer already quotes embedded CRs, so every
        // remaining `\n` in the text is a record ending.
        let text = relation_to_csv(&rel, ',');
        let mut crlf = String::with_capacity(text.len() + rel.n_rows());
        let mut in_quotes = false;
        for c in text.chars() {
            match c {
                '"' => { in_quotes = !in_quotes; crlf.push(c); }
                '\n' if !in_quotes => crlf.push_str("\r\n"),
                _ => crlf.push(c),
            }
        }
        let back = relation_from_csv(
            &crlf,
            CsvOptions { dedup: false, ..CsvOptions::default() },
        ).expect("CRLF output must parse");
        prop_assert_eq!(back.n_rows(), rel.n_rows(), "csv was:\n{}", crlf);
        prop_assert!(back.equal_as_sets(&rel), "csv was:\n{}", crlf);
    }
}

/// Characters of the differential property's raw inputs: quoting, both
/// delimiters, every line ending, and a multi-byte character.
const RAW_ALPHABET: &[char] = &['a', 'b', ',', ';', '"', '\n', '\r', ' ', 'é'];

/// Strategy: 0–24 raw characters, most of them not well-formed CSV.
fn raw_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..RAW_ALPHABET.len(), 0..24)
        .prop_map(|indices| indices.into_iter().map(|i| RAW_ALPHABET[i]).collect())
}

/// What a loader made of its input: the names and rows, or the error.
type Loaded = Result<(Vec<String>, Vec<Vec<String>>), RelationError>;

fn load_in_memory(text: &str, delimiter: char, has_header: bool) -> Loaded {
    let rel = relation_from_csv(text, CsvOptions { delimiter, has_header, dedup: false })?;
    let rows =
        (0..rel.n_rows()).map(|r| rel.row(r).into_iter().map(str::to_string).collect()).collect();
    Ok((rel.schema().names().to_vec(), rows))
}

fn load_streaming(text: &str, delimiter: char, has_header: bool, capacity: usize) -> Loaded {
    let options = IngestOptions {
        delimiter,
        has_header,
        paged: PagedOptions { page_rows: 2, cache_pages: 2, dataset: "csv-diff".to_string() },
    };
    let store = match ingest_csv(BufReader::with_capacity(capacity, text.as_bytes()), &options) {
        Ok(store) => store,
        Err(StorageError::Relation(e)) => return Err(e),
        Err(other) => panic!("ingest failed outside the parser: {other}"),
    };
    let mut rows = vec![Vec::with_capacity(store.arity()); store.n_rows()];
    for c in 0..store.arity() {
        let mut codes = Vec::new();
        store.scan_column(c, &mut |_, page| codes.extend_from_slice(page)).unwrap();
        for (row, code) in rows.iter_mut().zip(codes) {
            row.push(store.dict_value(c, code).to_string());
        }
    }
    Ok((store.schema().names().to_vec(), rows))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn both_loaders_agree_on_arbitrary_text(
        text in raw_text(),
        has_header in any::<bool>(),
        semicolon in any::<bool>(),
        capacity in 1usize..=7,
    ) {
        let delimiter = if semicolon { ';' } else { ',' };
        let in_memory = load_in_memory(&text, delimiter, has_header);
        let streaming = load_streaming(&text, delimiter, has_header, capacity);
        prop_assert_eq!(
            &in_memory,
            &streaming,
            "input {:?}, header {}, delimiter {:?}, read buffer {}",
            text,
            has_header,
            delimiter,
            capacity
        );
    }
}

#[test]
fn both_loaders_cap_a_record_at_the_same_byte() {
    // At the cap: a record `"x""y…y",b` of exactly MAX_RECORD_BYTES bytes,
    // its quotes and a doubled quote included.
    let ys = "y".repeat(MAX_RECORD_BYTES - 7);
    let at_cap = format!("A,B\n\"x\"\"{ys}\",b\n");
    assert_eq!(at_cap.len(), 4 + MAX_RECORD_BYTES + 1);
    for loaded in [load_in_memory(&at_cap, ',', true), load_streaming(&at_cap, ',', true, 4096)] {
        let (names, rows) = loaded.expect("a record at the cap loads");
        assert_eq!(names, ["A", "B"]);
        assert_eq!(rows, [[format!("x\"{ys}"), "b".to_string()]]);
    }

    // One byte over: the same typed error at the record's start (line 2,
    // byte 4) from both loaders, whatever their read buffer.
    let over = at_cap.replacen(",b\n", ",bc\n", 1);
    let in_memory = load_in_memory(&over, ',', true);
    match &in_memory {
        Err(RelationError::Csv { line: 2, offset: 4, message }) => {
            assert!(message.contains("longer than"), "{message}")
        }
        other => panic!("expected the record cap's error, got {other:?}"),
    }
    for capacity in [1, 7, 4096, 1 << 16] {
        assert_eq!(load_streaming(&over, ',', true, capacity), in_memory, "buffer {capacity}");
    }
}
