//! The names the retired paged store leaves behind, kept only so the
//! frozen benchmark under `bench_report/` still compiles. This module goes
//! with ROADMAP item 9, when the benchmark stops naming the paged store.
//!
//! [`ingest_csv_file`] is [`crate::stream_csv`] over a file: a
//! [`PagedColumnarRelation`] holds the streamed [`TupleBag`] and nothing
//! else. No pages exist, so `page_rows` and `cache_pages` are ignored and
//! [`PagedColumnarRelation::cache_stats`] reports no hits and no misses.

use crate::StorageError;
use relation::{CsvOptions, TupleBag};
use std::path::Path;

/// A source the engine mounts from: its one implementor is
/// [`PagedColumnarRelation`].
pub trait RelationBackend: Send + Sync {
    /// The source's bag of tuples.
    fn tuples(&self) -> &TupleBag;
}

/// The retired paged store's options. Only `dataset` is read: it labels the
/// load metrics and scopes the `csv_read` failpoint.
#[derive(Clone, Debug)]
pub struct PagedOptions {
    /// Ignored.
    pub page_rows: usize,
    /// Ignored.
    pub cache_pages: usize,
    /// Dataset label of the mount.
    pub dataset: String,
}

impl Default for PagedOptions {
    fn default() -> Self {
        PagedOptions { page_rows: 65_536, cache_pages: 8, dataset: "default".to_string() }
    }
}

/// Options for [`ingest_csv_file`].
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Field separator; must be ASCII.
    pub delimiter: char,
    /// If `true`, the first record provides the attribute names.
    pub has_header: bool,
    /// The dataset label; see [`PagedOptions`].
    pub paged: PagedOptions,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { delimiter: ',', has_header: true, paged: PagedOptions::default() }
    }
}

/// Page-cache counters of a store that has no pages: always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Pages served from the cache.
    pub hits: u64,
    /// Pages read from a spill file.
    pub misses: u64,
}

/// A CSV file mounted as its bag of tuples.
#[derive(Debug)]
pub struct PagedColumnarRelation {
    tuples: TupleBag,
}

impl PagedColumnarRelation {
    /// No pages exist, so no page was ever served or read.
    pub fn cache_stats(&self) -> PageCacheStats {
        PageCacheStats::default()
    }
}

impl RelationBackend for PagedColumnarRelation {
    fn tuples(&self) -> &TupleBag {
        &self.tuples
    }
}

/// Streams the CSV file at `path` into its bag, keeping every row's
/// multiplicity.
///
/// # Errors
/// Returns the open failure and the errors of [`crate::stream_csv`].
pub fn ingest_csv_file(
    path: impl AsRef<Path>,
    options: &IngestOptions,
) -> Result<PagedColumnarRelation, StorageError> {
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let csv =
        CsvOptions { delimiter: options.delimiter, has_header: options.has_header, dedup: false };
    let tuples = crate::stream_csv(reader, csv, &options.paged.dataset)?;
    Ok(PagedColumnarRelation { tuples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{relation_from_csv, Relation, Schema};
    use std::sync::Arc;

    #[test]
    fn an_ingested_file_is_the_bag_of_its_rows() {
        let rel = Relation::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[vec!["x", "1"], vec!["y", "2"], vec!["x", "1"]],
        )
        .unwrap();
        let text = relation::relation_to_csv(&rel, ',');
        let path = std::env::temp_dir().join(format!("maimon-shim-{}.csv", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let options = IngestOptions {
            paged: PagedOptions { page_rows: 1, cache_pages: 1, dataset: "shim".to_string() },
            ..IngestOptions::default()
        };
        let store = ingest_csv_file(&path, &options).unwrap();
        std::fs::remove_file(&path).unwrap();
        let csv = CsvOptions { dedup: false, ..CsvOptions::default() };
        let expected = TupleBag::of(&Arc::new(relation_from_csv(&text, csv).unwrap()));
        let backend: &dyn RelationBackend = &store;
        assert_eq!(backend.tuples().weights(), expected.weights());
        assert_eq!(backend.tuples().n_rows(), 3);
        assert_eq!(store.cache_stats(), PageCacheStats { hits: 0, misses: 0 });
    }
}
