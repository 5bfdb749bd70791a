//! `PagedColumnarRelation`: fixed-size code pages spilled to a temp file
//! behind a small LRU page cache.
//!
//! Only the per-column dictionaries (and the page directory) stay resident;
//! the `u32` code pages live in one unlinked spill file and are faulted in
//! on demand. Resident footprint is therefore
//! `dictionaries + cache_pages × page_rows × 4` bytes, independent of the
//! row count — which is what bounds RSS on the 10M-row scalability runs.

use crate::backend::RelationBackend;
use crate::crc::crc32;
use crate::fault;
use crate::StorageError;
use relation::{Relation, Schema};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction options for [`PagedColumnarRelation`].
#[derive(Clone, Debug)]
pub struct PagedOptions {
    /// Codes per page, per column. Smaller pages mean finer cache
    /// granularity but more spill-file seeks.
    pub page_rows: usize,
    /// Total pages the LRU cache holds across all columns. Sized so the
    /// aligned multi-column scans of PLI construction keep one page per
    /// scanned column resident.
    pub cache_pages: usize,
    /// Dataset label on the backend's metrics
    /// (`maimon_dataset_resident_bytes{dataset=…}` and the page-cache
    /// hit/miss counters).
    pub dataset: String,
}

impl Default for PagedOptions {
    fn default() -> Self {
        // Page shape follows the columnar exemplar this crate is modeled on
        // (64Ki-row pages, 8-entry cache); 64Ki u32 codes = 256 KiB per page.
        PagedOptions { page_rows: 65_536, cache_pages: 8, dataset: "default".to_string() }
    }
}

/// Point-in-time cache statistics, surfaced by the serve `stats` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Pages served from the cache.
    pub hits: u64,
    /// Pages faulted in from the spill file.
    pub misses: u64,
    /// Pages currently cached.
    pub cached_pages: usize,
    /// Resident bytes: dictionaries + cached pages.
    pub resident_bytes: usize,
}

/// Location of one column page inside the spill file.
#[derive(Clone, Copy, Debug)]
struct PageLoc {
    offset: u64,
    /// Number of `u32` codes in the page (short only for the final page).
    len: u32,
    /// CRC-32 of the page's little-endian byte image, recorded at build time
    /// and re-checked on every fault-in, so bit rot in the spill file is a
    /// typed [`StorageError::Corrupt`] instead of garbage codes.
    crc: u32,
}

/// One cached page.
struct CacheEntry {
    col: u32,
    page: u32,
    last_used: u64,
    data: Arc<Vec<u32>>,
}

/// The mutable half: spill file handle + LRU cache, one lock for both
/// (faults are rare by design and scans are page-granular, so the critical
/// section is one seek+read at worst).
struct PageStore {
    file: File,
    cache: Vec<CacheEntry>,
    tick: u64,
}

/// Obs instruments plus lock-free mirrors for programmatic access.
struct PagedMetrics {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    resident: Arc<obs::Gauge>,
    local_hits: AtomicU64,
    local_misses: AtomicU64,
}

impl PagedMetrics {
    fn register(dataset: &str) -> Self {
        let registry = obs::global();
        registry.describe(
            "maimon_dataset_resident_bytes",
            "Resident bytes of a dataset's storage backend (dictionaries + cached pages)",
        );
        registry.describe(
            "maimon_page_cache_hits_total",
            "Paged-backend page requests served from the LRU cache",
        );
        registry.describe(
            "maimon_page_cache_misses_total",
            "Paged-backend page requests faulted in from the spill file",
        );
        let labels: &[(&'static str, &str)] = &[("dataset", dataset)];
        PagedMetrics {
            hits: registry.counter("maimon_page_cache_hits_total", labels),
            misses: registry.counter("maimon_page_cache_misses_total", labels),
            resident: registry.gauge("maimon_dataset_resident_bytes", labels),
            local_hits: AtomicU64::new(0),
            local_misses: AtomicU64::new(0),
        }
    }
}

/// A relation stored as per-column fixed-size code pages in an unlinked
/// temp file, with resident dictionaries and a small LRU page cache.
///
/// The store is immutable once built (`data_version` is 0): it exists to
/// mount large static datasets. A session reads it once, into its
/// in-memory distinct tuples, and appends go to those tuples.
pub struct PagedColumnarRelation {
    schema: Schema,
    n_rows: usize,
    page_rows: usize,
    cache_pages: usize,
    /// Dataset label, used for metrics and as the failpoint scope of the
    /// `paged_read` fault-injection point.
    dataset: String,
    dicts: Vec<Vec<String>>,
    dict_bytes: usize,
    /// `pages[col][page]` locates that page in the spill file.
    pages: Vec<Vec<PageLoc>>,
    store: Mutex<PageStore>,
    metrics: PagedMetrics,
}

impl PagedColumnarRelation {
    /// Pages a fully materialized relation out — the bridge used by tests,
    /// benches and callers that already hold a [`Relation`] but want the
    /// bounded-memory scan behavior (or a bit-identical paged twin).
    ///
    /// # Errors
    /// Returns an error if the spill file cannot be created or written.
    pub fn from_relation(rel: &Relation, options: PagedOptions) -> Result<Self, StorageError> {
        let mut builder = PagedBuilder::new(rel.arity(), &options)?;
        for chunk_start in (0..rel.n_rows()).step_by(options.page_rows.max(1)) {
            let end = (chunk_start + options.page_rows.max(1)).min(rel.n_rows());
            for c in 0..rel.arity() {
                builder.push_codes(c, &rel.column_codes(c)[chunk_start..end])?;
            }
            builder.n_rows += end - chunk_start;
        }
        let dicts = (0..rel.arity()).map(|c| rel.column_values(c).to_vec()).collect();
        builder.finish(rel.schema().clone(), dicts, options)
    }

    /// Locks the page store, recovering from a poisoned lock: the critical
    /// section only mutates the LRU bookkeeping (and the seek position,
    /// which every fault-in resets), so the state is usable after a panic
    /// elsewhere unwound through it.
    fn lock_store(&self) -> std::sync::MutexGuard<'_, PageStore> {
        self.store.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// This backend's cache statistics (also mirrored to `obs::global()`).
    pub fn cache_stats(&self) -> PageCacheStats {
        let store = self.lock_store();
        let cached_bytes: usize =
            store.cache.iter().map(|e| e.data.len() * std::mem::size_of::<u32>()).sum();
        PageCacheStats {
            hits: self.metrics.local_hits.load(Ordering::Relaxed),
            misses: self.metrics.local_misses.load(Ordering::Relaxed),
            cached_pages: store.cache.len(),
            resident_bytes: self.dict_bytes + cached_bytes,
        }
    }

    /// The configured page size in rows.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    fn n_pages(&self) -> usize {
        if self.n_rows == 0 {
            0
        } else {
            self.n_rows.div_ceil(self.page_rows)
        }
    }

    /// Returns page `page` of column `col`, from cache or the spill file.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the spill file cannot be read (the
    /// disk/tmpfs under it went away, or the `paged_read` failpoint fired)
    /// and [`StorageError::Corrupt`] when the page's checksum does not match
    /// the one recorded at build time. Neither aborts the process: the error
    /// propagates through the scan to the caller, and pages of *other*
    /// datasets keep serving.
    fn fetch(&self, col: usize, page: usize) -> Result<Arc<Vec<u32>>, StorageError> {
        let mut store = self.lock_store();
        store.tick += 1;
        let tick = store.tick;
        if let Some(entry) =
            store.cache.iter_mut().find(|e| e.col == col as u32 && e.page == page as u32)
        {
            entry.last_used = tick;
            let data = Arc::clone(&entry.data);
            self.metrics.hits.inc();
            self.metrics.local_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(data);
        }
        // Fault the page in. The spill file is process-private and written
        // once at build time, so a failure here is an environment problem
        // (disk/tmpfs gone, bit rot) — reported as a typed error, never a
        // panic.
        fault::check_io("paged_read", &self.dataset)?;
        let loc = self.pages[col][page];
        let mut bytes = vec![0u8; loc.len as usize * 4];
        store.file.seek(SeekFrom::Start(loc.offset))?;
        store.file.read_exact(&mut bytes)?;
        let checksum = crc32(&bytes);
        if checksum != loc.crc {
            return Err(StorageError::Corrupt(format!(
                "dataset {:?}: page {} of column {} failed its checksum \
                 (stored {:#010x}, computed {:#010x})",
                self.dataset, page, col, loc.crc, checksum
            )));
        }
        let data: Arc<Vec<u32>> = Arc::new(
            bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect(),
        );
        if store.cache.len() >= self.cache_pages.max(1) {
            let evict = store
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty when full");
            store.cache.swap_remove(evict);
        }
        store.cache.push(CacheEntry {
            col: col as u32,
            page: page as u32,
            last_used: tick,
            data: Arc::clone(&data),
        });
        self.metrics.misses.inc();
        self.metrics.local_misses.fetch_add(1, Ordering::Relaxed);
        let cached_bytes: usize =
            store.cache.iter().map(|e| e.data.len() * std::mem::size_of::<u32>()).sum();
        self.metrics.resident.set((self.dict_bytes + cached_bytes) as i64);
        Ok(data)
    }
}

impl RelationBackend for PagedColumnarRelation {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn data_version(&self) -> u64 {
        0
    }

    fn column_cardinality(&self, c: usize) -> usize {
        self.dicts[c].len()
    }

    fn dict_value(&self, c: usize, code: u32) -> &str {
        &self.dicts[c][code as usize]
    }

    fn scan_column(
        &self,
        c: usize,
        visit: &mut dyn FnMut(usize, &[u32]),
    ) -> Result<(), StorageError> {
        for page in 0..self.n_pages() {
            let data = self.fetch(c, page)?;
            visit(page * self.page_rows, &data);
        }
        Ok(())
    }

    fn scan_columns(
        &self,
        cols: &[usize],
        visit: &mut dyn FnMut(usize, &[&[u32]]),
    ) -> Result<(), StorageError> {
        for page in 0..self.n_pages() {
            let pages: Vec<Arc<Vec<u32>>> =
                cols.iter().map(|&c| self.fetch(c, page)).collect::<Result<_, StorageError>>()?;
            let slices: Vec<&[u32]> = pages.iter().map(|p| p.as_slice()).collect();
            visit(page * self.page_rows, &slices);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.cache_stats().resident_bytes
    }

    fn kind(&self) -> &'static str {
        "paged"
    }
}

impl std::fmt::Debug for PagedColumnarRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PagedColumnarRelation[{}] ({} rows, {} per page, {}-page cache)",
            self.schema, self.n_rows, self.page_rows, self.cache_pages
        )
    }
}

/// Per-column build state: the page being filled and the pages written.
struct ColumnBuild {
    buf: Vec<u32>,
    pages: Vec<PageLoc>,
}

/// Streaming page writer: appends codes column by column, flushing full
/// pages to the spill file as they fill, so peak memory during a build is
/// one page per column. The dictionaries are the caller's.
pub(crate) struct PagedBuilder {
    cols: Vec<ColumnBuild>,
    pub(crate) n_rows: usize,
    writer: BufWriter<File>,
    pos: u64,
    page_rows: usize,
}

impl PagedBuilder {
    pub(crate) fn new(arity: usize, options: &PagedOptions) -> Result<Self, StorageError> {
        let file = spill_file()?;
        let cols = (0..arity)
            .map(|_| ColumnBuild {
                buf: Vec::with_capacity(options.page_rows.max(1)),
                pages: Vec::new(),
            })
            .collect();
        Ok(PagedBuilder {
            cols,
            n_rows: 0,
            writer: BufWriter::new(file),
            pos: 0,
            page_rows: options.page_rows.max(1),
        })
    }

    /// Appends one code to column `c`.
    pub(crate) fn push_code(&mut self, c: usize, code: u32) -> Result<(), StorageError> {
        self.cols[c].buf.push(code);
        if self.cols[c].buf.len() >= self.page_rows {
            self.flush_page(c)?;
        }
        Ok(())
    }

    /// Appends a slice of pre-encoded codes to column `c`.
    fn push_codes(&mut self, c: usize, codes: &[u32]) -> Result<(), StorageError> {
        for &code in codes {
            self.push_code(c, code)?;
        }
        Ok(())
    }

    fn flush_page(&mut self, c: usize) -> Result<(), StorageError> {
        let col = &mut self.cols[c];
        if col.buf.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(col.buf.len() * 4);
        for &code in &col.buf {
            bytes.extend_from_slice(&code.to_le_bytes());
        }
        let loc = PageLoc { offset: self.pos, len: col.buf.len() as u32, crc: crc32(&bytes) };
        self.writer.write_all(&bytes)?;
        self.pos += col.buf.len() as u64 * 4;
        col.buf.clear();
        col.pages.push(loc);
        Ok(())
    }

    /// Writes the last pages and opens the store over them; `dicts[c]` is
    /// column `c`'s dictionary, indexed by code.
    pub(crate) fn finish(
        mut self,
        schema: Schema,
        dicts: Vec<Vec<String>>,
        options: PagedOptions,
    ) -> Result<PagedColumnarRelation, StorageError> {
        for c in 0..self.cols.len() {
            self.flush_page(c)?;
        }
        self.writer.flush()?;
        let mut file = self.writer.into_inner().map_err(|e| StorageError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        let dict_bytes = dicts.iter().flatten().map(String::len).sum();
        let pages = self.cols.into_iter().map(|col| col.pages).collect();
        Ok(PagedColumnarRelation {
            schema,
            n_rows: self.n_rows,
            page_rows: self.page_rows,
            cache_pages: options.cache_pages.max(1),
            dataset: options.dataset.clone(),
            dicts,
            dict_bytes,
            pages,
            store: Mutex::new(PageStore {
                file,
                cache: Vec::with_capacity(options.cache_pages.max(1)),
                tick: 0,
            }),
            metrics: PagedMetrics::register(&options.dataset),
        })
    }
}

/// Creates the spill file in the system temp directory and unlinks it
/// immediately (Unix), so the pages disappear with the last open handle —
/// no cleanup to forget even on abnormal exit.
fn spill_file() -> std::io::Result<File> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir();
    let name = format!(
        "maimon-paged-{}-{}.pages",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let path = dir.join(name);
    let file = std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(&path)?;
    // With the handle open, removing the path is safe on Unix; elsewhere the
    // file lingers until process exit, which the OS temp cleaner handles.
    #[cfg(unix)]
    let _ = std::fs::remove_file(&path);
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize) -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let columns: Vec<Vec<u32>> = vec![
            (0..rows as u32).map(|r| r % 7).collect(),
            (0..rows as u32).map(|r| r % 3).collect(),
            (0..rows as u32).map(|r| (r * r) % 5).collect(),
        ];
        Relation::from_code_columns(schema, columns).unwrap()
    }

    fn paged(rel: &Relation, page_rows: usize, cache_pages: usize) -> PagedColumnarRelation {
        PagedColumnarRelation::from_relation(
            rel,
            PagedOptions {
                page_rows,
                cache_pages,
                dataset: format!("test-{}-{}", page_rows, cache_pages),
            },
        )
        .unwrap()
    }

    /// Reassembles a column through the chunk API.
    fn collect_column(backend: &dyn RelationBackend, c: usize) -> Vec<u32> {
        let mut out = Vec::new();
        backend
            .scan_column(c, &mut |start, codes| {
                assert_eq!(start, out.len(), "chunks must tile in ascending row order");
                out.extend_from_slice(codes);
            })
            .unwrap();
        out
    }

    #[test]
    fn paged_scans_reproduce_the_source_columns_across_page_sizes() {
        let rel = sample(257);
        for page_rows in [1, 64, 100, 256, 257, 4096] {
            let store = paged(&rel, page_rows, 3);
            assert_eq!(store.n_rows(), rel.n_rows());
            for c in 0..rel.arity() {
                assert_eq!(collect_column(&store, c), rel.column_codes(c), "page {page_rows}");
                assert_eq!(store.column_cardinality(c), rel.column_cardinality(c));
            }
        }
    }

    #[test]
    fn aligned_scan_tiles_rows_and_matches_columns() {
        let rel = sample(130);
        let store = paged(&rel, 32, 2);
        let mut rows_seen = 0;
        store
            .scan_columns(&[2, 0], &mut |start, slices| {
                assert_eq!(start, rows_seen);
                assert_eq!(slices.len(), 2);
                assert_eq!(slices[0], &rel.column_codes(2)[start..start + slices[0].len()]);
                assert_eq!(slices[1], &rel.column_codes(0)[start..start + slices[1].len()]);
                rows_seen += slices[0].len();
            })
            .unwrap();
        assert_eq!(rows_seen, rel.n_rows());
    }

    #[test]
    fn dictionaries_round_trip_values() {
        let rel = sample(50);
        let store = paged(&rel, 16, 2);
        for c in 0..rel.arity() {
            for r in 0..rel.n_rows() {
                assert_eq!(store.dict_value(c, rel.code(r, c)), rel.value(r, c));
            }
        }
    }

    #[test]
    fn lru_cache_evicts_and_counts_hits_and_misses() {
        let rel = sample(128);
        let store = paged(&rel, 32, 2); // 4 pages per column, 2 cache slots
                                        // First full scan of a column: all misses.
        let _ = collect_column(&store, 0);
        let s1 = store.cache_stats();
        assert_eq!(s1.misses, 4);
        assert_eq!(s1.hits, 0);
        assert_eq!(s1.cached_pages, 2);
        // Re-scanning evicted pages faults again; the last two pages hit.
        let _ = collect_column(&store, 0);
        let s2 = store.cache_stats();
        assert!(s2.misses > s1.misses);
        assert!(s2.cached_pages <= 2);
        // A tight re-fetch of one resident page is a pure hit.
        let last = store.n_pages() - 1;
        let _ = store.fetch(0, last);
        assert!(store.cache_stats().hits > s2.hits);
    }

    #[test]
    fn resident_bytes_are_bounded_by_cache_plus_dicts() {
        let rel = sample(1024);
        let store = paged(&rel, 64, 2);
        for c in 0..rel.arity() {
            let _ = collect_column(&store, c);
        }
        let stats = store.cache_stats();
        let bound = store.dict_bytes + 2 * 64 * 4;
        assert!(
            stats.resident_bytes <= bound,
            "resident {} exceeds bound {}",
            stats.resident_bytes,
            bound
        );
        assert_eq!(store.resident_bytes(), store.cache_stats().resident_bytes);
    }

    #[test]
    fn empty_relation_pages_out_with_no_chunks() {
        let rel = Relation::empty(Schema::new(["A"]).unwrap());
        let store = paged(&rel, 16, 2);
        assert_eq!(store.n_rows(), 0);
        store.scan_column(0, &mut |_, _| panic!("no chunks expected")).unwrap();
    }

    #[test]
    fn injected_page_read_fault_is_a_typed_error_not_a_panic() {
        let rel = sample(128);
        let scope = "fault-injection-unit";
        let store = PagedColumnarRelation::from_relation(
            &rel,
            PagedOptions { page_rows: 32, cache_pages: 2, dataset: scope.to_string() },
        )
        .unwrap(); // 4 pages per column
        fault::global().arm(&format!("paged_read@{scope}"), 2, u64::MAX);
        let mut rows = 0usize;
        let err = store
            .scan_column(0, &mut |_, codes| rows += codes.len())
            .expect_err("the third page fault-in must fail");
        fault::global().disarm(&format!("paged_read@{scope}"));
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("injected fault"), "got {err}");
        assert_eq!(rows, 64, "the two pages before the fault were delivered");
        // The fault was transient (disarmed): the store keeps serving.
        assert_eq!(collect_column(&store, 0), rel.column_codes(0));
    }

    #[test]
    fn corrupted_page_fails_its_checksum_as_a_typed_error() {
        let rel = sample(96);
        let store = paged(&rel, 32, 1);
        // Warm nothing; flip one byte of column 1's second page on disk.
        let loc = store.pages[1][1];
        {
            let mut guard = store.lock_store();
            guard.file.seek(SeekFrom::Start(loc.offset + 5)).unwrap();
            let mut byte = [0u8; 1];
            guard.file.read_exact(&mut byte).unwrap();
            byte[0] ^= 0x40;
            guard.file.seek(SeekFrom::Start(loc.offset + 5)).unwrap();
            guard.file.write_all(&byte).unwrap();
        }
        let err = store
            .scan_column(1, &mut |_, _| {})
            .expect_err("the corrupted page must fail validation");
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("checksum"), "got {err}");
        // Undamaged columns are unaffected.
        assert_eq!(collect_column(&store, 0), rel.column_codes(0));
    }
}
