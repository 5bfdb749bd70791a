//! Crash-safe persistence for in-memory relations: a checksummed snapshot
//! format plus a length-prefixed, fsync'd append WAL.
//!
//! One durable dataset lives in one directory:
//!
//! ```text
//! <data-dir>/<dataset>/
//!   snapshot.bin   dictionaries + code columns + data_version, CRC-32 tailed
//!   wal.bin        8-byte magic, then appended records (see below)
//! ```
//!
//! The **snapshot** is written whole to `snapshot.tmp`, fsync'd, and
//! atomically renamed over `snapshot.bin` (then the directory is fsync'd), so
//! a crash mid-write never damages the previous snapshot. Layout after the
//! 8-byte magic `MMSNAP01`: `data_version: u64`, `arity: u32`, the attribute
//! names, `n_rows: u64`, each column's dictionary, then each column's row
//! codes, all little-endian with `u32` length prefixes on strings; the final
//! 4 bytes are the CRC-32 of everything before them.
//!
//! Each **WAL record** is `len: u32 | crc: u32 | payload`, where the payload
//! carries the append's *target* `data_version` followed by the batch's rows
//! as length-prefixed strings, and `crc` covers the payload. A record is
//! fsync'd before the append is acknowledged. Recovery replays records whose
//! target version exceeds the snapshot's; a torn tail — a partial header,
//! short payload, or checksum mismatch, exactly what a crash mid-write or an
//! injected `wal_write` short-count leaves behind — is *truncated*, not an
//! error: those bytes were never acknowledged. After replay the snapshot is
//! rewritten at the recovered version and the WAL is reset, so WAL growth is
//! bounded by one process uptime.
//!
//! Failpoints consulted here (see [`crate::fault`]): `wal_write` (simulates a
//! short write: half the record reaches the file, the append errors) and
//! `wal_fsync` (the record is written but the sync fails). Either failure
//! marks the WAL unhealthy — subsequent appends fail fast with a typed error
//! until a restart re-opens (and re-validates) the log — because an
//! unacknowledged in-memory append without its WAL record would otherwise
//! silently diverge from what recovery can rebuild.

use crate::crc::crc32;
use crate::fault;
use crate::StorageError;
use relation::{Relation, Schema};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

const SNAPSHOT_MAGIC: &[u8; 8] = b"MMSNAP01";
const WAL_MAGIC: &[u8; 8] = b"MMWAL001";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const WAL_FILE: &str = "wal.bin";

/// What recovery found when a durable dataset was opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The data version the dataset was recovered to (snapshot + replay).
    pub data_version: u64,
    /// WAL records applied on top of the snapshot.
    pub replayed_records: u64,
    /// Whether a torn tail (partial or corrupt final record) was truncated.
    pub truncated_tail: bool,
}

/// The WAL file handle plus its health bit (see the module docs for why a
/// failed write poisons the log until restart).
struct WalState {
    file: File,
    healthy: bool,
}

/// Obs instruments for one durable dataset.
struct DurableMetrics {
    appends: std::sync::Arc<obs::Counter>,
    append_duration: std::sync::Arc<obs::Histogram>,
    snapshots: std::sync::Arc<obs::Counter>,
}

impl DurableMetrics {
    fn register(dataset: &str) -> Self {
        let registry = obs::global();
        registry.describe(
            "maimon_wal_appends_total",
            "WAL records durably written (fsync'd) for a dataset",
        );
        registry.describe(
            "maimon_wal_append_duration_ns",
            "Latency of one durable WAL append (serialize + write + fsync)",
        );
        registry.describe(
            "maimon_snapshots_written_total",
            "Durable snapshots written for a dataset (creation, recovery compaction)",
        );
        let labels: &[(&'static str, &str)] = &[("dataset", dataset)];
        DurableMetrics {
            appends: registry.counter("maimon_wal_appends_total", labels),
            append_duration: registry.histogram("maimon_wal_append_duration_ns", labels),
            snapshots: registry.counter("maimon_snapshots_written_total", labels),
        }
    }
}

/// One dataset's durable storage: the snapshot/WAL pair in one directory.
///
/// The handle serializes WAL writes internally; callers that must keep the
/// WAL order consistent with an external apply order (the serve layer's
/// append path) additionally hold [`DurableDataset::append_guard`] across
/// *apply + append*.
pub struct DurableDataset {
    dir: PathBuf,
    dataset: String,
    /// Outer ordering lock for callers pairing an in-memory apply with the
    /// WAL append; never taken by this type itself.
    order: Mutex<()>,
    wal: Mutex<WalState>,
    metrics: DurableMetrics,
}

impl DurableDataset {
    /// Whether `dir` holds a durable dataset (a snapshot exists).
    pub fn exists(dir: &Path) -> bool {
        dir.join(SNAPSHOT_FILE).is_file()
    }

    /// Creates a fresh durable dataset at `dir` from `rel`: writes the
    /// initial snapshot (at the relation's current `data_version`) and an
    /// empty WAL. The directory is created if missing.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the directory or either file cannot
    /// be written.
    pub fn create(dir: &Path, dataset: &str, rel: &Relation) -> Result<Self, StorageError> {
        fs::create_dir_all(dir)?;
        let metrics = DurableMetrics::register(dataset);
        write_snapshot(dir, rel)?;
        metrics.snapshots.inc();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        fsync_dir(dir)?;
        Ok(DurableDataset {
            dir: dir.to_path_buf(),
            dataset: dataset.to_string(),
            order: Mutex::new(()),
            wal: Mutex::new(WalState { file, healthy: true }),
            metrics,
        })
    }

    /// Opens an existing durable dataset: loads the snapshot, replays the
    /// WAL (truncating a torn tail), compacts — rewrites the snapshot at the
    /// recovered version and resets the WAL — and returns the recovered
    /// relation at its exact pre-crash `data_version`.
    ///
    /// # Errors
    /// Returns [`StorageError::Corrupt`] when the snapshot fails validation
    /// or the WAL's *interior* is inconsistent (only the tail may be torn),
    /// and [`StorageError::Io`] on read/write failures.
    pub fn open(dir: &Path, dataset: &str) -> Result<(Relation, RecoveryInfo, Self), StorageError> {
        let metrics = DurableMetrics::register(dataset);
        let mut rel = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))?;
        let (replayed, truncated) = replay_wal(&mut file, &mut rel)?;
        let info = RecoveryInfo {
            data_version: rel.data_version(),
            replayed_records: replayed,
            truncated_tail: truncated,
        };
        // Compaction: fold the replayed records into the snapshot so the WAL
        // restarts empty. Crash-safe in every interleaving — a new snapshot
        // with a stale WAL only re-offers records the replay will skip
        // (their target version is not above the snapshot's).
        if replayed > 0 || truncated {
            write_snapshot(dir, &rel)?;
            metrics.snapshots.inc();
        }
        file.set_len(WAL_MAGIC.len() as u64)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        let registry = obs::global();
        registry.describe(
            "maimon_wal_replayed_records_total",
            "WAL records applied on top of a snapshot during recovery",
        );
        registry
            .describe("maimon_wal_torn_tails_total", "Torn WAL tails truncated during recovery");
        registry.describe(
            "maimon_datasets_recovered_total",
            "Durable datasets recovered from snapshot + WAL replay",
        );
        let labels: &[(&'static str, &str)] = &[("dataset", dataset)];
        registry.counter("maimon_wal_replayed_records_total", labels).add(replayed);
        if truncated {
            registry.counter("maimon_wal_torn_tails_total", labels).inc();
        }
        registry.counter("maimon_datasets_recovered_total", labels).inc();
        let durable = DurableDataset {
            dir: dir.to_path_buf(),
            dataset: dataset.to_string(),
            order: Mutex::new(()),
            wal: Mutex::new(WalState { file, healthy: true }),
            metrics,
        };
        Ok((rel, info, durable))
    }

    /// The dataset label this durable state belongs to.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The directory holding the snapshot/WAL pair.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Takes the outer ordering lock. The serve layer holds this guard
    /// across *in-memory apply + WAL append* so concurrent appends reach the
    /// WAL in apply order; the guard recovers from poisoning (a panicking
    /// request must not wedge the dataset).
    pub fn append_guard(&self) -> MutexGuard<'_, ()> {
        self.order.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Durably appends one batch: the record (carrying `target_version`, the
    /// data version the batch produced) is written and fsync'd before this
    /// returns — the caller must not acknowledge the append earlier.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the write or fsync fails (including
    /// the `wal_write`/`wal_fsync` failpoints); any failure marks the WAL
    /// unhealthy and every later append fails fast until the process
    /// restarts and re-opens the log.
    pub fn append<S: AsRef<str>>(
        &self,
        target_version: u64,
        rows: &[Vec<S>],
    ) -> Result<(), StorageError> {
        let start = Instant::now();
        let payload = encode_payload(target_version, rows);
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let mut wal = self.wal.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if !wal.healthy {
            return Err(StorageError::Io(io::Error::other(format!(
                "dataset {:?}: WAL disabled after an earlier write failure; \
                 restart the server to recover",
                self.dataset
            ))));
        }
        let result = write_record(&mut wal.file, &record, &self.dataset);
        match &result {
            Ok(()) => {
                self.metrics.appends.inc();
                self.metrics.append_duration.record_duration(start.elapsed());
            }
            Err(_) => wal.healthy = false,
        }
        result
    }
}

/// Appends one framed record and fsyncs it, consulting the `wal_write` and
/// `wal_fsync` failpoints.
fn write_record(file: &mut File, record: &[u8], dataset: &str) -> Result<(), StorageError> {
    file.seek(SeekFrom::End(0))?;
    if fault::global().should_fail("wal_write", dataset) {
        // Simulate a short write: only half the record reaches the file —
        // exactly the torn tail recovery must truncate.
        let _ = file.write_all(&record[..record.len() / 2]);
        let _ = file.sync_data();
        return Err(StorageError::Io(fault::injected_io_error("wal_write")));
    }
    file.write_all(record)?;
    fault::check_io("wal_fsync", dataset)?;
    file.sync_data()?;
    Ok(())
}

/// Serializes one append batch: `target_version: u64 | n_rows: u32 | rows`,
/// each row `n_fields: u32 | fields`, each field `len: u32 | bytes`.
fn encode_payload<S: AsRef<str>>(target_version: u64, rows: &[Vec<S>]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&target_version.to_le_bytes());
    payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        payload.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for field in row {
            let bytes = field.as_ref().as_bytes();
            payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(bytes);
        }
    }
    payload
}

/// Replays `file`'s records into `rel`, truncating a torn tail in place.
/// Returns `(records_applied, tail_truncated)`.
fn replay_wal(file: &mut File, rel: &mut Relation) -> Result<(u64, bool), StorageError> {
    file.seek(SeekFrom::Start(0))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() {
        // A crash between file creation and the magic write leaves a stub
        // that cannot hold an acknowledged record; reset it.
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        return Ok((0, !bytes.is_empty()));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StorageError::Corrupt("WAL file has a bad magic header".into()));
    }
    let mut pos = WAL_MAGIC.len();
    let mut applied = 0u64;
    let mut truncate_at: Option<usize> = None;
    while pos < bytes.len() {
        let Some((payload, next)) = frame_record(&bytes, pos) else {
            truncate_at = Some(pos);
            break;
        };
        let (target, rows) = decode_payload(payload)
            .ok_or_else(|| StorageError::Corrupt("WAL record payload is malformed".into()))?;
        if target > rel.data_version() {
            if target != rel.data_version() + 1 {
                return Err(StorageError::Corrupt(format!(
                    "WAL gap: record targets version {} but the relation is at {}",
                    target,
                    rel.data_version()
                )));
            }
            let summary = rel.append_rows(&rows)?;
            if summary.data_version != target {
                return Err(StorageError::Corrupt(format!(
                    "WAL replay produced version {} instead of the record's target {}",
                    summary.data_version, target
                )));
            }
            applied += 1;
        }
        pos = next;
    }
    if let Some(at) = truncate_at {
        file.set_len(at as u64)?;
        file.sync_all()?;
        return Ok((applied, true));
    }
    Ok((applied, false))
}

/// Validates the record frame at `pos`: returns the payload slice and the
/// next record's offset, or `None` when the frame is partial or fails its
/// checksum (a torn tail).
fn frame_record(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if bytes.len() - pos < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    let start = pos + 8;
    let end = start.checked_add(len)?;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[start..end];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, end))
}

/// Decodes a record payload back into `(target_version, rows)`.
fn decode_payload(payload: &[u8]) -> Option<(u64, Vec<Vec<String>>)> {
    let mut cursor = Cursor { bytes: payload, pos: 0 };
    let target = cursor.u64()?;
    let n_rows = cursor.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(payload.len()));
    for _ in 0..n_rows {
        let n_fields = cursor.u32()? as usize;
        let mut row = Vec::with_capacity(n_fields.min(payload.len()));
        for _ in 0..n_fields {
            row.push(cursor.string()?);
        }
        rows.push(row);
    }
    if cursor.pos != payload.len() {
        return None;
    }
    Some((target, rows))
}

/// Writes `rel` as a checksummed snapshot via temp-file + atomic rename.
fn write_snapshot(dir: &Path, rel: &Relation) -> Result<(), StorageError> {
    let mut body = Vec::new();
    body.extend_from_slice(SNAPSHOT_MAGIC);
    body.extend_from_slice(&rel.data_version().to_le_bytes());
    body.extend_from_slice(&(rel.arity() as u32).to_le_bytes());
    for name in rel.schema().names() {
        push_str(&mut body, name);
    }
    body.extend_from_slice(&(rel.n_rows() as u64).to_le_bytes());
    for c in 0..rel.arity() {
        let dict = rel.column_values(c);
        body.extend_from_slice(&(dict.len() as u32).to_le_bytes());
        for value in dict {
            push_str(&mut body, value);
        }
    }
    for c in 0..rel.arity() {
        for &code in rel.column_codes(c) {
            body.extend_from_slice(&code.to_le_bytes());
        }
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut file = File::create(&tmp)?;
    file.write_all(&body)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    fsync_dir(dir)?;
    Ok(())
}

/// Loads and validates a snapshot file.
fn load_snapshot(path: &Path) -> Result<Relation, StorageError> {
    let bytes = fs::read(path)?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(StorageError::Corrupt("snapshot file is too short".into()));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StorageError::Corrupt("snapshot file has a bad magic header".into()));
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(StorageError::Corrupt(format!(
            "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let mut cursor = Cursor { bytes: &bytes[SNAPSHOT_MAGIC.len()..body_end], pos: 0 };
    parse_snapshot_body(&mut cursor)
        .ok_or_else(|| StorageError::Corrupt("snapshot body is malformed".into()))?
}

/// Parses the validated snapshot body; `None` means a structural problem the
/// checksum could not see (which would indicate a writer bug, but is still
/// reported as corruption, never a panic).
fn parse_snapshot_body(cursor: &mut Cursor<'_>) -> Option<Result<Relation, StorageError>> {
    let data_version = cursor.u64()?;
    let arity = cursor.u32()? as usize;
    let mut names = Vec::with_capacity(arity.min(cursor.remaining()));
    for _ in 0..arity {
        names.push(cursor.string()?);
    }
    let n_rows = cursor.u64()? as usize;
    let mut dicts = Vec::with_capacity(arity);
    for _ in 0..arity {
        let len = cursor.u32()? as usize;
        let mut dict = Vec::with_capacity(len.min(cursor.remaining()));
        for _ in 0..len {
            dict.push(cursor.string()?);
        }
        dicts.push(dict);
    }
    let mut codes = Vec::with_capacity(arity);
    for _ in 0..arity {
        // `n_rows` is read from the file: trust it only as far as the
        // bytes left can hold codes.
        let mut col = Vec::with_capacity(n_rows.min(cursor.remaining() / 4));
        for _ in 0..n_rows {
            col.push(cursor.u32()?);
        }
        codes.push(col);
    }
    if cursor.pos != cursor.bytes.len() {
        return None;
    }
    let schema = match Schema::new(names) {
        Ok(schema) => schema,
        Err(e) => return Some(Err(StorageError::Relation(e))),
    };
    Some(
        Relation::from_encoded_parts(schema, dicts, codes, data_version)
            .map_err(StorageError::Relation),
    )
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Fsyncs a directory so a rename or file creation inside it is durable.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        Relation::from_rows(
            schema,
            &[
                vec!["a1", "b1", "c1"],
                vec!["a2", "b1", "c2"],
                vec!["a1", "b2", "c1"],
                vec!["a2", "b2", "c2"],
            ],
        )
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "maimon-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_same(a: &Relation, b: &Relation) {
        assert_eq!(a.data_version(), b.data_version());
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.schema().names(), b.schema().names());
        for c in 0..a.arity() {
            assert_eq!(a.column_values(c), b.column_values(c), "dict of column {c}");
            assert_eq!(a.column_codes(c), b.column_codes(c), "codes of column {c}");
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let dir = tmp_dir("snap");
        let mut rel = sample();
        rel.append_rows(&[vec!["a3", "b3", "c3"]]).unwrap();
        assert_eq!(rel.data_version(), 1);
        write_snapshot(&dir, &rel).unwrap();
        let loaded = load_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert_same(&rel, &loaded);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_a_typed_error() {
        let dir = tmp_dir("snapcorrupt");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksummed_snapshot_claiming_huge_row_count_is_corrupt_without_allocating_it() {
        let dir = tmp_dir("snaphuge");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Magic, data_version, arity, then the names "A", "B", "C" (length
        // prefix plus one byte each) precede n_rows.
        let n_rows_at = 8 + 8 + 4 + 3 * 5;
        assert_eq!(bytes[n_rows_at..n_rows_at + 8], 4u64.to_le_bytes());
        // 2^40 rows of u32 codes would be a 4 TiB reservation, which aborts
        // the process; a typed error proves the decoder never asked for it.
        bytes[n_rows_at..n_rows_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_append_reopen_recovers_the_exact_version() {
        let dir = tmp_dir("roundtrip");
        let mut twin = sample();
        let durable = DurableDataset::create(&dir, "roundtrip", &twin).unwrap();
        for i in 0..5 {
            let batch = vec![vec![format!("a{i}"), format!("b{i}"), format!("c{i}")]];
            let summary = twin.append_rows(&batch).unwrap();
            durable.append(summary.data_version, &batch).unwrap();
        }
        drop(durable); // simulate a crash: no checkpoint, just the WAL
        let (recovered, info, _durable) = DurableDataset::open(&dir, "roundtrip").unwrap();
        assert_eq!(info.replayed_records, 5);
        assert!(!info.truncated_tail);
        assert_eq!(info.data_version, 5);
        assert_same(&twin, &recovered);
        // A second open replays nothing: recovery compacted the WAL.
        let (again, info2, _d2) = DurableDataset::open(&dir, "roundtrip").unwrap();
        assert_eq!(info2.replayed_records, 0);
        assert_same(&twin, &again);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let mut twin = sample();
        let durable = DurableDataset::create(&dir, "torn", &twin).unwrap();
        let batch = vec![vec!["x".to_string(), "y".to_string(), "z".to_string()]];
        let summary = twin.append_rows(&batch).unwrap();
        durable.append(summary.data_version, &batch).unwrap();
        drop(durable);
        // Tear the tail: append half of a fake record.
        {
            let mut file = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
            file.write_all(&[0x40, 0, 0, 0, 0xde, 0xad]).unwrap();
        }
        let (recovered, info, _durable) = DurableDataset::open(&dir, "torn").unwrap();
        assert_eq!(info.replayed_records, 1);
        assert!(info.truncated_tail);
        assert_same(&twin, &recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_short_write_poisons_the_wal_and_recovery_truncates() {
        let dir = tmp_dir("shortwrite");
        let mut twin = sample();
        let durable = DurableDataset::create(&dir, "shortwrite-ds", &twin).unwrap();
        let good = vec![vec!["g".to_string(), "g".to_string(), "g".to_string()]];
        let summary = twin.append_rows(&good).unwrap();
        durable.append(summary.data_version, &good).unwrap();

        fault::global().arm("wal_write@shortwrite-ds", 0, 1);
        let bad = vec![vec!["b".to_string(), "b".to_string(), "b".to_string()]];
        let err = durable.append(summary.data_version + 1, &bad).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "got {err}");
        // The WAL is now fail-fast until restart.
        let err2 = durable.append(summary.data_version + 1, &bad).unwrap_err();
        assert!(err2.to_string().contains("disabled"), "got {err2}");
        drop(durable);

        // Recovery drops the torn record and lands on the acknowledged state.
        let (recovered, info, _durable) = DurableDataset::open(&dir, "shortwrite-ds").unwrap();
        assert!(info.truncated_tail);
        assert_eq!(info.data_version, 1);
        assert_same(&twin, &recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failure_is_a_typed_error() {
        let dir = tmp_dir("fsync");
        let twin = sample();
        let durable = DurableDataset::create(&dir, "fsync-ds", &twin).unwrap();
        fault::global().arm("wal_fsync@fsync-ds", 0, 1);
        let batch = vec![vec!["f".to_string(), "f".to_string(), "f".to_string()]];
        let err = durable.append(1, &batch).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_records_below_the_snapshot_version_are_skipped() {
        let dir = tmp_dir("skip");
        let mut twin = sample();
        let durable = DurableDataset::create(&dir, "skip", &twin).unwrap();
        let batch = vec![vec!["s".to_string(), "s".to_string(), "s".to_string()]];
        let summary = twin.append_rows(&batch).unwrap();
        durable.append(summary.data_version, &batch).unwrap();
        // Re-snapshot at the newer version while the WAL still holds the
        // record — the crash-between-snapshot-and-truncate interleaving.
        write_snapshot(&dir, &twin).unwrap();
        drop(durable);
        let (recovered, info, _durable) = DurableDataset::open(&dir, "skip").unwrap();
        assert_eq!(info.replayed_records, 0, "the record's target is not above the snapshot");
        assert_same(&twin, &recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The files of a durable dataset: its snapshot of [`sample`] and a WAL
    /// holding two appended batches, plus the relation after each version.
    struct Seeded {
        snapshot: Vec<u8>,
        wal: Vec<u8>,
        versions: Vec<Relation>,
    }

    fn seeded() -> Seeded {
        let dir = tmp_dir("fuzz-seed");
        let mut twin = sample();
        let mut versions = vec![twin.clone()];
        let durable = DurableDataset::create(&dir, "fuzz-seed", &twin).unwrap();
        for batch in
            [vec![vec!["a3", "b3", "c3"], vec!["a1", "b1", "c1"]], vec![vec!["a4", "", "c4"]]]
        {
            let summary = twin.append_rows(&batch).unwrap();
            durable.append(summary.data_version, &batch).unwrap();
            versions.push(twin.clone());
        }
        drop(durable);
        let snapshot = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let wal = fs::read(dir.join(WAL_FILE)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        Seeded { snapshot, wal, versions }
    }

    /// Opens a durable dataset made of the given file images.
    fn open_images(
        tag: &str,
        snapshot: &[u8],
        wal: &[u8],
    ) -> Result<(Relation, RecoveryInfo), StorageError> {
        let dir = tmp_dir(tag);
        fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
        fs::write(dir.join(WAL_FILE), wal).unwrap();
        let opened = DurableDataset::open(&dir, tag).map(|(rel, info, _)| (rel, info));
        fs::remove_dir_all(&dir).unwrap();
        opened
    }

    /// `bytes` behind the snapshot magic, under a valid checksum, so the
    /// body decoder sees them.
    fn checksummed_snapshot(bytes: &[u8]) -> Vec<u8> {
        let mut image = SNAPSHOT_MAGIC.to_vec();
        image.extend_from_slice(bytes);
        image.extend_from_slice(&crc32(&image).to_le_bytes());
        image
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Arbitrary bytes reach every decoder: the snapshot body, a WAL
        /// record frame and a record payload directly, and recovery from
        /// files holding them behind valid magics and checksums. Each
        /// returns a value or a typed error; none panics.
        #[test]
        fn decoders_return_typed_errors_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..192),
        ) {
            let _ = parse_snapshot_body(&mut Cursor { bytes: &bytes, pos: 0 });
            let _ = frame_record(&bytes, 0);
            let _ = decode_payload(&bytes);
            let mut wal = WAL_MAGIC.to_vec();
            wal.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            wal.extend_from_slice(&crc32(&bytes).to_le_bytes());
            wal.extend_from_slice(&bytes);
            match open_images("fuzz-bytes", &checksummed_snapshot(&bytes), &wal) {
                Ok(_) | Err(StorageError::Corrupt(_)) | Err(StorageError::Relation(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
            let seeded = seeded();
            match open_images("fuzz-bytes-wal", &seeded.snapshot, &wal) {
                Ok(_) | Err(StorageError::Corrupt(_)) | Err(StorageError::Relation(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }

        /// Every truncation of a valid snapshot is a typed corruption
        /// error, and every truncation of a valid WAL is a torn tail:
        /// recovery lands on the last whole record's version.
        #[test]
        fn truncations_are_corrupt_snapshots_or_torn_wal_tails(cut in 0usize..4096) {
            let seeded = seeded();
            let at = cut % seeded.snapshot.len();
            let truncated = open_images("fuzz-cut-snap", &seeded.snapshot[..at], &seeded.wal);
            prop_assert!(
                matches!(truncated, Err(StorageError::Corrupt(_))),
                "snapshot cut at {}: {:?}", at, truncated
            );
            let at = cut % seeded.wal.len();
            let (rel, info) = open_images("fuzz-cut-wal", &seeded.snapshot, &seeded.wal[..at])
                .expect("a torn WAL tail is truncated, not fatal");
            // Only a cut inside the magic or inside a record leaves a tail.
            let mut boundaries = vec![0, WAL_MAGIC.len()];
            while let Some((_, next)) = frame_record(&seeded.wal, *boundaries.last().unwrap()) {
                boundaries.push(next);
            }
            prop_assert_eq!(info.truncated_tail, !boundaries.contains(&at));
            assert_same(&rel, &seeded.versions[info.data_version as usize]);
            prop_assert_eq!(info.replayed_records, info.data_version);
        }

        /// A single flipped byte anywhere in the snapshot is a typed
        /// corruption error, and anywhere in the WAL either a typed
        /// corruption error (in its magic) or a torn tail.
        #[test]
        fn single_byte_flips_are_typed_errors_or_torn_tails(
            at in any::<usize>(),
            mask in 1u16..256,
        ) {
            let mask = mask as u8;
            let seeded = seeded();
            let mut snapshot = seeded.snapshot.clone();
            let i = at % snapshot.len();
            snapshot[i] ^= mask;
            let flipped = open_images("fuzz-flip-snap", &snapshot, &seeded.wal);
            prop_assert!(
                matches!(flipped, Err(StorageError::Corrupt(_))),
                "snapshot byte {} ^ {:#04x}: {:?}", i, mask, flipped
            );
            let mut wal = seeded.wal.clone();
            let i = at % wal.len();
            wal[i] ^= mask;
            match open_images("fuzz-flip-wal", &seeded.snapshot, &wal) {
                Err(StorageError::Corrupt(_)) => prop_assert!(i < WAL_MAGIC.len()),
                Ok((rel, info)) => {
                    prop_assert!(i >= WAL_MAGIC.len() && info.truncated_tail);
                    assert_same(&rel, &seeded.versions[info.data_version as usize]);
                }
                Err(other) => prop_assert!(false, "WAL byte {}: {:?}", i, other),
            }
        }
    }
}
