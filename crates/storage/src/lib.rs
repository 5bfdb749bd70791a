//! # maimon-storage — the streamed mount, durability and fault injection
//!
//! A session holds every relation as a [`relation::TupleBag`]: its distinct
//! tuples with their multiplicities (Eq. 5 needs only the bag). A
//! file-backed dataset is mounted by [`stream_csv`], which reads a CSV
//! stream once, straight into that bag: each value is interned into its
//! column's dictionary as it arrives and each run of records is counted
//! into the tuples, so the rows are never resident. This is what lets the
//! paper's §9 row-scalability experiments (Figs. 13–14) reach 10M-row
//! inputs with memory bounded by the dictionaries and the distinct tuples.
//!
//! The crate also carries the durability and fault-tolerance substrate:
//!
//! * [`durable`] — checksummed [`Relation`](relation::Relation) snapshots
//!   plus a length-prefixed, fsync'd append WAL ([`DurableDataset`]), the
//!   storage behind `maimon-served --data-dir` crash recovery;
//! * [`fault`] — named failpoints ([`FaultInjector`]) that the chaos test
//!   suite uses to inject stream-read errors, WAL short writes, fsync failures
//!   and connection drops, proving every failure surfaces as a typed
//!   [`StorageError`] instead of a process abort.

#![warn(missing_docs)]

mod crc;
pub mod durable;
pub mod fault;
mod ingest;
mod shim;

pub use durable::{DurableDataset, RecoveryInfo};
pub use fault::FaultInjector;
pub use ingest::stream_csv;
pub use shim::{
    ingest_csv_file, IngestOptions, PageCacheStats, PagedColumnarRelation, PagedOptions,
    RelationBackend,
};

use std::fmt;

/// Errors produced by the streamed mount and the durable store.
#[derive(Debug)]
pub enum StorageError {
    /// A malformed CSV stream or an invalid shape, with source position
    /// (the [`relation::RelationError::Csv`] variant carries line + byte
    /// offset).
    Relation(relation::RelationError),
    /// An I/O failure on the input stream or the durable snapshot/WAL
    /// files.
    Io(std::io::Error),
    /// Stored bytes failed validation (checksum mismatch, bad magic, a
    /// truncated structure, or codes outside their dictionary) — the data
    /// on disk cannot be trusted, and the error says why.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Relation(e) => write!(f, "{}", e),
            StorageError::Io(e) => write!(f, "storage I/O error: {}", e),
            StorageError::Corrupt(msg) => write!(f, "storage corruption detected: {}", msg),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<relation::RelationError> for StorageError {
    fn from(e: relation::RelationError) -> Self {
        StorageError::Relation(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
