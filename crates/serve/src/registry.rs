//! The dataset registry: named relations, each backed by one long-lived
//! shared [`MaimonSession`].
//!
//! Registering a relation builds a session once — one PLI entropy oracle,
//! one artifact cache — and every request for that dataset receives a cheap
//! [`MaimonSession::clone`] of the same handle. Clones share the oracle and
//! every mined artifact (that is the whole point of serving from owned
//! sessions: the second request for a threshold is a cache hit), while each
//! clone carries its own cancellation/deadline plumbing, so a per-request
//! deadline never bleeds into another request.
//!
//! Every dataset's memory is published as the process-wide
//! `maimon_dataset_resident_bytes{dataset}` gauge, read from
//! [`MaimonSession::resident_bytes`] when it is registered and after each
//! append, so it always equals the `resident_bytes` that `stats` reports.

use maimon::relation::{CsvOptions, Relation};
use maimon::storage::{stream_csv, DurableDataset, RecoveryInfo};
use maimon::{obs, MaimonConfig, MaimonError, MaimonSession};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// A named collection of relations, each served by one shared
/// [`MaimonSession`].
///
/// Thread-safe: lookups take a read lock and clone the session handle, so
/// concurrent requests never contend beyond the map access itself.
#[derive(Default)]
pub struct DatasetRegistry {
    sessions: RwLock<HashMap<String, MaimonSession>>,
    /// Durable (snapshot + WAL) state for datasets mounted from a
    /// `--data-dir`; in-memory-only and streamed datasets have no entry.
    durables: RwLock<HashMap<String, Arc<DurableDataset>>>,
}

impl DatasetRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DatasetRegistry::default()
    }

    /// Registers `relation` under `name`, building its session (and thus its
    /// entropy oracle) eagerly so the first request pays no construction
    /// cost. Replaces any previous dataset of the same name.
    ///
    /// # Errors
    /// Returns the session constructor's error for an invalid configuration
    /// or a relation that cannot be profiled (empty, arity < 2).
    pub fn register(
        &self,
        name: impl Into<String>,
        relation: impl Into<Arc<Relation>>,
        config: MaimonConfig,
    ) -> Result<(), MaimonError> {
        self.insert(name.into(), MaimonSession::new(relation, config)?);
        Ok(())
    }

    /// Streams the CSV in `reader` under `name`, read with
    /// `CsvOptions::default()` (header, `,`, duplicate rows removed),
    /// straight into a session's distinct tuples: the rows are never
    /// resident. The session serves the same data as [`Self::register`]
    /// over `relation_from_csv(text, CsvOptions::default())`, and every
    /// operation exactly like an in-memory dataset. Appends live in the
    /// session only, like appends to any dataset without durable state.
    /// `name` scopes the stream's `csv_read` failpoint.
    ///
    /// # Errors
    /// Returns [`MaimonError::Storage`] when reading or parsing the stream
    /// fails, and the session constructor's error for an invalid
    /// configuration or a relation that cannot be profiled (empty,
    /// arity < 2); nothing is registered then.
    pub fn register_csv(
        &self,
        name: impl Into<String>,
        reader: impl BufRead,
        config: MaimonConfig,
    ) -> Result<(), MaimonError> {
        let name = name.into();
        let tuples = stream_csv(reader, CsvOptions::default(), &name)?;
        self.insert(name, MaimonSession::from_tuples(tuples, config)?);
        Ok(())
    }

    /// Installs `session` under `name` and publishes its memory.
    fn insert(&self, name: String, session: MaimonSession) {
        publish_resident_bytes(&name, &session);
        self.sessions
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(name, session);
    }

    /// Recovers every durable dataset under `data_dir` (one subdirectory per
    /// dataset, each holding a snapshot + WAL pair) and registers a session
    /// for each at its exact pre-crash data version. Returns the recovered
    /// `(name, RecoveryInfo)` pairs, sorted by name for deterministic boot
    /// logs. Subdirectories without a snapshot are skipped.
    ///
    /// # Errors
    /// Returns [`MaimonError::Storage`] when a snapshot or WAL interior is
    /// corrupt or unreadable, and the session constructor's error when a
    /// recovered relation cannot be served.
    pub fn open_durable(
        &self,
        data_dir: &Path,
        config: MaimonConfig,
    ) -> Result<Vec<(String, RecoveryInfo)>, MaimonError> {
        let mut recovered = Vec::new();
        let entries = std::fs::read_dir(data_dir)
            .map_err(|e| MaimonError::Storage(format!("cannot read {:?}: {}", data_dir, e)))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| MaimonError::Storage(format!("cannot read dir entry: {}", e)))?;
            let dir = entry.path();
            if !dir.is_dir() || !DurableDataset::exists(&dir) {
                continue;
            }
            let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            let (relation, info, durable) = DurableDataset::open(&dir, &name)
                .map_err(|e| MaimonError::Storage(e.to_string()))?;
            self.register(name.clone(), relation, config)?;
            self.durables
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .insert(name.clone(), Arc::new(durable));
            recovered.push((name, info));
        }
        recovered.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(recovered)
    }

    /// Registers `relation` under `name` *and* creates durable state for it
    /// under `data_dir/<name>` (initial snapshot + empty WAL), so subsequent
    /// appends survive a crash. Used when seeding a `--data-dir` server with
    /// a dataset that has no durable state yet.
    ///
    /// # Errors
    /// Returns [`MaimonError::Storage`] when the snapshot or WAL cannot be
    /// written, and the session constructor's error for an unservable
    /// relation.
    pub fn register_durable(
        &self,
        name: impl Into<String>,
        relation: Relation,
        config: MaimonConfig,
        data_dir: &Path,
    ) -> Result<(), MaimonError> {
        let name = name.into();
        let durable = DurableDataset::create(&data_dir.join(&name), &name, &relation)
            .map_err(|e| MaimonError::Storage(e.to_string()))?;
        self.register(name.clone(), relation, config)?;
        self.durables
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(name, Arc::new(durable));
        Ok(())
    }

    /// The durable (snapshot + WAL) handle for `name`, if the dataset was
    /// mounted durably. The serve layer's append path uses this to fsync a
    /// WAL record before acknowledging.
    pub fn durable(&self, name: &str) -> Option<Arc<DurableDataset>> {
        self.durables.read().unwrap_or_else(|poisoned| poisoned.into_inner()).get(name).cloned()
    }

    /// A shared session handle for `name`, if registered. The clone shares
    /// the dataset's oracle and artifact caches; attach per-request deadlines
    /// or tokens to it freely.
    pub fn get(&self, name: &str) -> Option<MaimonSession> {
        self.sessions.read().unwrap_or_else(|poisoned| poisoned.into_inner()).get(name).cloned()
    }

    /// Registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.sessions.read().unwrap_or_else(|poisoned| poisoned.into_inner()).len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sets `maimon_dataset_resident_bytes{dataset=name}` in the process-wide
/// registry to the bytes `session` holds now. The serve layer calls it
/// after each append.
pub(crate) fn publish_resident_bytes(name: &str, session: &MaimonSession) {
    let registry = obs::global();
    registry.describe(
        "maimon_dataset_resident_bytes",
        "Resident bytes of a dataset's distinct tuples (dictionaries and codes)",
    );
    let bytes = i64::try_from(session.resident_bytes()).unwrap_or(i64::MAX);
    registry.gauge("maimon_dataset_resident_bytes", &[("dataset", name)]).set(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use maimon_datasets::running_example;

    #[test]
    fn lookups_share_one_session_and_count() {
        let registry = DatasetRegistry::new();
        registry.register("running", running_example(), MaimonConfig::default()).unwrap();
        assert_eq!(registry.names(), vec!["running".to_string()]);

        let a = registry.get("running").unwrap();
        let b = registry.get("running").unwrap();
        assert!(registry.get("absent").is_none());

        // Clones share the oracle: mining through one is visible to the other.
        a.mvds(0.0).unwrap();
        assert_eq!(b.cached_epsilons(), vec![0.0]);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn durable_register_append_and_reopen_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "maimon-registry-durable-{}-{:p}",
            std::process::id(),
            &std::process::id() as *const _
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Seed durably, then append through the durable handle the way the
        // serve layer does: apply to the session, WAL the acked version.
        let registry = DatasetRegistry::new();
        registry
            .register_durable("running", running_example(), MaimonConfig::default(), &dir)
            .unwrap();
        let session = registry.get("running").unwrap();
        let durable = registry.durable("running").expect("durable handle registered");
        let rows = vec![vec!["a1", "b2", "c1", "d2", "e2", "f1"]];
        let summary = session.append_rows(&rows).unwrap();
        durable.append(summary.data_version, &rows).unwrap();

        // A fresh registry recovers the exact post-append version.
        let recovered = DatasetRegistry::new();
        let report = recovered.open_durable(&dir, MaimonConfig::default()).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, "running");
        assert_eq!(report[0].1.data_version, summary.data_version);
        assert_eq!(report[0].1.replayed_records, 1);
        let twin = recovered.get("running").unwrap();
        assert_eq!(twin.mvds(0.0).unwrap().mvds, session.mvds(0.0).unwrap().mvds);
        assert!(recovered.durable("running").is_some(), "recovered datasets stay durable");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn register_rejects_unservable_relations() {
        use maimon::relation::{Relation, Schema};
        let registry = DatasetRegistry::new();
        let narrow = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec!["x"]]).unwrap();
        assert!(registry.register("narrow", narrow, MaimonConfig::default()).is_err());
        // A stream that is narrow, or fails to parse, registers nothing either.
        let config = MaimonConfig::default();
        assert!(registry.register_csv("narrow-csv", "A\nx\n".as_bytes(), config).is_err());
        match registry.register_csv("broken-csv", "A,B\n1,2\n3\n".as_bytes(), config) {
            Err(MaimonError::Storage(message)) => assert!(message.contains("line 3"), "{message}"),
            other => panic!("expected a storage error, got {other:?}"),
        }
        assert!(registry.is_empty());
    }
}
