//! The long-lived [`MaimonSession`]: staged, cached, separately-invokable
//! pipeline artifacts over one relation and one shared entropy oracle.
//!
//! Every phase of Maimon interacts with the data only through the entropy
//! oracle, and the oracle's PLI cache is *ε-independent*: the partitions and
//! entropies computed while mining at one threshold answer the queries of
//! every other threshold. So the ε-sweeps of the paper's Figures 10–15 pay
//! the PLI construction and every shared entropy once per relation, not once
//! per threshold:
//!
//! ```text
//! MaimonSession::new(rel, config)       // tuples owned; oracle built once
//!     ├─ session.mvds(ε)        → Arc<MvdMiningResult>     (stage 1, cached)
//!     ├─ session.schemas(ε)     → Arc<SchemaMiningResult>  (stage 2, cached)
//!     ├─ session.quality(ε)     → Arc<MaimonResult>        (stage 3, cached)
//!     ├─ session.decompose_best(ε) → materialized DecomposedInstance
//!     └─ session.epsilon_sweep([ε₁, ε₂, …]) → per-ε results, shared oracle
//! ```
//!
//! Results are bit-identical to a fresh session's `quality(ε)` per threshold
//! (`tests/session_equivalence.rs` locks this down across the Table 2
//! catalog): the mining algorithms are pure functions of the oracle's
//! answers, and the shared cache changes only *when* an entropy is computed,
//! never its value.
//!
//! Sessions also carry the service-boundary plumbing: a [`CancelToken`] and
//! an optional deadline make any stage wind down early with a well-formed
//! result flagged `truncated` (see [`crate::progress`]), and an attached
//! [`StageCollector`] records where the time went. Truncated partials are
//! served to the requesting handle only — they never enter the shared
//! artifact caches, so one request's deadline cannot poison what every
//! other clone of the session is served (see [`ArtifactCache`]).
//!
//! The session holds its data one way, whatever it was mounted from: the
//! oracle's distinct tuples, an in-memory `Arc<Relation>` in first-occurrence
//! order ([`MaimonSession::tuples`]), with each tuple's multiplicity beside
//! it. Entropies weight the tuples (Eq. 5 needs only the bag); quality and
//! decomposition need only distinct counts and the set join, so they read
//! the tuples directly. A paged backend is read once, at mount, and then
//! serves every stage, appends included, exactly as an in-memory relation
//! over the same rows would.
//!
//! The session owns that data, so it is `'static`, `Send + Sync` and cheap
//! to [`Clone`]: handles share the oracle and the artifact caches while each
//! carries its own cancellation/deadline/stage-timing plumbing. That is what
//! lets a long-lived service register one session per dataset and serve
//! every request from clones of it.
//!
//! Sessions are also *incremental*: [`MaimonSession::append_rows`] installs a
//! new data version and a delta-refreshed oracle (see
//! [`PliEntropyOracle::extend_to`]) without interrupting in-flight requests —
//! each public call snapshots one `(oracle, version)` state and
//! works against it end-to-end. Every cached artifact is keyed by the
//! `data_version` it was mined at, so a stale artifact is never served after
//! an append; [`MaimonSession::delta_sweep`] additionally reports, per
//! threshold, whether the previous version's `M_ε` survived the append
//! (re-validated through the Theorem 5.1 J sandwich).
//!
//! ```
//! use maimon::{MaimonConfig, MaimonSession};
//! use maimon::relation::{Relation, Schema};
//!
//! let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
//! let rel = Relation::from_rows(schema, &[
//!     vec!["a1", "b1", "c1", "d1", "e1", "f1"],
//!     vec!["a2", "b2", "c1", "d1", "e2", "f2"],
//!     vec!["a2", "b2", "c2", "d2", "e3", "f2"],
//!     vec!["a1", "b2", "c1", "d2", "e3", "f1"],
//!     vec!["a1", "b2", "c1", "d2", "e2", "f1"],
//! ]).unwrap();
//! // The session takes the relation by value — the binding is gone, the
//! // session lives on (pass an Arc<Relation> to keep sharing it).
//! let session = MaimonSession::new(rel, MaimonConfig::default()).unwrap();
//! // One oracle serves every threshold of the sweep.
//! let sweep = session.epsilon_sweep([0.0, 0.1, 0.2]).unwrap();
//! assert_eq!(sweep.len(), 3);
//! assert!(sweep[2].result.schemas.len() >= sweep[0].result.schemas.len());
//! // Artifacts are cached: re-asking for a mined threshold is free.
//! let again = session.quality(0.1).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&again, &sweep[1].result));
//! ```

use crate::asminer::{mine_schemas_with, DiscoveredSchema, SchemaMiningResult};
use crate::config::MaimonConfig;
use crate::error::MaimonError;
use crate::fd::{mine_fds, FdMiningResult};
use crate::measure::{j_mvd, within_epsilon};
use crate::miner::{mine_mvds_with, MvdMiningResult};
use crate::progress::{CancelToken, RunControl};
use crate::quality::{measure_schemas, pareto_front, SchemaQuality};
use crate::schema::AcyclicSchema;
use crate::wire::ToJson;
use decompose::DecomposedInstance;
use entropy::{EntropyOracle, OracleStats, PliEntropyOracle};
use obs::{Span, Stage, StageCollector};
use relation::{AppendSummary, AttrSet, Relation};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use storage::RelationBackend;

/// A discovered schema together with its quality report.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedSchema {
    /// The schema, its MVD support and its J-measure.
    pub discovered: DiscoveredSchema,
    /// Quality metrics against the input relation.
    pub quality: SchemaQuality,
}

/// The complete output of the pipeline at one threshold
/// ([`MaimonSession::quality`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MaimonResult {
    /// Phase-one output: the set `M_ε` plus separators and statistics.
    pub mvds: MvdMiningResult,
    /// Phase-two output: discovered schemas in enumeration order.
    pub schemas: Vec<RankedSchema>,
    /// Indices (into `schemas`) of the pareto-optimal schemas under
    /// (storage savings, spurious tuples).
    pub pareto: Vec<usize>,
    /// `true` if either phase was truncated by a limit.
    pub truncated: bool,
}

/// One threshold of an [`MaimonSession::epsilon_sweep`].
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// The threshold mined.
    pub epsilon: f64,
    /// The full pipeline result at this threshold (shared with the session's
    /// artifact cache).
    pub result: Arc<MaimonResult>,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::object([
            ("epsilon", crate::json::Json::from(self.epsilon)),
            ("result", self.result.to_json()),
        ])
    }
}

/// Outcome of re-checking one prior-version MVD set against the appended
/// relation (Theorem 5.1's J sandwich: an MVD still holds at ε iff its J
/// measure stays within ε on the *new* empirical distribution).
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaRevalidation {
    /// MVDs mined at this threshold for the previous data version.
    pub prior_mvds: usize,
    /// How many of them still satisfy `J ≤ ε` after the append.
    pub still_holding: usize,
    /// The largest J observed across the prior MVDs (0.0 when there were
    /// none) — how close the old model came to breaking.
    pub max_j: f64,
}

impl ToJson for DeltaRevalidation {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::object([
            ("prior_mvds", crate::json::Json::from(self.prior_mvds)),
            ("still_holding", crate::json::Json::from(self.still_holding)),
            ("max_j", crate::json::Json::from(self.max_j)),
        ])
    }
}

/// One threshold of a [`MaimonSession::delta_sweep`]: the (exact, current-
/// version) result plus how the previous version's artifact fared.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaSweepPoint {
    /// The threshold mined.
    pub epsilon: f64,
    /// The full pipeline result at this threshold on the current version —
    /// bit-identical to mining the appended relation from scratch.
    pub result: Arc<MaimonResult>,
    /// The data version the result was mined at.
    pub data_version: u64,
    /// The predecessor version compared against, when its artifact for this
    /// threshold was still cached.
    pub previous_version: Option<u64>,
    /// Whether the previous version's `M_ε` is *identical* to the current
    /// one (`None` when no prior artifact was available to compare).
    pub survived: Option<bool>,
    /// Per-MVD re-validation of the prior model on the appended data.
    pub revalidation: Option<DeltaRevalidation>,
}

impl ToJson for DeltaSweepPoint {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::object([
            ("epsilon", Json::from(self.epsilon)),
            ("data_version", Json::from(self.data_version)),
            ("previous_version", self.previous_version.map_or(Json::Null, Json::from)),
            ("survived", self.survived.map_or(Json::Null, Json::from)),
            ("revalidation", self.revalidation.as_ref().map_or(Json::Null, ToJson::to_json)),
            ("result", self.result.to_json()),
        ])
    }
}

/// Canonical cache key for a threshold (normalizes `-0.0` to `0.0`; ε is
/// validated finite and non-negative before keying).
fn eps_key(epsilon: f64) -> u64 {
    (epsilon + 0.0).to_bits()
}

/// Artifact caches are keyed by `(data_version, eps_key)`: an artifact mined
/// before an append can never be served after it, because post-append lookups
/// carry the bumped version. The version leads so [`ArtifactCache::prune_below`]
/// can drop whole superseded generations with a range scan.
type ArtifactKey = (u64, u64);

/// How long a caller waiting on another request's in-flight computation
/// sleeps between re-checks of its *own* [`RunControl`]. Bounds how late a
/// waiter notices its deadline while parked on the condvar.
const WAITER_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// One entry of an [`ArtifactCache`]: either a computation in flight (exactly
/// one owning request; others wait on the cache condvar) or a completed
/// result shared by every later request.
enum ArtifactSlot<T> {
    InFlight,
    Ready(Result<Arc<T>, MaimonError>),
}

/// A per-threshold compute-once artifact cache. The map lock is held only to
/// look up or transition a slot; an `InFlight` slot serializes the
/// (potentially minutes-long) computation so concurrent callers for the same
/// threshold share one run instead of duplicating it, and mining work
/// happens once per *complete* artifact.
///
/// Two rules keep per-request control plumbing out of the shared state
/// (`registry` promises "a per-request deadline never bleeds into another
/// request"):
///
/// * **Truncated partials are never cached.** A computation cut short — by
///   the requesting clone's deadline or cancel token, or a configured mining
///   limit — returns its well-formed partial to that caller only, and the
///   slot is vacated so the next request computes afresh. Without this, one
///   short-timeout request would latch its partial into the shared slot and
///   every later request at that threshold would be served the stub forever.
/// * **Waiters honor their own deadlines.** A caller that finds a slot
///   `InFlight` waits in bounded slices, re-checking its own [`RunControl`];
///   if that fires before the shared computation finishes, the caller stops
///   waiting and runs `compute` itself — with an expired control the mining
///   loops wind down at their first poll, so this cheaply yields the private
///   truncated partial the caller is owed instead of blocking the request
///   (and its worker thread and admission permit) on another client's run.
struct ArtifactCache<T> {
    slots: Mutex<BTreeMap<ArtifactKey, ArtifactSlot<T>>>,
    changed: Condvar,
}

/// Vacates an `InFlight` slot if its owner unwinds mid-compute, so waiters
/// are not parked forever on a computation that no longer exists.
struct InFlightGuard<'a, T> {
    cache: &'a ArtifactCache<T>,
    key: ArtifactKey,
    armed: bool,
}

impl<T> Drop for InFlightGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut slots = match self.cache.slots.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            slots.remove(&self.key);
            drop(slots);
            self.cache.changed.notify_all();
        }
    }
}

impl<T> ArtifactCache<T> {
    fn new() -> Self {
        ArtifactCache { slots: Mutex::new(BTreeMap::new()), changed: Condvar::new() }
    }

    fn get_or_compute<F>(
        &self,
        key: ArtifactKey,
        control: &RunControl<'_>,
        is_truncated: impl Fn(&T) -> bool,
        compute: F,
    ) -> Result<Arc<T>, MaimonError>
    where
        F: FnOnce() -> Result<Arc<T>, MaimonError>,
    {
        {
            let mut slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                match slots.get(&key) {
                    Some(ArtifactSlot::Ready(result)) => return result.clone(),
                    Some(ArtifactSlot::InFlight) => {
                        if control.should_stop_now() {
                            // This caller's own deadline/token fired while
                            // another request computes: mine the private
                            // truncated partial instead of blocking on it.
                            drop(slots);
                            return compute();
                        }
                        slots = self
                            .changed
                            .wait_timeout(slots, WAITER_POLL_INTERVAL)
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .0;
                    }
                    None => {
                        slots.insert(key, ArtifactSlot::InFlight);
                        break;
                    }
                }
            }
        }

        let mut guard = InFlightGuard { cache: self, key, armed: true };
        let result = compute();
        let cache_it = match &result {
            // Only complete artifacts are shared; see the type-level docs.
            Ok(value) => !is_truncated(value),
            // Errors are deterministic properties of the session inputs
            // (mining itself never errors — truncation is a flagged result),
            // so sharing them avoids re-failing per request.
            Err(_) => true,
        };
        {
            let mut slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if cache_it {
                slots.insert(key, ArtifactSlot::Ready(result.clone()));
            } else {
                slots.remove(&key);
            }
        }
        guard.armed = false;
        self.changed.notify_all();
        result
    }

    /// Keys whose computation has completed successfully.
    fn ready_keys(&self) -> Vec<ArtifactKey> {
        let slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        slots
            .iter()
            .filter(|(_, slot)| matches!(slot, ArtifactSlot::Ready(Ok(_))))
            .map(|(&key, _)| key)
            .collect()
    }

    /// A completed artifact, if one is cached — never waits on an in-flight
    /// computation and never computes. Used by `delta_sweep` to consult the
    /// previous version's artifact without resurrecting it.
    fn peek(&self, key: ArtifactKey) -> Option<Arc<T>> {
        let slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        match slots.get(&key) {
            Some(ArtifactSlot::Ready(Ok(value))) => Some(Arc::clone(value)),
            _ => None,
        }
    }

    /// Drops completed artifacts of superseded data versions (everything
    /// below `min_version`). `InFlight` slots are kept for the same reason as
    /// in [`ArtifactCache::clear`]: their owner will transition them, and a
    /// pre-append request finishing against its snapshot is still entitled to
    /// publish its (version-stamped, so never misattributed) result.
    fn prune_below(&self, min_version: u64) {
        let mut slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        slots.retain(|&(version, _), slot| {
            version >= min_version || matches!(slot, ArtifactSlot::InFlight)
        });
    }

    /// Drops completed artifacts. `InFlight` slots are kept — each has
    /// exactly one owning request that will transition it when its
    /// computation finishes (that invariant is what makes the finish path's
    /// insert/remove sound).
    fn clear(&self) {
        let mut slots = self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        slots.retain(|_, slot| matches!(slot, ArtifactSlot::InFlight));
    }
}

/// One immutable generation of the session's data: the oracle, holding the
/// distinct tuples and their multiplicities, at one data version. Appends
/// install a *new* `Arc<VersionState>`; requests that already snapshotted
/// the old one keep mining against it unharmed.
struct VersionState {
    oracle: PliEntropyOracle,
    /// The data version, hoisted so cache keys and responses don't chase
    /// the tuple relation.
    version: u64,
    /// The version this state was delta-extended from (`None` for the
    /// session's initial state). Bounds what `delta_sweep` compares against
    /// and what [`ArtifactCache::prune_below`] keeps.
    previous_version: Option<u64>,
}

impl VersionState {
    /// The distinct tuples every stage reads.
    fn tuples(&self) -> &Arc<Relation> {
        self.oracle.tuples()
    }
}

/// Everything a session shares between its cheap-clone handles: the current
/// (tuples, oracle) generation, and the version-stamped artifact caches.
struct SessionInner {
    config: MaimonConfig,
    /// Kind of the storage backend the data was mounted from.
    storage: &'static str,
    state: RwLock<Arc<VersionState>>,
    /// Serializes appends (writers); readers snapshot `state` and never wait
    /// on an append's tuple-clone + oracle-extension work.
    append_lock: Mutex<()>,
    construction_stats: OracleStats,
    mvd_cache: ArtifactCache<MvdMiningResult>,
    schema_cache: ArtifactCache<SchemaMiningResult>,
    result_cache: ArtifactCache<MaimonResult>,
}

/// A reusable mining session over one relation instance.
///
/// Owns the (single) shared [`PliEntropyOracle`], which holds the relation's
/// distinct tuples, and the per-threshold artifact caches; see the module
/// docs above for the staging diagram. The session is a `'static`,
/// `Send + Sync`, **cheaply clonable handle**: [`Clone`] copies an `Arc` to
/// the shared state, so clones share the oracle and every cached artifact
/// while each handle carries its *own* cancellation token, deadline and
/// stage collector — exactly the shape a multi-tenant server needs (one
/// registered session per dataset, one `session.clone().with_deadline(…)`
/// per request). Stages may be invoked from several request threads and each
/// artifact is still computed exactly once.
#[derive(Clone)]
pub struct MaimonSession {
    inner: Arc<SessionInner>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    stages: Option<Arc<StageCollector>>,
}

impl MaimonSession {
    /// Creates a session, building the shared PLI oracle exactly once.
    ///
    /// The relation is taken by *ownership*: pass a `Relation` to move it in,
    /// an `Arc<Relation>` to share storage with other consumers, or a
    /// `&Relation` to deep-clone the data once. The session keeps only the
    /// distinct tuples: a relation with no repeated row is kept as it is,
    /// any other is read once into a copy of its distinct rows. The session
    /// is `'static` either way — it outlives whatever binding produced the
    /// relation.
    ///
    /// `config.epsilon` is only the *default* threshold (used by
    /// [`MaimonSession::mine_fds`]); every staged accessor takes its
    /// threshold explicitly.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or the relation is
    /// empty or has fewer than two attributes.
    pub fn new(
        relation: impl Into<Arc<Relation>>,
        config: MaimonConfig,
    ) -> Result<Self, MaimonError> {
        let relation = relation.into();
        Self::build(
            &*relation,
            || PliEntropyOracle::new(Arc::clone(&relation), config.entropy),
            config,
        )
    }

    /// Creates a session over an arbitrary storage backend (e.g. a
    /// [`storage::PagedColumnarRelation`] mounted by the serve layer's
    /// `--paged-dataset` flag). The backend is read once, into the oracle's
    /// distinct tuples, and never again: every stage — quality,
    /// decomposition and appends included — then behaves exactly as on an
    /// in-memory session over the same rows.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid, the backend is
    /// empty or has fewer than two attributes — the same contract as
    /// [`MaimonSession::new`] — or [`MaimonError::Storage`] if reading it
    /// fails.
    pub fn from_backend(
        backend: Arc<dyn RelationBackend>,
        config: MaimonConfig,
    ) -> Result<Self, MaimonError> {
        Self::build(
            &*backend,
            || PliEntropyOracle::from_backend(Arc::clone(&backend), config.entropy),
            config,
        )
    }

    /// Validates the inputs and builds the session's one oracle over
    /// `backend`.
    fn build(
        backend: &dyn RelationBackend,
        oracle: impl FnOnce() -> PliEntropyOracle,
        config: MaimonConfig,
    ) -> Result<Self, MaimonError> {
        config.validate()?;
        if backend.arity() < 2 {
            return Err(MaimonError::InvalidConfig(
                "schema mining needs at least two attributes".into(),
            ));
        }
        if backend.n_rows() == 0 {
            return Err(MaimonError::InvalidConfig("relation has no tuples".into()));
        }
        let oracle = oracle();
        if let Some(e) = oracle.storage_fault() {
            // The one read of the backend failed: the session would serve
            // garbage, so refuse to mount it at all.
            return Err(MaimonError::Storage(e.to_string()));
        }
        let construction_stats = oracle.stats();
        let version = backend.data_version();
        let state = VersionState { oracle, version, previous_version: None };
        Ok(MaimonSession {
            inner: Arc::new(SessionInner {
                config,
                storage: backend.kind(),
                state: RwLock::new(Arc::new(state)),
                append_lock: Mutex::new(()),
                construction_stats,
                mvd_cache: ArtifactCache::new(),
                schema_cache: ArtifactCache::new(),
                result_cache: ArtifactCache::new(),
            }),
            cancel: None,
            deadline: None,
            stages: None,
        })
    }

    /// Snapshots the current (relation, oracle, version) generation. Every
    /// public entry point takes exactly one snapshot and threads it through
    /// all the stages it implies, so a concurrent append can never tear one
    /// request across two data versions.
    fn state(&self) -> Arc<VersionState> {
        Arc::clone(&self.inner.state.read().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Attaches a cancellation token; every subsequent stage polls it and
    /// winds down with a `truncated` partial result once fired.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute deadline for *all* subsequent stages.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a [`StageCollector`] that accumulates per-stage wall time
    /// across everything this handle subsequently computes. Cache hits cost
    /// (and therefore record) nothing; the per-request breakdown of a cached
    /// artifact still travels on `MiningStats::stages`.
    pub fn with_stages(mut self, collector: Arc<StageCollector>) -> Self {
        self.stages = Some(collector);
        self
    }

    /// The distinct tuples of the relation being profiled, at its current
    /// data version, in first-occurrence order and sharing its
    /// dictionaries. Quality, decomposition and appends all work on this
    /// relation; multiplicities live in the oracle, so
    /// [`MaimonSession::n_rows`] still counts every row. Returns a shared
    /// handle (not a borrow) because appends swap it: the handle stays valid
    /// — and internally consistent — however many appends land after it
    /// was taken.
    pub fn tuples(&self) -> Arc<Relation> {
        Arc::clone(self.state().tuples())
    }

    /// Number of rows of the current data version, repeats included.
    pub fn n_rows(&self) -> usize {
        self.state().oracle.n_rows()
    }

    /// Number of attributes of the current data version.
    pub fn arity(&self) -> usize {
        self.state().tuples().arity()
    }

    /// The kind of storage backend the data was mounted from
    /// (`"in_memory"`, `"paged"`, …), surfaced by the serve layer's
    /// `list`/`stats` ops.
    pub fn storage_kind(&self) -> &'static str {
        self.inner.storage
    }

    /// Approximate bytes of the session's data resident in memory right now:
    /// the distinct tuples' dictionaries and codes.
    pub fn resident_bytes(&self) -> usize {
        self.state().tuples().resident_bytes()
    }

    /// The monotone data version of the relation currently being served.
    /// Bumps by one per non-empty [`MaimonSession::append_rows`] batch.
    pub fn data_version(&self) -> u64 {
        self.state().version
    }

    /// Appends a batch of rows, atomically installing a new data version
    /// whose oracle is *delta-extended* from the current one: the batch is
    /// interned into a copy of the distinct tuples, only fresh tuples get new
    /// ids, and cached partitions and entropies are refreshed in place where
    /// the fold keys still cover the grown dictionaries — see
    /// [`PliEntropyOracle::extend_to`] — instead of being rebuilt from
    /// scratch. The cost is O(tuples + batch), whatever the row count.
    ///
    /// Concurrency: appends serialize against each other; readers are never
    /// blocked — a request that snapshotted the pre-append state finishes
    /// against it, and every artifact it caches stays keyed to the old
    /// version. Artifacts older than the *predecessor* version are pruned
    /// (the predecessor itself is kept so [`MaimonSession::delta_sweep`] can
    /// report which thresholds survived).
    ///
    /// # Errors
    /// Returns [`MaimonError::Relation`] if any row's arity mismatches; the
    /// session state is untouched in that case.
    pub fn append_rows<S: AsRef<str>>(
        &self,
        rows: &[Vec<S>],
    ) -> Result<AppendSummary, MaimonError> {
        let _appends =
            self.inner.append_lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let state = self.state();
        if rows.is_empty() {
            return Ok(AppendSummary { rows_appended: 0, data_version: state.version });
        }
        let oracle = state.oracle.extend_to(rows)?;
        let summary = AppendSummary { rows_appended: rows.len(), data_version: state.version + 1 };
        let next = VersionState {
            oracle,
            version: summary.data_version,
            previous_version: Some(state.version),
        };
        *self.inner.state.write().unwrap_or_else(|poisoned| poisoned.into_inner()) = Arc::new(next);
        // Keep the predecessor generation's artifacts for delta comparison;
        // anything older can never be consulted again.
        self.inner.mvd_cache.prune_below(state.version);
        self.inner.schema_cache.prune_below(state.version);
        self.inner.result_cache.prune_below(state.version);
        Ok(summary)
    }

    /// The session configuration.
    pub fn config(&self) -> &MaimonConfig {
        &self.inner.config
    }

    /// Counters of the shared oracle — cumulative over everything the session
    /// has mined so far. Right after [`MaimonSession::new`] this equals the
    /// cost of exactly one oracle construction (the block-precompute
    /// intersections), which is what `tests/session_equivalence.rs` uses to
    /// prove the PLI cache is built once per sweep, not once per threshold.
    pub fn oracle_stats(&self) -> OracleStats {
        self.state().oracle.stats()
    }

    /// The oracle counters as they were at construction time (the cost of
    /// the one-time PLI block precompute, before any mining).
    pub fn oracle_construction_stats(&self) -> OracleStats {
        self.inner.construction_stats
    }

    /// The thresholds with at least one cached artifact *for the current
    /// data version*, ascending. Pre-append artifacts kept for delta
    /// comparison are deliberately not reported — they are no longer
    /// servable.
    pub fn cached_epsilons(&self) -> Vec<f64> {
        let version = self.state().version;
        let mut epsilons: Vec<f64> = self
            .inner
            .mvd_cache
            .ready_keys()
            .into_iter()
            .filter(|&(v, _)| v == version)
            .map(|(_, bits)| f64::from_bits(bits))
            .collect();
        epsilons.sort_by(|a, b| a.partial_cmp(b).expect("cached thresholds are finite"));
        epsilons
    }

    /// Number of composite partitions currently held by the shared oracle's
    /// PLI cache (a serving-metrics counter; see `PliEntropyOracle`).
    pub fn cached_pli_count(&self) -> usize {
        self.state().oracle.cached_pli_count()
    }

    /// Number of entropy values currently memoized by the shared oracle.
    pub fn cached_entropy_count(&self) -> usize {
        self.state().oracle.cached_entropy_count()
    }

    /// Drops every cached artifact (the oracle and its entropy cache are
    /// kept — those stay valid for any threshold).
    pub fn clear_artifacts(&self) {
        self.inner.mvd_cache.clear();
        self.inner.schema_cache.clear();
        self.inner.result_cache.clear();
    }

    /// Entropy of an attribute set under the relation's empirical
    /// distribution, answered by the shared oracle.
    pub fn entropy(&self, attrs: AttrSet) -> f64 {
        self.state().oracle.entropy(attrs)
    }

    fn check_epsilon(&self, epsilon: f64) -> Result<(), MaimonError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(MaimonError::InvalidEpsilon(epsilon));
        }
        Ok(())
    }

    fn config_at(&self, epsilon: f64) -> MaimonConfig {
        MaimonConfig { epsilon, ..self.inner.config }
    }

    fn control(&self) -> RunControl<'_> {
        let mut ctl = RunControl::new();
        if let Some(token) = &self.cancel {
            ctl = ctl.with_cancel(token.clone());
        }
        if let Some(deadline) = self.deadline {
            ctl = ctl.with_deadline(deadline);
        }
        match &self.stages {
            Some(collector) => ctl.with_stages(collector),
            None => ctl,
        }
    }

    /// Stage one: the full ε-MVDs `M_ε` with minimal-separator keys, mined
    /// over the shared oracle and cached per threshold.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidEpsilon`] for a negative or non-finite ε.
    pub fn mvds(&self, epsilon: f64) -> Result<Arc<MvdMiningResult>, MaimonError> {
        self.mvds_at(&self.state(), epsilon)
    }

    fn mvds_at(
        &self,
        state: &Arc<VersionState>,
        epsilon: f64,
    ) -> Result<Arc<MvdMiningResult>, MaimonError> {
        self.check_epsilon(epsilon)?;
        self.inner.mvd_cache.get_or_compute(
            (state.version, eps_key(epsilon)),
            &self.control(),
            |result| result.stats.truncated,
            || {
                Ok(Arc::new(mine_mvds_with(
                    &state.oracle,
                    &self.config_at(epsilon),
                    &self.control(),
                )))
            },
        )
    }

    /// Stage two: the acyclic schemas supported by `M_ε`, cached per
    /// threshold; implies stage one.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidEpsilon`] for a negative or non-finite ε.
    pub fn schemas(&self, epsilon: f64) -> Result<Arc<SchemaMiningResult>, MaimonError> {
        self.schemas_at(&self.state(), epsilon)
    }

    fn schemas_at(
        &self,
        state: &Arc<VersionState>,
        epsilon: f64,
    ) -> Result<Arc<SchemaMiningResult>, MaimonError> {
        self.check_epsilon(epsilon)?;
        self.inner.schema_cache.get_or_compute(
            (state.version, eps_key(epsilon)),
            &self.control(),
            |result| result.truncated,
            || {
                let mvds = self.mvds_at(state, epsilon)?;
                let mut schemas = mine_schemas_with(
                    &state.oracle,
                    state.tuples().schema().all_attrs(),
                    &mvds.mvds,
                    &self.config_at(epsilon),
                    &self.control(),
                );
                // A complete enumeration over a *truncated* MVD support is
                // still a partial artifact (the missing MVDs would have
                // yielded more schemas): flag it so it stays out of the
                // shared cache and `quality` keeps reporting the truncation.
                schemas.truncated |= mvds.stats.truncated;
                Ok(Arc::new(schemas))
            },
        )
    }

    /// Stage three: every discovered schema evaluated against the relation
    /// (storage savings, spurious tuples, pareto front) — the complete
    /// pipeline artifact, cached per threshold; implies stages one and two.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidEpsilon`] for an invalid ε, or a quality
    /// evaluation error (which would indicate a schema-synthesis bug).
    pub fn quality(&self, epsilon: f64) -> Result<Arc<MaimonResult>, MaimonError> {
        self.quality_at(&self.state(), epsilon)
    }

    /// [`MaimonSession::quality`] plus the data version the result is valid
    /// for — what a serving layer should echo so clients can correlate
    /// results with appends.
    pub fn quality_stamped(&self, epsilon: f64) -> Result<(u64, Arc<MaimonResult>), MaimonError> {
        let state = self.state();
        Ok((state.version, self.quality_at(&state, epsilon)?))
    }

    fn quality_at(
        &self,
        state: &Arc<VersionState>,
        epsilon: f64,
    ) -> Result<Arc<MaimonResult>, MaimonError> {
        self.check_epsilon(epsilon)?;
        self.inner.result_cache.get_or_compute(
            (state.version, eps_key(epsilon)),
            &self.control(),
            |result| result.truncated,
            || {
                let mvds = self.mvds_at(state, epsilon)?;
                let schemas_raw = self.schemas_at(state, epsilon)?;
                // Only time the measurement pass when a collector is
                // attached — un-instrumented sessions pay nothing.
                let measure = StageCollector::new();
                let measure_target = self.stages.as_ref().map(|_| &measure);
                let (schemas, pareto) = {
                    let _span = Span::enter(Stage::Measure, measure_target);
                    let qualities = measure_schemas(
                        state.tuples(),
                        &schemas_raw.schemas,
                        self.inner.config.effective_threads(),
                    )?;
                    let schemas: Vec<RankedSchema> = schemas_raw
                        .schemas
                        .iter()
                        .zip(qualities)
                        .map(|(discovered, quality)| RankedSchema {
                            discovered: discovered.clone(),
                            quality,
                        })
                        .collect();
                    let points: Vec<(f64, f64)> = schemas
                        .iter()
                        .map(|s| (s.quality.storage_savings_pct, s.quality.spurious_tuples_pct))
                        .collect();
                    let pareto = pareto_front(&points);
                    (schemas, pareto)
                };
                if let Some(outer) = &self.stages {
                    outer.absorb(&measure.breakdown());
                }
                // The complete artifact carries the *composed* breakdown —
                // mining + enumeration + quality measurement — so a later
                // cache hit still reports where the time originally went.
                let mut mvds_with_stages = (*mvds).clone();
                mvds_with_stages.stats.stages.absorb(&schemas_raw.stages);
                mvds_with_stages.stats.stages.absorb(&measure.breakdown());
                Ok(Arc::new(MaimonResult {
                    truncated: mvds.stats.truncated || schemas_raw.truncated,
                    mvds: mvds_with_stages,
                    pareto,
                    schemas,
                }))
            },
        )
    }

    /// Mines many thresholds over the *same* oracle, amortizing the PLI
    /// cache across the sweep (Figures 10–15 of the paper are exactly this
    /// workload). Thresholds already mined are served from the cache.
    ///
    /// # Errors
    /// Fails on the first invalid threshold or evaluation error; completed
    /// points are kept in the session cache either way.
    pub fn epsilon_sweep<I>(&self, thresholds: I) -> Result<Vec<SweepPoint>, MaimonError>
    where
        I: IntoIterator<Item = f64>,
    {
        // One snapshot for the whole sweep: all points are mined against the
        // same data version even if appends land mid-sweep.
        let state = self.state();
        thresholds
            .into_iter()
            .map(|epsilon| Ok(SweepPoint { epsilon, result: self.quality_at(&state, epsilon)? }))
            .collect()
    }

    /// [`MaimonSession::epsilon_sweep`]'s post-append sibling: mines each
    /// threshold on the current data version (exactly — the results are the
    /// same bits a from-scratch session would produce) and reports, per
    /// threshold, whether the *previous* version's model survived the append.
    ///
    /// `survived` compares the old and new `M_ε` sets for identity;
    /// `revalidation` re-checks each prior MVD's J measure against the
    /// appended relation through the Theorem 5.1 sandwich (an ε-MVD holds iff
    /// `J ≤ ε` on the empirical distribution), so a caller can see not just
    /// *whether* the model moved but how close it came to the threshold.
    /// Both are `None` for thresholds the predecessor version never mined —
    /// there is nothing to compare — and on a fresh (never-appended) session.
    ///
    /// # Errors
    /// Fails on the first invalid threshold or evaluation error, like
    /// [`MaimonSession::epsilon_sweep`].
    pub fn delta_sweep<I>(&self, thresholds: I) -> Result<Vec<DeltaSweepPoint>, MaimonError>
    where
        I: IntoIterator<Item = f64>,
    {
        let state = self.state();
        thresholds
            .into_iter()
            .map(|epsilon| {
                let result = self.quality_at(&state, epsilon)?;
                let prior = state
                    .previous_version
                    .and_then(|v| self.inner.result_cache.peek((v, eps_key(epsilon))));
                let (previous_version, survived, revalidation) = match prior {
                    Some(prior) => {
                        let mut still_holding = 0usize;
                        let mut max_j = 0.0f64;
                        for mvd in &prior.mvds.mvds {
                            let j = j_mvd(&state.oracle, mvd);
                            if within_epsilon(j, epsilon) {
                                still_holding += 1;
                            }
                            max_j = max_j.max(j);
                        }
                        (
                            state.previous_version,
                            Some(prior.mvds.mvds == result.mvds.mvds),
                            Some(DeltaRevalidation {
                                prior_mvds: prior.mvds.mvds.len(),
                                still_holding,
                                max_j,
                            }),
                        )
                    }
                    None => (None, None, None),
                };
                Ok(DeltaSweepPoint {
                    epsilon,
                    result,
                    data_version: state.version,
                    previous_version,
                    survived,
                    revalidation,
                })
            })
            .collect()
    }

    /// Stage four: materialize the decomposed store for an explicit schema
    /// (per-bag projections sharing the original dictionaries; see the
    /// `decompose` crate).
    ///
    /// # Errors
    /// Returns an error if the schema is cyclic or does not cover the
    /// relation signature.
    pub fn decompose_schema(
        &self,
        schema: &AcyclicSchema,
    ) -> Result<DecomposedInstance, MaimonError> {
        let _span = Span::enter(Stage::Decompose, self.stages.as_deref());
        schema.decompose(self.state().tuples())
    }

    /// Stage four, driven by the pipeline: mines at `epsilon`, picks the
    /// discovered schema with the best *positive* storage savings, and
    /// materializes its store. When no discovered schema actually saves
    /// storage (savings can be negative on small or irreducible instances)
    /// the trivial single-bag schema is materialized instead — its store is
    /// never larger than the original relation.
    ///
    /// # Errors
    /// Propagates mining/evaluation/store errors.
    pub fn decompose_best(
        &self,
        epsilon: f64,
    ) -> Result<(AcyclicSchema, DecomposedInstance), MaimonError> {
        let (_, schema, instance) = self.decompose_best_stamped(epsilon)?;
        Ok((schema, instance))
    }

    /// [`MaimonSession::decompose_best`] plus the data version it was mined
    /// and materialized against (one snapshot covers both).
    pub fn decompose_best_stamped(
        &self,
        epsilon: f64,
    ) -> Result<(u64, AcyclicSchema, DecomposedInstance), MaimonError> {
        let state = self.state();
        let result = self.quality_at(&state, epsilon)?;
        let schema = result
            .schemas
            .iter()
            .filter(|ranked| ranked.quality.storage_savings_pct > 0.0)
            .max_by(|a, b| {
                a.quality
                    .storage_savings_pct
                    .partial_cmp(&b.quality.storage_savings_pct)
                    .expect("savings are finite")
            })
            .map(|ranked| ranked.discovered.schema.clone())
            .map_or_else(|| AcyclicSchema::trivial(state.tuples().schema().all_attrs()), Ok)?;
        let instance = {
            let _span = Span::enter(Stage::Decompose, self.stages.as_deref());
            schema.decompose(state.tuples())?
        };
        Ok((state.version, schema, instance))
    }

    /// Mines approximate functional dependencies with the shared oracle at
    /// the session's default ε (extension; see [`crate::mine_fds`]).
    pub fn mine_fds(&self, max_lhs_size: usize) -> FdMiningResult {
        mine_fds(&self.state().oracle, self.inner.config.epsilon, max_lhs_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

    fn running_example(with_red_tuple: bool) -> Relation {
        let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
        let mut rows = vec![
            vec!["a1", "b1", "c1", "d1", "e1", "f1"],
            vec!["a2", "b2", "c1", "d1", "e2", "f2"],
            vec!["a2", "b2", "c2", "d2", "e3", "f2"],
            vec!["a1", "b2", "c1", "d2", "e3", "f1"],
        ];
        if with_red_tuple {
            rows.push(vec!["a1", "b2", "c1", "d2", "e2", "f1"]);
        }
        Relation::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn end_to_end_exact_run_finds_the_paper_decomposition() {
        let rel = running_example(false);
        let session = MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.0)).unwrap();
        let result = session.quality(0.0).unwrap();
        assert!(!result.truncated);
        assert!(!result.mvds.mvds.is_empty());
        // Some discovered schema has at least 4 relations and zero spurious tuples.
        let exact = result.schemas.iter().find(|s| {
            s.discovered.schema.n_relations() >= 4 && s.quality.spurious_tuples_pct == 0.0
        });
        assert!(exact.is_some(), "schemas: {:?}", result.schemas.len());
        // The pareto front is non-empty and within bounds.
        assert!(!result.pareto.is_empty());
        for &i in &result.pareto {
            assert!(i < result.schemas.len());
        }
    }

    #[test]
    fn end_to_end_with_red_tuple_needs_epsilon() {
        let rel = running_example(true);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        // At ε = 0 the paper's 4-relation schema is not reachable…
        let strict = session.quality(0.0).unwrap();
        let best_strict =
            strict.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1);
        // …but at a generous ε it is.
        let relaxed = session.quality(0.5).unwrap();
        let best_relaxed =
            relaxed.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1);
        assert!(
            best_relaxed >= best_strict,
            "relaxing ε must not reduce the best decomposition ({} vs {})",
            best_relaxed,
            best_strict
        );
        assert!(best_relaxed >= 4);
    }

    #[test]
    fn fd_mining_through_the_session() {
        let rel = running_example(false);
        let session = MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.0)).unwrap();
        let fds = session.mine_fds(2);
        assert!(!fds.fds.is_empty());
    }

    #[test]
    fn entropy_helper_matches_expectations() {
        let rel = running_example(false);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let h = session.entropy(rel.schema().all_attrs());
        assert!((h - 2.0).abs() < 1e-9);
    }

    #[test]
    fn staged_artifacts_match_a_fresh_session() {
        let rel = running_example(true);
        let config = MaimonConfig::with_epsilon_and_threads(0.2, 1);
        let session = MaimonSession::new(&rel, config).unwrap();
        let fresh = MaimonSession::new(&rel, config).unwrap().quality(0.2).unwrap();
        session.mvds(0.2).unwrap();
        session.schemas(0.2).unwrap();
        let staged = session.quality(0.2).unwrap();
        assert_eq!(staged.mvds.mvds, fresh.mvds.mvds);
        assert_eq!(staged.mvds.separators, fresh.mvds.separators);
        assert_eq!(staged.schemas, fresh.schemas);
        assert_eq!(staged.pareto, fresh.pareto);
        assert_eq!(staged.truncated, fresh.truncated);
    }

    #[test]
    fn artifacts_are_cached_per_threshold() {
        let rel = running_example(false);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let first = session.mvds(0.0).unwrap();
        let calls_after_first = session.oracle_stats().calls;
        let second = session.mvds(0.0).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            session.oracle_stats().calls,
            calls_after_first,
            "a cache hit must not touch the oracle"
        );
        // -0.0 and 0.0 are the same threshold.
        assert!(Arc::ptr_eq(&first, &session.mvds(-0.0).unwrap()));
        assert_eq!(session.cached_epsilons(), vec![0.0]);
        session.clear_artifacts();
        assert!(session.cached_epsilons().is_empty());
    }

    #[test]
    fn sweep_reuses_one_oracle() {
        let rel = running_example(true);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let construction = session.oracle_construction_stats();
        // One fresh oracle costs exactly this many precompute intersections;
        // if a second oracle were built anywhere in the sweep, the session's
        // counter would exceed the shared-oracle reference below.
        let sweep = session.epsilon_sweep([0.0, 0.1, 0.3]).unwrap();
        assert_eq!(sweep.len(), 3);
        let reference = {
            let oracle = PliEntropyOracle::new(&rel, session.config().entropy);
            assert_eq!(oracle.stats(), construction);
            for &eps in &[0.0, 0.1, 0.3] {
                let config = MaimonConfig::with_epsilon_and_threads(eps, 1);
                let mined = crate::miner::mine_mvds(&oracle, &config);
                crate::asminer::mine_schemas(
                    &oracle,
                    rel.schema().all_attrs(),
                    &mined.mvds,
                    &config,
                );
            }
            oracle.stats()
        };
        let stats = session.oracle_stats();
        assert_eq!(stats.calls, reference.calls);
        assert_eq!(stats.cache_hits, reference.cache_hits);
        assert_eq!(stats.full_scans, reference.full_scans);
    }

    #[test]
    fn constructor_validates_inputs() {
        let rel = running_example(false);
        assert!(MaimonSession::new(&rel, MaimonConfig::with_epsilon(-1.0)).is_err());
        let narrow = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec!["x"]]).unwrap();
        assert!(MaimonSession::new(&narrow, MaimonConfig::default()).is_err());
        let empty = Relation::empty(Schema::new(["A", "B"]).unwrap());
        assert!(MaimonSession::new(&empty, MaimonConfig::default()).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let rel = running_example(false);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        assert!(session.mvds(-0.1).is_err());
        assert!(session.quality(f64::NAN).is_err());
        assert!(session.epsilon_sweep([0.0, f64::INFINITY]).is_err());
        let narrow = Relation::from_rows(Schema::new(["A"]).unwrap(), &[vec!["x"]]).unwrap();
        assert!(MaimonSession::new(&narrow, MaimonConfig::default()).is_err());
        let empty = Relation::empty(Schema::new(["A", "B"]).unwrap());
        assert!(MaimonSession::new(&empty, MaimonConfig::default()).is_err());
        assert!(MaimonSession::new(&rel, MaimonConfig::with_epsilon(-1.0)).is_err());
    }

    #[test]
    fn stage_breakdown_accounts_for_the_quality_wall_time() {
        let rel = running_example(true);
        let config = MaimonConfig::with_epsilon_and_threads(0.1, 1);
        let collector = Arc::new(StageCollector::new());
        let session = MaimonSession::new(&rel, config).unwrap().with_stages(Arc::clone(&collector));
        let wall = Instant::now();
        let result = session.quality(0.1).unwrap();
        let wall = wall.elapsed();
        let collected = collector.breakdown();
        assert!(!collected.is_zero(), "stages were recorded");
        assert!(
            collected.total() <= wall + Duration::from_millis(1),
            "exclusive stage time ({:?}) cannot exceed the wall time ({wall:?})",
            collected.total()
        );
        // The artifact carries the composed breakdown, so cache hits (which
        // record nothing) still report where the original time went.
        assert!(!result.mvds.stats.stages.is_zero());
        let before = collector.breakdown();
        let hit = session.quality(0.1).unwrap();
        assert!(Arc::ptr_eq(&result, &hit));
        assert_eq!(collector.breakdown(), before, "a cache hit records nothing");
    }

    #[test]
    fn pre_fired_cancellation_yields_truncated_results_not_errors() {
        let rel = running_example(true);
        let token = CancelToken::new();
        token.cancel();
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap().with_cancel(token);
        let result = session.quality(0.1).unwrap();
        assert!(result.truncated);
        assert!(result.mvds.mvds.is_empty());
        // The partial stayed private: nothing was latched into the cache.
        assert!(session.cached_epsilons().is_empty());
    }

    #[test]
    fn truncated_partials_never_enter_the_shared_cache() {
        let rel = running_example(true);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        // A request clone with an already-expired deadline gets a truncated
        // partial…
        let expired = session.clone().with_deadline(Instant::now());
        let partial = expired.quality(0.1).unwrap();
        assert!(partial.truncated);
        // …which must not poison the shared cache: the next request (no
        // deadline) computes and caches the complete artifact.
        assert!(session.cached_epsilons().is_empty(), "partial was cached");
        let full = session.quality(0.1).unwrap();
        assert!(!full.truncated);
        assert!(!full.mvds.mvds.is_empty());
        assert_eq!(session.cached_epsilons(), vec![0.1]);
        // Once a complete artifact is cached, even short-deadline clones are
        // served it — a cache hit costs nothing.
        let hit = session.clone().with_deadline(Instant::now()).quality(0.1).unwrap();
        assert!(Arc::ptr_eq(&full, &hit));
    }

    #[test]
    fn expired_waiters_mine_their_own_partial_instead_of_blocking() {
        // An ArtifactCache-level regression for the serve path: a request
        // whose deadline fires while another request computes the same
        // threshold must not block for the other request's full run.
        let cache = ArtifactCache::<u32>::new();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let cache = &cache;
            let owner = scope.spawn(move || {
                cache.get_or_compute(
                    (0, 0),
                    &RunControl::NONE,
                    |_| false,
                    || {
                        release_rx.recv().unwrap();
                        Ok(Arc::new(1))
                    },
                )
            });
            // Wait until the owner holds the in-flight slot.
            loop {
                let slots = cache.slots.lock().unwrap();
                if matches!(slots.get(&(0, 0)), Some(ArtifactSlot::InFlight)) {
                    break;
                }
                drop(slots);
                std::thread::yield_now();
            }
            let expired = RunControl::new().with_deadline(Instant::now());
            let private =
                cache.get_or_compute((0, 0), &expired, |_| false, || Ok(Arc::new(2))).unwrap();
            assert_eq!(*private, 2, "the expired waiter computes its own partial");
            release_tx.send(()).unwrap();
            assert_eq!(*owner.join().unwrap().unwrap(), 1);
        });
        // The owner's complete result was cached for everyone else.
        let cached = cache
            .get_or_compute((0, 0), &RunControl::NONE, |_| false, || unreachable!("cached"))
            .unwrap();
        assert_eq!(*cached, 1);
        // Truncated computations vacate their slot instead of caching.
        let truncated =
            cache.get_or_compute((0, 7), &RunControl::NONE, |_| true, || Ok(Arc::new(9))).unwrap();
        assert_eq!(*truncated, 9);
        assert_eq!(cache.ready_keys(), vec![(0, 0)]);
    }

    #[test]
    fn artifact_cache_peek_and_prune_respect_versions() {
        let cache = ArtifactCache::<u32>::new();
        for version in 0..4u64 {
            cache
                .get_or_compute(
                    (version, 0),
                    &RunControl::NONE,
                    |_| false,
                    || Ok(Arc::new(version as u32)),
                )
                .unwrap();
        }
        assert_eq!(cache.peek((2, 0)).as_deref(), Some(&2));
        assert_eq!(cache.peek((2, 1)), None, "peek never computes");
        cache.prune_below(2);
        assert_eq!(cache.ready_keys(), vec![(2, 0), (3, 0)]);
        assert_eq!(cache.peek((1, 0)), None, "superseded generations are gone");
    }

    /// A relation where decomposing by `A ↠ B | rest` genuinely saves
    /// storage: `B` is determined by `A` (5 distinct values over 30 rows)
    /// while `C` varies per row.
    fn redundant_relation() -> Relation {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rows: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("a{}", i % 5), format!("b{}", (i % 5) % 3), format!("c{}", i)])
            .collect();
        let refs: Vec<Vec<&str>> =
            rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
        Relation::from_rows(schema, &refs).unwrap()
    }

    #[test]
    fn decompose_stages_agree_with_quality() {
        let rel = redundant_relation();
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let (schema, instance) = session.decompose_best(0.0).unwrap();
        let result = session.quality(0.0).unwrap();
        let ranked = result
            .schemas
            .iter()
            .find(|s| s.discovered.schema == schema)
            .expect("best saver is a discovered schema");
        assert!(ranked.quality.storage_savings_pct > 0.0, "the AB/AC split saves storage");
        assert!(schema.n_relations() >= 2);
        assert_eq!(instance.total_cells(), ranked.quality.decomposed_cells);
        assert_eq!(instance.reconstruction_count(), ranked.quality.join_size);
        // An explicit schema can be decomposed too.
        let explicit = session.decompose_schema(&schema).unwrap();
        assert_eq!(explicit.total_cells(), instance.total_cells());
    }

    #[test]
    fn decompose_best_falls_back_to_trivial_when_nothing_saves() {
        // On the tiny Fig. 1 instance every decomposition *grows* the cell
        // count, so the documented fallback kicks in: the trivial single-bag
        // store, never larger than the original relation.
        let rel = running_example(true);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let result = session.quality(0.2).unwrap();
        assert!(result.schemas.iter().all(|s| s.quality.storage_savings_pct <= 0.0));
        let (schema, instance) = session.decompose_best(0.2).unwrap();
        assert_eq!(schema.n_relations(), 1);
        assert_eq!(instance.total_cells(), instance.original_cells());
    }

    #[test]
    fn appends_stamp_versions_and_match_from_scratch_mining() {
        // Base: Fig. 1 without the red tuple. Appending the red tuple must
        // reproduce — bit for bit — what a fresh session over the full
        // relation mines, at every threshold, via the delta-extended oracle.
        let session = MaimonSession::new(running_example(false), MaimonConfig::default()).unwrap();
        let v0 = session.data_version();
        let before = session.quality(0.2).unwrap();
        assert_eq!(session.cached_epsilons(), vec![0.2]);

        let summary = session.append_rows(&[vec!["a1", "b2", "c1", "d2", "e2", "f1"]]).unwrap();
        assert_eq!(summary.rows_appended, 1);
        assert_eq!(summary.data_version, v0 + 1);
        assert_eq!(session.data_version(), v0 + 1);
        assert_eq!(session.n_rows(), 5);
        // The pre-append artifact is stale: not servable, not listed.
        assert!(session.cached_epsilons().is_empty());

        let fresh = MaimonSession::new(running_example(true), MaimonConfig::default()).unwrap();
        for eps in [0.0, 0.1, 0.2] {
            let appended = session.quality(eps).unwrap();
            let scratch = fresh.quality(eps).unwrap();
            // Mined artifacts must agree bit for bit; the mining *stats*
            // legitimately differ (the delta path answers from carried
            // caches), so compare the model, not the counters.
            assert_eq!(appended.mvds.mvds, scratch.mvds.mvds, "ε = {eps}");
            assert_eq!(appended.mvds.separators, scratch.mvds.separators, "ε = {eps}");
            assert_eq!(appended.schemas, scratch.schemas, "ε = {eps}");
            assert_eq!(appended.pareto, scratch.pareto, "ε = {eps}");
        }
        assert!(!Arc::ptr_eq(&before, &session.quality(0.2).unwrap()));
        // The refresh went through the delta path.
        let stats = session.oracle_stats();
        assert!(stats.delta_refreshes > 0);

        // Error atomicity: a bad batch leaves the session untouched.
        assert!(session.append_rows(&[vec!["too", "short"]]).is_err());
        assert_eq!(session.data_version(), v0 + 1);
        // Empty batches are version-preserving no-ops.
        let noop = session.append_rows::<&str>(&[]).unwrap();
        assert_eq!(noop, AppendSummary { rows_appended: 0, data_version: v0 + 1 });
    }

    #[test]
    fn delta_sweep_reports_survival_against_the_previous_version() {
        let session = MaimonSession::new(running_example(false), MaimonConfig::default()).unwrap();
        // Mine two thresholds pre-append; leave 0.3 unmined so its delta
        // point has nothing to compare against.
        session.epsilon_sweep([0.0, 0.2]).unwrap();
        let prior = session.quality(0.2).unwrap();
        let v0 = session.data_version();
        session.append_rows(&[vec!["a1", "b2", "c1", "d2", "e2", "f1"]]).unwrap();

        let sweep = session.delta_sweep([0.0, 0.2, 0.3]).unwrap();
        assert_eq!(sweep.len(), 3);
        for point in &sweep[..2] {
            assert_eq!(point.data_version, v0 + 1);
            assert_eq!(point.previous_version, Some(v0));
            let reval = point.revalidation.as_ref().expect("prior artifact was cached");
            assert!(reval.still_holding <= reval.prior_mvds);
            assert!(reval.max_j >= 0.0);
            // `survived` must agree with an actual artifact comparison.
            if point.epsilon == 0.2 {
                assert_eq!(point.survived, Some(prior.mvds.mvds == point.result.mvds.mvds));
            } else {
                assert!(point.survived.is_some());
            }
            // Identical M_ε means every prior MVD still holds.
            if point.survived == Some(true) {
                assert_eq!(reval.still_holding, reval.prior_mvds);
            }
        }
        let unmined = &sweep[2];
        assert_eq!(unmined.previous_version, None);
        assert_eq!(unmined.survived, None);
        assert!(unmined.revalidation.is_none());
        // And the sweep's results are exactly the current-version artifacts.
        assert!(Arc::ptr_eq(&sweep[1].result, &session.quality(0.2).unwrap()));

        // A fresh session has no predecessor at all.
        let fresh = MaimonSession::new(running_example(true), MaimonConfig::default()).unwrap();
        let first = fresh.delta_sweep([0.1]).unwrap();
        assert_eq!(first[0].previous_version, None);
        assert_eq!(first[0].survived, None);
    }

    #[test]
    fn backend_sessions_serve_every_stage() {
        use storage::{PagedColumnarRelation, PagedOptions};
        let rel = Arc::new(running_example(true));
        let store = PagedColumnarRelation::from_relation(
            &rel,
            PagedOptions { page_rows: 2, cache_pages: 2, dataset: "session-test".to_string() },
        )
        .unwrap();
        let session =
            MaimonSession::from_backend(Arc::new(store), MaimonConfig::default()).unwrap();
        assert_eq!(session.storage_kind(), "paged");
        assert_eq!(session.n_rows(), rel.n_rows());
        assert_eq!(session.arity(), rel.arity());

        // Every stage matches an in-memory session over the same rows.
        let mem = MaimonSession::new(Arc::clone(&rel), MaimonConfig::default()).unwrap();
        let m_paged = session.mvds(0.1).unwrap();
        let m_mem = mem.mvds(0.1).unwrap();
        assert_eq!(m_paged.mvds, m_mem.mvds);
        assert_eq!(m_paged.separators, m_mem.separators);
        let (version, result) = session.quality_stamped(0.1).unwrap();
        assert_eq!(version, session.data_version());
        assert_eq!(result.schemas, mem.quality(0.1).unwrap().schemas);
        let (schema, store) = session.decompose_best(0.1).unwrap();
        let (mem_schema, mem_store) = mem.decompose_best(0.1).unwrap();
        assert_eq!(schema, mem_schema);
        assert_eq!(store.total_cells(), mem_store.total_cells());

        // Appends land on the tuples, exactly as in memory.
        let batch =
            [vec!["a1", "b2", "c1", "d2", "e2", "f1"], vec!["a9", "b2", "c1", "d2", "e2", "f1"]];
        assert_eq!(session.append_rows(&batch).unwrap(), mem.append_rows(&batch).unwrap());
        assert_eq!(session.n_rows(), rel.n_rows() + 2);
        assert_eq!(session.tuples().n_rows(), mem.tuples().n_rows());
        assert_eq!(session.quality(0.1).unwrap().schemas, mem.quality(0.1).unwrap().schemas);
    }

    #[test]
    fn session_is_usable_from_multiple_threads() {
        let rel = running_example(true);
        let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
        let thresholds = [0.0, 0.05, 0.1, 0.2];
        std::thread::scope(|scope| {
            for &eps in &thresholds {
                let session = &session;
                scope.spawn(move || {
                    let a = session.quality(eps).unwrap();
                    let b = session.quality(eps).unwrap();
                    assert!(Arc::ptr_eq(&a, &b));
                });
            }
        });
        assert_eq!(session.cached_epsilons().len(), thresholds.len());
    }
}
