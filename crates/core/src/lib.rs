//! # Maimon — Mining Approximate Acyclic Schemes from Relations
//!
//! A from-scratch Rust implementation of the Maimon system (Kenig, Mundra,
//! Prasad, Salimi, Suciu — SIGMOD 2020): discovery of approximate multivalued
//! dependencies (MVDs) and approximate acyclic schemas from a single relation
//! instance, with an information-theoretic notion of approximation.
//!
//! ## Pipeline
//!
//! 1. **Entropy oracle** (`maimon-entropy`): every algorithm interacts with
//!    the data only through the empirical entropy `H(X)` of attribute sets,
//!    computed with the PLI-cache engine of §6.3 over the relation's
//!    distinct tuples weighted by their multiplicities. Those tuples are the
//!    one relation a session holds; stages 4 and 5 read them too.
//! 2. **MVD mining** ([`mine_mvds`], §6): for every attribute pair, find the
//!    minimal separators ([`mine_min_seps`]) and the full ε-MVDs keyed by
//!    them ([`get_full_mvds`]); their union is `M_ε`. Pairs are mined on a
//!    worker pool sharing one oracle (`MaimonConfig::threads`; results are
//!    identical for every thread count).
//! 3. **Schema enumeration** ([`mine_schemas`], §7): enumerate maximal sets
//!    of pairwise-[`compatible`] MVDs (maximal independent sets of the
//!    incompatibility graph) and synthesize an acyclic schema from each with
//!    [`build_acyclic_schema`].
//! 4. **Quality** ([`evaluate_schema`], §8): storage savings, spurious-tuple
//!    rate, width, intersection width, pareto front. Both metrics need only
//!    distinct counts and the set join, so a session measures over its
//!    distinct tuples. Its quality pass ([`measure_schemas`]) fans blocks of
//!    schemas out over the session's workers, each sharing one
//!    `relation::JoinCounter` across its schemas ([`evaluate_schema_with`]).
//! 5. **Decomposed store** ([`AcyclicSchema::decompose`], §8.1): materialize
//!    the per-bag projections, run the Yannakakis full reducer, stream the
//!    reconstruction and answer selection/projection queries without ever
//!    re-joining (`decompose` crate; [`evaluate_schema_checked`] cross-checks
//!    the store's exact counts against the counting-based metrics).
//!
//! ## Session API
//!
//! The pipeline is exposed as staged, cached artifacts of a long-lived
//! [`MaimonSession`] owning one shared entropy oracle:
//! `session.mvds(ε)` → `session.schemas(ε)` → `session.quality(ε)` →
//! `session.decompose_best(ε)`, with [`MaimonSession::epsilon_sweep`] mining
//! many thresholds over the same oracle, [`CancelToken`] / deadlines /
//! [`RunControl`] for service-grade control, the `obs` stage spans for
//! telemetry, and a stable JSON wire format ([`wire`]) for every result
//! type:
//!
//! ```
//! use maimon::{MaimonConfig, MaimonSession};
//! use relation::{Relation, Schema};
//!
//! let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
//! let rel = Relation::from_rows(schema, &[
//!     vec!["a1", "b1", "c1", "d1", "e1", "f1"],
//!     vec!["a2", "b2", "c1", "d1", "e2", "f2"],
//!     vec!["a2", "b2", "c2", "d2", "e3", "f2"],
//!     vec!["a1", "b2", "c1", "d2", "e3", "f1"],
//! ]).unwrap();
//!
//! let result = MaimonSession::new(rel, MaimonConfig::default()).unwrap().quality(0.0).unwrap();
//! // The relation decomposes exactly into {ABD, ACD, BDE, AF} (Fig. 1 of the paper).
//! assert!(result.schemas.iter().any(|s| {
//!     s.discovered.schema.n_relations() == 4 && s.quality.spurious_tuples_pct == 0.0
//! }));
//! ```

#![warn(missing_docs)]

mod asminer;
mod compat;
mod config;
mod error;
mod fd;
mod full_mvd;
mod join_tree;
pub mod json;
mod measure;
mod miner;
mod minsep;
mod mvd;
mod progress;
mod quality;
mod schema;
mod session;
pub mod wire;

pub use asminer::{
    build_acyclic_schema, mine_schemas, mine_schemas_with, DiscoveredSchema, SchemaMiningResult,
};
pub use compat::{compatible, incompatibility_graph, incompatible, pairwise_compatible};
pub use config::{MaimonConfig, MaimonConfigBuilder, MiningLimits, MiningLimitsBuilder};
pub use error::MaimonError;
pub use fd::{mine_fds, Fd, FdMiningResult};
pub use full_mvd::{get_full_mvds, is_separator, FullMvdSearch, PairSearch};
pub use join_tree::{is_acyclic_gyo, JoinTree};
pub use measure::{
    is_full_mvd, j_join_tree, j_mvd, j_partition, j_schema, mvd_holds, schema_holds,
    within_epsilon, EPSILON_TOLERANCE,
};
pub use miner::{fan_out_pairs, mine_mvds, mine_mvds_with, MiningStats, MvdMiningResult};
pub use minsep::{mine_min_seps, minimal_separators_bruteforce, reduce_min_sep, MinSepResult};
pub use mvd::Mvd;
pub use progress::{CancelToken, RunControl};
pub use quality::{
    evaluate_schema, evaluate_schema_checked, evaluate_schema_with, measure_schemas, pareto_front,
    SchemaQuality,
};
pub use schema::AcyclicSchema;
pub use session::{
    DeltaRevalidation, DeltaSweepPoint, MaimonResult, MaimonSession, RankedSchema, SweepPoint,
};

// Re-export the substrate crates so downstream users (examples, benches,
// integration tests) only need to depend on `maimon`.
pub use decompose;
pub use entropy;
pub use hypergraph;
pub use obs;
pub use relation;
pub use storage;

// The observability vocabulary travels on public API surfaces
// (`MiningStats::stages`, `RunControl::with_stages`), so surface it at the
// crate root too.
pub use obs::{Span, Stage, StageBreakdown, StageCollector};
