//! Relational substrate for the Maimon reproduction.
//!
//! This crate provides everything the schema-mining algorithms need from a
//! relational engine, implemented from scratch:
//!
//! * [`AttrSet`] — attribute sets as 64-bit bitsets, the universal currency of
//!   the mining algorithms.
//! * [`Schema`] / [`Relation`] — dictionary-encoded, columnar, in-memory
//!   relation instances with projection, selection, deduplication and
//!   grouping.
//! * [`Keyer`] — the one exact labeller for code vectors: every grouping in
//!   the workspace (partitions, distinct counts, join-size labels, bag
//!   projections) numbers its groups through it, however wide the key.
//! * [`natural_join`] / [`natural_join_all`] — materialized joins used to
//!   validate decompositions on small inputs.
//! * [`JoinCounter`] / [`acyclic_join_size`] / [`spurious_tuple_count`] —
//!   Yannakakis-style count propagation over a join tree, used to measure the
//!   paper's spurious-tuple metric `E` without materializing the (possibly
//!   huge) re-join; one counter shares projection labels across a pass.
//! * [`TupleBag`] — the relation as a bag: distinct tuples in
//!   first-occurrence order with their multiplicities, the one form the
//!   engine mounts every source in; [`TupleStream`] builds it from CSV text
//!   fed in pieces without holding the rows.
//! * [`relation_from_csv`] — a small RFC-4180-ish CSV loader for profiling
//!   datasets, built on [`CsvReader`], the push-style record reader the
//!   tuple stream shares.
//! * Random relation generators used by tests, benchmarks and the synthetic
//!   Metanome-shaped datasets.

#![warn(missing_docs)]

mod acyclic_join;
mod attrset;
mod csv;
mod error;
mod generator;
mod join;
mod keyer;
mod relation;
mod schema;
mod tuples;

pub use acyclic_join::{
    acyclic_join_size, satisfies_join_dependency, spurious_tuple_count, JoinCounter, JoinTreeSpec,
    LABEL_MEMO_BUDGET_BYTES,
};
pub use attrset::{AttrIter, AttrSet, SubsetIter};
pub use csv::{
    relation_from_csv, relation_to_csv, CsvOptions, CsvReader, CsvRecord, MAX_RECORD_BYTES,
};
pub use error::RelationError;
pub use generator::{
    cartesian_product_relation, random_fd_chain_relation, random_uniform_relation,
};
pub use join::{natural_join, natural_join_all};
pub use keyer::{FoldKeyHasher, FoldKeyMap, Keyer};
pub use relation::{AppendSummary, Dictionary, Relation, RelationBuilder};
pub use schema::Schema;
pub use tuples::{TupleBag, TupleStream};
