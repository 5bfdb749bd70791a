//! Datasets for the Maimon reproduction.
//!
//! Three sources of data drive the tests, examples and experiment harness:
//!
//! * [`running_example`] / [`running_example_with_red_tuple`] — the 4/5-tuple
//!   relation of Figure 1 used throughout the paper.
//! * [`nursery`] — a synthetic regeneration of the UCI Nursery dataset used
//!   in the §8.1 use case (full Cartesian product of the documented domains
//!   plus a rule-derived class attribute).
//! * [`metanome_catalog`] / [`DatasetSpec`] — synthetic stand-ins for the 20
//!   Metanome benchmark datasets of Table 2, generated at the published
//!   row/column dimensions with a planted approximate acyclic schema
//!   ([`SyntheticSpec`]).
//!
//! The reproduction map in PAPER.md ties each stand-in to the paper
//! artifact it replaces; [`SyntheticSpec`] documents the planted structure
//! that keeps the behaviour the evaluation measures.

#![warn(missing_docs)]

mod catalog;
mod nursery;
mod running_example;
mod synthetic;

pub use catalog::{dataset_by_name, metanome_catalog, DatasetSpec};
pub use nursery::{nursery, nursery_with_rows, NURSERY_INPUT_DOMAINS, NURSERY_ROWS};
pub use running_example::{running_example, running_example_with_red_tuple};
pub use synthetic::{planted_acyclic_relation, write_planted_csv, PlantedRowStream, SyntheticSpec};
