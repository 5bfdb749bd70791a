//! Root crate of the Maimon reproduction workspace.
//!
//! This package exists to own the cross-crate integration suites in `tests/`
//! and the runnable walkthroughs in `examples/`; the actual implementation
//! lives in the `crates/` members. It re-exports the top-level crates so the
//! examples and tests can depend on a single package.

#![warn(missing_docs)]

pub use maimon;
pub use maimon_datasets;
