//! Empirical entropy engine for the Maimon reproduction.
//!
//! Maimon's mining algorithms interact with the data exclusively through an
//! entropy oracle `getEntropy_R(X)` (paper §6.3). This crate provides:
//!
//! * [`Pli`] — stripped partitions (position list indices) in a flat CSR
//!   arena layout, with native intersection — the Rust equivalent of the
//!   paper's `CNT`/`TID` tables. Intersections run against a reusable,
//!   epoch-stamped [`IntersectScratch`]; the count-only entry point
//!   ([`Pli::intersect_counts`] → [`GroupSizes`]) evaluates Eq. (5) without
//!   materializing the refined partition.
//! * [`EntropyOracle`] — the oracle trait, with derived conditional entropy
//!   and conditional mutual information. The oracle is *shared*: `entropy`
//!   takes `&self` and implementations are `Sync`, so one oracle serves all
//!   of the parallel miner's worker threads through sharded compute-once
//!   caches and [`AtomicOracleStats`] counters.
//! * [`NaiveEntropyOracle`] — full-scan reference implementation.
//! * [`PliEntropyOracle`] — the §6.3 engine: cached partitions, singleton
//!   pruning, and block precomputation controlled by [`EntropyConfig`]. It
//!   holds the relation as a [`relation::TupleBag`] (distinct tuples with
//!   their multiplicities) and partitions weighted tuples rather than rows.
//!
//! All entropies are reported in bits (log base 2), matching the paper's
//! `H(ABCDEF) = log 4 = 2` example.

#![warn(missing_docs)]

mod concurrent;
mod oracle;
mod partition;
mod pli;
#[cfg(feature = "track_alloc")]
pub mod track_alloc;

pub use concurrent::AtomicOracleStats;
pub use oracle::{entropy_from_group_sizes, EntropyOracle, NaiveEntropyOracle, OracleStats};
pub use partition::{GroupSizes, IntersectScratch, Pli};
pub use pli::{EntropyConfig, PliEntropyOracle};
