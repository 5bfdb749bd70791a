//! `bench_report`: one layered end-to-end benchmark of the Maimon
//! reproduction.
//!
//! Four workloads, each chosen to load a different layer (see `README.md`
//! next to this crate for the reasons and the metric glossary):
//!
//! * `enum_bridges10` — Bridges stand-in, 10 columns: full-MVD lattice search
//!   and transversal enumeration; entropy is nearly all cache hits.
//! * `quality_abalone` — Abalone stand-in: quality measurement (`J`, join
//!   sizes) dominates.
//! * `rows_1m_paged` — a planted 1M × 10 relation streamed into the paged
//!   backend with a page cache far smaller than the data: entropy misses and
//!   page faults.
//! * `serve_mixed` — the real `maimon-served` under two closed-loop clients
//!   mixing cached `mine` reads with durable `append` writes.
//!
//! Every timing is taken by the benchmark around calls into public
//! functions or around protocol round trips; nothing inside the program is
//! instrumented for it.

pub mod compare;
pub mod digest;
pub mod inputs;
pub mod library;
pub mod metrics;
pub mod report;
pub mod script;
pub mod served;
pub mod stats;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] =
    ["enum_bridges10", "quality_abalone", "rows_1m_paged", "serve_mixed"];
