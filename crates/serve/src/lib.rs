//! # maimon-serve — Maimon-as-a-service
//!
//! Serving layer over the owned-session core: long-lived relations live in a
//! [`DatasetRegistry`] (one shared [`maimon::MaimonSession`] each), and a
//! small TCP server exposes mining to concurrent clients over the stable
//! JSON wire format of [`maimon::wire`] (`format_version` 1), one request
//! per line.
//!
//! This is the use case §8 of the paper gestures at — *interactive* schema
//! profiling: the expensive part (building the PLI entropy oracle, mining a
//! threshold) happens once per dataset and is shared by every subsequent
//! request, so an analyst sweeping thresholds over a warm dataset gets
//! cache-hit latencies. The pieces:
//!
//! * [`DatasetRegistry`] — named relation → shared session; clones of one
//!   session share the oracle and artifact caches while carrying their own
//!   per-request deadline/cancellation ([`registry`]).
//! * [`protocol`] — the line-delimited request/response JSON shapes
//!   (`ping`, `list`, `mine`, `decompose`, `append`, `stats`, `metrics`).
//! * [`AdmissionController`] — per-tenant in-flight caps and the connection
//!   queue bound; shed requests get explicit `overloaded` responses
//!   ([`admission`]).
//! * [`serve`] — the accept loop + worker pool; deadlines map
//!   onto [`maimon::RunControl`], so an expired request returns a
//!   well-formed partial flagged `truncated`, never an error
//!   ([`server`]).
//!
//! Each server owns one [`maimon::obs::MetricsRegistry`]
//! ([`ServerHandle::metrics`]) holding every request-level series:
//! requests per op (op `invalid` for a line that is not a request),
//! latency, errors, truncations, sheds, admissions, panics, appended rows,
//! reducer totals and client dataset lookups. `stats` is a
//! JSON view over a snapshot of it plus each dataset's live session state;
//! `metrics` renders [`maimon::obs::global`] (the library layers' series)
//! followed by it. The registry is per server, not process-wide, so servers
//! sharing a process never count each other's requests.
//!
//! The layer is built to degrade, not abort: request handling runs under
//! `catch_unwind` (a panicking handler yields a well-formed `internal`
//! envelope that keeps its `trace_id`, counted by
//! `maimon_requests_panicked_total{op}` in the server's registry), storage
//! faults surface as typed
//! `internal` errors scoped to their dataset, and datasets registered
//! through [`DatasetRegistry::register_durable`] /
//! [`DatasetRegistry::open_durable`] (the `maimon-served --data-dir` path)
//! fsync every acknowledged append to a write-ahead log so a crashed server
//! restarts at its exact pre-crash `data_version`. The fault-injection
//! suite (`tests/chaos.rs`, `tests/crash_recovery.rs`) pins each of these
//! contracts.
//!
//! ```no_run
//! use serve::{serve, DatasetRegistry, ServerConfig};
//! use maimon::MaimonConfig;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(DatasetRegistry::new());
//! registry
//!     .register("running", maimon_datasets::running_example(), MaimonConfig::default())
//!     .unwrap();
//! let handle = serve(registry, ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.local_addr());
//! // … send line-delimited JSON requests over TCP …
//! handle.shutdown();
//! ```

pub mod admission;
pub mod protocol;
pub mod registry;
pub mod server;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionPermit, MAX_TENANTS, OTHER_TENANT,
};
pub use protocol::{error_response, ok_response, ErrorKind, Request, MAX_TENANT_BYTES};
pub use registry::DatasetRegistry;
pub use server::{serve, ServerConfig, ServerHandle, MAX_LINE_BYTES};
