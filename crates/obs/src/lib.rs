//! # maimon-obs — dependency-free observability for the Maimon pipeline
//!
//! The paper's experimental section (§8, Figs. 13/14/18) is all about *where
//! time goes*: per-stage runtime breakdowns across dataset scale and ε. This
//! crate supplies the instrumentation substrate the repro uses to reproduce
//! that decomposition on every run, cheap enough to stay on in release
//! builds:
//!
//! * [`MetricsRegistry`] — lock-sharded counters, gauges and fixed-boundary
//!   log₂-bucket histograms ([`Histogram`]). Registration takes a static
//!   metric name plus a label set; the returned handles are `Arc`s whose hot
//!   paths are single relaxed atomic RMWs (same spirit as the entropy
//!   crate's `AtomicOracleStats`).
//! * [`Span`] — RAII stage timers over the monotonic clock. Spans nest;
//!   each records its *exclusive* self-time (elapsed minus enclosed child
//!   spans, tracked per thread) so a full pipeline's stage times tile its
//!   wall clock instead of double-counting, and parallel pair fan-out
//!   aggregates busy time per worker correctly.
//! * [`StageCollector`] / [`StageBreakdown`] — the per-run aggregation
//!   target spans write into; `StageBreakdown` is the value that travels on
//!   `MiningStats` over the wire.
//! * [`render_prometheus`] — Prometheus text exposition (`# HELP`/`# TYPE`,
//!   label escaping, cumulative histogram buckets with `_sum`/`_count`) for
//!   the `--metrics-addr` endpoint of `maimon-served`.
//! * [`global`] — the process-wide registry the library layers record into,
//!   plus [`next_trace_id`] for per-request trace IDs on the serve path.
//!   Request-level series live in each server's own registry instead.
//!
//! The crate is intentionally free of dependencies (std only) so every
//! workspace crate — relation, entropy, core, decompose, serve, bench — can
//! link it without weight.

mod metrics;
mod prometheus;
mod span;
mod stage;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricType, MetricValue, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use prometheus::render_prometheus;
pub use span::Span;
pub use stage::{Stage, StageBreakdown, StageCollector};
pub use trace::next_trace_id;

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide metrics registry of the library layers.
///
/// The relation, entropy, core, storage and decompose layers record into it
/// (oracle builds, CSV loads, stage spans, page cache, WAL, ingest,
/// decompositions). A server keeps its request-level series in a registry
/// of its own, so several servers in one process count apart; the serve
/// `metrics` op and the `--metrics-addr` Prometheus endpoint render this
/// registry followed by the server's. Unit tests that need exact counts
/// should construct a private [`MetricsRegistry`] instead.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}
