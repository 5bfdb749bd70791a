//! The TCP server: accept loop, bounded connection queue, worker pool and
//! request dispatch.
//!
//! The shape is deliberately boring: a non-blocking accept loop feeds a
//! bounded `VecDeque` of connections; `workers` threads pull connections and
//! speak the line-delimited protocol of [`crate::protocol`] until the client
//! hangs up. Every blocking point (accept, queue wait, socket read) is
//! bounded by a short timeout and re-checks the shutdown token, so
//! [`ServerHandle::shutdown`] converges without a wake-up connection or
//! thread kill, and in-flight mining requests wind down through the same
//! [`CancelToken`] — they return well-formed `truncated` partials, never
//! broken pipes.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionPermit};
use crate::protocol::{error_response, ok_response, ErrorKind, Request};
use crate::registry::DatasetRegistry;
use maimon::json::Json;
use maimon::obs::{self, MetricSnapshot, MetricValue, MetricsRegistry, StageCollector};
use maimon::wire::{FromJson, ToJson};
use maimon::{CancelToken, MaimonSession};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Socket read timeout; also the granularity at which idle connections
    /// notice a server shutdown.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            admission: AdmissionConfig::default(),
            read_timeout: Duration::from_millis(100),
        }
    }
}

/// Every series a server records into its own [`MetricsRegistry`], with its
/// help text. The `stats` operation is a view over these; none of the names
/// occurs in [`obs::global`], which holds the library layers' series.
const SERVER_SERIES: &[(&str, &str)] = &[
    ("maimon_requests_total", "Requests received, by operation"),
    (
        "maimon_request_duration_ns",
        "Served request latency in nanoseconds, by operation and tenant",
    ),
    ("maimon_request_errors_total", "Failed requests, by error kind"),
    (
        "maimon_responses_truncated_total",
        "Responses whose mining result was truncated by a deadline or limit",
    ),
    ("maimon_requests_shed_total", "Requests shed by admission control, by reason"),
    ("maimon_requests_admitted_total", "Dataset requests admitted past the tenant cap, by tenant"),
    (
        "maimon_requests_panicked_total",
        "Requests whose handler panicked; the panic was contained and served as an internal error",
    ),
    (
        "maimon_request_lines_too_long_total",
        "Request lines refused for exceeding the line-length cap",
    ),
    ("maimon_rows_appended_total", "Rows appended through the append operation"),
    ("maimon_reducer_semijoins_total", "Semijoins run by decompose's full reducer"),
    ("maimon_reducer_bottom_up_removed_total", "Tuples the reducer's bottom-up pass removed"),
    ("maimon_reducer_top_down_removed_total", "Tuples the reducer's top-down pass removed"),
    ("maimon_registry_lookups_total", "Dataset lookups, by outcome (hit or miss)"),
];

struct Shared {
    registry: Arc<DatasetRegistry>,
    admission: Arc<AdmissionController>,
    /// The server's request-level series (see [`SERVER_SERIES`]).
    metrics: Arc<MetricsRegistry>,
    shutdown: CancelToken,
    read_timeout: Duration,
}

impl Shared {
    /// The registry's session for `dataset`, counting the hit or miss.
    fn lookup(&self, dataset: &str) -> Option<MaimonSession> {
        let session = self.registry.get(dataset);
        let outcome = if session.is_some() { "hit" } else { "miss" };
        self.metrics.counter("maimon_registry_lookups_total", &[("outcome", outcome)]).inc();
        session
    }

    /// Admits one dataset request of `tenant`, or answers `overloaded`.
    fn admit(&self, tenant: &str) -> Result<AdmissionPermit, Json> {
        match self.admission.try_admit(tenant) {
            Some(permit) => {
                self.metrics.counter("maimon_requests_admitted_total", &[("tenant", tenant)]).inc();
                Ok(permit)
            }
            None => {
                let labels = [("reason", "tenant_cap"), ("tenant", tenant)];
                self.metrics.counter("maimon_requests_shed_total", &labels).inc();
                Err(error_response(
                    ErrorKind::Overloaded,
                    format!("tenant {tenant:?} is at its in-flight cap"),
                ))
            }
        }
    }
}

struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: CancelToken,
    metrics: Arc<MetricsRegistry>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's own metrics registry: every request-level series
    /// (latency, requests per op, errors, truncations, sheds, admissions,
    /// panics, appended rows, reducer totals, dataset lookups). The `stats`
    /// operation is a view over it; the `metrics` operation renders
    /// [`obs::global`] followed by it.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A clone of the shutdown token; firing it (e.g. from a signal handler
    /// thread) is equivalent to calling [`ServerHandle::shutdown`] except
    /// for the join.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// `true` once the token has fired.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    /// Fires the shutdown token and joins every server thread. In-flight
    /// mining requests observe the token and respond with `truncated`
    /// partials before their connections close.
    pub fn shutdown(self) {
        self.shutdown.cancel();
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds and starts a server over `registry`.
///
/// # Errors
/// Returns the I/O error of a failed bind.
pub fn serve(
    registry: Arc<DatasetRegistry>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let metrics = Arc::new(MetricsRegistry::new());
    for &(name, help) in SERVER_SERIES {
        metrics.describe(name, help);
    }
    let shared = Arc::new(Shared {
        registry,
        admission: Arc::new(AdmissionController::new(config.admission)),
        metrics: Arc::clone(&metrics),
        shutdown: CancelToken::new(),
        read_timeout: config.read_timeout,
    });
    let queue = Arc::new(ConnQueue { pending: Mutex::new(VecDeque::new()), ready: Condvar::new() });

    let mut threads = Vec::with_capacity(config.workers + 1);
    for _ in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        let queue = Arc::clone(&queue);
        threads.push(std::thread::spawn(move || worker_loop(&shared, &queue)));
    }

    let shutdown = shared.shutdown.clone();
    let max_queue_depth = config.admission.max_queue_depth;
    {
        let shared = Arc::clone(&shared);
        let queue = Arc::clone(&queue);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &shared, &queue, max_queue_depth);
            // Wake every idle worker so they observe the shutdown.
            queue.ready.notify_all();
        }));
    }

    Ok(ServerHandle { local_addr, shutdown, metrics, threads })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    queue: &Arc<ConnQueue>,
    max_queue_depth: usize,
) {
    while !shared.shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are whole lines written at once; with Nagle on,
                // a line that spans segments waits out the client's
                // delayed ACK (~40 ms) before its tail is sent.
                let _ = stream.set_nodelay(true);
                let mut pending =
                    queue.pending.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                if pending.len() >= max_queue_depth {
                    drop(pending);
                    shared
                        .metrics
                        .counter("maimon_requests_shed_total", &[("reason", "queue_full")])
                        .inc();
                    shed_connection(stream);
                } else {
                    pending.push_back(stream);
                    drop(pending);
                    queue.ready.notify_one();
                }
            }
            // Non-blocking listener: nothing pending (or a transient accept
            // error) — nap briefly and re-check the shutdown token.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Tells an over-queue client it was shed, without occupying a worker.
fn shed_connection(mut stream: TcpStream) {
    let response = error_response(ErrorKind::Overloaded, "connection queue is full; retry later");
    let _ = write_line(&mut stream, &response);
    // Half-close and briefly drain: dropping the socket with unread request
    // bytes in its receive buffer sends an RST that can discard the
    // response before the client reads it. The drain is bounded, so a
    // stalling client delays the accept loop at most ~500 ms.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let start = Instant::now();
    let mut sink = [0u8; 1024];
    while start.elapsed() < Duration::from_millis(500) {
        match stream.read(&mut sink) {
            Ok(0) => break, // EOF: the client saw the response; safe to drop
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

/// Sends one response line — the serialized JSON plus `\n` — in a single
/// write, so it leaves as one segment rather than a body and a trailing
/// newline segment.
fn write_line(stream: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut line = response.to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn worker_loop(shared: &Arc<Shared>, queue: &Arc<ConnQueue>) {
    loop {
        let stream = {
            let mut pending = queue.pending.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(stream) = pending.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.is_cancelled() {
                    break None;
                }
                let (guard, _timeout) = queue
                    .ready
                    .wait_timeout(pending, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                pending = guard;
            }
        };
        match stream {
            Some(stream) => {
                // A panic escaping one connection must not take the worker
                // thread (and its share of serving capacity) with it.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(shared, stream);
                }));
                if result.is_err() {
                    shared
                        .metrics
                        .counter("maimon_requests_panicked_total", &[("op", "connection")])
                        .inc();
                }
            }
            None => return,
        }
    }
}

/// Longest request line the server buffers, newline excluded. A longer
/// line gets one `bad_request` response, bumps
/// `maimon_request_lines_too_long_total`, and is skipped through its
/// newline, after which the connection reads requests as before.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Answers a request line longer than [`MAX_LINE_BYTES`].
fn reject_long_line(shared: &Arc<Shared>, stream: &mut TcpStream) -> std::io::Result<()> {
    shared.metrics.counter("maimon_request_errors_total", &[("kind", "bad_request")]).inc();
    shared.metrics.counter("maimon_request_lines_too_long_total", &[]).inc();
    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
    write_line(
        stream,
        &with_trace(error_response(ErrorKind::BadRequest, message), &obs::next_trace_id()),
    )
}

/// Serves one connection: line in, line out, until EOF, error or shutdown.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let mut carry: Vec<u8> = Vec::new();
    // `carry[..scanned]` is known to hold no newline, so each read is
    // searched once.
    let mut scanned = 0;
    // Inside an over-long line that was already answered: drop bytes up to
    // and including its newline.
    let mut skipping = false;
    let mut chunk = [0u8; 4096];
    loop {
        // Drain complete lines out of the carry buffer first.
        while let Some(pos) = carry[scanned..].iter().position(|&b| b == b'\n') {
            let pos = scanned + pos;
            let mut line: Vec<u8> = carry.drain(..=pos).collect();
            scanned = 0;
            if std::mem::take(&mut skipping) {
                continue;
            }
            line.pop(); // the newline
            if line.len() > MAX_LINE_BYTES {
                if reject_long_line(shared, &mut stream).is_err() {
                    return;
                }
                continue;
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8_lossy(&line);
            if text.trim().is_empty() {
                continue;
            }
            let response = dispatch(shared, text.trim());
            if maimon::storage::fault::global().should_fail("conn_drop", "connection") {
                // Chaos failpoint: hang up before the response line is
                // written, as a crashed peer or a cut network would.
                return;
            }
            if write_line(&mut stream, &response).is_err() {
                return;
            }
        }
        scanned = carry.len();
        if carry.len() > MAX_LINE_BYTES {
            if !skipping && reject_long_line(shared, &mut stream).is_err() {
                return;
            }
            skipping = true;
            carry.clear();
            scanned = 0;
        }
        if shared.shutdown.is_cancelled() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle: loop around and re-check the shutdown token.
            }
            Err(_) => return,
        }
    }
}

/// The slow-request log threshold, read once from `MAIMON_SLOW_MS` (absent
/// or unparsable → slow logging off).
fn slow_threshold() -> Option<Duration> {
    static SLOW: OnceLock<Option<Duration>> = OnceLock::new();
    *SLOW.get_or_init(|| {
        std::env::var("MAIMON_SLOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
    })
}

/// Appends the request's trace ID to a response envelope.
fn with_trace(mut response: Json, trace_id: &str) -> Json {
    if let Json::Object(fields) = &mut response {
        fields.push(("trace_id".to_string(), Json::from(trace_id)));
    }
    response
}

/// Parses and executes one request line, returning the response document.
///
/// Every response envelope carries a `trace_id`: the client's, echoed, when
/// the request had a string `trace_id` field, or a server-generated one
/// otherwise. The request counts in `maimon_requests_total{op}` as it
/// arrives (a line that is not a request, such as invalid JSON or an
/// unknown op, counts as op `invalid` and is answered `bad_request`), and
/// its latency lands in the
/// `maimon_request_duration_ns{op,tenant}` histogram of the server's
/// registry; requests slower than `MAIMON_SLOW_MS` additionally emit one
/// structured stderr line with the trace ID and the per-stage breakdown.
fn dispatch(shared: &Arc<Shared>, line: &str) -> Json {
    let start = Instant::now();
    let parsed = Json::parse(line).ok();
    let trace_id = parsed
        .as_ref()
        .and_then(|json| json.get("trace_id"))
        .and_then(Json::as_str)
        .map_or_else(obs::next_trace_id, str::to_string);
    let request = match parsed.as_ref().map(Request::from_json) {
        Some(Ok(request)) => Ok(request),
        Some(Err(e)) => Err(e.to_string()),
        None => Err("invalid JSON".to_string()),
    };
    let op = match &request {
        Err(_) => "invalid",
        Ok(Request::Ping) => "ping",
        Ok(Request::List) => "list",
        Ok(Request::Stats) => "stats",
        Ok(Request::Metrics) => "metrics",
        Ok(Request::Mine { .. }) => "mine",
        Ok(Request::Decompose { .. }) => "decompose",
        Ok(Request::Append { .. }) => "append",
    };
    shared.metrics.counter("maimon_requests_total", &[("op", op)]).inc();
    let tenant_label = match &request {
        Ok(
            Request::Mine { tenant, .. }
            | Request::Decompose { tenant, .. }
            | Request::Append { tenant, .. },
        ) => shared.admission.tenant_label(tenant.as_deref().unwrap_or_default()),
        _ => String::new(),
    };
    let (dataset, epsilon) = match &request {
        Ok(
            Request::Mine { dataset, epsilon, .. } | Request::Decompose { dataset, epsilon, .. },
        ) => (Some(dataset.clone()), Some(*epsilon)),
        Ok(Request::Append { dataset, .. }) => (Some(dataset.clone()), None),
        _ => (None, None),
    };
    let stages = Arc::new(StageCollector::new());
    // No-abort serving: a panic anywhere in a handler (a bug, a poisoned
    // invariant, the `request_panic` chaos failpoint) is contained here and
    // answered as a well-formed `internal` envelope that still carries the
    // request's trace_id — the connection, the worker and every other
    // dataset keep serving. The shared state is sound across the unwind:
    // registry and artifact-cache locks recover from poisoning, and metrics
    // are atomics.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if maimon::storage::fault::global().should_fail("request_panic", op) {
            panic!("injected failpoint panic ({op})");
        }
        match request {
            Err(message) => error_response(ErrorKind::BadRequest, message),
            Ok(Request::Ping) => ok_response("ping", []),
            Ok(Request::List) => handle_list(shared),
            Ok(Request::Stats) => handle_stats(shared),
            Ok(Request::Metrics) => handle_metrics(shared),
            Ok(Request::Mine { dataset, epsilon, timeout_ms, .. }) => {
                handle_mine(shared, &dataset, epsilon, timeout_ms, &tenant_label, &stages)
            }
            Ok(Request::Decompose { dataset, epsilon, timeout_ms, .. }) => {
                handle_decompose(shared, &dataset, epsilon, timeout_ms, &tenant_label, &stages)
            }
            Ok(Request::Append { dataset, rows, .. }) => {
                handle_append(shared, &dataset, &rows, &tenant_label)
            }
        }
    }));
    let response = match outcome {
        Ok(response) => response,
        Err(panic) => {
            shared.metrics.counter("maimon_requests_panicked_total", &[("op", op)]).inc();
            error_response(
                ErrorKind::Internal,
                format!("request handler panicked: {}", panic_message(&panic)),
            )
        }
    };
    let elapsed = start.elapsed();
    shared
        .metrics
        .histogram("maimon_request_duration_ns", &[("op", op), ("tenant", &tenant_label)])
        .record_duration(elapsed);
    if response.get("ok").and_then(Json::as_bool) == Some(false) {
        let kind = response.get("kind").and_then(Json::as_str).unwrap_or("internal");
        // Overload sheds are already counted (with tenant) as sheds; count
        // only genuine failures here.
        if kind != ErrorKind::Overloaded.label() {
            shared.metrics.counter("maimon_request_errors_total", &[("kind", kind)]).inc();
        }
    }
    if response.get("truncated").and_then(Json::as_bool) == Some(true) {
        shared.metrics.counter("maimon_responses_truncated_total", &[("op", op)]).inc();
    }
    if let Some(threshold) = slow_threshold() {
        if elapsed >= threshold {
            let line = Json::object([
                ("event", Json::from("slow_request")),
                ("trace_id", Json::from(trace_id.as_str())),
                ("op", Json::from(op)),
                ("tenant", Json::from(tenant_label.as_str())),
                ("dataset", dataset.map_or(Json::Null, |d| Json::from(d.as_str()))),
                ("epsilon", epsilon.map_or(Json::Null, Json::from)),
                ("elapsed_ms", Json::from(elapsed.as_millis() as u64)),
                ("stages", stages.breakdown().to_json()),
            ]);
            eprintln!("{line}");
        }
    }
    with_trace(response, &trace_id)
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// The `metrics` operation: the process-wide registry of the library
/// layers, then the server's own, as one JSON document (the same data
/// `--metrics-addr` renders as Prometheus text).
fn handle_metrics(shared: &Arc<Shared>) -> Json {
    let metrics: Vec<Json> = obs::global()
        .snapshot()
        .into_iter()
        .chain(shared.metrics.snapshot())
        .map(|snapshot| {
            let labels = Json::Object(
                snapshot
                    .labels
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::from(v.as_str())))
                    .collect(),
            );
            let value = match &snapshot.value {
                MetricValue::Counter(v) => Json::from(*v),
                MetricValue::Gauge(v) => Json::Int(i128::from(*v)),
                MetricValue::Histogram { buckets, sum, count } => Json::object([
                    ("buckets", Json::Array(buckets.iter().map(|&b| Json::from(b)).collect())),
                    ("sum", Json::from(*sum)),
                    ("count", Json::from(*count)),
                ]),
            };
            Json::object([
                ("name", Json::from(snapshot.name)),
                ("kind", Json::from(snapshot.kind.as_str())),
                ("help", Json::from(snapshot.help)),
                ("labels", labels),
                ("value", value),
            ])
        })
        .collect();
    ok_response("metrics", [("metrics", Json::Array(metrics))])
}

/// Builds the per-request session: the registry's shared handle with this
/// request's deadline and the server's shutdown token attached. Artifact and
/// oracle caches stay shared; the control plumbing is per-clone.
fn request_session(
    shared: &Arc<Shared>,
    dataset: &str,
    timeout_ms: Option<u64>,
) -> Option<MaimonSession> {
    let mut session = shared.lookup(dataset)?.with_cancel(shared.shutdown.clone());
    if let Some(ms) = timeout_ms {
        session = session.with_deadline(Instant::now() + Duration::from_millis(ms));
    }
    Some(session)
}

fn handle_mine(
    shared: &Arc<Shared>,
    dataset: &str,
    epsilon: f64,
    timeout_ms: Option<u64>,
    tenant: &str,
    stages: &Arc<StageCollector>,
) -> Json {
    let Some(session) = request_session(shared, dataset, timeout_ms) else {
        return error_response(ErrorKind::NotFound, format!("unknown dataset {dataset:?}"));
    };
    let session = session.with_stages(Arc::clone(stages));
    let _permit = match shared.admit(tenant) {
        Ok(permit) => permit,
        Err(overloaded) => return overloaded,
    };
    match session.quality_stamped(epsilon) {
        Ok((data_version, result)) => ok_response(
            "mine",
            [
                ("dataset", Json::from(dataset)),
                ("epsilon", Json::from(epsilon)),
                ("data_version", Json::from(data_version)),
                ("truncated", Json::from(result.truncated)),
                ("result", result.to_json()),
            ],
        ),
        Err(e) => error_response(ErrorKind::Internal, e.to_string()),
    }
}

/// Appends rows to a registered dataset's session. Appends go through the
/// same per-tenant admission as mining: an oracle delta-refresh is real work,
/// and a tenant should not dodge its in-flight cap by reshaping writes.
fn handle_append(shared: &Arc<Shared>, dataset: &str, rows: &[Vec<String>], tenant: &str) -> Json {
    let Some(session) = shared.lookup(dataset) else {
        return error_response(ErrorKind::NotFound, format!("unknown dataset {dataset:?}"));
    };
    let _permit = match shared.admit(tenant) {
        Ok(permit) => permit,
        Err(overloaded) => return overloaded,
    };
    // Durable datasets: hold the ordering guard across apply + WAL append so
    // concurrent appends reach the log in the order their versions were
    // assigned. The in-memory apply runs first — it validates the batch, so
    // a bad_request append writes *nothing* to the WAL — and the record is
    // fsync'd before the acknowledgment below is ever built.
    let durable = shared.registry.durable(dataset);
    let _order = durable.as_ref().map(|d| d.append_guard());
    match session.append_rows(rows) {
        Ok(summary) => {
            if summary.rows_appended > 0 {
                if let Some(durable) = &durable {
                    if let Err(e) = durable.append(summary.data_version, rows) {
                        // Applied in memory but not durable: never ack. The
                        // WAL is now fail-stop for this dataset (restart
                        // recovers to the last acknowledged state); every
                        // other dataset keeps serving.
                        return error_response(
                            ErrorKind::Internal,
                            format!("append could not be made durable: {e}"),
                        );
                    }
                }
            }
            shared
                .metrics
                .counter("maimon_rows_appended_total", &[])
                .add(summary.rows_appended as u64);
            ok_response(
                "append",
                [
                    ("dataset", Json::from(dataset)),
                    ("appended", Json::from(summary.rows_appended)),
                    ("rows", Json::from(session.n_rows())),
                    ("data_version", Json::from(summary.data_version)),
                ],
            )
        }
        Err(e @ maimon::MaimonError::Relation(_)) => {
            // Malformed rows (arity mismatch) are the client's fault.
            error_response(ErrorKind::BadRequest, e.to_string())
        }
        Err(e) => error_response(ErrorKind::Internal, e.to_string()),
    }
}

fn handle_decompose(
    shared: &Arc<Shared>,
    dataset: &str,
    epsilon: f64,
    timeout_ms: Option<u64>,
    tenant: &str,
    stages: &Arc<StageCollector>,
) -> Json {
    let Some(session) = request_session(shared, dataset, timeout_ms) else {
        return error_response(ErrorKind::NotFound, format!("unknown dataset {dataset:?}"));
    };
    let session = session.with_stages(Arc::clone(stages));
    let _permit = match shared.admit(tenant) {
        Ok(permit) => permit,
        Err(overloaded) => return overloaded,
    };
    match session.decompose_best_stamped(epsilon) {
        Ok((data_version, schema, instance)) => {
            let (_reduced, reducer) = instance.full_reduce();
            for (name, n) in [
                ("maimon_reducer_semijoins_total", reducer.semijoins),
                ("maimon_reducer_bottom_up_removed_total", reducer.bottom_up_removed),
                ("maimon_reducer_top_down_removed_total", reducer.top_down_removed),
            ] {
                shared.metrics.counter(name, &[]).add(n as u64);
            }
            ok_response(
                "decompose",
                [
                    ("dataset", Json::from(dataset)),
                    ("epsilon", Json::from(epsilon)),
                    ("data_version", Json::from(data_version)),
                    ("bags", Json::from(schema.n_relations())),
                    ("schema", schema.to_json()),
                    ("reducer", reducer.to_json()),
                ],
            )
        }
        Err(e) => error_response(ErrorKind::Internal, e.to_string()),
    }
}

fn handle_list(shared: &Arc<Shared>) -> Json {
    let datasets: Vec<Json> = shared
        .registry
        .names()
        .into_iter()
        .filter_map(|name| {
            let session = shared.registry.get(&name)?;
            Some(Json::object([
                ("name", Json::from(name.as_str())),
                ("rows", Json::from(session.n_rows())),
                ("attrs", Json::from(session.arity())),
                ("storage", Json::from(session.storage_kind())),
                ("default_epsilon", Json::from(session.config().epsilon)),
            ]))
        })
        .collect();
    ok_response("list", [("datasets", Json::Array(datasets))])
}

/// Sums the counters named `name` in `snapshot` whose labels include every
/// pair of `labels`.
fn counter_total(snapshot: &[MetricSnapshot], name: &str, labels: &[(&str, &str)]) -> u64 {
    snapshot
        .iter()
        .filter(|s| s.name == name && labels.iter().all(|&pair| label(s, pair.0) == Some(pair.1)))
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn label<'a>(snapshot: &'a MetricSnapshot, key: &str) -> Option<&'a str> {
    snapshot.labels.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
}

/// The `admission` object of `stats`: server-wide admissions and sheds, and
/// per tenant (sorted by label) the admissions and tenant-cap sheds.
fn admission_json(snapshot: &[MetricSnapshot]) -> Json {
    let mut per_tenant: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in snapshot {
        let (MetricValue::Counter(v), Some(tenant)) = (&s.value, label(s, "tenant")) else {
            continue;
        };
        match s.name {
            "maimon_requests_admitted_total" => per_tenant.entry(tenant).or_default().0 += v,
            "maimon_requests_shed_total" => per_tenant.entry(tenant).or_default().1 += v,
            _ => {}
        }
    }
    let tenants = per_tenant.into_iter().map(|(tenant, (admitted, shed))| {
        Json::object([
            ("tenant", Json::from(tenant)),
            ("admitted", Json::from(admitted)),
            ("shed_tenant_cap", Json::from(shed)),
        ])
    });
    let shed =
        |reason| counter_total(snapshot, "maimon_requests_shed_total", &[("reason", reason)]);
    Json::object([
        ("admitted", Json::from(counter_total(snapshot, "maimon_requests_admitted_total", &[]))),
        ("shed_tenant_cap", Json::from(shed("tenant_cap"))),
        ("shed_queue_full", Json::from(shed("queue_full"))),
        ("tenants", Json::Array(tenants.collect())),
    ])
}

/// The `stats` operation: a JSON view over a snapshot of the server's
/// registry, then the live state of each dataset's session. Like `list`,
/// it reads the sessions without counting lookups, so
/// `registry.session_hits` counts client requests only.
fn handle_stats(shared: &Arc<Shared>) -> Json {
    let snapshot = shared.metrics.snapshot();
    let total = |name, labels: &[(&str, &str)]| Json::from(counter_total(&snapshot, name, labels));
    let sum = |name| counter_total(&snapshot, name, &[]) as usize;
    let reducer = maimon::decompose::ReducerStats {
        semijoins: sum("maimon_reducer_semijoins_total"),
        bottom_up_removed: sum("maimon_reducer_bottom_up_removed_total"),
        top_down_removed: sum("maimon_reducer_top_down_removed_total"),
    };
    let requests = ["ping", "list", "stats", "metrics", "mine", "decompose", "append", "invalid"]
        .map(|op| (op, total("maimon_requests_total", &[("op", op)])));
    let datasets: Vec<Json> = shared
        .registry
        .names()
        .into_iter()
        .filter_map(|name| {
            let session = shared.registry.get(&name)?;
            Some(Json::object([
                ("name", Json::from(name.as_str())),
                ("data_version", Json::from(session.data_version())),
                ("storage", Json::from(session.storage_kind())),
                ("resident_bytes", Json::from(session.resident_bytes())),
                ("oracle", session.oracle_stats().to_json()),
                ("cached_plis", Json::from(session.cached_pli_count())),
                ("cached_entropies", Json::from(session.cached_entropy_count())),
                (
                    "cached_epsilons",
                    Json::Array(session.cached_epsilons().into_iter().map(Json::from).collect()),
                ),
            ]))
        })
        .collect();
    ok_response(
        "stats",
        [
            (
                "registry",
                Json::object([
                    ("datasets", Json::from(shared.registry.len())),
                    ("session_hits", total("maimon_registry_lookups_total", &[("outcome", "hit")])),
                    (
                        "session_misses",
                        total("maimon_registry_lookups_total", &[("outcome", "miss")]),
                    ),
                ]),
            ),
            ("admission", admission_json(&snapshot)),
            (
                "requests",
                Json::object(requests.into_iter().chain([
                    ("rows_appended", total("maimon_rows_appended_total", &[])),
                    ("truncated", total("maimon_responses_truncated_total", &[])),
                    ("errors", total("maimon_request_errors_total", &[])),
                ])),
            ),
            ("reducer", reducer.to_json()),
            ("datasets", Json::Array(datasets)),
        ],
    )
}
