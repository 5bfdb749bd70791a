//! `serve_mixed`: the real `maimon-served` under two closed-loop clients.
//!
//! The server runs as a child process with `--workers 2`, a fresh
//! `--data-dir` and the Nursery dataset seeded durably. Each client sends
//! one request at a time and waits for its answer, since analysts do. Each
//! request goes out in a single `write_all` on a `TCP_NODELAY` socket, so the
//! client adds no Nagle stall of its own to the round trip.
//!
//! Correctness: the final relation is rebuilt from the seed CSV plus every
//! acknowledged append, in the order of the `data_version` each append
//! returned, and the served `mine` result at each threshold must equal a
//! direct `MaimonSession` on that relation.

use crate::digest::Digest;
use crate::inputs;
use crate::library::oracle_layers;
use crate::report::{peak_rss_mib, Run};
use crate::script::{Script, Step, CLIENTS, DATASET, EPSILONS};
use crate::stats::percentile;
use maimon::entropy::OracleStats;
use maimon::json::Json;
use maimon::relation::{relation_from_csv, CsvOptions};
use maimon::wire::FromJson;
use maimon::{MaimonConfig, MaimonResult, MaimonSession};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Servers started per run; the median start-up time is `setup_s` and the
/// last one serves the clients.
const SETUPS: usize = 5;
/// How long a server may take to print its listening banner.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long one response may take.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server child.
struct Server {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<()>>,
    data_dir: PathBuf,
    log: PathBuf,
}

impl Server {
    fn start(bin: &Path, csv: &Path, work: &Path, k: usize, trace: bool) -> Result<Self, String> {
        let data_dir = work.join(format!("serve-data-{k}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let log = work.join(format!("serve-{k}.log"));
        // stderr goes to a file so a full pipe can never stall the server.
        let stderr = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--data-dir"])
            .arg(&data_dir)
            .arg("--dataset")
            .arg(format!("{DATASET}={}", csv.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if trace {
            command.env("MAIMON_SLOW_MS", "0");
        }
        let mut child = command.spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stdout until the server exits, so it never blocks on it.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("maimon-served listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server { child, addr: String::new(), stdout: Some(reader), data_dir, log };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => {
                let log = std::fs::read_to_string(&server.log).unwrap_or_default();
                server.stop();
                Err(format!("server did not start: {}", log.trim()))
            }
        }
    }

    /// Kills the child and waits for it and its stdout reader.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_file(&self.log);
    }
}

/// A line-protocol connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A stuck server fails the request instead of hanging the run.
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request line and reads the response line.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(response),
            Err(e) => Err(e.to_string()),
        }
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        let text = self.round_trip(line)?;
        Json::parse(text.trim_end()).map_err(|e| e.to_string())
    }
}

/// What one request observed.
struct Sample {
    append: bool,
    latency_s: f64,
    bytes: usize,
    ok: bool,
    trace_id: Option<String>,
    /// Search counters of a mine response, for the per-layer counts.
    counts: [f64; 4],
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Acknowledged appends: (data_version, rows).
    appended: Vec<(u64, Vec<Vec<String>>)>,
    errors: Vec<String>,
    spans: Vec<(String, String, Instant, Instant)>,
}

fn ok_field(json: &Json) -> bool {
    json.get("ok").and_then(Json::as_bool) == Some(true)
}

fn int_field(json: &Json, path: &[&str]) -> Option<i128> {
    path.iter().try_fold(json, |j, key| j.get(key))?.as_i128()
}

fn run_client(
    addr: &str,
    mut script: Script,
    client: usize,
    deadline: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            // Counted as one failed request.
            log.errors.push(e);
            log.samples.push(Sample {
                append: false,
                latency_s: 0.0,
                bytes: 0,
                ok: false,
                trace_id: None,
                counts: [0.0; 4],
            });
            return log;
        }
    };
    let mut index = 0u64;
    while Instant::now() < deadline {
        let step = script.next().expect("the script is endless");
        let trace_id = trace.then(|| format!("c{client}-{index}"));
        index += 1;
        let line = step.line(trace_id.as_deref());
        let started = Instant::now();
        let response = conn.round_trip(&line);
        let latency_s = started.elapsed().as_secs_f64();
        let append = matches!(step, Step::Append { .. });
        let text = match response {
            Ok(text) => text,
            Err(e) => {
                log.errors.push(format!("request {index}: {e}"));
                log.samples.push(Sample {
                    append,
                    latency_s,
                    bytes: 0,
                    ok: false,
                    trace_id,
                    counts: [0.0; 4],
                });
                break;
            }
        };
        if trace {
            let name = if append { "serve.append" } else { "serve.mine" };
            log.spans.push((
                name.to_string(),
                trace_id.clone().unwrap_or_default(),
                started,
                Instant::now(),
            ));
        }
        let json = Json::parse(text.trim_end()).ok();
        let mut ok = json.as_ref().is_some_and(ok_field);
        let mut counts = [0.0; 4];
        if let (Some(json), Step::Append { rows }) = (&json, &step) {
            match int_field(json, &["data_version"]).and_then(|v| u64::try_from(v).ok()) {
                Some(version) if ok => log.appended.push((version, rows.clone())),
                _ => ok = false,
            }
        } else if let Some(json) = &json {
            ok &= json.get("truncated").and_then(Json::as_bool) == Some(false);
            let result = json.get("result");
            let stat = |key: &str| {
                result.and_then(|r| int_field(r, &["mvds", "stats", key])).unwrap_or(0) as f64
            };
            let len = |path: &[&str]| {
                result
                    .and_then(|r| path.iter().try_fold(r, |j, k| j.get(k)))
                    .and_then(Json::as_array)
                    .map_or(0.0, |a| a.len() as f64)
            };
            counts = [
                stat("lattice_nodes_explored"),
                stat("transversals_tested"),
                len(&["mvds", "mvds"]),
                len(&["schemas"]),
            ];
        }
        if !ok {
            log.errors.push(format!("request {index}: {}", text.trim_end()));
        }
        log.samples.push(Sample { append, latency_s, bytes: text.len(), ok, trace_id, counts });
    }
    log
}

/// One histogram of the server's `metrics` op, summed over the label sets
/// that carry `label` (all of them when it is `None`).
#[derive(Clone, Debug, Default)]
struct Hist {
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Hist {
    fn from_metrics(metrics: &Json, name: &str, label: Option<(&str, &str)>) -> Hist {
        let mut h = Hist::default();
        for entry in metrics.get("metrics").and_then(Json::as_array).unwrap_or(&[]) {
            if entry.get("name").and_then(Json::as_str) != Some(name) {
                continue;
            }
            if let Some((key, want)) = label {
                let labels = entry.get("labels");
                if labels.and_then(|l| l.get(key)).and_then(Json::as_str) != Some(want) {
                    continue;
                }
            }
            let Some(value) = entry.get("value") else { continue };
            let buckets = value.get("buckets").and_then(Json::as_array).unwrap_or(&[]);
            if h.buckets.len() < buckets.len() {
                h.buckets.resize(buckets.len(), 0);
            }
            for (slot, b) in h.buckets.iter_mut().zip(buckets) {
                *slot += b.as_i128().unwrap_or(0) as u64;
            }
            h.sum += int_field(value, &["sum"]).unwrap_or(0) as u64;
            h.count += int_field(value, &["count"]).unwrap_or(0) as u64;
        }
        h
    }

    fn minus(&self, before: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        Hist {
            buckets,
            sum: self.sum.saturating_sub(before.sum),
            count: self.count.saturating_sub(before.count),
        }
    }

    fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64 / 1e6)
    }

    /// Median in ms, interpolated linearly inside its log2 bucket (bucket
    /// `i ≥ 1` holds `[2^(i-1), 2^i - 1]` ns).
    fn p50_ms(&self) -> Option<f64> {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let target = total.div_ceil(2);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && below + n >= target {
                let (lo, hi) = if i == 0 {
                    (0.0, 0.0)
                } else {
                    (2f64.powi(i as i32 - 1), 2f64.powi(i as i32) - 1.0)
                };
                let frac = (target - below) as f64 / n as f64;
                return Some((lo + (hi - lo) * frac) / 1e6);
            }
            below += n;
        }
        None
    }
}

/// Server-side counters read through the `stats` and `metrics` ops.
struct ServerView {
    metrics: Json,
    oracle: OracleStats,
    cached_plis: f64,
    errors: f64,
    shed: f64,
}

/// Reads the counters on a connection of its own, which it closes again so
/// that it holds no server worker. A counter missing from the responses
/// reads as zero: these feed per-layer metrics only.
fn server_view(addr: &str) -> Result<ServerView, String> {
    let mut conn = Conn::open(addr)?;
    let metrics = conn.request("{\"op\":\"metrics\"}\n")?;
    let stats = conn.request("{\"op\":\"stats\"}\n")?;
    let dataset = stats
        .get("datasets")
        .and_then(Json::as_array)
        .and_then(|d| d.iter().find(|x| x.get("name").and_then(Json::as_str) == Some(DATASET)));
    let num =
        |j: Option<&Json>, path: &[&str]| j.and_then(|j| int_field(j, path)).unwrap_or(0) as f64;
    Ok(ServerView {
        oracle: dataset
            .and_then(|d| d.get("oracle"))
            .and_then(|o| OracleStats::from_json(o).ok())
            .unwrap_or_default(),
        cached_plis: num(dataset, &["cached_plis"]),
        errors: num(Some(&stats), &["requests", "errors"]),
        shed: num(Some(&stats), &["admission", "shed_tenant_cap"])
            + num(Some(&stats), &["admission", "shed_queue_full"]),
        metrics,
    })
}

/// Trace ids whose server-side stage breakdown is nonzero (the request
/// computed something rather than hitting the cache).
fn cold_trace_ids(log: &Path) -> (BTreeSet<String>, usize) {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let mut cold = BTreeSet::new();
    let mut lines = 0;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(json) = Json::parse(line) else { continue };
        if json.get("event").and_then(Json::as_str) != Some("slow_request") {
            continue;
        }
        lines += 1;
        let busy = json.get("stages").and_then(Json::as_object).is_some_and(|stages| {
            stages.iter().any(|(_, d)| {
                int_field(d, &["secs"]).unwrap_or(0) > 0
                    || int_field(d, &["nanos"]).unwrap_or(0) > 0
            })
        });
        if busy {
            if let Some(id) = json.get("trace_id").and_then(Json::as_str) {
                cold.insert(id.to_string());
            }
        }
    }
    (cold, lines)
}

/// Runs `serve_mixed` for a `seconds` window.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    server_bin: &Path,
) -> Result<Run, String> {
    let mut run = Run::new("serve_mixed", seed, trace, seconds);
    let base = maimon_datasets::nursery();
    let domains: Arc<Vec<Vec<String>>> =
        Arc::new((0..base.arity()).map(|c| base.column_values(c).to_vec()).collect());
    let csv = work.join(format!("serve_mixed-seed{seed}.csv"));
    inputs::write_shuffled_csv(&base, seed, &csv).map_err(|e| e.to_string())?;
    drop(base);

    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        // Each start is a fresh data dir: parse, durable seed, oracle build.
        drop(server.take());
        let t = Instant::now();
        let started = Server::start(server_bin, &csv, work, k, trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        run.span("setup", "run", None, t);
        server = Some(started);
    }
    let mut server = server.expect("at least one server started");
    run.set_median("setup_s", &setup_s);
    run.raw.insert("setup_s", setup_s);

    let before = if trace { Some(server_view(&server.addr)?) } else { None };

    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let script = Script::new(seed, c, Arc::clone(&domains));
                let addr = server.addr.clone();
                scope.spawn(move || run_client(&addr, script, c, deadline, trace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let window_s = window_start.elapsed().as_secs_f64();

    if let Some(mib) = peak_rss_mib(Some(server.child.id())) {
        run.set("peak_rss_mib", mib);
    }
    let after = if trace { Some(server_view(&server.addr)?) } else { None };

    // Final reads at every threshold, after the last append.
    let mut control = Conn::open(&server.addr)?;
    let mut served = Vec::new();
    for &eps in &EPSILONS {
        run.attempted += 1;
        let response = control.request(&Step::Mine { epsilon: eps }.line(None))?;
        let version = int_field(&response, &["data_version"]);
        match response.get("result").map(MaimonResult::from_json) {
            Some(Ok(result)) if ok_field(&response) => served.push((eps, version, result)),
            _ => {
                run.failed += 1;
                run.notes.push(format!("final mine at eps={eps} failed: {response}"));
            }
        }
    }
    drop(control);
    server.stop();

    // Client-side numbers.
    let mut mine_s = Vec::new();
    let mut append_s = Vec::new();
    let mut bytes = Vec::new();
    let mut appended = Vec::new();
    let mut client_counts = Vec::new();
    for (c, log) in logs.into_iter().enumerate() {
        for sample in &log.samples {
            run.attempted += 1;
            // A failed request counts in failed_frac, not in the latencies.
            if !sample.ok {
                run.failed += 1;
            } else if sample.append {
                append_s.push(sample.latency_s);
            } else {
                mine_s.push(sample.latency_s);
                bytes.push(sample.bytes as f64);
            }
        }
        for error in log.errors.iter().take(5) {
            run.notes.push(format!("client {c}: {error}"));
        }
        for (name, trace_id, start, end) in &log.spans {
            run.spans.push(crate::report::SpanRecord {
                name: name.clone(),
                parent: format!("client-{c}"),
                trace_id: Some(trace_id.clone()),
                start_s: start.duration_since(run.started).as_secs_f64(),
                end_s: end.duration_since(run.started).as_secs_f64(),
            });
        }
        if trace {
            client_counts.extend(
                log.samples.iter().filter(|s| !s.append).map(|s| (s.trace_id.clone(), s.counts)),
            );
        }
        appended.extend(log.appended);
    }
    let requests = (mine_s.len() + append_s.len()) as f64;
    run.set_median("mine_s", &mine_s);
    let ms = |v: &[f64]| v.iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let (mine_ms, append_ms) = (ms(&mine_s), ms(&append_s));
    run.set_median("mine_p50_ms", &mine_ms);
    run.set_median("append_p50_ms", &append_ms);
    for (name, samples, p) in [("mine_p99_ms", &mine_ms, 99.0), ("append_p80_ms", &append_ms, 80.0)]
    {
        match percentile(samples, p) {
            Some(v) => run.set(name, v),
            None => run.notes.push(format!(
                "{name} refused: {} samples leave fewer than 10 beyond p{p}",
                samples.len()
            )),
        }
    }
    for (op, samples) in [("mine", &mine_ms), ("append", &append_ms)] {
        let tail = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0]
            .into_iter()
            .find_map(|p| percentile(samples, p).map(|v| (p, v)));
        if let Some((p, v)) = tail {
            run.notes.push(format!(
                "{op}: highest percentile with 10 samples beyond it is p{p} = {v:.3} ms ({} samples)",
                samples.len()
            ));
        }
    }
    run.set("throughput_rps", requests / window_s);
    run.notes.push(format!(
        "{} mines, {} appends over {window_s:.2} s from {CLIENTS} closed-loop clients",
        mine_ms.len(),
        append_ms.len()
    ));
    run.raw.insert("mine_ms", mine_ms);
    run.raw.insert("append_ms", append_ms);

    if let (Some(before), Some(after)) = (before, after) {
        serve_layers(&mut run, &before, &after, &bytes, &server.log, &client_counts);
    }

    verify(&mut run, &csv, appended, &served)?;
    let _ = std::fs::remove_file(&csv);
    Ok(run)
}

/// Per-layer metrics from the server's counters and its per-request log.
fn serve_layers(
    run: &mut Run,
    before: &ServerView,
    after: &ServerView,
    bytes: &[f64],
    log: &Path,
    client_counts: &[(Option<String>, [f64; 4])],
) {
    let hist = |name: &str, label: Option<(&str, &str)>| {
        let before = Hist::from_metrics(&before.metrics, name, label);
        Hist::from_metrics(&after.metrics, name, label).minus(&before)
    };
    let mine = hist("maimon_request_duration_ns", Some(("op", "mine")));
    let append = hist("maimon_request_duration_ns", Some(("op", "append")));
    let wal = hist("maimon_wal_append_duration_ns", None);
    if let Some(v) = mine.mean_ms() {
        run.set("serve.mine_dispatch_mean_ms", v);
    }
    if let Some(p50) = mine.p50_ms() {
        run.set("serve.mine_dispatch_p50_ms", p50);
        if let Some(&client_p50) = run.values.get("mine_p50_ms") {
            let gap = client_p50 - p50;
            run.set("serve.mine_wire_gap_p50_ms", gap);
            run.check(
                "wire_gap_dominates_mine_p50",
                gap >= 0.9 * client_p50,
                false,
                format!("wire gap {gap:.3} ms of a {client_p50:.3} ms client p50"),
            );
        }
    }
    if let Some(v) = append.mean_ms() {
        run.set("serve.append_dispatch_mean_ms", v);
    }
    if let Some(v) = wal.mean_ms() {
        run.set("storage.wal_append_mean_ms", v);
    }
    if !bytes.is_empty() {
        run.set("serve.response_bytes_mean", bytes.iter().sum::<f64>() / bytes.len() as f64);
    }
    for (name, stage) in [
        ("core.minsep_s", "mine_min_seps"),
        ("core.full_mvds_s", "full_mvds"),
        ("hypergraph.transversal_s", "transversal"),
        ("core.reduce_s", "reduce"),
        ("core.measure_s", "measure"),
    ] {
        let busy = hist("maimon_stage_duration_ns", Some(("stage", stage)));
        run.set(name, busy.sum as f64 / 1e9);
    }
    let mut values = BTreeMap::new();
    oracle_layers(&mut values, &after.oracle, &before.oracle);
    for (name, v) in values {
        run.set(name, v);
    }
    run.set("entropy.cached_plis", after.cached_plis);
    run.set("storage.page_misses", 0.0);
    run.set("storage.page_hit_rate", 0.0);
    run.set("serve.errors", after.errors - before.errors);
    run.set("serve.shed", after.shed - before.shed);

    let (cold, lines) = cold_trace_ids(log);
    let mines = client_counts.len();
    let mut totals = [0.0; 4];
    let mut cold_mines = 0usize;
    for (id, counts) in client_counts {
        if id.as_ref().is_some_and(|id| cold.contains(id)) {
            cold_mines += 1;
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
    }
    run.set("serve.cold_mine_frac", cold_mines as f64 / mines.max(1) as f64);
    for (name, total) in
        ["core.lattice_nodes", "core.transversals_tested", "core.mvds_found", "core.schemas_found"]
            .into_iter()
            .zip(totals)
    {
        run.set(name, total);
    }
    if totals[0] > 0.0 {
        run.set("core.mvd_yield", totals[2] / totals[0]);
    }
    run.notes.push(format!(
        "{lines} server request lines joined on trace_id; {cold_mines} of {mines} mines were cold"
    ));
}

/// Rebuilds the final relation from the acknowledged appends and compares
/// each served result with a direct session on it.
fn verify(
    run: &mut Run,
    csv: &Path,
    mut appended: Vec<(u64, Vec<Vec<String>>)>,
    served: &[(f64, Option<i128>, MaimonResult)],
) -> Result<(), String> {
    appended.sort_by_key(|(version, _)| *version);
    let text = std::fs::read_to_string(csv).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut rel = relation_from_csv(&text, CsvOptions::default()).map_err(|e| e.to_string())?;
    run.set("relation.csv_parse_s", t.elapsed().as_secs_f64());
    let base = rel.data_version();
    let contiguous = appended.iter().enumerate().all(|(i, (v, _))| *v == base + 1 + i as u64);
    run.check(
        "append_versions_contiguous",
        contiguous,
        true,
        format!("{} acknowledged appends after base version {base}", appended.len()),
    );
    for (_, rows) in &appended {
        rel.append_rows(rows).map_err(|e| e.to_string())?;
    }
    let final_version = rel.data_version();
    let t = Instant::now();
    let session =
        MaimonSession::new(rel, MaimonConfig::with_epsilon(0.05)).map_err(|e| e.to_string())?;
    run.set("entropy.oracle_build_s", t.elapsed().as_secs_f64());
    let mut digests = Digest::default();
    for (eps, version, result) in served {
        let direct = session.quality(*eps).map_err(|e| e.to_string())?;
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.result(result);
        b.result(&direct);
        digests.result(result);
        let same = a.hex() == b.hex() && *version == Some(final_version as i128);
        run.check(
            &format!("served_equals_direct_eps_{eps}"),
            same,
            true,
            format!(
                "served digest {} at version {version:?}, direct {} at version {final_version}",
                a.hex(),
                b.hex()
            ),
        );
    }
    run.digest = Some(digests.hex());
    Ok(())
}
