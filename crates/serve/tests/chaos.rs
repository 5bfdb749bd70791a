//! Fault-injection ("chaos") suite for the serving stack: every test arms a
//! failpoint on the process-global [`maimon::storage::fault`] injector and
//! proves the server degrades gracefully — a well-formed error envelope for
//! the faulted request, continued service for everything else, and zero
//! process aborts.
//!
//! The injector is process-global, so the tests serialize on a static mutex
//! and disarm their failpoints before releasing it; each also scopes its
//! failpoint to a test-unique dataset name where the site allows it.

use maimon::json::Json;
use maimon::obs;
use maimon::storage::fault;
use maimon::MaimonConfig;
use maimon_datasets::running_example;
use serve::{serve, AdmissionConfig, DatasetRegistry, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests in this binary: failpoints are process-global, so
/// two tests arming/consuming them concurrently would race.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test must not wedge the rest of the suite.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start_server(registry: Arc<DatasetRegistry>) -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        admission: AdmissionConfig::default(),
        ..ServerConfig::default()
    };
    serve(registry, config).unwrap()
}

/// One-shot request: connect, send one line, read one line.
fn roundtrip(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn assert_error(response: &Json, kind: &str, needle: &str) {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{response}");
    assert_eq!(response.get("kind").and_then(Json::as_str), Some(kind), "{response}");
    let message = response.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains(needle), "expected {needle:?} in {response}");
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maimon-chaos-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn panicking_request_returns_internal_envelope_and_server_survives() {
    let _guard = fault_lock();
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("running", running_example(), MaimonConfig::default()).unwrap();
    let handle = start_server(registry);
    let addr = handle.local_addr();

    // The next mine panics inside the handler; the envelope keeps its
    // trace_id and names the panic, and the worker thread survives.
    fault::global().arm("request_panic@mine", 0, 1);
    let panicked =
        roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0,"trace_id":"chaos-1"}"#);
    fault::global().disarm("request_panic@mine");
    assert_error(&panicked, "internal", "panicked");
    assert_eq!(panicked.get("trace_id").and_then(Json::as_str), Some("chaos-1"), "{panicked}");

    // Same worker pool keeps serving: liveness and a real mine both succeed.
    let pong = roundtrip(addr, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true), "{pong}");
    let mined = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(mined.get("ok").and_then(Json::as_bool), Some(true), "{mined}");

    // The panic is visible in the Prometheus exposition.
    let scrape = obs::render_prometheus(&handle.metrics());
    assert!(
        scrape.contains(r#"maimon_requests_panicked_total{op="mine"}"#),
        "missing panic counter in {scrape}"
    );

    handle.shutdown();
}

#[test]
fn csv_read_fault_at_mount_refuses_one_dataset_and_spares_the_rest() {
    let _guard = fault_lock();

    // A file-backed dataset read through a tiny buffer, so the mount reads
    // the stream many times.
    let mut csv = String::from("a,b,c\n");
    for i in 0..64 {
        csv.push_str(&format!("a{},b{},c{}\n", i % 5, (i / 2) % 7, i % 3));
    }
    let reader = BufReader::with_capacity(16, csv.as_bytes());

    let registry = Arc::new(DatasetRegistry::new());
    registry.register("running", running_example(), MaimonConfig::default()).unwrap();
    // The mount is the one time a dataset's file is read: a failing read
    // there (the fifth) is a typed storage error, and nothing is registered.
    fault::global().arm("csv_read@chaos-paged", 4, u64::MAX);
    let mounted = registry.register_csv("chaos-paged", reader, MaimonConfig::default());
    fault::global().disarm("csv_read@chaos-paged");
    match mounted {
        Err(maimon::MaimonError::Storage(message)) => {
            assert!(message.contains("csv_read"), "{message}")
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
    assert_eq!(registry.names(), vec!["running".to_string()]);

    // Every other dataset is untouched, and the refused one is unknown.
    let handle = start_server(registry);
    let addr = handle.local_addr();
    let refused = roundtrip(addr, r#"{"op":"mine","dataset":"chaos-paged","epsilon":0.0}"#);
    assert_error(&refused, "not_found", "unknown dataset");
    let healthy = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(healthy.get("ok").and_then(Json::as_bool), Some(true), "{healthy}");

    handle.shutdown();
}

#[test]
fn connection_drop_failpoint_severs_one_connection_only() {
    let _guard = fault_lock();
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("running", running_example(), MaimonConfig::default()).unwrap();
    let handle = start_server(registry);
    let addr = handle.local_addr();

    // The next response is dropped mid-flight: the client sees EOF, not a
    // partial or corrupt line.
    fault::global().arm("conn_drop", 0, 1);
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, r#"{{"op":"ping"}}"#).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader.read_line(&mut response).unwrap();
    fault::global().disarm("conn_drop");
    assert_eq!(n, 0, "dropped connection must yield EOF, got {response:?}");

    // The next connection is served normally.
    let pong = roundtrip(addr, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true), "{pong}");

    handle.shutdown();
}

#[test]
fn bad_request_append_writes_nothing_to_the_wal() {
    let _guard = fault_lock();
    let dir = tmp_dir("badreq");
    let registry = Arc::new(DatasetRegistry::new());
    registry.register_durable("running", running_example(), MaimonConfig::default(), &dir).unwrap();
    let handle = start_server(registry);
    let addr = handle.local_addr();

    let wal = dir.join("running").join("wal.bin");
    let bare_magic = std::fs::metadata(&wal).unwrap().len();

    // Wrong arity → bad_request, and the WAL is exactly as long as before.
    let rejected = roundtrip(addr, r#"{"op":"append","dataset":"running","rows":[["onlyone"]]}"#);
    assert_error(&rejected, "bad_request", "row has");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), bare_magic, "bad_request wrote to WAL");

    // A valid append is fsync'd to the WAL before the ack goes out.
    let accepted = roundtrip(
        addr,
        r#"{"op":"append","dataset":"running","rows":[["a1","b2","c1","d2","e2","f1"]]}"#,
    );
    assert_eq!(accepted.get("ok").and_then(Json::as_bool), Some(true), "{accepted}");
    assert!(std::fs::metadata(&wal).unwrap().len() > bare_magic, "acked append missing from WAL");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_write_failure_refuses_the_ack_but_keeps_the_dataset_mineable() {
    let _guard = fault_lock();
    let dir = tmp_dir("walfail");
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_durable("walfail-ds", running_example(), MaimonConfig::default(), &dir)
        .unwrap();
    let handle = start_server(registry);
    let addr = handle.local_addr();

    // The WAL write fails mid-record: no ack, a typed internal error.
    fault::global().arm("wal_write@walfail-ds", 0, 1);
    let refused = roundtrip(
        addr,
        r#"{"op":"append","dataset":"walfail-ds","rows":[["a1","b2","c1","d2","e2","f1"]]}"#,
    );
    fault::global().disarm("wal_write@walfail-ds");
    assert_error(&refused, "internal", "append could not be made durable");

    // The WAL is fail-stop after a write error: later appends are refused
    // until a restart re-establishes a clean log...
    let still_refused = roundtrip(
        addr,
        r#"{"op":"append","dataset":"walfail-ds","rows":[["a2","b1","c2","d1","e1","f2"]]}"#,
    );
    assert_error(&still_refused, "internal", "append could not be made durable");

    // ...but reads never stop: the dataset still mines.
    let mined = roundtrip(addr, r#"{"op":"mine","dataset":"walfail-ds","epsilon":0.0}"#);
    assert_eq!(mined.get("ok").and_then(Json::as_bool), Some(true), "{mined}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
