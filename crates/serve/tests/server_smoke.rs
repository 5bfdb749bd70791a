//! Smoke test of the `maimon-served` binary: boots on a loopback port,
//! answers mine/stats requests over TCP, serves Prometheus text over the
//! `--metrics-addr` HTTP listener, and shuts down cleanly (exit 0,
//! farewell line) on SIGTERM. Unix-only, like the signal plumbing it tests.
#![cfg(unix)]

use maimon::json::Json;
use maimon::wire::FromJson;
use maimon::MaimonResult;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn roundtrip(addr: &str, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn wait_for_exit(child: &mut Child, budget: Duration) -> Option<std::process::ExitStatus> {
    let start = Instant::now();
    while start.elapsed() < budget {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    None
}

/// Plain HTTP/1.1 GET against the metrics listener; returns the full
/// response (status line, headers, body) as one string.
fn http_get(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// A running `maimon-served`, killed on drop so that a failing assertion
/// does not leave it listening.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Served {
    /// Boots `maimon-served` on a loopback port with `args`. Once bound it
    /// prints `maimon-served metrics on ADDR` (with `--metrics-addr`) then
    /// `maimon-served listening on ADDR`; returns the server, its address
    /// and the metrics address, if any.
    fn boot(args: &[&str]) -> (Served, String, Option<String>) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_maimon-served"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("maimon-served spawns");
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let mut served = Served { child, stdout };
        let metrics_addr =
            args.contains(&"--metrics-addr").then(|| served.banner("maimon-served metrics on "));
        let addr = served.banner("maimon-served listening on ");
        (served, addr, metrics_addr)
    }

    /// Reads one stdout line and returns what follows `prefix` in it.
    fn banner(&mut self, prefix: &str) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).unwrap();
        line.trim()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("expected {prefix:?}, got {line:?}"))
            .to_string()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn served_binary_boots_serves_and_stops_on_sigterm() {
    let (mut served, addr, metrics_addr) =
        Served::boot(&["--metrics-addr", "127.0.0.1:0", "--demo"]);
    let metrics_addr = metrics_addr.unwrap();

    // Liveness, a real mine, and the stats counters over the live socket.
    let pong = roundtrip(&addr, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    let mined = roundtrip(&addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(mined.get("ok").and_then(Json::as_bool), Some(true), "{mined}");
    assert_eq!(mined.get("truncated").and_then(Json::as_bool), Some(false));
    let v0 = mined.get("data_version").and_then(Json::as_i128).unwrap();

    // Append over the live socket: version bumps and the next mine sees it.
    let appended = roundtrip(
        &addr,
        r#"{"op":"append","dataset":"running","rows":[["a1","b2","c1","d2","e2","f1"]]}"#,
    );
    assert_eq!(appended.get("ok").and_then(Json::as_bool), Some(true), "{appended}");
    assert_eq!(appended.get("data_version").and_then(Json::as_i128), Some(v0 + 1));
    let remined = roundtrip(&addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(remined.get("ok").and_then(Json::as_bool), Some(true), "{remined}");
    assert_eq!(remined.get("data_version").and_then(Json::as_i128), Some(v0 + 1));

    let stats = roundtrip(&addr, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let requests = stats.get("requests").unwrap();
    assert_eq!(requests.get("mine").and_then(Json::as_i128), Some(2));
    assert_eq!(requests.get("ping").and_then(Json::as_i128), Some(1));
    assert_eq!(requests.get("append").and_then(Json::as_i128), Some(1));
    assert_eq!(requests.get("rows_appended").and_then(Json::as_i128), Some(1));
    let registry = stats.get("registry").unwrap();
    assert_eq!(registry.get("datasets").and_then(Json::as_i128), Some(2), "--demo registers two");

    // The metrics listener answers plain HTTP GET with Prometheus text
    // exposition that reflects the requests served above.
    let scrape = http_get(&metrics_addr);
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "bad status: {scrape}");
    assert!(scrape.contains("Content-Type: text/plain"), "bad content type: {scrape}");
    assert!(scrape.contains("# TYPE maimon_request_duration_ns histogram"), "{scrape}");
    assert!(scrape.contains("maimon_request_duration_ns_bucket"), "{scrape}");
    assert!(scrape.contains(r#"op="mine""#), "{scrape}");

    // SIGTERM → clean shutdown: exit code 0 and the farewell line.
    let pid = served.child.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    assert!(kill.success());

    let status = wait_for_exit(&mut served.child, Duration::from_secs(10))
        .expect("maimon-served exits within 10s of SIGTERM");
    assert!(status.success(), "expected clean exit, got {status:?}");

    let mut rest = String::new();
    served.stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("maimon-served stopped"), "missing farewell, got {rest:?}");
}

#[test]
fn both_mount_flags_serve_the_same_data() {
    // Fig. 1 with its red tuple, two of its rows repeated: kept as a bag,
    // the repeats would change every entropy and so every J.
    let path = std::env::temp_dir().join(format!("maimon-mounts-{}.csv", std::process::id()));
    let mut text = String::from("A,B,C,D,E,F\n");
    for row in [
        "a1,b1,c1,d1,e1,f1",
        "a2,b2,c1,d1,e2,f2",
        "a2,b2,c2,d2,e3,f2",
        "a1,b2,c1,d2,e3,f1",
        "a1,b2,c1,d2,e2,f1",
        "a1,b1,c1,d1,e1,f1",
        "a2,b2,c2,d2,e3,f2",
        "a2,b2,c2,d2,e3,f2",
    ] {
        text.push_str(row);
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    let file = path.to_str().unwrap();
    let (_served, addr, _) = Served::boot(&[
        "--dataset",
        &format!("flat={file}"),
        "--paged-dataset",
        &format!("streamed={file}"),
    ]);

    for epsilon in [0.0, 0.1, 0.3] {
        let mine = |dataset: &str| {
            let line = format!(r#"{{"op":"mine","dataset":"{dataset}","epsilon":{epsilon}}}"#);
            let response = roundtrip(&addr, &line);
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response}");
            MaimonResult::from_json(response.get("result").unwrap()).unwrap()
        };
        let (flat, streamed) = (mine("flat"), mine("streamed"));
        assert_eq!(flat.mvds.mvds, streamed.mvds.mvds, "ε = {epsilon}");
        assert_eq!(flat.mvds.separators, streamed.mvds.separators, "ε = {epsilon}");
        assert_eq!(flat.schemas, streamed.schemas, "ε = {epsilon}");
        assert_eq!(flat.pareto, streamed.pareto, "ε = {epsilon}");
        assert_eq!(flat.truncated, streamed.truncated, "ε = {epsilon}");
    }
    let list = roundtrip(&addr, r#"{"op":"list"}"#);
    let datasets = list.get("datasets").and_then(Json::as_array).unwrap();
    let rows: Vec<_> = datasets.iter().map(|d| d.get("rows").and_then(Json::as_i128)).collect();
    assert_eq!(rows, vec![Some(5), Some(5)], "{list}");
    std::fs::remove_file(&path).unwrap();
}
