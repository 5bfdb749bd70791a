//! End-to-end tests of the TCP serving layer: concurrent clients get
//! bit-identical results to direct library calls, deadlines truncate
//! rather than error, admission control sheds with explicit responses, and
//! the `stats` counters add up to the requests actually sent.

use maimon::json::Json;
use maimon::relation::{relation_from_csv, CsvOptions, Relation};
use maimon::wire::FromJson;
use maimon::{decompose::ReducerStats, MaimonConfig, MaimonResult, MaimonSession};
use maimon_datasets::{dataset_by_name, running_example, running_example_with_red_tuple};
use serve::{serve, AdmissionConfig, DatasetRegistry, ServerConfig, ServerHandle};
use serve::{MAX_TENANTS, MAX_TENANT_BYTES, OTHER_TENANT};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn bridges() -> Relation {
    dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8).unwrap()
}

fn start_server(admission: AdmissionConfig, datasets: &[(&str, Relation)]) -> ServerHandle {
    let registry = Arc::new(DatasetRegistry::new());
    for (name, rel) in datasets {
        registry.register(*name, rel.clone(), MaimonConfig::default()).unwrap();
    }
    let config = ServerConfig { workers: 4, admission, ..ServerConfig::default() };
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

fn assert_ok(response: &Json, op: &str) {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response}");
    assert_eq!(response.get("op").and_then(Json::as_str), Some(op), "{response}");
    assert_eq!(response.get("format_version").and_then(Json::as_i128), Some(1), "{response}");
}

/// Equality modulo wall-clock fields (elapsed, cumulative oracle counters) —
/// the same idiom as the core `parallel_equivalence` suite.
fn assert_same_mining(served: &MaimonResult, direct: &MaimonResult, label: &str) {
    assert_eq!(served.mvds.mvds, direct.mvds.mvds, "{label}");
    assert_eq!(served.mvds.separators, direct.mvds.separators, "{label}");
    assert_eq!(served.schemas, direct.schemas, "{label}");
    assert_eq!(served.pareto, direct.pareto, "{label}");
    assert_eq!(served.truncated, direct.truncated, "{label}");
}

#[test]
fn ping_and_list_roundtrip() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();

    let pong = roundtrip(addr, r#"{"op":"ping"}"#);
    assert_ok(&pong, "ping");

    let list = roundtrip(addr, r#"{"op":"list"}"#);
    assert_ok(&list, "list");
    let datasets = list.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].get("name").and_then(Json::as_str), Some("running"));
    assert_eq!(datasets[0].get("rows").and_then(Json::as_i128), Some(4));
    assert_eq!(datasets[0].get("attrs").and_then(Json::as_i128), Some(6));

    let bad = roundtrip(addr, r#"{"op":"warp"}"#);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"));

    handle.shutdown();
}

#[test]
fn concurrent_mines_match_direct_sessions_bit_for_bit() {
    let handle = start_server(AdmissionConfig::default(), &[("bridges", bridges())]);
    let addr = handle.local_addr();
    let epsilons = [0.0, 0.05, 0.1];

    // Six concurrent clients (each threshold requested twice) against the
    // one shared server session.
    let served: Vec<(f64, MaimonResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = epsilons
            .iter()
            .cycle()
            .take(6)
            .map(|&epsilon| {
                scope.spawn(move || {
                    let request = format!(
                        r#"{{"op":"mine","dataset":"bridges","epsilon":{epsilon},"tenant":"t{epsilon}"}}"#
                    );
                    let response = roundtrip(addr, &request);
                    assert_ok(&response, "mine");
                    let result =
                        MaimonResult::from_json(response.get("result").unwrap()).unwrap();
                    (epsilon, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The ground truth: a direct library session over the same relation and
    // configuration.
    let direct_session = MaimonSession::new(bridges(), MaimonConfig::default()).unwrap();
    for (epsilon, mined) in &served {
        let direct = direct_session.quality(*epsilon).unwrap();
        assert_same_mining(mined, &direct, &format!("epsilon {epsilon}"));
        assert!(!mined.truncated);
    }
    handle.shutdown();
}

#[test]
fn expired_deadline_yields_truncated_partial_not_error() {
    let handle = start_server(AdmissionConfig::default(), &[("bridges", bridges())]);
    let addr = handle.local_addr();

    let response =
        roundtrip(addr, r#"{"op":"mine","dataset":"bridges","epsilon":0.1,"timeout_ms":0}"#);
    assert_ok(&response, "mine");
    assert_eq!(response.get("truncated").and_then(Json::as_bool), Some(true), "{response}");
    // The partial is a well-formed result document, not a stub.
    let result = MaimonResult::from_json(response.get("result").unwrap()).unwrap();
    assert!(result.truncated);

    // Regression: the truncated partial stays private to the expired
    // request. It must not be latched into the dataset's shared session
    // cache, so a later request at the same threshold with no deadline is
    // served the complete result, identical to a direct library call.
    let full = roundtrip(addr, r#"{"op":"mine","dataset":"bridges","epsilon":0.1}"#);
    assert_ok(&full, "mine");
    assert_eq!(full.get("truncated").and_then(Json::as_bool), Some(false), "{full}");
    let served = MaimonResult::from_json(full.get("result").unwrap()).unwrap();
    let direct_session = MaimonSession::new(bridges(), MaimonConfig::default()).unwrap();
    let direct = direct_session.quality(0.1).unwrap();
    assert_same_mining(&served, &direct, "post-truncation epsilon 0.1");
    handle.shutdown();
}

#[test]
fn tenant_in_flight_cap_sheds_with_overloaded() {
    let admission = AdmissionConfig { max_in_flight_per_tenant: 0, max_queue_depth: 64 };
    let handle = start_server(admission, &[("running", running_example())]);
    let addr = handle.local_addr();

    let shed = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(shed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(shed.get("kind").and_then(Json::as_str), Some("overloaded"));

    // Non-mining operations are not subject to the cap.
    assert_ok(&roundtrip(addr, r#"{"op":"ping"}"#), "ping");

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    let admission_stats = stats.get("admission").unwrap();
    assert_eq!(admission_stats.get("shed_tenant_cap").and_then(Json::as_i128), Some(1));
    assert_eq!(admission_stats.get("admitted").and_then(Json::as_i128), Some(0));
    handle.shutdown();
}

#[test]
fn tenant_sheds_are_attributed_per_tenant() {
    // Regression: `stats` used to report `overloaded` sheds only as a
    // server-wide total; each shed must be attributed to the tenant whose
    // cap caused it.
    let admission = AdmissionConfig { max_in_flight_per_tenant: 0, max_queue_depth: 64 };
    let handle = start_server(admission, &[("running", running_example())]);
    let addr = handle.local_addr();

    for tenant in ["alice", "alice", "bob"] {
        let shed = roundtrip(
            addr,
            &format!(r#"{{"op":"mine","dataset":"running","epsilon":0.0,"tenant":"{tenant}"}}"#),
        );
        assert_eq!(shed.get("kind").and_then(Json::as_str), Some("overloaded"), "{shed}");
    }

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    let admission_stats = stats.get("admission").unwrap();
    assert_eq!(admission_stats.get("shed_tenant_cap").and_then(Json::as_i128), Some(3));
    let tenants = admission_stats.get("tenants").and_then(Json::as_array).unwrap();
    let shed_of = |name: &str| {
        tenants
            .iter()
            .find(|t| t.get("tenant").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("tenant {name} missing from {stats}"))
            .get("shed_tenant_cap")
            .and_then(Json::as_i128)
            .unwrap()
    };
    assert_eq!(shed_of("alice"), 2, "{stats}");
    assert_eq!(shed_of("bob"), 1, "{stats}");
    handle.shutdown();
}

#[test]
fn over_long_tenant_is_a_bad_request_and_creates_no_series() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();
    let mine_as = |tenant: &str| {
        roundtrip(
            addr,
            &format!(r#"{{"op":"mine","dataset":"running","epsilon":0.0,"tenant":"{tenant}"}}"#),
        )
    };

    assert_ok(&mine_as(&"k".repeat(MAX_TENANT_BYTES)), "mine");
    let long = "q".repeat(MAX_TENANT_BYTES + 1);
    let rejected = mine_as(&long);
    assert_eq!(rejected.get("kind").and_then(Json::as_str), Some("bad_request"), "{rejected}");

    let metrics = roundtrip(addr, r#"{"op":"metrics"}"#);
    assert_ok(&metrics, "metrics");
    assert!(!metrics.to_string().contains(&long), "{metrics}");
    handle.shutdown();
}

#[test]
fn distinct_tenant_labels_are_capped_and_the_server_keeps_serving() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();
    for i in 0..300 {
        let mined = roundtrip(
            addr,
            &format!(r#"{{"op":"mine","dataset":"running","epsilon":0.0,"tenant":"cycler-{i}"}}"#),
        );
        assert_ok(&mined, "mine");
    }

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    let tenants = stats
        .get("admission")
        .and_then(|admission| admission.get("tenants"))
        .and_then(Json::as_array)
        .unwrap();
    assert!(tenants.len() <= MAX_TENANTS + 1, "{} tenant entries", tenants.len());
    assert!(
        tenants.iter().any(|t| t.get("tenant").and_then(Json::as_str) == Some(OTHER_TENANT)),
        "{stats}"
    );
    // Metrics label the overflow the same way.
    let metrics = roundtrip(addr, r#"{"op":"metrics"}"#).to_string();
    assert!(!metrics.contains("cycler-299"));
    assert!(metrics.contains(&format!("\"tenant\":\"{OTHER_TENANT}\"")));

    assert_ok(&roundtrip(addr, r#"{"op":"ping"}"#), "ping");
    handle.shutdown();
}

#[test]
fn trace_ids_are_echoed_or_generated() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();

    // A client-provided trace ID is echoed verbatim, on successes and
    // failures alike.
    let echoed = roundtrip(addr, r#"{"op":"ping","trace_id":"cafe-0042"}"#);
    assert_ok(&echoed, "ping");
    assert_eq!(echoed.get("trace_id").and_then(Json::as_str), Some("cafe-0042"), "{echoed}");
    let failed = roundtrip(addr, r#"{"op":"warp","trace_id":"cafe-0043"}"#);
    assert_eq!(failed.get("trace_id").and_then(Json::as_str), Some("cafe-0043"), "{failed}");

    // Absent one, the server generates a 16-hex-digit ID, distinct per
    // request.
    let a = roundtrip(addr, r#"{"op":"ping"}"#);
    let b = roundtrip(addr, r#"{"op":"ping"}"#);
    let id_of = |json: &Json| json.get("trace_id").and_then(Json::as_str).unwrap().to_string();
    let (id_a, id_b) = (id_of(&a), id_of(&b));
    assert_eq!(id_a.len(), 16, "{a}");
    assert!(id_a.chars().all(|c| c.is_ascii_hexdigit()), "{a}");
    assert_ne!(id_a, id_b);
    handle.shutdown();
}

#[test]
fn metrics_op_exports_the_request_histograms() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();

    let mined = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_ok(&mined, "mine");

    let response = roundtrip(addr, r#"{"op":"metrics"}"#);
    assert_ok(&response, "metrics");
    let metrics = response.get("metrics").and_then(Json::as_array).unwrap();
    // The registry is process-wide (other tests in this binary contribute),
    // so assert presence and shape, not exact counts.
    let mine_latency = metrics
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some("maimon_request_duration_ns")
                && m.get("labels").and_then(|l| l.get("op")).and_then(Json::as_str) == Some("mine")
        })
        .unwrap_or_else(|| panic!("no mine-latency histogram in {response}"));
    assert_eq!(mine_latency.get("kind").and_then(Json::as_str), Some("histogram"));
    let value = mine_latency.get("value").unwrap();
    assert!(value.get("count").and_then(Json::as_i128).unwrap() >= 1, "{response}");
    assert!(value.get("sum").and_then(Json::as_i128).unwrap() > 0, "{response}");
    let buckets = value.get("buckets").and_then(Json::as_array).unwrap();
    assert!(!buckets.is_empty());

    // The per-pipeline-stage histograms recorded by the span layer are
    // exported too: the mine above must have timed at least one stage.
    assert!(
        metrics
            .iter()
            .any(|m| { m.get("name").and_then(Json::as_str) == Some("maimon_stage_duration_ns") }),
        "no stage histograms in {response}"
    );
    handle.shutdown();
}

#[test]
fn full_connection_queue_sheds_with_overloaded() {
    // A zero-depth queue sheds every connection deterministically at accept.
    let admission = AdmissionConfig { max_in_flight_per_tenant: 2, max_queue_depth: 0 };
    let handle = start_server(admission, &[("running", running_example())]);

    let response = roundtrip(handle.local_addr(), r#"{"op":"ping"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(response.get("kind").and_then(Json::as_str), Some("overloaded"));
    handle.shutdown();
}

#[test]
fn stats_counters_add_up() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();

    assert_ok(&roundtrip(addr, r#"{"op":"ping"}"#), "ping");
    assert_ok(&roundtrip(addr, r#"{"op":"ping"}"#), "ping");
    assert_ok(&roundtrip(addr, r#"{"op":"list"}"#), "list");
    assert_ok(&roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#), "mine");
    assert_ok(&roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.1}"#), "mine");
    let missing = roundtrip(addr, r#"{"op":"mine","dataset":"absent","epsilon":0.0}"#);
    assert_eq!(missing.get("kind").and_then(Json::as_str), Some("not_found"));
    let decomposed = roundtrip(addr, r#"{"op":"decompose","dataset":"running","epsilon":0.0}"#);
    assert_ok(&decomposed, "decompose");
    let bags = decomposed.get("bags").and_then(Json::as_i128).unwrap();
    let reducer = ReducerStats::from_json(decomposed.get("reducer").unwrap()).unwrap();
    // Yannakakis performs exactly 2(m−1) semijoins over an m-bag tree.
    assert_eq!(reducer.semijoins as i128, 2 * (bags - 1));

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert_ok(&stats, "stats");

    let requests = stats.get("requests").unwrap();
    let count = |key: &str| requests.get(key).and_then(Json::as_i128).unwrap();
    assert_eq!(count("ping"), 2);
    assert_eq!(count("list"), 1);
    assert_eq!(count("mine"), 3, "not-found mines still count as requests");
    assert_eq!(count("decompose"), 1);
    assert_eq!(count("errors"), 1, "exactly the not_found mine");
    assert_eq!(count("truncated"), 0);
    assert_eq!(count("stats"), 1, "this very request");

    // Registry lookups: 2 ok mines + 1 decompose = 3 hits; the absent
    // dataset is the single miss. The `list` and `stats` handlers read the
    // sessions without counting.
    let registry = stats.get("registry").unwrap();
    assert_eq!(registry.get("datasets").and_then(Json::as_i128), Some(1));
    assert_eq!(registry.get("session_hits").and_then(Json::as_i128), Some(3));
    assert_eq!(registry.get("session_misses").and_then(Json::as_i128), Some(1));

    // Admission: the three dataset-bound requests that found their dataset.
    let admission = stats.get("admission").unwrap();
    assert_eq!(admission.get("admitted").and_then(Json::as_i128), Some(3));
    assert_eq!(admission.get("shed_tenant_cap").and_then(Json::as_i128), Some(0));
    assert_eq!(admission.get("shed_queue_full").and_then(Json::as_i128), Some(0));

    // The server-wide reducer totals equal the one decompose we ran.
    let total = ReducerStats::from_json(stats.get("reducer").unwrap()).unwrap();
    assert_eq!(total, reducer);

    // Per-dataset oracle counters: mining happened, so the oracle was busy.
    let datasets = stats.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(datasets.len(), 1);
    let oracle = datasets[0].get("oracle").unwrap();
    assert!(oracle.get("calls").and_then(Json::as_i128).unwrap() > 0);
    let cached = datasets[0].get("cached_epsilons").and_then(Json::as_array).unwrap();
    assert_eq!(cached.len(), 2, "two thresholds were mined: {stats}");

    handle.shutdown();
}

#[test]
fn decompose_on_nursery_runs_the_full_reducer_over_several_bags() {
    // The running example decomposes into one bag (no semijoins) at every
    // threshold; Nursery at 0.1 gives a multi-bag tree, so the reducer and
    // its `stats` totals are exercised away from zero.
    let handle =
        start_server(AdmissionConfig::default(), &[("nursery", maimon_datasets::nursery())]);
    let addr = handle.local_addr();
    let decomposed = roundtrip(addr, r#"{"op":"decompose","dataset":"nursery","epsilon":0.1}"#);
    assert_ok(&decomposed, "decompose");
    let bags = decomposed.get("bags").and_then(Json::as_i128).unwrap();
    assert!(bags > 1, "{decomposed}");
    let reducer = ReducerStats::from_json(decomposed.get("reducer").unwrap()).unwrap();
    // Yannakakis performs exactly 2(m−1) semijoins over an m-bag tree.
    assert_eq!(reducer.semijoins as i128, 2 * (bags - 1));

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert_ok(&stats, "stats");
    let total = ReducerStats::from_json(stats.get("reducer").unwrap()).unwrap();
    assert_eq!(total, reducer);
    handle.shutdown();
}

/// Sum of the `metrics` response's counters named `name` whose labels
/// include every pair of `labels`.
fn series_total(metrics: &Json, name: &str, labels: &[(&str, &str)]) -> i128 {
    metrics
        .get("metrics")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|m| {
            m.get("name").and_then(Json::as_str) == Some(name)
                && labels.iter().all(|(k, v)| {
                    m.get("labels").and_then(|l| l.get(k)).and_then(Json::as_str) == Some(v)
                })
        })
        .map(|m| m.get("value").and_then(Json::as_i128).unwrap())
        .sum()
}

/// Every number of a `stats` response equals the matching series of the
/// same server's `metrics` response, taken just before it (so `stats`
/// counts one more `stats` request: itself).
fn assert_stats_view_metrics(stats: &Json, metrics: &Json) {
    let stat = |path: &[&str]| {
        let mut json = stats;
        for key in path {
            json = json.get(key).unwrap_or_else(|| panic!("no {path:?} in {stats}"));
        }
        json.as_i128().unwrap()
    };
    for op in ["ping", "list", "stats", "metrics", "mine", "decompose", "append", "invalid"] {
        let itself = i128::from(op == "stats");
        let series = series_total(metrics, "maimon_requests_total", &[("op", op)]);
        assert_eq!(stat(&["requests", op]), series + itself, "{op}: {stats}");
    }
    for (path, name, labels) in [
        (["requests", "rows_appended"], "maimon_rows_appended_total", &[][..]),
        (["requests", "truncated"], "maimon_responses_truncated_total", &[]),
        (["requests", "errors"], "maimon_request_errors_total", &[]),
        (["admission", "admitted"], "maimon_requests_admitted_total", &[]),
        (
            ["admission", "shed_tenant_cap"],
            "maimon_requests_shed_total",
            &[("reason", "tenant_cap")],
        ),
        (
            ["admission", "shed_queue_full"],
            "maimon_requests_shed_total",
            &[("reason", "queue_full")],
        ),
        (["reducer", "semijoins"], "maimon_reducer_semijoins_total", &[]),
        (["reducer", "bottom_up_removed"], "maimon_reducer_bottom_up_removed_total", &[]),
        (["reducer", "top_down_removed"], "maimon_reducer_top_down_removed_total", &[]),
        (["registry", "session_hits"], "maimon_registry_lookups_total", &[("outcome", "hit")]),
        (["registry", "session_misses"], "maimon_registry_lookups_total", &[("outcome", "miss")]),
    ] {
        assert_eq!(stat(&path), series_total(metrics, name, labels), "{path:?}: {stats}");
    }
    let tenants = stats.get("admission").and_then(|a| a.get("tenants")).and_then(Json::as_array);
    for entry in tenants.unwrap() {
        let tenant = entry.get("tenant").and_then(Json::as_str).unwrap();
        let field = |key: &str| entry.get(key).and_then(Json::as_i128).unwrap();
        let admitted =
            series_total(metrics, "maimon_requests_admitted_total", &[("tenant", tenant)]);
        let shed = series_total(
            metrics,
            "maimon_requests_shed_total",
            &[("reason", "tenant_cap"), ("tenant", tenant)],
        );
        assert_eq!((field("admitted"), field("shed_tenant_cap")), (admitted, shed), "{tenant}");
    }
}

#[test]
fn two_servers_keep_separate_registries_and_stats_is_a_view_over_metrics() {
    let a = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let shedding = AdmissionConfig { max_in_flight_per_tenant: 0, max_queue_depth: 64 };
    let b = start_server(shedding, &[("running", running_example())]);

    // Server A sees a little of everything.
    let addr = a.local_addr();
    assert_ok(&roundtrip(addr, r#"{"op":"ping"}"#), "ping");
    assert_ok(&roundtrip(addr, r#"{"op":"list"}"#), "list");
    let mine = r#"{"op":"mine","dataset":"running","epsilon":0.0,"tenant":"alice"}"#;
    assert_ok(&roundtrip(addr, mine), "mine");
    let expired =
        r#"{"op":"mine","dataset":"running","epsilon":0.3,"timeout_ms":0,"tenant":"alice"}"#;
    let expired = roundtrip(addr, expired);
    assert_eq!(expired.get("truncated").and_then(Json::as_bool), Some(true), "{expired}");
    let missing = roundtrip(addr, r#"{"op":"mine","dataset":"absent","epsilon":0.0}"#);
    assert_eq!(missing.get("kind").and_then(Json::as_str), Some("not_found"));
    let decompose = r#"{"op":"decompose","dataset":"running","epsilon":0.0}"#;
    let decomposed = roundtrip(addr, decompose);
    assert_ok(&decomposed, "decompose");
    let reducer = ReducerStats::from_json(decomposed.get("reducer").unwrap()).unwrap();
    let append = r#"{"op":"append","dataset":"running","rows":[["a1","b2","c1","d2","e2","f1"]],"tenant":"bob"}"#;
    assert_ok(&roundtrip(addr, append), "append");
    let garbage = roundtrip(addr, "not json");
    assert_eq!(garbage.get("kind").and_then(Json::as_str), Some("bad_request"));

    // Server B only sheds one mine.
    let shed = r#"{"op":"mine","dataset":"running","epsilon":0.0,"tenant":"carol"}"#;
    let shed = roundtrip(b.local_addr(), shed);
    assert_eq!(shed.get("kind").and_then(Json::as_str), Some("overloaded"), "{shed}");

    let view = |handle: &ServerHandle| {
        let metrics = roundtrip(handle.local_addr(), r#"{"op":"metrics"}"#);
        let stats = roundtrip(handle.local_addr(), r#"{"op":"stats"}"#);
        assert_ok(&stats, "stats");
        assert_stats_view_metrics(&stats, &metrics);
        (stats, metrics)
    };
    let (stats_a, metrics_a) = view(&a);
    let (stats_b, metrics_b) = view(&b);

    let count = |stats: &Json, section: &str, key: &str| {
        stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_i128).unwrap()
    };
    let a_requests =
        [("ping", 1), ("list", 1), ("mine", 3), ("decompose", 1), ("append", 1), ("invalid", 1)];
    for (op, n) in a_requests {
        assert_eq!(count(&stats_a, "requests", op), n, "A {op}: {stats_a}");
        assert_eq!(count(&stats_b, "requests", op), i128::from(op == "mine"), "B {op}: {stats_b}");
    }
    // Every line A received counts under exactly one op: the ten above,
    // with the `metrics` and `stats` of the view.
    let ops = ["ping", "list", "stats", "metrics", "mine", "decompose", "append", "invalid"];
    let a_total: i128 = ops.iter().map(|op| count(&stats_a, "requests", op)).sum();
    assert_eq!(a_total, 10, "{stats_a}");
    for (section, key, in_a, in_b) in [
        ("requests", "rows_appended", 1, 0),
        ("requests", "truncated", 1, 0),
        ("requests", "errors", 2, 0),
        ("admission", "admitted", 4, 0),
        ("admission", "shed_tenant_cap", 0, 1),
        ("registry", "session_hits", 4, 1),
        ("registry", "session_misses", 1, 0),
    ] {
        assert_eq!(count(&stats_a, section, key), in_a, "A {key}: {stats_a}");
        assert_eq!(count(&stats_b, section, key), in_b, "B {key}: {stats_b}");
    }
    let reducer_of = |stats: &Json| ReducerStats::from_json(stats.get("reducer").unwrap()).unwrap();
    assert_eq!(reducer_of(&stats_a), reducer);
    assert_eq!(reducer_of(&stats_b), ReducerStats::default());

    // Neither server's metrics carry the other's requests.
    let (metrics_a, metrics_b) = (metrics_a.to_string(), metrics_b.to_string());
    for tenant in ["alice", "bob"] {
        assert!(!metrics_b.contains(&format!("\"tenant\":\"{tenant}\"")), "{metrics_b}");
    }
    assert!(!metrics_a.contains("\"tenant\":\"carol\""), "{metrics_a}");
    let b_ops = ["ping", "list", "decompose", "append"].map(|op| {
        series_total(&Json::parse(&metrics_b).unwrap(), "maimon_requests_total", &[("op", op)])
    });
    assert_eq!(b_ops, [0; 4], "{metrics_b}");
    let b_latency = Json::parse(&metrics_b).unwrap();
    let b_latency = b_latency.get("metrics").and_then(Json::as_array).unwrap().iter().filter(|m| {
        m.get("name").and_then(Json::as_str) == Some("maimon_request_duration_ns")
            && m.get("labels").and_then(|l| l.get("op")).and_then(Json::as_str) == Some("ping")
    });
    assert_eq!(b_latency.count(), 0, "A's ping latency leaked into B: {metrics_b}");

    a.shutdown();
    b.shutdown();
}

#[test]
fn append_then_mine_matches_direct_library_and_never_serves_stale() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let addr = handle.local_addr();
    let version = |json: &Json| json.get("data_version").and_then(Json::as_i128).unwrap();

    // Mine pre-append and remember the version the result was stamped with.
    let before = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.2}"#);
    assert_ok(&before, "mine");
    let v0 = version(&before);

    // Append the §2 red tuple; the dataset's version bumps.
    let append = roundtrip(
        addr,
        r#"{"op":"append","dataset":"running","rows":[["a1","b2","c1","d2","e2","f1"]],"tenant":"writer"}"#,
    );
    assert_ok(&append, "append");
    assert_eq!(append.get("appended").and_then(Json::as_i128), Some(1), "{append}");
    assert_eq!(append.get("rows").and_then(Json::as_i128), Some(5), "{append}");
    assert_eq!(version(&append), v0 + 1);

    // Post-append mining is stamped with the new version and bit-identical
    // to a direct library session over the full 5-tuple relation — the
    // pre-append artifact is never served.
    let after = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.2}"#);
    assert_ok(&after, "mine");
    assert_eq!(version(&after), v0 + 1, "stale-version artifact served: {after}");
    let served = MaimonResult::from_json(after.get("result").unwrap()).unwrap();
    let direct =
        MaimonSession::new(running_example_with_red_tuple(), MaimonConfig::default()).unwrap();
    assert_same_mining(&served, &direct.quality(0.2).unwrap(), "post-append epsilon 0.2");

    // Decompose is stamped too.
    let decomposed = roundtrip(addr, r#"{"op":"decompose","dataset":"running","epsilon":0.2}"#);
    assert_ok(&decomposed, "decompose");
    assert_eq!(version(&decomposed), v0 + 1);

    // Malformed rows are the client's fault and change nothing.
    let bad = roundtrip(addr, r#"{"op":"append","dataset":"running","rows":[["just","two"]]}"#);
    assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"), "{bad}");
    let missing = roundtrip(addr, r#"{"op":"append","dataset":"absent","rows":[]}"#);
    assert_eq!(missing.get("kind").and_then(Json::as_str), Some("not_found"), "{missing}");

    // Stats export the append counters, the delta counters and the version.
    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert_ok(&stats, "stats");
    let requests = stats.get("requests").unwrap();
    assert_eq!(requests.get("append").and_then(Json::as_i128), Some(3), "{stats}");
    assert_eq!(requests.get("rows_appended").and_then(Json::as_i128), Some(1), "{stats}");
    let datasets = stats.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(version(&datasets[0]), v0 + 1);
    let oracle = datasets[0].get("oracle").unwrap();
    assert!(
        oracle.get("delta_refreshes").and_then(Json::as_i128).unwrap() > 0,
        "the append must refresh through the delta path: {stats}"
    );

    handle.shutdown();
}

#[test]
fn cache_hit_mines_round_trip_without_a_delayed_ack_stall() {
    // A response leaving in more than one segment waits for the client's
    // delayed ACK under Nagle (~40 ms per round trip). The client here sends
    // each request in one write with TCP_NODELAY, so any stall is the
    // server's.
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let request = "{\"op\":\"mine\",\"dataset\":\"running\",\"epsilon\":0.1}\n";
    let mut mine = || {
        let start = std::time::Instant::now();
        stream.write_all(request.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_ok(&Json::parse(line.trim()).unwrap(), "mine");
        start.elapsed()
    };
    mine(); // the cold mine fills the cache
    let mut hits: Vec<_> = (0..20).map(|_| mine()).collect();
    hits.sort();
    let median = hits[hits.len() / 2];
    assert!(median < std::time::Duration::from_millis(20), "median cache-hit mine {median:?}");
    handle.shutdown();
}

#[test]
fn requests_pipeline_on_one_connection_and_shutdown_converges() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Several requests down one connection, answered in order.
    for _ in 0..3 {
        writeln!(stream, r#"{{"op":"ping"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_ok(&Json::parse(line.trim()).unwrap(), "ping");
    }

    // Shutdown with the connection still open: must converge promptly, and
    // the client then observes EOF (or a reset), not a hang.
    handle.shutdown();
    let mut line = String::new();
    let eof = reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true);
    assert!(eof, "open connection must be closed by shutdown, got {line:?}");
}

#[test]
fn deeply_nested_line_is_a_bad_request_not_a_crash() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    };

    // 200 KB of `[` used to recurse the parser off the end of the stack,
    // aborting the process with every connection on it.
    writeln!(stream, "{}", "[".repeat(200_000)).unwrap();
    let response = read();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{response}");
    assert_eq!(response.get("kind").and_then(Json::as_str), Some("bad_request"), "{response}");

    // The same connection keeps serving, and so does a new one.
    writeln!(stream, r#"{{"op":"ping"}}"#).unwrap();
    assert_ok(&read(), "ping");
    assert_ok(&roundtrip(handle.local_addr(), r#"{"op":"ping"}"#), "ping");
    handle.shutdown();
}

#[test]
fn over_cap_line_without_newline_is_a_bad_request_and_the_server_keeps_serving() {
    let handle = start_server(AdmissionConfig::default(), &[("running", running_example())]);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    };

    // One byte past the cap and no newline: answered as soon as the cap is
    // crossed, not buffered until the client gives up.
    stream.write_all(&vec![b' '; serve::MAX_LINE_BYTES + 1]).unwrap();
    stream.flush().unwrap();
    let response = read();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{response}");
    assert_eq!(response.get("kind").and_then(Json::as_str), Some("bad_request"), "{response}");

    // Another connection keeps getting answers meanwhile.
    assert_ok(&roundtrip(handle.local_addr(), r#"{"op":"ping"}"#), "ping");

    // The rest of the long line is skipped without a second response, and
    // the connection resynchronises at its newline.
    stream.write_all(&vec![b'x'; 64 * 1024]).unwrap();
    writeln!(stream).unwrap();
    writeln!(stream, r#"{{"op":"ping"}}"#).unwrap();
    assert_ok(&read(), "ping");

    let scrape = maimon::obs::render_prometheus(&handle.metrics());
    assert!(scrape.contains("maimon_request_lines_too_long_total"), "missing counter in {scrape}");
    handle.shutdown();
}

#[test]
fn append_batches_over_the_row_cap_are_refused_and_never_logged() {
    let dir = std::env::temp_dir().join(format!("maimon-append-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Arc::new(DatasetRegistry::new());
    registry.register_durable("running", running_example(), MaimonConfig::default(), &dir).unwrap();
    let handle = serve(registry, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let addr = handle.local_addr();
    let wal = dir.join("running").join("wal.bin");
    let batch = |n: usize| {
        let rows = vec![r#"["a1","b2","c1","d2","e2","f1"]"#; n].join(",");
        format!(r#"{{"op":"append","dataset":"running","rows":[{rows}]}}"#)
    };

    // A batch at the cap is applied and logged.
    let at_cap = roundtrip(addr, &batch(serve::MAX_APPEND_ROWS));
    assert_ok(&at_cap, "append");
    assert_eq!(at_cap.get("data_version").and_then(Json::as_i128), Some(1), "{at_cap}");
    let logged = std::fs::metadata(&wal).unwrap().len();

    // One row more is a typed bad_request: nothing applied, nothing logged.
    let over = roundtrip(addr, &batch(serve::MAX_APPEND_ROWS + 1));
    assert_eq!(over.get("ok").and_then(Json::as_bool), Some(false), "{over}");
    assert_eq!(over.get("kind").and_then(Json::as_str), Some("bad_request"), "{over}");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), logged, "the WAL grew");
    let mine = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#);
    assert_eq!(mine.get("data_version").and_then(Json::as_i128), Some(1), "{mine}");

    let metrics = roundtrip(addr, r#"{"op":"metrics"}"#);
    assert_eq!(series_total(&metrics, "maimon_append_batches_too_large_total", &[]), 1);
    assert_eq!(
        series_total(&metrics, "maimon_rows_appended_total", &[]),
        serve::MAX_APPEND_ROWS as i128
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paged_backend_serves_quality_and_appends() {
    let rel = bridges();
    let registry = Arc::new(DatasetRegistry::new());
    let text = maimon::relation::relation_to_csv(&rel, ',');
    registry.register_csv("bridges-paged", text.as_bytes(), MaimonConfig::default()).unwrap();
    registry.register("bridges", rel, MaimonConfig::default()).unwrap();
    let handle = serve(registry, ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
    let addr = handle.local_addr();

    // `list` names the storage kind of every dataset.
    let list = roundtrip(addr, r#"{"op":"list"}"#);
    assert_ok(&list, "list");
    let datasets = list.get("datasets").and_then(Json::as_array).unwrap();
    let storage_of = |name: &str| {
        datasets
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|d| d.get("storage"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(storage_of("bridges"), Some("in_memory".to_string()), "{list}");
    assert_eq!(storage_of("bridges-paged"), Some("paged".to_string()), "{list}");

    // `mine` serves the full quality result, identical to a direct
    // in-memory session's over the same file read with duplicates removed.
    let mine = roundtrip(addr, r#"{"op":"mine","dataset":"bridges-paged","epsilon":0.0}"#);
    assert_ok(&mine, "mine");
    let served = MaimonResult::from_json(mine.get("result").unwrap()).unwrap();
    let distinct = relation_from_csv(&text, CsvOptions::default()).unwrap();
    let direct = MaimonSession::new(distinct, MaimonConfig::default()).unwrap();
    assert_same_mining(&served, &direct.quality(0.0).unwrap(), "paged mine");

    // Appends are accepted and land in the session.
    let append = roundtrip(
        addr,
        r#"{"op":"append","dataset":"bridges-paged","rows":[["a","b","c","d","e","f","g","h"]]}"#,
    );
    assert_ok(&append, "append");
    assert_eq!(append.get("appended").and_then(Json::as_i128), Some(1), "{append}");
    assert_eq!(append.get("data_version").and_then(Json::as_i128), Some(1), "{append}");

    // Every dataset's resident-bytes gauge flows through the `metrics` op
    // and the Prometheus text exposition, and equals the `resident_bytes`
    // that `stats` reports for it, after the append too.
    let metrics = roundtrip(addr, r#"{"op":"metrics"}"#);
    assert_ok(&metrics, "metrics");
    let entries = metrics.get("metrics").and_then(Json::as_array).unwrap();
    let resident_gauge = |dataset: &str| {
        entries
            .iter()
            .find(|m| {
                m.get("name").and_then(Json::as_str) == Some("maimon_dataset_resident_bytes")
                    && m.get("labels").and_then(|l| l.get("dataset")).and_then(Json::as_str)
                        == Some(dataset)
            })
            .and_then(|m| m.get("value"))
            .and_then(Json::as_i128)
            .unwrap_or_else(|| panic!("no resident-bytes gauge for {dataset} in {metrics}"))
    };
    let exposition = maimon::obs::render_prometheus(maimon::obs::global());
    for dataset in ["bridges", "bridges-paged"] {
        let needle = format!("maimon_dataset_resident_bytes{{dataset=\"{dataset}\"}}");
        assert!(exposition.contains(&needle), "missing {needle} in exposition");
    }

    // `stats` reports the storage kind and its resident footprint.
    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert_ok(&stats, "stats");
    let stat_sets = stats.get("datasets").and_then(Json::as_array).unwrap();
    let stats_of = |name: &str| {
        stat_sets.iter().find(|d| d.get("name").and_then(Json::as_str) == Some(name)).unwrap()
    };
    let paged_stats = stats_of("bridges-paged");
    assert_eq!(paged_stats.get("storage").and_then(Json::as_str), Some("paged"), "{stats}");
    for dataset in ["bridges", "bridges-paged"] {
        let resident = stats_of(dataset).get("resident_bytes").and_then(Json::as_i128).unwrap();
        assert!(resident > 0, "{stats}");
        assert_eq!(resident_gauge(dataset), resident, "{dataset}: gauge vs stats");
    }

    handle.shutdown();
}
