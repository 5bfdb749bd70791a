//! `maimon-served` — the Maimon mining server.
//!
//! Registers datasets (CSV files and/or built-in synthetic catalogs) and
//! serves the line-delimited JSON protocol of `serve::protocol` over TCP
//! until SIGTERM/SIGINT (or EOF on a `--once` run).
//!
//! ```text
//! maimon-served [--addr 127.0.0.1:7464] [--workers 4]
//!               [--dataset name=path.csv]... [--demo]
//!               [--paged-dataset name=path.csv]...
//!               [--page-rows N] [--cache-pages N]
//!               [--data-dir DIR]
//!               [--max-in-flight N] [--queue-depth N] [--epsilon E]
//!               [--metrics-addr HOST:PORT]
//! ```
//!
//! `--paged-dataset` mounts a CSV through the out-of-core paged columnar
//! backend: the file is streamed (never fully resident) into per-column code
//! pages spilled to a temp file, read back once through a small LRU page
//! cache sized by `--page-rows` × `--cache-pages`, into the session's
//! in-memory distinct tuples. Such datasets then serve every op, `mine`,
//! `decompose` and `append` included, like an in-memory dataset.
//!
//! `--demo` registers the paper's running example plus the `Bridges`
//! synthetic catalog dataset, so the server is probe-able with no files at
//! hand. On startup the bound address is printed as
//! `maimon-served listening on ADDR` (stdout, flushed), which is what the
//! smoke tests — and shell scripts — wait for.
//!
//! `--data-dir` makes in-memory datasets durable. On boot every
//! `DIR/<name>/` holding a snapshot + WAL pair is recovered to its exact
//! pre-crash data version (WAL replay, torn tails truncated); datasets named
//! by `--dataset`/`--demo` that have *no* durable state yet are seeded with
//! an initial snapshot. Every acknowledged `append` is then fsync'd to the
//! WAL before the response goes out, so a kill -9 loses at most unacked
//! batches. Paged datasets stay non-durable: appends to them live in the
//! session only, like appends to any dataset without durable state.
//!
//! `--metrics-addr` additionally serves Prometheus text exposition over
//! plain HTTP GET (any path), announced as `maimon-served metrics on ADDR`
//! before the main banner: the process-wide registry of the library layers
//! (oracle, CSV, page cache, WAL, ingest, decompose), then the server's own
//! registry of request-level series, the one `stats` is a view over.

use maimon::obs::{self, MetricsRegistry};
use maimon::relation::{relation_from_csv, CsvOptions};
use maimon::storage::{ingest_csv_file, IngestOptions, PagedOptions, RelationBackend};
use maimon::{CancelToken, MaimonConfig};
use serve::{serve, AdmissionConfig, DatasetRegistry, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signals {
    use super::SHUTDOWN_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag, nothing else.
        SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs SIGTERM/SIGINT handlers (libc is already linked via std).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal plumbing off Unix; Ctrl-C terminates the process directly.
    pub fn install() {}
}

struct Options {
    addr: String,
    metrics_addr: Option<String>,
    workers: usize,
    datasets: Vec<(String, String)>,
    paged_datasets: Vec<(String, String)>,
    page_rows: usize,
    cache_pages: usize,
    data_dir: Option<String>,
    demo: bool,
    epsilon: f64,
    max_in_flight: usize,
    queue_depth: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: maimon-served [--addr HOST:PORT] [--workers N] \
         [--dataset name=path.csv]... [--demo] \
         [--paged-dataset name=path.csv]... [--page-rows N] [--cache-pages N] \
         [--data-dir DIR] [--epsilon E] \
         [--max-in-flight N] [--queue-depth N] [--metrics-addr HOST:PORT]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        addr: "127.0.0.1:7464".to_string(),
        metrics_addr: None,
        workers: 4,
        datasets: Vec::new(),
        paged_datasets: Vec::new(),
        page_rows: PagedOptions::default().page_rows,
        cache_pages: PagedOptions::default().cache_pages,
        data_dir: None,
        demo: false,
        epsilon: 0.05,
        max_in_flight: AdmissionConfig::default().max_in_flight_per_tenant,
        queue_depth: AdmissionConfig::default().max_queue_depth,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => options.addr = value("--addr"),
            "--metrics-addr" => options.metrics_addr = Some(value("--metrics-addr")),
            "--workers" => options.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--epsilon" => options.epsilon = value("--epsilon").parse().unwrap_or_else(|_| usage()),
            "--max-in-flight" => {
                options.max_in_flight = value("--max-in-flight").parse().unwrap_or_else(|_| usage())
            }
            "--queue-depth" => {
                options.queue_depth = value("--queue-depth").parse().unwrap_or_else(|_| usage())
            }
            "--dataset" => {
                let spec = value("--dataset");
                match spec.split_once('=') {
                    Some((name, path)) => {
                        options.datasets.push((name.to_string(), path.to_string()))
                    }
                    None => {
                        eprintln!("--dataset expects name=path.csv, got {spec:?}");
                        usage()
                    }
                }
            }
            "--paged-dataset" => {
                let spec = value("--paged-dataset");
                match spec.split_once('=') {
                    Some((name, path)) => {
                        options.paged_datasets.push((name.to_string(), path.to_string()))
                    }
                    None => {
                        eprintln!("--paged-dataset expects name=path.csv, got {spec:?}");
                        usage()
                    }
                }
            }
            "--page-rows" => {
                options.page_rows = value("--page-rows").parse().unwrap_or_else(|_| usage());
                if options.page_rows == 0 {
                    eprintln!("--page-rows must be at least 1");
                    usage()
                }
            }
            "--cache-pages" => {
                options.cache_pages = value("--cache-pages").parse().unwrap_or_else(|_| usage());
                if options.cache_pages == 0 {
                    eprintln!("--cache-pages must be at least 1");
                    usage()
                }
            }
            "--data-dir" => options.data_dir = Some(value("--data-dir")),
            "--demo" => options.demo = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    if options.datasets.is_empty()
        && options.paged_datasets.is_empty()
        && !options.demo
        && options.data_dir.is_none()
    {
        eprintln!(
            "no datasets: pass --dataset name=path.csv, --paged-dataset, --data-dir, or --demo"
        );
        usage()
    }
    options
}

/// Serves Prometheus text exposition over plain HTTP GET on `addr` until
/// `shutdown` fires. Hand-rolled HTTP/1.1: read the request head, answer
/// `200 text/plain` with the rendered registries, close. Any path works —
/// scrapers conventionally use `/metrics`.
fn spawn_metrics_listener(
    addr: &str,
    shutdown: CancelToken,
    server_metrics: Arc<MetricsRegistry>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let thread = std::thread::spawn(move || {
        while !shutdown.is_cancelled() {
            match listener.accept() {
                Ok((stream, _peer)) => serve_metrics_request(stream, &server_metrics),
                // Non-blocking: nothing pending — nap and re-check shutdown.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    });
    Ok((local, thread))
}

fn serve_metrics_request(mut stream: TcpStream, server_metrics: &MetricsRegistry) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Drain the request head; the response is the same whatever it says.
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // The two registries' names are disjoint, so the concatenation is one
    // valid exposition.
    let body = obs::render_prometheus(obs::global()) + &obs::render_prometheus(server_metrics);
    let response = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Seeds `relation` under `name`: durably (initial snapshot + empty WAL under
/// `data_dir/<name>`) when a data dir is configured, in-memory otherwise.
/// Skipped — with a note — when the dataset was already recovered from its
/// durable state, which is newer than any seed.
fn seed_dataset(
    registry: &DatasetRegistry,
    name: &str,
    relation: maimon::relation::Relation,
    config: MaimonConfig,
    data_dir: Option<&std::path::Path>,
    recovered: &std::collections::HashSet<String>,
) -> bool {
    if recovered.contains(name) {
        eprintln!("skipping seed for {name}: recovered durable copy wins");
        return false;
    }
    let result = match data_dir {
        Some(dir) => registry.register_durable(name.to_string(), relation, config, dir),
        None => registry.register(name.to_string(), relation, config),
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot serve {name}: {e}");
        std::process::exit(1);
    });
    true
}

fn main() {
    let options = parse_options();
    signals::install();

    let config = MaimonConfig::with_epsilon(options.epsilon);
    let registry = Arc::new(DatasetRegistry::new());

    // Recover durable datasets before seeding anything: a dataset that
    // already has a snapshot + WAL pair under the data dir comes back at its
    // exact pre-crash data version and wins over any same-named seed.
    let data_dir = options.data_dir.as_ref().map(std::path::PathBuf::from);
    let mut recovered_names = std::collections::HashSet::new();
    if let Some(dir) = &data_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create data dir {}: {e}", dir.display());
            std::process::exit(1);
        });
        let recovered = registry.open_durable(dir, config).unwrap_or_else(|e| {
            eprintln!("cannot recover data dir {}: {e}", dir.display());
            std::process::exit(1);
        });
        for (name, info) in &recovered {
            eprintln!(
                "recovered {name}: data_version {}, {} WAL records replayed{}",
                info.data_version,
                info.replayed_records,
                if info.truncated_tail { ", torn WAL tail truncated" } else { "" }
            );
            recovered_names.insert(name.clone());
        }
    }

    if options.demo {
        let mut seeded = Vec::new();
        if seed_dataset(
            &registry,
            "running",
            maimon_datasets::running_example(),
            config,
            data_dir.as_deref(),
            &recovered_names,
        ) {
            seeded.push("running");
        }
        let bridges = maimon_datasets::dataset_by_name("Bridges")
            .expect("Bridges is in the catalog")
            .generate(1.0);
        if seed_dataset(
            &registry,
            "bridges",
            bridges,
            config,
            data_dir.as_deref(),
            &recovered_names,
        ) {
            seeded.push("bridges");
        }
        if !seeded.is_empty() {
            eprintln!("registered demo datasets: {}", seeded.join(", "));
        }
    }
    for (name, path) in &options.datasets {
        if recovered_names.contains(name) {
            eprintln!("skipping seed for {name}: recovered durable copy wins");
            continue;
        }
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let relation = relation_from_csv(&text, CsvOptions::default()).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        });
        let (rows, attrs) = (relation.n_rows(), relation.arity());
        seed_dataset(&registry, name, relation, config, data_dir.as_deref(), &recovered_names);
        eprintln!("registered {name}: {rows} rows x {attrs} attrs from {path}");
    }
    for (name, path) in &options.paged_datasets {
        let ingest = IngestOptions {
            paged: PagedOptions {
                page_rows: options.page_rows,
                cache_pages: options.cache_pages,
                dataset: name.clone(),
            },
            ..IngestOptions::default()
        };
        let store = ingest_csv_file(path, &ingest).unwrap_or_else(|e| {
            eprintln!("cannot ingest {path}: {e}");
            std::process::exit(1);
        });
        let (rows, attrs) = (store.n_rows(), store.arity());
        registry.register_backend(name.clone(), Arc::new(store), config).unwrap_or_else(|e| {
            eprintln!("cannot serve {name}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "registered {name} (paged): {rows} rows x {attrs} attrs from {path}, \
             {} x {}-row pages cached",
            options.cache_pages, options.page_rows
        );
    }

    let server_config = ServerConfig {
        addr: options.addr,
        workers: options.workers,
        admission: AdmissionConfig {
            max_in_flight_per_tenant: options.max_in_flight,
            max_queue_depth: options.queue_depth,
        },
        ..ServerConfig::default()
    };
    let handle = serve(registry, server_config).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });

    let metrics_thread = options.metrics_addr.as_deref().map(|addr| {
        let (local, thread) =
            spawn_metrics_listener(addr, handle.shutdown_token(), handle.metrics()).unwrap_or_else(
                |e| {
                    eprintln!("cannot bind metrics listener: {e}");
                    std::process::exit(1);
                },
            );
        // Announced before the main banner so scripts that wait for
        // "listening on" can already read the resolved metrics address.
        println!("maimon-served metrics on {local}");
        thread
    });

    // The smoke tests (and shell scripts) wait for this exact line.
    println!("maimon-served listening on {}", handle.local_addr());
    std::io::stdout().flush().expect("stdout is writable");

    while !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) && !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("maimon-served shutting down");
    handle.shutdown();
    if let Some(thread) = metrics_thread {
        let _ = thread.join();
    }
    println!("maimon-served stopped");
}
