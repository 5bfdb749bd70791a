//! Large-ingest smoke check for the paged storage backend.
//!
//! Streams a planted synthetic CSV (1M rows by default) to disk, ingests it
//! through [`maimon::storage::ingest_csv_file`] into a
//! `PagedColumnarRelation` with a deliberately small page cache, mines
//! schemas over the out-of-core backend, and asserts:
//!
//! 1. peak RSS (`VmHWM` from `/proc/self/status`) stays under a budget —
//!    the raw CSV strings are never fully resident;
//! 2. the mined output (schema bags and J-measures) and every single- and
//!    pair-attribute entropy are **bit-identical** to an in-memory run over
//!    the same bytes.
//!
//! It also prints the oracle's distinct-tuple count and build time.
//!
//! The peak-RSS reading is taken *before* the in-memory twin is loaded, so
//! the budget genuinely bounds the paged path. Knobs via environment:
//! `MAIMON_SMOKE_ROWS` (default 1_000_000), `MAIMON_SMOKE_RSS_MB` (default
//! 1024), `MAIMON_SMOKE_EPSILON` (default 0.01).
//!
//! Run with: `cargo run -p maimon-bench --release --bin large_ingest_smoke`

use maimon::entropy::{EntropyOracle, PliEntropyOracle};
use maimon::relation::{relation_from_csv, AttrSet, CsvOptions};
use maimon::storage::{ingest_csv_file, IngestOptions, PagedOptions, RelationBackend};
use maimon::{MaimonConfig, MaimonSession};
use maimon_datasets::{write_planted_csv, SyntheticSpec};
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Instant;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Peak resident set size of this process in kilobytes, from the kernel's
/// high-water mark. Returns `None` off Linux (the assertion is skipped).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let rows: usize = env_or("MAIMON_SMOKE_ROWS", 1_000_000);
    let budget_mb: u64 = env_or("MAIMON_SMOKE_RSS_MB", 1024);
    let epsilon: f64 = env_or("MAIMON_SMOKE_EPSILON", 0.01);
    let spec = SyntheticSpec { rows, ..SyntheticSpec::default() };

    let path =
        std::env::temp_dir().join(format!("maimon_large_ingest_smoke_{}.csv", std::process::id()));
    let started = Instant::now();
    {
        let file = std::fs::File::create(&path).expect("create synthetic CSV");
        let mut out = BufWriter::new(file);
        write_planted_csv(&spec, &mut out).expect("stream synthetic CSV");
    }
    let csv_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "generated {} rows x {} cols ({} MiB CSV) in {:.2}s",
        spec.rows,
        spec.columns,
        csv_bytes / (1024 * 1024),
        started.elapsed().as_secs_f64()
    );

    // Paged leg: small cache so most pages live in the spill file.
    let ingest = IngestOptions {
        paged: PagedOptions {
            page_rows: 65_536,
            cache_pages: 8,
            dataset: "large-ingest-smoke".to_string(),
        },
        ..IngestOptions::default()
    };
    let ingest_started = Instant::now();
    let store = ingest_csv_file(&path, &ingest).expect("paged ingest");
    println!(
        "paged ingest: {} rows, {} resident bytes, {:.2}s",
        store.n_rows(),
        store.resident_bytes(),
        ingest_started.elapsed().as_secs_f64()
    );
    assert_eq!(store.n_rows(), spec.rows, "paged ingest must keep every row");

    let backend: Arc<dyn RelationBackend> = Arc::new(store);
    let config = MaimonConfig::default();
    let build_started = Instant::now();
    let paged_oracle = PliEntropyOracle::from_backend(Arc::clone(&backend), config.entropy);
    println!(
        "oracle build: {} distinct tuples of {} rows in {:.2}s",
        paged_oracle.distinct_tuples(),
        backend.n_rows(),
        build_started.elapsed().as_secs_f64()
    );
    let arity = backend.arity();
    let paged_entropies: Vec<(AttrSet, f64)> = AttrSet::full(arity)
        .subsets()
        .filter(|s| !s.is_empty() && s.len() <= 2)
        .map(|s| (s, paged_oracle.entropy(s)))
        .collect();

    let session = MaimonSession::from_backend(Arc::clone(&backend), config).expect("paged session");
    let mine_started = Instant::now();
    let paged_schemas = session.schemas(epsilon).expect("paged schema mining");
    println!(
        "paged mine: {} schemas at eps={epsilon} in {:.2}s",
        paged_schemas.schemas.len(),
        mine_started.elapsed().as_secs_f64()
    );

    // Read the high-water mark BEFORE the in-memory twin inflates it.
    match vm_hwm_kb() {
        Some(kb) => {
            let mb = kb / 1024;
            println!("peak RSS through the paged path: {mb} MiB (budget {budget_mb} MiB)");
            assert!(
                mb <= budget_mb,
                "peak RSS {mb} MiB exceeds the {budget_mb} MiB budget for the paged path"
            );
        }
        None => println!("no /proc/self/status; skipping the peak-RSS assertion"),
    }

    // In-memory twin over the exact same bytes.
    let text = std::fs::read_to_string(&path).expect("re-read CSV");
    let _ = std::fs::remove_file(&path);
    let rel =
        relation_from_csv(&text, CsvOptions { dedup: false, ..CsvOptions::default() }).unwrap();
    drop(text);
    let rel = Arc::new(rel);
    let mem_oracle = PliEntropyOracle::new(Arc::clone(&rel), MaimonConfig::default().entropy);
    for &(attrs, paged_h) in &paged_entropies {
        let mem_h = mem_oracle.entropy(attrs);
        assert_eq!(
            paged_h.to_bits(),
            mem_h.to_bits(),
            "entropy over {attrs:?} differs: paged {paged_h} vs in-memory {mem_h}"
        );
    }
    println!("{} single/pair entropies bit-identical", paged_entropies.len());

    let mem_session =
        MaimonSession::new(Arc::clone(&rel), MaimonConfig::default()).expect("in-memory session");
    let mem_schemas = mem_session.schemas(epsilon).expect("in-memory schema mining");
    assert_eq!(
        paged_schemas.schemas.len(),
        mem_schemas.schemas.len(),
        "schema counts differ between paged and in-memory runs"
    );
    for (p, m) in paged_schemas.schemas.iter().zip(mem_schemas.schemas.iter()) {
        assert_eq!(p.schema.bags(), m.schema.bags(), "schema bags differ");
        assert_eq!(
            p.j.map(f64::to_bits),
            m.j.map(f64::to_bits),
            "J-measures differ for a shared schema"
        );
    }
    println!(
        "paged output matches in-memory: {} schemas, J bit-identical — smoke PASS",
        paged_schemas.schemas.len()
    );
}
