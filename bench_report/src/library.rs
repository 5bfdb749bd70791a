//! The three library workloads: a cold session per rep, driven through the
//! public session API and timed from outside.
//!
//! Untraced reps run the call sequence as an analyst would
//! (`epsilon_sweep`, `decompose_best`, `full_reduce`, `schemas`). Traced
//! reps run the same work as staged calls (`mvds` then `quality`, or `mvds`
//! then `schemas` on the paged store, per ε), each timed by the benchmark,
//! with a `StageCollector` attached for the busy time of each pipeline
//! stage. In a traced run the two kinds alternate, so the run also measures
//! the tracing overhead.

use crate::digest::{self, Digest};
use crate::inputs;
use crate::report::{peak_rss_mib, Run};
use crate::stats::median;
use maimon::entropy::{EntropyOracle, OracleStats, PliEntropyOracle};
use maimon::relation::{relation_from_csv, CsvOptions};
use maimon::storage::{ingest_csv_file, IngestOptions, PagedColumnarRelation, PagedOptions};
use maimon::storage::{PageCacheStats, RelationBackend};
use maimon::{j_mvd, within_epsilon, MaimonConfig, MaimonSession, Mvd, Stage, StageCollector};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Which library workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Library {
    /// Bridges-10: enumeration-bound.
    Enum,
    /// Abalone: quality-measurement-bound.
    Quality,
    /// Planted 1M × 10 through the paged backend: entropy- and page-bound.
    Rows1m,
}

impl Library {
    /// The library workload called `name`.
    pub fn named(name: &str) -> Option<Library> {
        [Library::Enum, Library::Quality, Library::Rows1m].into_iter().find(|l| l.name() == name)
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Library::Enum => "enum_bridges10",
            Library::Quality => "quality_abalone",
            Library::Rows1m => "rows_1m_paged",
        }
    }

    fn epsilons(self) -> &'static [f64] {
        match self {
            Library::Enum => &[0.0, 0.1],
            Library::Quality => &[0.05, 0.1],
            Library::Rows1m => &[0.01],
        }
    }

    /// Stages predicted to dominate the busy time.
    fn dominant(self) -> &'static [Stage] {
        match self {
            Library::Enum => &[Stage::FullMvds, Stage::Transversal],
            Library::Quality => &[Stage::Measure],
            Library::Rows1m => &[Stage::Reduce],
        }
    }
}

/// Rows of the paged workload, and its page shape: 8 cached pages of 65,536
/// rows (2 MiB) against 40 MiB of codes.
const PAGED_ROWS: usize = 1_000_000;
const PAGE_ROWS: usize = 65_536;
const CACHE_PAGES: usize = 8;
/// MVDs re-checked against a fresh oracle after the run.
const RECHECKED_MVDS: usize = 16;
/// Set-ups per rep: as many as fit in this many seconds, at most this many.
const SETUP_BURST_S: f64 = 0.25;
const SETUP_BURST: usize = 25;

/// A session set up for one rep.
struct Loaded {
    session: MaimonSession,
    /// The paged store behind the session, for its cache counters.
    store: Option<Arc<PagedColumnarRelation>>,
    /// CSV parse (in memory) or streaming ingest (paged), seconds.
    load_s: f64,
    /// Session construction, i.e. the oracle build, seconds.
    build_s: f64,
}

fn config() -> MaimonConfig {
    MaimonConfig::default()
}

fn paged_options() -> IngestOptions {
    IngestOptions {
        paged: PagedOptions {
            page_rows: PAGE_ROWS,
            cache_pages: CACHE_PAGES,
            dataset: "rows_1m_paged".to_string(),
        },
        ..IngestOptions::default()
    }
}

fn load(kind: Library, input: &Path) -> Result<Loaded, String> {
    let started = Instant::now();
    if kind == Library::Rows1m {
        let store = Arc::new(ingest_csv_file(input, &paged_options()).map_err(|e| e.to_string())?);
        let load_s = started.elapsed().as_secs_f64();
        let built = Instant::now();
        let backend: Arc<dyn RelationBackend> = store.clone();
        let session = MaimonSession::from_backend(backend, config()).map_err(|e| e.to_string())?;
        return Ok(Loaded {
            session,
            store: Some(store),
            load_s,
            build_s: built.elapsed().as_secs_f64(),
        });
    }
    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let rel = relation_from_csv(&text, CsvOptions::default()).map_err(|e| e.to_string())?;
    let load_s = started.elapsed().as_secs_f64();
    let built = Instant::now();
    let session = MaimonSession::new(rel, config()).map_err(|e| e.to_string())?;
    Ok(Loaded { session, store: None, load_s, build_s: built.elapsed().as_secs_f64() })
}

/// What one rep mined, for the digest and the re-check.
struct Mined {
    digest: String,
    mvds: Vec<(f64, Vec<Mvd>)>,
    calls: u64,
}

/// One untraced rep: the analyst's call sequence.
fn mine(kind: Library, session: &MaimonSession) -> Result<Mined, String> {
    let mut d = Digest::default();
    let mut mvds = Vec::new();
    let e = |e: maimon::MaimonError| e.to_string();
    match kind {
        Library::Rows1m => {
            let eps = kind.epsilons()[0];
            let schemas = session.schemas(eps).map_err(e)?;
            let mined = session.mvds(eps).map_err(e)?;
            d.mvds(&mined);
            d.schemas(&schemas);
            mvds.push((eps, mined.mvds.clone()));
            Ok(Mined { digest: d.hex(), mvds, calls: 1 })
        }
        Library::Enum | Library::Quality => {
            for point in session.epsilon_sweep(kind.epsilons().iter().copied()).map_err(e)? {
                d.result(&point.result);
                mvds.push((point.epsilon, point.result.mvds.mvds.clone()));
            }
            if kind == Library::Enum {
                return Ok(Mined { digest: d.hex(), mvds, calls: 1 });
            }
            let (schema, store) = session.decompose_best(0.1).map_err(e)?;
            let (reduced, reducer) = store.full_reduce();
            d.store(&schema, &store, &reduced, &reducer);
            Ok(Mined { digest: d.hex(), mvds, calls: 3 })
        }
    }
}

/// Per-layer numbers of one traced rep.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    wall_s: f64,
    busy_s: f64,
}

/// One traced rep: the same work as staged calls, each timed from outside.
fn mine_traced(
    kind: Library,
    loaded: &Loaded,
    run: &mut Run,
    rep: usize,
) -> Result<(Mined, Layers), String> {
    let collector = Arc::new(StageCollector::new());
    let session = loaded.session.clone().with_stages(Arc::clone(&collector));
    let parent = format!("rep-{rep}");
    let e = |e: maimon::MaimonError| e.to_string();
    let mut d = Digest::default();
    let mut mvds = Vec::new();
    let mut layers = Layers::default();
    let add = |values: &mut BTreeMap<&'static str, f64>, name: &'static str, v: f64| {
        *values.entry(name).or_insert(0.0) += v;
    };
    let mut calls = 0u64;
    let rep_started = Instant::now();
    for &eps in kind.epsilons() {
        let t = Instant::now();
        let mined = session.mvds(eps).map_err(e)?;
        add(&mut layers.values, "core.mvds_s", t.elapsed().as_secs_f64());
        run.span("core.mvds", &parent, None, t);
        calls += 1;
        add(&mut layers.values, "core.lattice_nodes", mined.stats.lattice_nodes_explored as f64);
        add(&mut layers.values, "core.transversals_tested", mined.stats.transversals_tested as f64);
        add(&mut layers.values, "core.mvds_found", mined.mvds.len() as f64);
        // A capped (truncated) schema enumeration is never cached, so the
        // in-memory workloads time `quality` as one call covering
        // enumeration and measurement rather than run the enumeration twice.
        let schema_count = if kind == Library::Rows1m {
            let t = Instant::now();
            let schemas = session.schemas(eps).map_err(e)?;
            add(&mut layers.values, "core.schemas_s", t.elapsed().as_secs_f64());
            run.span("core.schemas", &parent, None, t);
            add(
                &mut layers.values,
                "core.independent_sets",
                schemas.independent_sets_enumerated as f64,
            );
            d.mvds(&mined);
            d.schemas(&schemas);
            schemas.schemas.len()
        } else {
            let t = Instant::now();
            let result = session.quality(eps).map_err(e)?;
            add(&mut layers.values, "core.quality_s", t.elapsed().as_secs_f64());
            run.span("core.quality", &parent, None, t);
            d.result(&result);
            result.schemas.len()
        };
        calls += 1;
        add(&mut layers.values, "core.schemas_found", schema_count as f64);
        mvds.push((eps, mined.mvds.clone()));
    }
    if kind == Library::Quality {
        let t = Instant::now();
        let (schema, store) = session.decompose_best(0.1).map_err(e)?;
        layers.values.insert("decompose.build_s", t.elapsed().as_secs_f64());
        run.span("decompose.build", &parent, None, t);
        let t = Instant::now();
        let (reduced, reducer) = store.full_reduce();
        layers.values.insert("decompose.reduce_s", t.elapsed().as_secs_f64());
        run.span("decompose.reduce", &parent, None, t);
        calls += 2;
        layers.values.insert("decompose.bags", store.n_bags() as f64);
        layers.values.insert("decompose.semijoins", reducer.semijoins as f64);
        d.store(&schema, &store, &reduced, &reducer);
    }
    layers.wall_s = rep_started.elapsed().as_secs_f64();
    run.span("rep", "run", None, rep_started);

    let stages = collector.breakdown();
    for (name, stage) in [
        ("core.minsep_s", Stage::MineMinSeps),
        ("core.full_mvds_s", Stage::FullMvds),
        ("hypergraph.transversal_s", Stage::Transversal),
        ("core.reduce_s", Stage::Reduce),
        ("core.measure_s", Stage::Measure),
    ] {
        layers.values.insert(name, stages.get(stage).as_secs_f64());
    }
    layers.busy_s = stages.total().as_secs_f64();
    let dominant: f64 = kind.dominant().iter().map(|&s| stages.get(s).as_secs_f64()).sum();
    let others = stages
        .entries()
        .iter()
        .filter(|(s, _)| !kind.dominant().contains(s))
        .map(|(_, t)| t.as_secs_f64())
        .fold(0.0, f64::max);
    layers.values.insert("dominant_margin", dominant - others);

    oracle_layers(
        &mut layers.values,
        &session.oracle_stats(),
        &session.oracle_construction_stats(),
    );
    layers.values.insert("entropy.cached_plis", session.cached_pli_count() as f64);
    // The store is new in every rep, so its counters cover the whole rep:
    // the oracle build scans every column, and mining reads no pages.
    let (misses, hit_rate) = match &loaded.store {
        Some(store) => page_totals(store.cache_stats()),
        None => (0.0, 0.0),
    };
    layers.values.insert("storage.page_misses", misses);
    layers.values.insert("storage.page_hit_rate", hit_rate);
    let mined = Mined { digest: d.hex(), mvds, calls };
    Ok((mined, layers))
}

/// The entropy-layer metrics of the oracle counters' growth from `before` to
/// `after`.
pub fn oracle_layers(
    values: &mut BTreeMap<&'static str, f64>,
    after: &OracleStats,
    before: &OracleStats,
) {
    let calls = after.calls.saturating_sub(before.calls);
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    let intersections = after.intersections.saturating_sub(before.intersections);
    let count_only = after.count_only_intersections.saturating_sub(before.count_only_intersections);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.insert("entropy.calls", calls as f64);
    values.insert("entropy.misses", calls.saturating_sub(hits) as f64);
    values.insert("entropy.hit_rate", ratio(hits, calls));
    values.insert("entropy.intersections", intersections as f64);
    values.insert("entropy.count_only_frac", ratio(count_only, intersections));
}

/// Page misses and hit rate of a paged store's counters.
fn page_totals(stats: PageCacheStats) -> (f64, f64) {
    let total = stats.hits + stats.misses;
    (stats.misses as f64, if total == 0 { 0.0 } else { stats.hits as f64 / total as f64 })
}

/// Writes the seeded input file and returns its path.
fn prepare(kind: Library, seed: u64, work: &Path, run: &mut Run) -> Result<PathBuf, String> {
    let started = Instant::now();
    let path = work.join(format!("{}-seed{seed}.csv", run.workload));
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    match kind {
        Library::Enum => {
            inputs::write_shuffled_csv(&inputs::bridges10(), seed, &path).map_err(io)?
        }
        Library::Quality => {
            inputs::write_shuffled_csv(&inputs::abalone(), seed, &path).map_err(io)?
        }
        Library::Rows1m => {
            inputs::write_planted(&inputs::planted_spec(PAGED_ROWS, seed), &path).map_err(io)?
        }
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    run.notes.push(format!(
        "input {} ({bytes} bytes) generated in {:.3} s",
        path.display(),
        started.elapsed().as_secs_f64()
    ));
    Ok(path)
}

/// Runs a library workload for `seconds` of reps.
pub fn run(
    kind: Library,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Run, String> {
    let mut run = Run::new(kind.name(), seed, trace, seconds);
    let input = prepare(kind, seed, work, &mut run)?;
    let threads = config().effective_threads();
    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut build_s = Vec::new();
    let mut mine_s = Vec::new();
    let mut traced_wall = Vec::new();
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut digests: Vec<String> = Vec::new();
    let mut last: Option<(Mined, Loaded)> = None;
    let min_reps = if trace { 2 } else { 1 };
    let started = Instant::now();
    let mut rep = 0usize;
    while rep < min_reps || started.elapsed().as_secs_f64() < seconds {
        // Each rep sets up a burst of sessions while set-up stays cheap and
        // mines with the last one: a millisecond set-up then has a median
        // drawn from the whole window rather than from one moment of it.
        let burst = Instant::now();
        let mut setups = 0;
        let loaded = loop {
            let t = Instant::now();
            let loaded = load(kind, &input)?;
            setup_s.push(t.elapsed().as_secs_f64());
            run.span("setup", "run", None, t);
            load_s.push(loaded.load_s);
            build_s.push(loaded.build_s);
            setups += 1;
            if setups == SETUP_BURST || burst.elapsed().as_secs_f64() >= SETUP_BURST_S {
                break loaded;
            }
        };
        let traced = trace && rep % 2 == 1;
        let outcome = if traced {
            mine_traced(kind, &loaded, &mut run, rep).map(|(mined, layers)| {
                traced_wall.push(layers.wall_s);
                for (name, v) in &layers.values {
                    layer_samples.entry(name).or_default().push(*v);
                }
                layer_samples.entry("busy_s").or_default().push(layers.busy_s);
                mined
            })
        } else {
            let t = Instant::now();
            let mined = mine(kind, &loaded.session);
            mine_s.push(t.elapsed().as_secs_f64());
            run.span("rep", "run", None, t);
            mined
        };
        match outcome {
            Ok(mined) => {
                run.attempted += mined.calls;
                digests.push(mined.digest.clone());
                last = Some((mined, loaded));
            }
            Err(message) => {
                run.attempted += 1;
                run.failed += 1;
                run.notes.push(format!("rep {rep} failed: {message}"));
            }
        }
        rep += 1;
    }
    // Read the high-water mark before the re-check builds another oracle.
    if let Some(mib) = peak_rss_mib(None) {
        run.set("peak_rss_mib", mib);
    }
    run.notes.push(format!("{rep} reps, {} traced, {threads} mining threads", traced_wall.len()));

    run.set_median("setup_s", &setup_s);
    run.set_median("mine_s", &mine_s);
    let (load_name, load_raw) = match kind {
        Library::Rows1m => ("storage.ingest_s", "ingest_s"),
        _ => ("relation.csv_parse_s", "csv_parse_s"),
    };
    run.set_median(load_name, &load_s);
    run.set_median("entropy.oracle_build_s", &build_s);
    if trace {
        for (name, samples) in &layer_samples {
            if crate::metrics::def(name).is_some() {
                run.set_median(name, samples);
            }
        }
        finish_trace(kind, &mut run, &layer_samples, &traced_wall, &mine_s, threads);
    }
    run.raw.insert("setup_s", setup_s);
    run.raw.insert("mine_s", mine_s);
    run.raw.insert(load_raw, load_s);
    run.raw.insert("oracle_build_s", build_s);
    run.raw.insert("traced_rep_s", traced_wall);

    verify(kind, &mut run, &digests, last.as_ref(), &input)?;
    let _ = std::fs::remove_file(&input);
    Ok(run)
}

/// Derived per-layer ratios and the trace reconciliation checks.
fn finish_trace(
    kind: Library,
    run: &mut Run,
    layers: &BTreeMap<&'static str, Vec<f64>>,
    traced_wall: &[f64],
    mine_s: &[f64],
    threads: usize,
) {
    let get = |name: &str| layers.get(name).and_then(|v| median(v));
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    if let Some(v) = ratio(get("core.mvds_found"), get("core.lattice_nodes")) {
        run.set("core.mvd_yield", v);
    }
    if let Some(v) = ratio(get("core.schemas_found"), get("core.independent_sets")) {
        run.set("core.schema_yield", v);
    }
    let untraced = median(mine_s);
    if let Some(v) = ratio(get("busy_s"), untraced.map(|m| m * threads as f64)) {
        run.set("core.parallel_eff", v);
    }
    if let Some(v) = ratio(median(traced_wall), untraced) {
        run.set("obs.trace_overhead_pct", (v - 1.0) * 100.0);
    }
    let outside: f64 = [
        "core.mvds_s",
        "core.schemas_s",
        "core.quality_s",
        "decompose.build_s",
        "decompose.reduce_s",
    ]
    .iter()
    .filter_map(|n| get(n))
    .sum();
    // Reconciled against the traced reps' own wall time: the untraced reps
    // are other reps, and single reps drift apart by more than 5%.
    if let (Some(traced), Some(untraced)) = (median(traced_wall), untraced) {
        let gap = (outside - traced).abs() / traced;
        run.check(
            "layer_calls_sum_to_mine_s",
            gap <= 0.05,
            false,
            format!(
                "outside-timed calls {outside:.4} s vs traced rep {traced:.4} s ({:.1}% apart); \
                 untraced mine_s {untraced:.4} s",
                gap * 100.0
            ),
        );
    }
    let margin = get("dominant_margin").unwrap_or(f64::NAN);
    let predicted: Vec<&str> = kind.dominant().iter().map(|s| s.name()).collect();
    run.check(
        "dominant_stage_matches_prediction",
        margin > 0.0,
        false,
        format!("{} busy time exceeds every other stage by {margin:.4} s", predicted.join("+")),
    );
}

/// Correctness: one digest across reps, the seed-0 digest, and a sample of
/// MVDs re-checked against a fresh oracle.
fn verify(
    kind: Library,
    run: &mut Run,
    digests: &[String],
    last: Option<&(Mined, Loaded)>,
    input: &Path,
) -> Result<(), String> {
    let Some((mined, loaded)) = last else {
        run.check("mined", false, true, "no rep completed".into());
        return Ok(());
    };
    let first = &digests[0];
    let differing = digests.iter().filter(|d| *d != first).count();
    run.check(
        "digest_stable_across_reps",
        differing == 0,
        true,
        format!("{} reps, {differing} with a digest other than {first}", digests.len()),
    );
    run.digest = Some(first.clone());
    if run.seed == 0 {
        let expected = digest::expected_seed0(run.workload).unwrap_or("none");
        run.check(
            "seed0_digest",
            expected == first,
            true,
            format!("digest {first}, expected {expected}"),
        );
    }
    let oracle = match kind {
        Library::Rows1m => {
            let store = loaded.store.clone().ok_or("paged rep kept no store")?;
            PliEntropyOracle::from_backend(store, config().entropy)
        }
        _ => {
            let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
            let rel = relation_from_csv(&text, CsvOptions::default()).map_err(|e| e.to_string())?;
            PliEntropyOracle::new(rel, config().entropy)
        }
    };
    let all: Vec<(f64, &Mvd)> =
        mined.mvds.iter().flat_map(|(eps, mvds)| mvds.iter().map(move |m| (*eps, m))).collect();
    let picks = RECHECKED_MVDS.min(all.len());
    let mut violations = Vec::new();
    for i in 0..picks {
        let (eps, mvd) = all[i * all.len() / picks];
        let j = j_mvd(&oracle, mvd);
        if !within_epsilon(j, eps) {
            violations.push(format!("J={j} > eps={eps} for key {:?}", mvd.key()));
        }
    }
    run.attempted += picks as u64;
    run.failed += violations.len() as u64;
    run.checks.push(crate::report::Check {
        name: "sampled_mvds_within_epsilon".into(),
        ok: violations.is_empty(),
        correctness: true,
        detail: format!(
            "{picks} of {} MVDs re-checked on a fresh oracle over {} rows; {}",
            all.len(),
            oracle.n_rows(),
            if violations.is_empty() { "all hold".to_string() } else { violations.join("; ") }
        ),
    });
    Ok(())
}
