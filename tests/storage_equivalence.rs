//! Property-based equivalence of the two ways a relation is mounted: a
//! CSV stream read straight into its distinct tuples
//! ([`maimon::storage::stream_csv`], the `--paged-dataset` mount) must be
//! observationally identical to the in-memory [`Relation`] the text came
//! from — the same names, dictionaries, distinct tuples and weights,
//! bit-identical entropies over random attribute subsets, identical
//! minimal-separator sets `M_ε`, identical mined schemas, and a session over
//! it must measure quality, decompose and take appends exactly as an
//! in-memory session does — plus a catalog-wide sweep over all twenty paper
//! datasets.
//!
//! The text is `relation_to_csv`'s, read through `BufReader`s of capacity
//! 1 to 7 bytes (records split across reads at every offset) and one large
//! capacity (the whole text in one read).

use maimon::entropy::{EntropyOracle, PliEntropyOracle};
use maimon::relation::{relation_to_csv, AttrSet, CsvOptions, Relation, Schema, TupleBag};
use maimon::storage::stream_csv;
use maimon::{MaimonConfig, MaimonResult, MaimonSession};
use proptest::prelude::*;
use std::io::BufReader;
use std::sync::Arc;

/// Read-buffer capacities of the streamed mounts.
const CAPACITIES: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 1 << 20];

/// The streamed mounts of `rel`'s CSV text at every capacity, each checked
/// to hold the same names, dictionaries, distinct tuples and weights as the
/// in-memory count of `rel` (of its distinct rows, with `dedup`).
fn streamed_mounts(rel: &Arc<Relation>, dedup: bool) -> Vec<(usize, TupleBag)> {
    let text = relation_to_csv(rel, ',');
    let expected = if dedup { TupleBag::of(&Arc::new(rel.distinct())) } else { TupleBag::of(rel) };
    let options = CsvOptions { dedup, ..CsvOptions::default() };
    CAPACITIES
        .iter()
        .map(|&capacity| {
            let reader = BufReader::with_capacity(capacity, text.as_bytes());
            let bag = stream_csv(reader, options, "prop-equivalence").unwrap();
            let (tuples, reference) = (bag.tuples(), expected.tuples());
            assert_eq!(tuples.schema().names(), reference.schema().names(), "names");
            for c in 0..reference.arity() {
                let what = format!("column {c} at capacity {capacity}");
                assert_eq!(tuples.column_values(c), reference.column_values(c), "{what}");
                assert_eq!(tuples.column_codes(c), reference.column_codes(c), "{what}");
            }
            assert_eq!(bag.weights(), expected.weights(), "weights at capacity {capacity}");
            assert_eq!(bag.n_rows(), expected.n_rows(), "rows at capacity {capacity}");
            (capacity, bag)
        })
        .collect()
}

/// Strategy: a random relation with 2–6 columns, 5–300 rows and small
/// per-column domains, so duplicate groups abound.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 5usize..=300, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| {
                let domain = 1 + (c as u32 % 4);
                (0..rows).map(|_| (next() % (domain as u64 + 1)) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

/// All single- and pair-attribute entropies (enough to pin every PLI build
/// path: single columns from the tuple table, pairs via intersection).
fn probe_subsets(arity: usize) -> Vec<AttrSet> {
    AttrSet::full(arity).subsets().filter(|s| !s.is_empty() && s.len() <= 2).collect()
}

/// The string rows of `rel`.
fn rows_of(rel: &Relation) -> Vec<Vec<String>> {
    (0..rel.n_rows()).map(|r| rel.row(r).into_iter().map(str::to_string).collect()).collect()
}

/// Two append batches: the first repeats every third row (bumping existing
/// tuples); the second adds a row with a brand-new value, twice, and
/// repeats the first row.
fn append_batches(rel: &Relation) -> [Vec<Vec<String>>; 2] {
    let rows = rows_of(rel);
    let repeats: Vec<Vec<String>> = rows.iter().step_by(3).take(10).cloned().collect();
    let mut novel = rows[0].clone();
    novel[0] = "novel".to_string();
    [repeats, vec![novel.clone(), rows[0].clone(), novel]]
}

/// Every schema, J-measure and quality figure bit for bit, plus `M_ε` and
/// the pareto front.
fn assert_same_result(a: &MaimonResult, b: &MaimonResult, what: &str) {
    assert_eq!(a.mvds.mvds, b.mvds.mvds, "{what}: M_ε differs");
    assert_eq!(a.mvds.separators, b.mvds.separators, "{what}: separators differ");
    assert_eq!(a.schemas.len(), b.schemas.len(), "{what}: schema count differs");
    for (x, y) in a.schemas.iter().zip(&b.schemas) {
        let bags = x.discovered.schema.bags();
        assert_eq!(bags, y.discovered.schema.bags(), "{what}: schema bags differ");
        assert_eq!(x.discovered.j.map(f64::to_bits), y.discovered.j.map(f64::to_bits), "{what}");
        let (p, q) = (&x.quality, &y.quality);
        assert_eq!(
            (p.n_relations, p.width, p.intersection_width),
            (q.n_relations, q.width, q.intersection_width),
            "{what}: structure of {bags:?}"
        );
        assert_eq!(
            (p.original_cells, p.decomposed_cells, p.join_size),
            (q.original_cells, q.decomposed_cells, q.join_size),
            "{what}: counts of {bags:?}"
        );
        assert_eq!(
            (p.storage_savings_pct.to_bits(), p.spurious_tuples_pct.to_bits()),
            (q.storage_savings_pct.to_bits(), q.spurious_tuples_pct.to_bits()),
            "{what}: S and E of {bags:?}"
        );
    }
    assert_eq!(a.pareto, b.pareto, "{what}: pareto front differs");
    assert_eq!(a.truncated, b.truncated, "{what}: truncation differs");
}

/// `quality` and `decompose_best` of `session` against `reference`, at
/// both thresholds.
fn assert_same_sessions(session: &MaimonSession, reference: &MaimonSession, what: &str) {
    for epsilon in [0.0, 0.05] {
        let what = format!("{what} eps={epsilon}");
        assert_same_result(
            &session.quality(epsilon).unwrap(),
            &reference.quality(epsilon).unwrap(),
            &what,
        );
        let (schema, store) = session.decompose_best(epsilon).unwrap();
        let (ref_schema, ref_store) = reference.decompose_best(epsilon).unwrap();
        assert_eq!(schema, ref_schema, "{what}: decompose_best schema differs");
        assert_eq!(store.bags(), ref_store.bags(), "{what}: decomposed bags differ");
        assert_eq!(store.edges(), ref_store.edges(), "{what}: join tree differs");
        assert_eq!(store.original_rows(), ref_store.original_rows(), "{what}");
    }
}

fn assert_backend_matches(rel: &Arc<Relation>, tuples: TupleBag, what: &str) {
    let config = MaimonConfig::default();
    let mem = PliEntropyOracle::new(Arc::clone(rel), config.entropy);
    let streamed = PliEntropyOracle::from_tuples(tuples.clone(), config.entropy);
    for s in probe_subsets(rel.arity()) {
        let (a, b) = (mem.entropy(s), streamed.entropy(s));
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entropy over {s:?}: {a} vs {b}");
    }

    let mem_session = MaimonSession::new(Arc::clone(rel), config).unwrap();
    let streamed_session = MaimonSession::from_tuples(tuples, config).unwrap();
    for epsilon in [0.0, 0.05] {
        let m_mem = mem_session.mvds(epsilon).unwrap();
        let m_streamed = streamed_session.mvds(epsilon).unwrap();
        assert_eq!(m_mem.separators, m_streamed.separators, "{what}: M_{epsilon} differs");
        assert_eq!(m_mem.mvds, m_streamed.mvds, "{what}: full MVD set differs at eps={epsilon}");

        let s_mem = mem_session.schemas(epsilon).unwrap();
        let s_streamed = streamed_session.schemas(epsilon).unwrap();
        assert_eq!(
            s_mem.schemas.len(),
            s_streamed.schemas.len(),
            "{what}: schema count differs at eps={epsilon}"
        );
        for (a, b) in s_mem.schemas.iter().zip(s_streamed.schemas.iter()) {
            assert_eq!(a.schema.bags(), b.schema.bags(), "{what}: schema bags differ");
            assert_eq!(
                a.j.map(f64::to_bits),
                b.j.map(f64::to_bits),
                "{what}: J-measure differs for a shared schema"
            );
        }
    }
    assert_same_sessions(&streamed_session, &mem_session, what);

    // Two appends land identically on both, and equal a fresh session over
    // the concatenated rows.
    let batches = append_batches(rel);
    let mut all = rows_of(rel);
    for batch in &batches {
        let summary = streamed_session.append_rows(batch).unwrap();
        assert_eq!(summary, mem_session.append_rows(batch).unwrap(), "{what}: append summary");
        all.extend(batch.iter().cloned());
    }
    assert_eq!(streamed_session.n_rows(), all.len(), "{what}: rows after appends");
    assert_eq!(streamed_session.data_version(), mem_session.data_version(), "{what}");
    let fresh =
        MaimonSession::new(Relation::from_rows(rel.schema().clone(), &all).unwrap(), config)
            .unwrap();
    let what = format!("{what} after appends");
    assert_same_sessions(&streamed_session, &fresh, &what);
    assert_same_sessions(&mem_session, &fresh, &what);
}

proptest! {
    /// The streamed mount ≡ the in-memory relation at every read-buffer
    /// capacity.
    #[test]
    fn paged_backend_is_observationally_identical(rel in relation_strategy()) {
        let rel = Arc::new(rel);
        for (capacity, tuples) in streamed_mounts(&rel, false) {
            assert_backend_matches(&rel, tuples, &format!("capacity={capacity}"));
        }
    }

    /// With `dedup`, the stream mounts the set of tuples, each of weight 1,
    /// exactly as the in-memory loader's deduplicated relation.
    #[test]
    fn streamed_ingest_is_observationally_identical(rel in relation_strategy()) {
        let rel = Arc::new(rel);
        let mounts = streamed_mounts(&rel, true);
        prop_assert!(mounts.iter().all(|(_, bag)| bag.weights().iter().all(|&w| w == 1)));
        let (capacity, tuples) = mounts.into_iter().next().unwrap();
        let distinct = Arc::new(rel.distinct());
        assert_backend_matches(&distinct, tuples, &format!("dedup capacity={capacity}"));
    }
}

/// Strategy: many more rows than distinct tuples — 2–5 columns of at most
/// two values each, 200–1200 rows — so every tuple's multiplicity spans
/// many reads.
fn duplicate_heavy_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=5, 200usize..=1200, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| (0..rows).map(|_| (next() % (1 + c as u64 % 2)) as u32).collect())
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

fn assert_same_tuple_table(rel: &Arc<Relation>, tuples: TupleBag, what: &str) {
    let config = MaimonConfig::default();
    let mem = PliEntropyOracle::new(Arc::clone(rel), config.entropy);
    let streamed = PliEntropyOracle::from_tuples(tuples.clone(), config.entropy);
    assert_eq!(mem.distinct_tuples(), streamed.distinct_tuples(), "{what}: distinct tuples");
    for s in AttrSet::full(rel.arity()).subsets() {
        let (a, b) = (mem.entropy(s), streamed.entropy(s));
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entropy over {s:?}: {a} vs {b}");
    }
    assert_backend_matches(rel, tuples, what);
}

proptest! {
    /// Duplicate-heavy relations: the streamed tuple table (counted across
    /// reads) matches the in-memory one, on every attribute subset.
    #[test]
    fn duplicate_heavy_relations_are_identical_across_backends(rel in duplicate_heavy_strategy()) {
        let rel = Arc::new(rel);
        for (capacity, tuples) in streamed_mounts(&rel, false) {
            assert_same_tuple_table(&rel, tuples, &format!("capacity={capacity}"));
        }
    }
}

/// The edge cases of the tuple table: every row distinct, and every row
/// the same tuple.
#[test]
fn all_distinct_and_all_identical_relations_are_identical_across_backends() {
    let schema = Schema::new(["K", "V", "W"]).unwrap();
    let distinct: Vec<Vec<String>> = (0..500)
        .map(|i| vec![format!("k{i}"), format!("v{}", i % 3), format!("w{}", i % 7)])
        .collect();
    let identical = vec![vec!["x".to_string(), "y".to_string(), "z".to_string()]; 500];
    for (rows, what) in [(distinct, "all-distinct"), (identical, "all-identical")] {
        let rel = Arc::new(Relation::from_rows(schema.clone(), &rows).unwrap());
        for (capacity, tuples) in streamed_mounts(&rel, false) {
            assert_same_tuple_table(&rel, tuples, &format!("{what} capacity={capacity}"));
        }
    }
}

/// Catalog-wide sweep: every paper dataset (small scale), streamed at every
/// read-buffer capacity, must reproduce the in-memory dictionaries, tuples
/// and weights, and (at the largest capacity) its entropies and mined
/// artifacts bit-for-bit.
#[test]
fn catalog_datasets_are_identical_across_backends() {
    for spec in maimon_datasets::metanome_catalog() {
        let rel = spec.generate(0.01);
        let rel = if rel.arity() > 8 { rel.column_prefix(8).unwrap() } else { rel };
        let rel = Arc::new(rel);
        let (_, tuples) = streamed_mounts(&rel, false).pop().unwrap();
        assert_backend_matches(&rel, tuples, spec.name);
    }
}
