//! Ownership contract of the owned [`MaimonSession`]: the session holds the
//! relation in an `Arc`, so it is `'static`, `Send + Sync`, and outlives any
//! binding it was built from — the lifetime bug that made serving from
//! borrowed sessions impossible. Locked down here:
//!
//! * a session built by *moving* a relation keeps working after the binding
//!   is gone, and one built from a `&Relation` (deep-clone-once compat path)
//!   survives the original being dropped;
//! * handles are cheaply clonable and every clone shares the oracle and
//!   artifact caches (`Arc::ptr_eq` on cached artifacts);
//! * clones mine concurrently from worker threads with results bit-identical
//!   to the single-threaded run;
//! * per-handle control (deadlines) stays per-handle: a clone with an
//!   expired deadline truncates while its sibling mines to completion.

use maimon::relation::Relation;
use maimon::{MaimonConfig, MaimonResult, MaimonSession};
use maimon_datasets::{dataset_by_name, running_example};
use std::sync::Arc;
use std::time::Instant;

fn bridges() -> Relation {
    dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8).unwrap()
}

#[test]
fn session_is_static_send_sync_and_clone() {
    fn assert_service_grade<T: Send + Sync + Clone + 'static>() {}
    assert_service_grade::<MaimonSession>();
}

#[test]
fn session_outlives_a_moved_relation_binding() {
    let rel = running_example();
    // The binding is consumed here; only the session keeps the data alive.
    let session = MaimonSession::new(rel, MaimonConfig::default()).unwrap();
    let result = session.quality(0.0).unwrap();
    assert!(!result.schemas.is_empty());
}

#[test]
fn session_outlives_a_dropped_borrowed_relation() {
    let rel = running_example();
    // Compat path: `&Relation` deep-clones once into the session's Arc.
    let session = MaimonSession::new(&rel, MaimonConfig::default()).unwrap();
    drop(rel);
    let result = session.quality(0.0).unwrap();
    assert!(!result.schemas.is_empty());
}

#[test]
fn session_returned_from_a_function_keeps_its_relation() {
    // The shape the registry uses: build inside a scope, return the handle.
    fn build() -> MaimonSession {
        let rel = running_example();
        MaimonSession::new(rel, MaimonConfig::default()).unwrap()
    }
    let session = build();
    assert_eq!(session.relation().n_rows(), 4);
    assert!(!session.quality(0.0).unwrap().schemas.is_empty());
}

#[test]
fn clones_share_oracle_and_artifact_caches() {
    let session = MaimonSession::new(running_example(), MaimonConfig::default()).unwrap();
    let clone = session.clone();

    // Same relation storage, not a copy.
    assert!(Arc::ptr_eq(&session.relation(), &clone.relation()));

    // Mining through the clone fills the shared cache…
    let mined_via_clone = clone.mvds(0.0).unwrap();
    // …and the original hands back the *same* artifact allocation.
    let mined_via_original = session.mvds(0.0).unwrap();
    assert!(Arc::ptr_eq(&mined_via_clone, &mined_via_original));
    assert_eq!(session.cached_epsilons(), vec![0.0]);
}

#[test]
fn concurrent_clones_mine_bit_identically() {
    let config = MaimonConfig::builder().epsilon(0.0).threads(Some(1)).build().unwrap();
    let reference_session = MaimonSession::new(bridges(), config).unwrap();
    let epsilons = [0.0, 0.05, 0.1];
    let reference: Vec<Arc<MaimonResult>> =
        epsilons.iter().map(|&e| reference_session.quality(e).unwrap()).collect();

    // A fresh session shared by worker threads, one epsilon each.
    let shared = MaimonSession::new(bridges(), config).unwrap();
    let mut mined: Vec<(usize, Arc<MaimonResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = epsilons
            .iter()
            .enumerate()
            .map(|(i, &epsilon)| {
                let session = shared.clone();
                scope.spawn(move || (i, session.quality(epsilon).unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    mined.sort_by_key(|(i, _)| *i);

    for ((i, concurrent), expected) in mined.iter().zip(&reference) {
        // Field-by-field, skipping wall-clock stats (elapsed, cumulative
        // oracle counters) — the same idiom as `parallel_equivalence.rs`.
        let label = format!("epsilon {} differs between threaded and direct runs", epsilons[*i]);
        assert_eq!(concurrent.mvds.mvds, expected.mvds.mvds, "{label}");
        assert_eq!(concurrent.mvds.separators, expected.mvds.separators, "{label}");
        assert_eq!(concurrent.schemas, expected.schemas, "{label}");
        assert_eq!(concurrent.pareto, expected.pareto, "{label}");
        assert_eq!(concurrent.truncated, expected.truncated, "{label}");
    }
    // All three thresholds live in the one shared cache.
    assert_eq!(shared.cached_epsilons().len(), epsilons.len());
}

#[test]
fn deadlines_are_per_handle_not_per_dataset() {
    let session = MaimonSession::new(bridges(), MaimonConfig::default()).unwrap();

    // A clone with an already-expired deadline truncates...
    let expired = session.clone().with_deadline(Instant::now());
    let truncated = expired.quality(0.1).unwrap();
    assert!(truncated.truncated, "expired deadline must yield a truncated partial");

    // ...while the sibling handle is unaffected and mines to completion.
    session.clear_artifacts();
    let full = session.quality(0.1).unwrap();
    assert!(!full.truncated, "the un-deadlined sibling must run to completion");
    assert!(!full.schemas.is_empty());
}
