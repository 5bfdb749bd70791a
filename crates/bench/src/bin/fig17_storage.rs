//! **Figure 17 / §8.1** — storage savings of the decomposed store.
//!
//! For the Fig. 1 running example, Nursery and every Table 2 catalog dataset,
//! mine schemas at ε = 0.1 through a [`MaimonSession`], pick the best storage
//! saver, **materialize the decomposed store**, and report the exact cell
//! accounting: original cells, store cells, savings S, reconstruction
//! cardinality and spurious rate E. Every row is produced through
//! `evaluate_schema_checked`, so the numbers printed here are guaranteed to
//! agree between the counting-based quality metrics and the store's own
//! tables.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig17_storage`
//! Environment: `MAIMON_SCALE`, `MAIMON_BUDGET_SECS`, `MAIMON_MAX_COLS`
//! (see `crates/bench/src/lib.rs`); `MAIMON_JSON=1` appends one
//! machine-readable JSON line with every row's checked quality report.

use bench_support::{emit_json, harness_options, mining_config, secs};
use maimon::json::Json;
use maimon::relation::Relation;
use maimon::wire::ToJson;
use maimon::{evaluate_schema_checked, AcyclicSchema, MaimonSession};
use maimon_datasets::{
    metanome_catalog, nursery_with_rows, running_example_with_red_tuple, NURSERY_ROWS,
};
use std::time::Instant;

fn report(name: &str, rel: &Relation, epsilon: f64) -> Option<Json> {
    let options = harness_options();
    let started = Instant::now();
    let result = match MaimonSession::new(rel, mining_config(epsilon))
        .and_then(|s| s.with_deadline(started + options.budget).quality(epsilon))
    {
        Ok(r) => r,
        Err(e) => {
            println!("{:<22} mining failed: {}", name, e);
            return None;
        }
    };
    // Best saver among the discovered schemas; the trivial schema (S = 0)
    // anchors the row when nothing saves storage.
    let schema: AcyclicSchema = result
        .schemas
        .iter()
        .max_by(|a, b| {
            a.quality.storage_savings_pct.partial_cmp(&b.quality.storage_savings_pct).unwrap()
        })
        .map(|s| s.discovered.schema.clone())
        .unwrap_or_else(|| {
            AcyclicSchema::trivial(rel.schema().all_attrs()).expect("non-empty signature")
        });
    let quality = match evaluate_schema_checked(rel, &schema) {
        Ok(q) => q,
        Err(e) => {
            println!("{:<22} store cross-check failed: {}", name, e);
            return None;
        }
    };
    println!(
        "{:<22} {:>5} {:>4} {:>2} {:>12} {:>12} {:>7.1} {:>12} {:>9.1} {:>8}",
        name,
        rel.n_rows(),
        rel.arity(),
        quality.n_relations,
        quality.original_cells,
        quality.decomposed_cells,
        quality.storage_savings_pct,
        quality.join_size,
        quality.spurious_tuples_pct,
        secs(started.elapsed()),
    );
    if !bench_support::json_mode() {
        return None;
    }
    Some(Json::object([
        ("dataset", Json::from(name)),
        ("rows", Json::from(rel.n_rows())),
        ("cols", Json::from(rel.arity())),
        ("schema", schema.to_json()),
        ("quality", quality.to_json()),
    ]))
}

fn main() {
    let options = harness_options();
    println!("# Figure 17 / §8.1 — storage savings of the decomposed store (ε = 0.1)");
    println!(
        "# scale = {}, budget per dataset = {:?}, max columns = {}",
        options.scale, options.budget, options.max_columns
    );
    println!(
        "{:<22} {:>5} {:>4} {:>2} {:>12} {:>12} {:>7} {:>12} {:>9} {:>8}",
        "dataset",
        "rows",
        "cols",
        "m",
        "orig_cells",
        "store_cells",
        "S(%)",
        "join_size",
        "E(%)",
        "time_s"
    );

    let mut json_rows = Vec::new();
    let running = running_example_with_red_tuple();
    json_rows.extend(report("Fig. 1 (red tuple)", &running, 0.1));

    let nursery_rows = ((NURSERY_ROWS as f64 * (options.scale * 500.0).min(1.0)) as usize).max(500);
    let nursery = nursery_with_rows(nursery_rows);
    json_rows.extend(report("Nursery", &nursery, 0.1));

    for spec in metanome_catalog() {
        let rel = spec.generate(options.scale);
        let rel = if rel.arity() > options.max_columns {
            rel.column_prefix(options.max_columns).expect("max_columns >= 2")
        } else {
            rel
        };
        json_rows.extend(report(spec.name, &rel, 0.1));
    }
    emit_json("fig17_storage", Json::array(json_rows));
}
