//! **Figure 15** — quality of the approximate schemas: per threshold ε, the
//! number of schemes enumerated within the time budget, the maximum number of
//! relations, the minimum width and the minimum intersection width, on eight
//! datasets (Image, Abalone, Adult, BreastCancer, Bridges, Echocardiogram,
//! FD_Reduced_15, Hepatitis).
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig15_quality`
//!
//! Each dataset opens one [`MaimonSession`] and sweeps the six thresholds
//! over its shared oracle. `MAIMON_JSON=1` appends one machine-readable JSON
//! line with every table row.

use bench_support::{emit_json, harness_options, mining_config};
use maimon::json::Json;
use maimon::MaimonSession;
use maimon_datasets::dataset_by_name;
use std::time::Instant;

const DATASETS: [&str; 8] = [
    "Image",
    "Abalone",
    "Adult",
    "Breast-Cancer",
    "Bridges",
    "Echocardiogram",
    "FD_Reduced_15",
    "Hepatitis",
];

fn main() {
    let options = harness_options();
    println!("# Figure 15 — schema quality vs threshold");
    println!(
        "# scale = {}, per-threshold budget = {:?} (paper: 30 min), column cap = {}",
        options.scale, options.budget, options.max_columns
    );
    let thresholds = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];

    let mut json_rows = Vec::new();
    for name in DATASETS {
        let spec = dataset_by_name(name).expect("dataset in catalog");
        let rel = {
            let full = spec.generate(options.scale.max(0.05));
            if full.arity() > options.max_columns {
                full.column_prefix(options.max_columns).expect("cap >= 2")
            } else {
                full
            }
        };
        println!("\n## {} ({} rows × {} cols at this scale)", name, rel.n_rows(), rel.arity());
        println!(
            "{:>8} {:>10} {:>12} {:>10} {:>10}",
            "eps", "#schemes", "#relations", "width", "intWidth"
        );
        let session = match MaimonSession::new(&rel, mining_config(0.0)) {
            Ok(session) => session,
            Err(error) => {
                println!("{:>8} skipped: {}", "-", error);
                continue;
            }
        };
        let mut last_relations = 0usize;
        for &epsilon in &thresholds {
            let deadline = Instant::now() + options.budget;
            let result = match session.clone().with_deadline(deadline).quality(epsilon) {
                Ok(r) => r,
                Err(error) => {
                    println!("{:>8} skipped: {}", epsilon, error);
                    continue;
                }
            };
            let max_relations =
                result.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1);
            let min_width = result
                .schemas
                .iter()
                .map(|s| s.discovered.schema.width())
                .min()
                .unwrap_or(rel.arity());
            let min_int_width = result
                .schemas
                .iter()
                .map(|s| s.discovered.schema.intersection_width())
                .min()
                .unwrap_or(0);
            println!(
                "{:>8} {:>10} {:>12} {:>10} {:>10}",
                epsilon,
                result.schemas.len(),
                max_relations,
                min_width,
                min_int_width
            );
            if bench_support::json_mode() {
                json_rows.push(Json::object([
                    ("dataset", Json::from(name)),
                    ("epsilon", Json::from(epsilon)),
                    ("schemes", Json::from(result.schemas.len())),
                    ("max_relations", Json::from(max_relations)),
                    ("min_width", Json::from(min_width)),
                    ("min_intersection_width", Json::from(min_int_width)),
                    ("truncated", Json::from(result.truncated)),
                ]));
            }
            last_relations = last_relations.max(max_relations);
        }
        println!(
            "#   expected shape: #relations grows and width shrinks as ε increases (best #relations here: {})",
            last_relations
        );
    }
    emit_json("fig15_quality", Json::array(json_rows));
}
