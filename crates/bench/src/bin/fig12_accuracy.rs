//! **Figure 12** — accuracy: the relationship between the J-measure of a
//! discovered acyclic scheme and its percentage of spurious tuples, shown as
//! per-bucket quantiles on BreastCancer, Bridges, Nursery and Echocardiogram.
//!
//! The harness mines schemes for thresholds in [0, 0.5] through one
//! [`MaimonSession`] per dataset (one shared oracle per dataset instead of
//! one per threshold), buckets them by J-measure and prints the quartiles of
//! the spurious-tuple percentage per bucket (the data behind the paper's box
//! plots), plus the bucket sizes.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig12_accuracy`
//! Environment: `MAIMON_JSON=1` appends one machine-readable JSON line with
//! the per-dataset (J, E) samples.

use bench_support::{emit_json, harness_options, mining_config};
use maimon::json::Json;
use maimon::relation::Relation;
use maimon::MaimonSession;
use maimon_datasets::{dataset_by_name, nursery_with_rows};
use std::time::Instant;

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        sorted[low] + (pos - low as f64) * (sorted[high] - sorted[low])
    }
}

fn dataset(name: &str, options: &bench_support::HarnessOptions) -> Relation {
    if name == "Nursery" {
        let rows = ((12960.0 * (options.scale * 500.0).min(1.0)) as usize).max(500);
        nursery_with_rows(rows)
    } else {
        let rel = dataset_by_name(name).expect("dataset in catalog").generate(1.0);
        if rel.arity() > options.max_columns {
            rel.column_prefix(options.max_columns).expect("cap >= 2")
        } else {
            rel
        }
    }
}

fn main() {
    let options = harness_options();
    println!("# Figure 12 — spurious tuples (%) vs J-measure buckets");
    println!("# budget per threshold = {:?}", options.budget);
    let buckets = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, f64::INFINITY];
    let thresholds = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5];

    let mut json_datasets = Vec::new();
    for name in ["Breast-Cancer", "Bridges", "Nursery", "Echocardiogram"] {
        let rel = dataset(name, &options);
        println!("\n## {} ({} rows × {} cols)", name, rel.n_rows(), rel.arity());
        // One session per dataset; every threshold reuses its oracle.
        let session = match MaimonSession::new(&rel, mining_config(0.0)) {
            Ok(session) => session,
            Err(error) => {
                println!("#   skipped: {}", error);
                continue;
            }
        };
        // Collect (J, spurious %) for every schema discovered at any threshold.
        let mut samples: Vec<(f64, f64)> = Vec::new();
        for &epsilon in &thresholds {
            let deadline = Instant::now() + options.budget;
            let result = match session.clone().with_deadline(deadline).quality(epsilon) {
                Ok(r) => r,
                Err(error) => {
                    println!("#   skipped at ε={}: {}", epsilon, error);
                    continue;
                }
            };
            for ranked in &result.schemas {
                if let Some(j) = ranked.discovered.j {
                    samples.push((j, ranked.quality.spurious_tuples_pct));
                }
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);

        println!(
            "{:>12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "J-bucket", "count", "min", "q25", "median", "q75", "max"
        );
        let mut previous_median = 0.0f64;
        let mut monotone = true;
        for window in buckets.windows(2) {
            let (low, high) = (window[0], window[1]);
            let mut values: Vec<f64> =
                samples.iter().filter(|&&(j, _)| j >= low && j < high).map(|&(_, e)| e).collect();
            if values.is_empty() {
                continue;
            }
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = quantile(&values, 0.5);
            if median + 1e-9 < previous_median {
                monotone = false;
            }
            previous_median = previous_median.max(median);
            let label = if high.is_infinite() {
                format!(">{:.2}", low)
            } else {
                format!("{:.2}-{:.2}", low, high)
            };
            println!(
                "{:>12} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                label,
                values.len(),
                values[0],
                quantile(&values, 0.25),
                median,
                quantile(&values, 0.75),
                values[values.len() - 1]
            );
        }
        println!(
            "#   median spurious rate is {} in J (paper reports a consistent monotone relationship)",
            if monotone { "monotone non-decreasing" } else { "NOT monotone on this scaled run" }
        );
        if !bench_support::json_mode() {
            continue;
        }
        json_datasets.push(Json::object([
            ("dataset", Json::from(name)),
            ("monotone_median", Json::from(monotone)),
            (
                "samples",
                Json::array(samples.iter().map(|&(j, e)| {
                    Json::object([("j", Json::from(j)), ("spurious_pct", Json::from(e))])
                })),
            ),
        ]));
    }
    emit_json("fig12_accuracy", Json::array(json_datasets));
}
