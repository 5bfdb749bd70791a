//! **Figure 11** — all schemes discovered for Nursery, plotted as storage
//! savings S versus spurious-tuple rate E (the paper shows 415 schemes; the
//! pareto-optimal ones are connected by a line). This harness prints the raw
//! (S, E) series so it can be plotted directly, plus the pareto front.
//!
//! The twelve thresholds are swept through one [`MaimonSession`] sharing a
//! single PLI oracle, each under its own deadline, one budget away.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig11_nursery_scatter`
//! Environment: `MAIMON_JSON=1` appends one machine-readable JSON line with
//! the point series.

use bench_support::{emit_json, harness_options, mining_config};
use maimon::json::Json;
use maimon::{pareto_front, MaimonSession};
use maimon_datasets::{nursery_with_rows, NURSERY_ROWS};
use std::time::Instant;

fn main() {
    let options = harness_options();
    let rows = ((NURSERY_ROWS as f64) * (options.scale * 500.0).min(1.0)).round() as usize;
    let rel = nursery_with_rows(rows.max(500));
    println!("# Figure 11 — Nursery: savings vs spurious tuples for every scheme");
    println!("# rows = {}, budget per threshold = {:?}", rel.n_rows(), options.budget);

    let thresholds = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    let session = MaimonSession::new(&rel, mining_config(0.0)).expect("nursery relation is valid");
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &epsilon in &thresholds {
        let result = session
            .clone()
            .with_deadline(Instant::now() + options.budget)
            .quality(epsilon)
            .expect("quality evaluation succeeds");
        for ranked in &result.schemas {
            points.push((ranked.quality.storage_savings_pct, ranked.quality.spurious_tuples_pct));
        }
    }
    // Deduplicate identical points so the scatter stays readable.
    points.sort_by(|a, b| a.partial_cmp(b).unwrap());
    points.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);

    println!("# {} distinct (spurious %, savings %) points", points.len());
    println!("{:>12} {:>12}", "E_spurious%", "S_savings%");
    for &(s, e) in &points {
        println!("{:>12.3} {:>12.3}", e, s);
    }
    let front = pareto_front(&points);
    println!("# pareto front ({} points):", front.len());
    for &i in &front {
        println!("# pareto {:>10.3} {:>10.3}", points[i].1, points[i].0);
    }
    if !bench_support::json_mode() {
        return;
    }
    emit_json(
        "fig11_nursery_scatter",
        Json::object([
            ("rows", Json::from(rel.n_rows())),
            (
                "points",
                Json::array(points.iter().map(|&(s, e)| {
                    Json::object([("savings_pct", Json::from(s)), ("spurious_pct", Json::from(e))])
                })),
            ),
            ("pareto_indices", Json::array(front.iter().map(|&i| Json::from(i)))),
        ]),
    );
}
