//! **Figure 10** — the Nursery use case: the pareto-optimal schemes
//! discovered while sweeping the threshold from 0 to 0.5, each reported with
//! its J-measure, storage savings S, spurious-tuple rate E and number of
//! relations m (the paper shows ten pareto-optimal schemes out of 415).
//!
//! The sweep runs through one [`MaimonSession`]: a single shared PLI oracle
//! serves all ten thresholds instead of being rebuilt per ε. Each threshold
//! gets its own deadline, one budget away.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig10_nursery_pareto`
//! Environment: `MAIMON_SCALE` scales the number of Nursery rows (1.0 = the
//! full 12 960-tuple Cartesian product); `MAIMON_JSON=1` appends one
//! machine-readable JSON line with every pareto row.

use bench_support::{emit_json, harness_options, mining_config};
use maimon::json::Json;
use maimon::wire::ToJson;
use maimon::{pareto_front, MaimonSession, SweepPoint};
use maimon_datasets::{nursery_with_rows, NURSERY_ROWS};
use std::time::Instant;

fn main() {
    let options = harness_options();
    let rows = ((NURSERY_ROWS as f64) * (options.scale * 500.0).min(1.0)).round() as usize;
    let rel = nursery_with_rows(rows.max(500));
    println!("# Figure 10 — Nursery pareto-optimal schemes");
    println!(
        "# rows = {} (of {}), budget per threshold = {:?}",
        rel.n_rows(),
        NURSERY_ROWS,
        options.budget
    );

    let thresholds = [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5];
    let session = MaimonSession::new(&rel, mining_config(0.0)).expect("nursery relation is valid");
    let sweep: Vec<SweepPoint> = thresholds
        .iter()
        .map(|&epsilon| {
            let result = session
                .clone()
                .with_deadline(Instant::now() + options.budget)
                .quality(epsilon)
                .expect("quality evaluation succeeds on acyclic schemas");
            SweepPoint { epsilon, result }
        })
        .collect();

    // (point index, schema index) back-references let the JSON emission
    // serialize only the pareto-front rows, and only when MAIMON_JSON is on.
    type Row = (f64, f64, f64, f64, usize, String, (usize, usize));
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut rows_out: Vec<Row> = Vec::new();
    for (pi, point) in sweep.iter().enumerate() {
        for (si, ranked) in point.result.schemas.iter().enumerate() {
            let j = ranked.discovered.j.unwrap_or(f64::NAN);
            points.push((ranked.quality.storage_savings_pct, ranked.quality.spurious_tuples_pct));
            rows_out.push((
                point.epsilon,
                j,
                ranked.quality.storage_savings_pct,
                ranked.quality.spurious_tuples_pct,
                ranked.quality.n_relations,
                ranked.discovered.schema.display(rel.schema()),
                (pi, si),
            ));
        }
    }

    println!("# total schemes discovered across thresholds: {}", rows_out.len());
    println!("{:<6} {:>8} {:>8} {:>8} {:>4}  schema", "eps", "J", "S(%)", "E(%)", "m");
    let mut front = pareto_front(&points);
    front.sort_by(|&a, &b| rows_out[a].1.partial_cmp(&rows_out[b].1).unwrap());
    for &i in &front {
        let (eps, j, s, e, m, ref schema, _) = rows_out[i];
        println!("{:<6} {:>8.3} {:>8.1} {:>8.2} {:>4}  {}", eps, j, s, e, m, schema);
    }
    println!(
        "# ({} pareto-optimal schemes; the paper reports 10 of 415 at full scale)",
        front.len()
    );
    if bench_support::json_mode() {
        emit_json(
            "fig10_nursery_pareto",
            Json::object([
                ("rows", Json::from(rel.n_rows())),
                ("schemes_total", Json::from(rows_out.len())),
                (
                    "pareto",
                    Json::array(front.iter().map(|&i| {
                        let (pi, si) = rows_out[i].6;
                        Json::object([
                            ("epsilon", Json::from(rows_out[i].0)),
                            ("ranked", sweep[pi].result.schemas[si].to_json()),
                        ])
                    })),
                ),
            ]),
        );
    }
}
