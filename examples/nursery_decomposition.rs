//! The Nursery use case of §8.1: sweep the approximation threshold through
//! one [`MaimonSession`], collect all discovered acyclic schemas, and print
//! the pareto front over storage savings (S) versus spurious tuples (E), as
//! in Figures 10 and 11. The sweep shares a single PLI oracle — mining six
//! thresholds costs one oracle construction, not six.
//!
//! Run with: `cargo run --release --example nursery_decomposition [rows]`
//!
//! The optional `rows` argument bounds the number of Nursery tuples (default
//! 3000) so the example finishes quickly; pass 12960 for the full dataset.

use maimon::{pareto_front, MaimonConfig, MaimonSession, MiningLimits};
use maimon_datasets::nursery_with_rows;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows: usize = std::env::args().nth(1).map(|s| s.parse()).transpose()?.unwrap_or(3_000);
    let rel = nursery_with_rows(rows);
    println!(
        "Nursery use case: {} rows, {} columns, {} cells",
        rel.n_rows(),
        rel.arity(),
        rel.cells()
    );

    let config =
        MaimonConfig::builder().limits(MiningLimits::small()).max_schemas(Some(200)).build()?;
    let session = MaimonSession::new(&rel, config)?;

    let mut all_points = Vec::new();
    let mut all_rows = Vec::new();
    for epsilon in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5] {
        // Like the paper, give every threshold a wall-clock limit of its own.
        let deadline = Instant::now() + Duration::from_secs(20);
        let result = session.clone().with_deadline(deadline).quality(epsilon)?;
        println!(
            "ε = {:<5} → {} MVDs, {} schemas{}",
            epsilon,
            result.mvds.mvds.len(),
            result.schemas.len(),
            if result.truncated { " (truncated)" } else { "" }
        );
        for schema in &result.schemas {
            all_points
                .push((schema.quality.storage_savings_pct, schema.quality.spurious_tuples_pct));
            all_rows.push((
                epsilon,
                schema.discovered.j.unwrap_or(f64::NAN),
                schema.quality,
                schema.discovered.schema.display(rel.schema()),
            ));
        }
    }
    let oracle = session.oracle_stats();
    println!(
        "(one shared oracle: {} entropy calls, {} cache hits across the whole sweep)",
        oracle.calls, oracle.cache_hits
    );

    println!("\nPareto-optimal schemas over (savings S, spurious E):");
    println!("{:<6} {:>8} {:>9} {:>9} {:>4}  schema", "ε", "J", "S (%)", "E (%)", "m");
    let front = pareto_front(&all_points);
    for &i in &front {
        let (epsilon, j, quality, ref display) = all_rows[i];
        println!(
            "{:<6} {:>8.3} {:>9.1} {:>9.1} {:>4}  {}",
            epsilon,
            j,
            quality.storage_savings_pct,
            quality.spurious_tuples_pct,
            quality.n_relations,
            display
        );
    }
    println!("\n({} schemas total, {} on the pareto front)", all_points.len(), front.len());
    Ok(())
}
